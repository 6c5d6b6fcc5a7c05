import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from onsagergeo import (
    DetailedBalanceViolation,
    DisconnectedGraph,
    EdgeField,
    build_reversible_chain,
    chain_from_rates,
    div_omega,
    grad_matrix,
    grad_omega,
    laplacian_omega,
    lattice3_chain,
    preset_chain,
    triangle_reaction_chain,
)
from onsagergeo.acceptance import random_reversible_chain
from onsagergeo.chains import edge_difference, edge_matrix, end_sum, incidence, null_space


def test_triangle_reaction_stationary_state():
    chain = triangle_reaction_chain()
    assert_allclose(chain.pi, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)
    assert_allclose(chain.omega * 7, [[0, 4, 4], [4, 0, 2], [4, 2, 0]], atol=1e-12)
    assert chain.edges == ((0, 1), (0, 2), (1, 2))
    assert chain.neighbors[0] == frozenset({1, 2})


def test_symmetric_rates_give_uniform_pi():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        A = rng.uniform(0.5, 2.0, size=(n, n))
        chain = build_reversible_chain(0.5 * (A + A.T))
        assert_allclose(chain.pi, np.full(n, 1.0 / n), atol=1e-12)


def test_flow_matrix_generates_master_equation():
    chain = triangle_reaction_chain()
    A = chain.flow_matrix()
    assert_allclose(A.sum(axis=0), 0.0, atol=1e-14)
    assert_allclose(A @ chain.pi, 0.0, atol=1e-14)


def test_diagonal_entries_are_ignored():
    chain = build_reversible_chain(np.array([[9.0, 1.0], [1.0, -3.0]]))
    assert_allclose(chain.pi, [0.5, 0.5])
    assert chain.Q[0, 0] == 0.0


def test_kolmogorov_violation_rejected():
    # cycle products disagree: 1*1*1 forward vs 2*2*2 backward
    Q = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    with pytest.raises(DetailedBalanceViolation):
        build_reversible_chain(Q)


def test_disconnected_graph_rejected():
    Q = np.zeros((4, 4))
    Q[0, 1] = Q[1, 0] = 1.0
    Q[2, 3] = Q[3, 2] = 1.0
    with pytest.raises(DisconnectedGraph):
        build_reversible_chain(Q)


def test_invalid_rate_matrices():
    with pytest.raises(ValueError):
        build_reversible_chain(np.ones((2, 3)))
    with pytest.raises(ValueError):
        build_reversible_chain(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        build_reversible_chain(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_chain_from_rates_matches_builtin():
    rates = [(1, 2, 1), (1, 3, 1), (2, 1, 2), (2, 3, 1), (3, 1, 4), (3, 2, 2)]
    chain = chain_from_rates(3, rates)
    ref = triangle_reaction_chain()
    assert_allclose(chain.Q, ref.Q)
    assert_allclose(chain.pi, ref.pi)


@pytest.mark.parametrize("entry", [(0, 2, 1.0), (1, 1, 1.0), (1, 5, 1.0),
                                   (1.7, 2, 1.0), (True, 2, 1.0), (1, np.float64(2.5), 1.0),
                                   (1, "2", 1.0)])
def test_chain_from_rates_rejects_bad_indices(entry):
    with pytest.raises(ValueError, match="1-based"):
        chain_from_rates(3, [entry])


def test_chain_from_rates_rejects_repeated_pairs():
    with pytest.raises(ValueError, match=r"bad rate entry \(1, 2\): the pair is given twice"):
        chain_from_rates(3, [(1, 2, 1.0), (2, 1, 1.0), (1, 2, 5.0)])
    # integral floats and numpy integers are indices, and (j, i) is another pair
    chain = chain_from_rates(2, [(1.0, np.int64(2), 1.0), (2, 1, 1.0)])
    assert chain.Q.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_presets():
    assert preset_chain("lattice3").n == 3
    assert preset_chain("triangle-reaction").n == 3
    with pytest.raises(ValueError, match="unknown preset"):
        preset_chain("ring17")


def test_gradient_of_constant_vanishes():
    chain = lattice3_chain()
    g = grad_omega(chain, np.full(3, 0.7))
    assert_allclose(g.values, 0.0, atol=1e-14)


def test_gradient_two_state_unit_weight():
    chain = build_reversible_chain(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert chain.omega[0, 1] == pytest.approx(1.0)
    g = grad_omega(chain, np.array([0.0, 1.0]))
    assert g[0, 1] == pytest.approx(1.0)
    assert g[1, 0] == pytest.approx(-1.0)


def test_gradient_on_the_path():
    chain = lattice3_chain()
    g = grad_omega(chain, np.array([0.0, 2.0, 3.0]))
    assert g[0, 1] == pytest.approx(2.0)
    assert g[1, 2] == pytest.approx(1.0)
    assert g[0, 2] == 0.0  # 1-3 is not an edge of the path


def test_divergence_of_gradient():
    chain = lattice3_chain()
    phi = np.array([0.0, 2.0, 3.0])
    assert_allclose(div_omega(chain, grad_omega(chain, phi)), [2, -1, -1], atol=1e-12)
    assert_allclose(laplacian_omega(chain, phi), [2, -1, -1], atol=1e-12)


def test_divergence_is_adjoint_to_gradient():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        chain = random_reversible_chain(rng, n)
        phi = rng.normal(size=n)
        raw = rng.normal(size=(n, n))
        v = EdgeField(chain, raw - raw.T)
        lhs = float(phi @ div_omega(chain, v))
        rhs = -0.5 * float(np.sum(grad_matrix(chain, phi) * v.values))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_laplacian_quadratic_form_nonpositive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        chain = random_reversible_chain(rng, n)
        phi = rng.normal(size=n)
        assert float(phi @ laplacian_omega(chain, phi)) <= 1e-12


def test_edge_field_must_be_antisymmetric():
    chain = lattice3_chain()
    with pytest.raises(ValueError, match="antisymmetric"):
        EdgeField(chain, np.ones((3, 3)))


def test_edge_field_masks_non_edges():
    chain = lattice3_chain()
    raw = np.array([[0.0, 1.0, 5.0], [-1.0, 0.0, 2.0], [-5.0, -2.0, 0.0]])
    v = EdgeField(chain, raw)
    assert v[0, 2] == 0.0
    assert v[1, 0] == -1.0
    assert v[1, 2] == 2.0


def test_edge_arrays_match_the_pair_loops():
    rng = np.random.default_rng(31)
    for n, prob in ((3, 0.5), (7, 0.3), (12, 1.0), (40, 0.05)):
        chain = random_reversible_chain(rng, n, extra_edge_prob=prob)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if chain.omega[i, j] > 0]
        assert chain.edges == tuple(pairs)
        assert all(isinstance(i, int) for edge in chain.edges for i in edge)
        assert chain.neighbors == tuple(
            frozenset(j for j in range(n) if chain.omega[v, j] > 0) for v in range(n))
        i, j = chain.edge_ends
        assert list(zip(i.tolist(), j.tolist())) == pairs
        assert np.array_equal(chain.edge_omega, chain.omega[i, j])
        phi = rng.normal(size=(2, n))
        assert np.array_equal(edge_difference(chain, phi), phi[:, i] - phi[:, j])
        # B x against the incidence matrix, and the sums over edge ends
        B = np.zeros((n, len(pairs)))
        B[i, np.arange(len(pairs))] = 1.0
        B[j, np.arange(len(pairs))] = -1.0
        x = rng.normal(size=(2, len(pairs)))
        assert_allclose(incidence(chain, x), x @ B.T, rtol=0, atol=1e-13)
        ends = rng.normal(size=(2, 2, len(pairs)))
        want = ends[:, 0] @ (B > 0).T + ends[:, 1] @ (B < 0).T
        assert_allclose(end_sum(chain, ends), want, rtol=0, atol=1e-13)
        # the two ends land at (i, j) and (j, i); per-edge values fill both
        M = edge_matrix(chain, ends)
        assert np.array_equal(M[:, i, j], ends[:, 0]) and np.array_equal(M[:, j, i], ends[:, 1])
        assert (M[:, ~chain.edge_mask] == 0.0).all()
        sym = edge_matrix(chain, x[0][None])
        assert np.array_equal(sym, sym.T) and np.array_equal(sym[i, j], x[0])


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_non_finite_rates_rejected(rate):
    Q = triangle_reaction_chain().Q.copy()
    Q[1, 2] = rate
    with pytest.raises(ValueError, match=rf"rates must be finite: Q\[1, 2\] = {rate}"):
        build_reversible_chain(Q)


def _null_space_cases():
    rng = np.random.default_rng(13)
    cases = [np.ones((1, n)) for n in range(2, 13)]
    for n in range(2, 13):
        Q = random_reversible_chain(rng, n).Q
        cases.append(Q.T - np.diag(Q.sum(axis=1)))
    # kernels of dimension above one, and none at all
    cases += [rng.normal(size=shape) for shape in [(1, 3), (2, 5), (3, 7), (4, 4), (6, 3)]]
    return cases


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_null_space_rejects_non_finite_entries(bad):
    # scipy's error, raised before the SVD, which need not return on such a
    # matrix (a generator whose diagonal sums finite rates to -inf)
    A = np.array([[bad, 1.0], [1.0, -1.0]])
    for solve in (scipy.linalg.null_space, null_space):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            solve(A)


def test_null_space_matches_scipy_bit_for_bit():
    for A in _null_space_cases():
        want = scipy.linalg.null_space(A)
        got = null_space(A)
        assert got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
