"""Response matrices, their pseudo-inverses, frames, lengths, distances."""

import re

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from onsagergeo import (
    AlphaMean,
    CustomMean,
    GeometricMean,
    KLLogMean,
    NearSingular,
    arc_length,
    deflated_solve,
    distance,
    eigensystem,
    frame_potentials,
    geodesic_ivp,
    inner_product,
    lattice3_chain,
    mean_zero,
    orthonormal_frame,
    pseudo_inverse,
    response_at,
    response_matrix,
    triangle_reaction_chain,
)
from onsagergeo import connection
from onsagergeo.acceptance import (
    _scaled_potential,
    random_interior_point,
    random_potential,
    random_reversible_chain,
)
from onsagergeo.connection import PointGeometry
from onsagergeo.metric import curve_velocity, metric_action
from oracles import inner_product_edges

LATTICE = lattice3_chain()
KL = KLLogMean()


def _random_setup(rng, n=None):
    n = n or int(rng.integers(3, 7))
    chain = random_reversible_chain(rng, n)
    p = random_interior_point(rng, n)
    return chain, p, KL.theta_matrix(chain, p)


def test_unit_mobility_response_matrix_on_the_path():
    t = np.where(LATTICE.edge_mask, 1.0, 0.0)
    assert_allclose(response_matrix(LATTICE, t),
                    [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def test_response_matrix_is_a_weighted_laplacian():
    rng = np.random.default_rng(0)
    for _ in range(50):
        chain, p, t = _random_setup(rng)
        L = response_matrix(chain, t)
        assert_allclose(L, L.T, atol=1e-14 * (1 + abs(L).max()))
        assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
        phi = random_potential(rng, chain.n)
        quad = 0.5 * sum(chain.omega[i, j] * t[i, j] * (phi[i] - phi[j]) ** 2
                         for i in range(chain.n) for j in range(chain.n))
        assert float(phi @ L @ phi) == pytest.approx(quad, rel=1e-12)
        assert phi @ L @ phi >= 0.0


STACK_MODELS = [KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0),
                GeometricMean(0.5), GeometricMean(1.0, c=9.0, convention="scaled"),
                CustomMean(lambda chain, p: np.sqrt(np.outer(p, p)))]
STACK_IDS = ["kl", "alpha-1", "alpha0", "alpha2", "geometric", "geometric-scaled",
             "custom"]


@pytest.mark.parametrize("model", STACK_MODELS, ids=STACK_IDS)
def test_response_at_on_a_stack_matches_row_by_row(model):
    rng = np.random.default_rng(29)
    chain = random_reversible_chain(rng, 5)
    P = np.array([random_interior_point(rng, 5) for _ in range(4)])
    L = response_at(chain, model, P)
    assert L.shape == (4, 5, 5)
    for k, p in enumerate(P):
        want = response_at(chain, model, p)
        assert want.shape == (5, 5)
        assert_allclose(L[k], want, rtol=0, atol=1e-15 * max(1.0, abs(want).max()))


def test_pseudo_inverse_axioms():
    rng = np.random.default_rng(5)
    for _ in range(30):
        chain, p, t = _random_setup(rng)
        L = response_matrix(chain, t)
        R = pseudo_inverse(L)
        scale = abs(L).max()
        assert_allclose(L @ R @ L, L, atol=1e-10 * scale)
        assert_allclose(R @ L @ R, R, atol=1e-10 * abs(R).max())
        assert_allclose(R @ np.ones(chain.n), 0.0, atol=1e-10)
        assert_allclose(L @ R, (L @ R).T, atol=1e-10)
        # round trip recovers the mean-zero part of the potential
        phi = random_potential(rng, chain.n) + rng.normal()
        assert_allclose(R @ (L @ phi), mean_zero(phi), atol=1e-9 * (1 + abs(phi).max()))


def test_deflated_solve_matches_pseudo_inverse():
    rng = np.random.default_rng(7)
    for _ in range(30):
        chain, p, t = _random_setup(rng)
        L = response_matrix(chain, t)
        rhs = mean_zero(rng.normal(size=chain.n))
        assert_allclose(deflated_solve(L, rhs), pseudo_inverse(L) @ rhs,
                        atol=1e-10 * (1 + abs(rhs).max()))


def test_inner_product_routes_agree():
    rng = np.random.default_rng(12)
    for _ in range(50):
        chain, p, t = _random_setup(rng)
        phi1 = random_potential(rng, chain.n)
        phi2 = random_potential(rng, chain.n)
        a = inner_product(chain, t, phi1, phi2)
        b = inner_product_edges(chain, t, phi1, phi2)
        assert a == pytest.approx(b, abs=1e-12 * (1 + abs(a)))


def test_inner_product_definite_on_nonconstant_potentials():
    rng = np.random.default_rng(13)
    chain, p, t = _random_setup(rng, n=4)
    phi = random_potential(rng, 4)
    assert inner_product(chain, t, phi, phi) > 0.0
    const = np.full(4, 2.5)
    assert abs(inner_product(chain, t, const, const)) < 1e-12


def test_eigensystem():
    t = KL.theta_matrix(LATTICE, np.array([0.5, 0.3, 0.2]))
    L = response_matrix(LATTICE, t)
    lam, U = eigensystem(L)
    assert lam.shape == (2,) and U.shape == (3, 2)
    assert (lam > 0).all()
    assert (np.diff(lam) >= 0).all()
    assert_allclose(U.T @ U, np.eye(2), atol=1e-12)
    assert_allclose((U * lam) @ U.T, L, atol=1e-12 * lam.max())


def test_near_singular_detection():
    zero = np.zeros((3, 3))
    with pytest.raises(NearSingular, match="no positive eigenvalue"):
        pseudo_inverse(response_matrix(LATTICE, zero))

    cut = np.where(LATTICE.edge_mask, 1.0, 0.0)
    cut[0, 1] = cut[1, 0] = 0.0  # disconnects state 0
    with pytest.raises(NearSingular, match="kernel dimension 2"):
        pseudo_inverse(response_matrix(LATTICE, cut))


def test_near_singular_names_the_eigenvalue_ratio():
    # a nearly cut edge: the second eigenvalue falls below the kernel cutoff
    weak = np.where(LATTICE.edge_mask, 1.0, 0.0)
    weak[0, 1] = weak[1, 0] = 1e-14
    with pytest.raises(NearSingular, match="kernel dimension 2") as info:
        eigensystem(response_matrix(LATTICE, weak))
    # the eigenvalues are 0, about 1.5e-14 and about 2
    ratio = float(re.search(r"lambda_1 / lambda_max = (\S+) ", str(info.value))[1])
    assert ratio == pytest.approx(7.5e-15, rel=0.05)


def test_eigensystem_failure_is_near_singular():
    with pytest.raises(NearSingular, match="eigensystem failed"):
        pseudo_inverse(np.full((3, 3), np.nan))


def test_orthonormal_frame_properties():
    rng = np.random.default_rng(23)
    for _ in range(20):
        chain, p, t = _random_setup(rng)
        L = response_matrix(chain, t)
        E = orthonormal_frame(L)
        P = frame_potentials(L)
        n = chain.n
        assert E.shape == (n - 1, n) and P.shape == (n - 1, n)
        assert_allclose(E.sum(axis=1), 0.0, atol=1e-10)
        R = pseudo_inverse(L)
        assert_allclose(E @ R @ E.T, np.eye(n - 1), atol=1e-10)
        assert_allclose(P @ L @ P.T, np.eye(n - 1), atol=1e-10)
        assert_allclose(L @ P.T, E.T, atol=1e-10 * (1 + abs(E).max()))
        # completeness: the frame reconstructs any mean-zero tangent vector
        v = mean_zero(rng.normal(size=n))
        assert_allclose(E.T @ (P @ v), v, atol=1e-10 * (1 + abs(v).max()))
        assert_allclose(P.T @ P, R, atol=1e-10 * (1 + abs(R).max()))


def test_curve_velocity_exact_for_linear_curves():
    times = np.linspace(0.0, 2.0, 9)
    v = np.array([0.3, -0.1, -0.2])
    states = np.full(3, 1 / 3) + np.outer(times, v)
    assert_allclose(curve_velocity(times, states), np.tile(v, (9, 1)), atol=1e-14)


def test_arc_length_edge_cases():
    p = np.array([0.5, 0.3, 0.2])
    assert arc_length(LATTICE, KL, np.array([0.0]), p[None, :]) == 0.0
    const = np.tile(p, (11, 1))
    assert arc_length(LATTICE, KL, np.linspace(0, 1, 11), const) == pytest.approx(
        0.0, abs=1e-14)
    with pytest.raises(ValueError, match="strictly increasing"):
        arc_length(LATTICE, KL, np.array([0.0, 0.5, 0.5]), const[:3])
    with pytest.raises(ValueError, match=r"states must have shape \(10, 3\)"):
        arc_length(LATTICE, KL, np.linspace(0, 1, 10), const)


def test_geodesic_arc_length_is_speed_times_duration():
    rng = np.random.default_rng(41)
    u = np.full(3, 1.0 / 3.0)
    phi0 = _scaled_potential(LATTICE, KL, u, rng.normal(size=3), speed=0.05)
    rec = geodesic_ivp(LATTICE, KL, u, phi0, 1.0, 1e-3)
    length = arc_length(LATTICE, KL, rec.times, rec.states)
    assert length == pytest.approx(0.05, abs=1e-8)

    # reparametrizing the same curve leaves the length alone
    tau = np.linspace(0.0, 1.0, 401)
    warped = np.column_stack([np.interp(tau**2, rec.times, rec.states[:, k])
                              for k in range(3)])
    assert arc_length(LATTICE, KL, tau, warped) == pytest.approx(length, abs=1e-4)


def test_distance_zero_and_symmetry():
    a = np.full(3, 1.0 / 3.0)
    b = np.array([0.5, 0.3, 0.2])
    assert distance(LATTICE, KL, a, a) == 0.0
    d_ab = distance(LATTICE, KL, a, b)
    d_ba = distance(LATTICE, KL, b, a)
    assert d_ab == pytest.approx(0.21353544999371732, rel=1e-6)
    assert abs(d_ab - d_ba) < 1e-5


def test_distance_between_close_points_is_the_metric_length():
    # 2e-6 apart is within numpy's default rtol of allclose, but not equal:
    # the distance is the metric length of v = p1 - p0 to first order
    chain = triangle_reaction_chain()
    p0 = np.array([0.5, 0.3, 0.2])
    v = np.array([2e-6, -2e-6, 0.0])
    length = np.sqrt(v @ pseudo_inverse(response_at(chain, KL, p0)) @ v)
    assert distance(chain, KL, p0, p0 + v) == pytest.approx(length, rel=1e-3)


def test_distance_triangle_inequality():
    a = np.full(3, 1.0 / 3.0)
    b = np.array([0.5, 0.3, 0.2])
    c = np.array([0.25, 0.45, 0.3])
    d_ab = distance(LATTICE, KL, a, b)
    d_bc = distance(LATTICE, KL, b, c)
    d_ac = distance(LATTICE, KL, a, c)
    assert d_bc == pytest.approx(0.25778908154919833, rel=1e-6)
    assert d_ac == pytest.approx(0.08883635244259772, rel=1e-6)
    assert d_ab <= d_ac + d_bc + 1e-5
    assert d_bc <= d_ab + d_ac + 1e-5
    assert d_ac <= d_ab + d_bc + 1e-5


def test_stacked_eigensystem_and_pseudo_inverse_match_each_matrix():
    rng = np.random.default_rng(24)
    points = np.array([random_interior_point(rng, 3) for _ in range(6)])
    L = response_at(LATTICE, KL, points)
    lam, U = eigensystem(L)
    R = pseudo_inverse(L)
    assert lam.shape == (6, 2) and U.shape == (6, 3, 2) and R.shape == (6, 3, 3)
    for k in range(6):
        lam_k, U_k = eigensystem(L[k])
        assert_allclose(lam[k], lam_k, rtol=1e-14)
        assert_allclose(np.abs(U[k]), np.abs(U_k), atol=1e-14)
        assert_allclose(R[k], pseudo_inverse(L[k]), atol=1e-14 * np.abs(R[k]).max())


def test_stacked_eigensystem_names_the_failing_row():
    stack = np.repeat(response_matrix(LATTICE, np.where(LATTICE.edge_mask, 1.0, 0.0))[None],
                      4, axis=0)
    weak = np.where(LATTICE.edge_mask, 1.0, 0.0)
    weak[0, 1] = weak[1, 0] = 1e-14
    stack[2] = response_matrix(LATTICE, weak)
    with pytest.raises(NearSingular, match="at stack row 2 has kernel dimension 2") as info:
        eigensystem(stack)
    assert info.value.row == 2
    ratio = float(re.search(r"lambda_1 / lambda_max = (\S+) ", str(info.value))[1])
    assert ratio == pytest.approx(7.5e-15, rel=0.05)

    stack[1] = 0.0
    with pytest.raises(NearSingular, match="at stack row 1 has no positive eigenvalue"):
        pseudo_inverse(stack)


def test_bundle_metric_error_names_min_p():
    cut = np.array([0.2, 0.5, 0.3])

    def theta(chain, p):
        # edge (1, 2) vanishes at `cut`, leaving a two-dimensional kernel
        t = np.ones((3, 3))
        if np.array_equal(p, cut):
            t[0, 1] = t[1, 0] = 0.0
        return t

    points = np.array([[0.4, 0.3, 0.3], cut, [0.1, 0.6, 0.3]])
    geo = PointGeometry(LATTICE, CustomMean(theta), points)
    with pytest.raises(NearSingular, match=r"stack row 1 has kernel dimension 2") as info:
        geo.R
    assert str(info.value).endswith("min p 2.000e-01")
    assert info.value.row == 1
    with pytest.raises(NearSingular, match=r"kernel dimension 2.*; min p 2.000e-01$"):
        PointGeometry(LATTICE, CustomMean(theta), cut).R


def _per_state_metric(chain, model, states):
    return [pseudo_inverse(response_at(chain, model, p)) for p in states]


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_metric_action_matches_the_per_state_loop(monkeypatch, rows_per_block):
    rng = np.random.default_rng(25)
    chain = random_reversible_chain(rng, 5)
    if rows_per_block is not None:
        monkeypatch.setattr(connection, "JACOBIAN_BLOCK", rows_per_block * 25)
    times = np.linspace(0.0, 1.0, 11)
    p0 = random_interior_point(rng, 5, floor=0.05)
    states = p0 + 0.02 * np.outer(np.sin(3 * times), mean_zero(rng.normal(size=5)))
    vel = curve_velocity(times, states)
    for model in (KL, AlphaMean(2.0), GeometricMean(0.7)):
        metrics = _per_state_metric(chain, model, states)
        want = np.array([R @ v for R, v in zip(metrics, vel)])
        assert_allclose(metric_action(chain, model, states, vel), want,
                        rtol=0.0, atol=1e-13 * np.abs(want).max())
        speeds = [np.sqrt(max(v @ R @ v, 0.0)) for R, v in zip(metrics, vel)]
        length = scipy.integrate.simpson(speeds, x=times)
        assert arc_length(chain, model, times, states) == pytest.approx(length, rel=1e-13)


def test_stacked_deflated_solve_matches_each_matrix():
    rng = np.random.default_rng(90)
    for n in (3, 5, 12):
        chain = random_reversible_chain(rng, n)
        P = np.array([random_interior_point(rng, n) for _ in range(7)])
        L = response_at(chain, KL, P)
        rhs = rng.normal(size=(7, n, 2))
        rhs -= rhs.mean(axis=1, keepdims=True)
        got = deflated_solve(L, rhs)
        assert got.shape == (7, n, 2)
        for b in range(7):
            want = deflated_solve(L[b], rhs[b])
            assert_allclose(got[b], want, rtol=0, atol=1e-13 * abs(want).max())


def test_stacked_deflated_solve_names_a_matrix_that_is_not_positive_definite():
    rng = np.random.default_rng(91)
    chain = random_reversible_chain(rng, 4)
    P = np.array([random_interior_point(rng, 4) for _ in range(5)])
    L = response_at(chain, KL, P)
    L[3] = -L[3]  # negative semidefinite: the deflated matrix is indefinite
    with pytest.raises(NearSingular, match="at stack row 3 .*not positive definite") as info:
        deflated_solve(L, np.zeros((5, 4, 1)))
    assert info.value.row == 3
