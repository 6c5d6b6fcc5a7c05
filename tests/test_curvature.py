import numpy as np
import pytest
from numpy.testing import assert_allclose

from onsagergeo import (
    M_CONVENTION,
    AlphaMean,
    DegeneratePlane,
    GeometricMean,
    KLLogMean,
    curvature_report,
    gamma3,
    grad_matrix,
    lattice3_chain,
    lattice3_closed_forms,
    oracle_contraction,
    pseudo_inverse,
    response_at,
    response_matrix,
    ricci_scalar,
    riemann,
    second_directional,
    sectional,
)
from onsagergeo.acceptance import (
    random_interior_point,
    random_potential,
    random_reversible_chain,
)
from onsagergeo.chains import build_reversible_chain, edge_matrix
from onsagergeo.connection import PointGeometry
from onsagergeo.curvature import _riemann_explicit
from onsagergeo.metric import frame_potentials
from oracles import constant_mobility, contract_d1

LATTICE = lattice3_chain()
KL = KLLogMean()
UNIFORM = np.full(3, 1.0 / 3.0)
CURVED_MODELS = [KLLogMean(), AlphaMean(0.0), GeometricMean(0.5)]


def _case(rng, n=None):
    n = n or int(rng.integers(3, 6))
    chain = random_reversible_chain(rng, n)
    p = random_interior_point(rng, n, floor=1e-3)
    phis = [random_potential(rng, n) for _ in range(4)]
    return chain, p, phis


def test_theta_second_matches_fd():
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(10):
        chain, p, phis = _case(rng)
        phi1, phi2 = phis[:2]
        v1 = response_matrix(chain, KL.theta_matrix(chain, p)) @ phi1

        def dtheta(q):
            geo = PointGeometry(chain, KL, q)
            return edge_matrix(chain, geo.dtheta(geo.velocity(phi2))[None])

        fd = (dtheta(p + eps * v1) - dtheta(p - eps * v1)) / (2 * eps)
        sd = second_directional(chain, KL, phi1, phi2, p)
        assert_allclose(sd.theta_second, fd, atol=1e-6 * (1 + abs(fd).max()))


def test_second_directional_internal_identities():
    rng = np.random.default_rng(2)
    for model in CURVED_MODELS:
        for _ in range(5):
            chain, p, phis = _case(rng)
            phi1, phi2 = phis[:2]
            sd = second_directional(chain, model, phi1, phi2, p)
            scale = 1 + abs(sd.m).max()
            assert_allclose(sd.theta_second, sd.W + sd.nabla_theta_L,
                            atol=1e-13 * scale)
            # reassemble m from its two directional-theta pieces
            d1 = model.d1_matrix(chain, p)
            geo = PointGeometry(chain, model, p)
            n12 = contract_d1(d1, geo.dL(phi1) @ phi2)
            n21 = contract_d1(d1, geo.dL(phi2) @ phi1)
            assert_allclose(sd.m, -2.0 * sd.W - n12 - n21, atol=1e-12 * scale)


def test_flat_mobility_has_no_curvature():
    rng = np.random.default_rng(3)
    flat = constant_mobility()
    for _ in range(5):
        chain, p, phis = _case(rng)
        sd = second_directional(chain, flat, phis[0], phis[1], p)
        assert np.abs(sd.W).max() == 0.0
        assert np.abs(gamma3(chain, flat, *phis, p)).max() == 0.0
        for route in ("assembled", "explicit"):
            assert riemann(chain, flat, *phis, p, route=route) == 0.0


def test_gamma3_trivial_zeros():
    rng = np.random.default_rng(4)
    chain, p, phis = _case(rng)
    const = np.full(chain.n, 3.0)
    assert np.abs(gamma3(chain, KL, const, phis[1], phis[2], phis[3], p)).max() == 0.0


def test_gamma3_half_contraction_identity():
    rng = np.random.default_rng(5)
    for model in CURVED_MODELS:
        for _ in range(8):
            chain, p, phis = _case(rng)
            t, d1 = model.theta_d1_matrices(chain, p)
            L = response_matrix(chain, t)
            u = response_matrix(chain, contract_d1(d1, L @ phis[0])) @ phis[2]
            g2 = grad_matrix(chain, phis[1])
            g4 = grad_matrix(chain, phis[3])
            lhs = 0.5 * float((g2 * g4 * (d1 * u[:, None])).sum())
            rhs = 0.5 * float(gamma3(chain, model,
                                     phis[1], phis[3], phis[0], phis[2], p).sum())
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


def test_riemann_routes_agree():
    rng = np.random.default_rng(6)
    for model in CURVED_MODELS:
        for _ in range(10):
            chain, p, phis = _case(rng)
            a = riemann(chain, model, *phis, p, route="assembled")
            b = riemann(chain, model, *phis, p, route="explicit")
            assert a == pytest.approx(b, abs=1e-10 * (1 + abs(a)))
    with pytest.raises(ValueError, match="route"):
        riemann(LATTICE, KL, *(np.eye(3)[:3].tolist() + [np.eye(3)[0]]),
                UNIFORM, route="nope")


def test_riemann_tensor_symmetries():
    rng = np.random.default_rng(7)
    for _ in range(10):
        chain, p, phis = _case(rng)
        f1, f2, f3, f4 = phis
        r = lambda a, b, c, d: riemann(chain, KL, a, b, c, d, p)
        v = r(f1, f2, f3, f4)
        tol = 1e-10 * (1 + abs(v))
        assert abs(v + r(f2, f1, f3, f4)) < tol
        assert abs(v + r(f1, f2, f4, f3)) < tol
        assert abs(v - r(f3, f4, f1, f2)) < tol
        assert abs(v + r(f2, f3, f1, f4) + r(f3, f1, f2, f4)) < tol
        assert abs(r(f1, f1, f3, f4)) < tol


def test_sectional_is_a_plane_invariant():
    rng = np.random.default_rng(8)
    for _ in range(10):
        chain, p, phis = _case(rng)
        f1, f2 = phis[:2]
        k = sectional(chain, KL, f1, f2, p)
        tol = 1e-9 * (1 + abs(k))
        assert abs(sectional(chain, KL, f1, f2 + 0.7 * f1, p) - k) < tol
        assert abs(sectional(chain, KL, 2.0 * f1, -0.5 * f2, p) - k) < tol
        assert abs(sectional(chain, KL, f2, f1, p) - k) < tol
    with pytest.raises(DegeneratePlane, match="Gram determinant"):
        sectional(chain, KL, f1, 2.0 * f1, p)


def test_sectional_frozen_value_geometric_uniform():
    model = GeometricMean(beta=1.0, c=9.0, convention="scaled")
    R = pseudo_inverse(response_at(LATTICE, model, UNIFORM))
    f1 = R @ np.array([1.0, -1.0, 0.0])
    f2 = R @ np.array([0.0, 1.0, -1.0])
    assert sectional(LATTICE, model, f1, f2, UNIFORM) == pytest.approx(-13.5,
                                                                       rel=1e-9)
    ric, scal = ricci_scalar(LATTICE, model, UNIFORM)
    assert scal == pytest.approx(-27.0, rel=1e-9)


def test_sectional_matches_closed_form_on_the_lattice():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = random_interior_point(rng, 3, floor=5e-3)
        if abs(p[1] - p[2]) < 1e-6:
            continue
        k12, r11, r22, s = lattice3_closed_forms(KL, p, route="example")
        t = KL.theta_matrix(LATTICE, p)
        R = pseudo_inverse(response_matrix(LATTICE, t))
        f1 = R @ np.array([1.0, -1.0, 0.0])
        f2 = R @ np.array([0.0, 1.0, -1.0])
        k = sectional(LATTICE, KL, f1, f2, p)
        assert k == pytest.approx(k12 * t[0, 1] * t[1, 2], rel=1e-9)
        assert k == pytest.approx(s / 2.0, rel=1e-9)


def test_ricci_and_scalar_on_the_lattice():
    p = np.array([0.5, 0.3, 0.2])
    ric, scal = ricci_scalar(LATTICE, KL, p)
    assert ric.shape == (2, 2)
    assert_allclose(ric, ric.T, atol=1e-12 * (1 + abs(ric).max()))
    # three states: Ricci = (scalar/2) x identity in an orthonormal frame
    assert_allclose(ric, 0.5 * scal * np.eye(2), atol=1e-9 * (1 + abs(scal)))
    _, _, _, s = lattice3_closed_forms(KL, p, route="partials")
    assert scal == pytest.approx(s, rel=1e-12)
    assert scal == pytest.approx(-11.543170912813242, rel=1e-12)


def test_riemann_against_the_chart_oracle():
    rng = np.random.default_rng(10)
    for _ in range(5):
        chain = random_reversible_chain(rng, 3)
        p = random_interior_point(rng, 3, floor=0.05)
        phis = [random_potential(rng, 3) for _ in range(4)]
        r = riemann(chain, KL, *phis, p)
        o = oracle_contraction(chain, KL, *phis, p)
        assert r == pytest.approx(o, abs=1e-4 * (1 + abs(r)))


def test_curvature_report():
    rep = curvature_report(LATTICE, KL, np.array([0.5, 0.3, 0.2]))
    assert rep.m_convention == M_CONVENTION
    assert rep.riemann.shape == (2, 2, 2, 2)
    assert rep.oracle_residual < 1e-4
    assert np.isnan(rep.sectional[0, 0]) and np.isnan(rep.sectional[1, 1])
    assert rep.sectional[0, 1] == pytest.approx(rep.sectional[1, 0], rel=1e-12)
    assert_allclose(rep.ricci, rep.ricci.T, atol=1e-12 * (1 + abs(rep.ricci).max()))
    assert rep.scalar == pytest.approx(np.trace(rep.ricci), rel=1e-12)
    assert_allclose(rep.point, [0.5, 0.3, 0.2])


def test_report_tensor_matches_the_explicit_route():
    # every component of the batched frame tensor against the independent
    # edge-sum route on the same frame potentials; points at pi are in the
    # Taylor branch of the ratio means
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        for model in (KLLogMean(), AlphaMean(2.0), GeometricMean(0.7)):
            chain = random_reversible_chain(rng, n)
            for p in (random_interior_point(rng, n, floor=1e-2), chain.pi):
                rep = curvature_report(chain, model, p)
                geo = PointGeometry(chain, model, p)
                pots = frame_potentials(geo.L)
                k = n - 1
                explicit = np.array([
                    _riemann_explicit(geo, [pots[a], pots[b], pots[c], pots[d]])
                    for a, b, c, d in np.ndindex(k, k, k, k)]).reshape(k, k, k, k)
                assert_allclose(rep.riemann, explicit,
                                rtol=0, atol=1e-9 * abs(explicit).max())


def test_report_tensor_symmetries():
    rng = np.random.default_rng(12)
    chain = random_reversible_chain(rng, 6)
    rep = curvature_report(chain, KL, random_interior_point(rng, 6, floor=1e-2))
    T = rep.riemann
    tol = 1e-10 * abs(T).max()
    assert_allclose(T, -np.einsum("bacd->abcd", T), rtol=0, atol=tol)
    assert_allclose(T, -np.einsum("abdc->abcd", T), rtol=0, atol=tol)
    assert_allclose(T, np.einsum("cdab->abcd", T), rtol=0, atol=tol)
    bianchi = T + np.einsum("bcad->abcd", T) + np.einsum("cabd->abcd", T)
    assert abs(bianchi).max() < tol


def _chain_with_edges(rng, n, n_edges):
    """A reversible chain on a path backbone plus random extra pairs, with
    exactly n_edges edges."""
    pi = rng.dirichlet(np.full(n, 5.0))
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    extra = rng.choice(len(pairs), size=n_edges - (n - 1), replace=False)
    omega = np.zeros((n, n))
    for i, j in [(i, i + 1) for i in range(n - 1)] + [pairs[e] for e in extra]:
        omega[i, j] = omega[j, i] = rng.uniform(0.3, 1.5)
    return build_reversible_chain(omega / pi[:, None])


def test_report_at_ten_states():
    rng = np.random.default_rng(13)
    chain = _chain_with_edges(rng, 10, 18)
    assert len(chain.edges) == 18
    p = random_interior_point(rng, 10, floor=1e-2)
    rep = curvature_report(chain, KL, p)
    assert rep.riemann.shape == (9, 9, 9, 9)
    assert rep.oracle_residual <= 1e-4 * abs(rep.riemann).max()
    assert np.array_equal(rep.ricci, np.einsum("cabc->ab", rep.riemann))
    ric, scal = ricci_scalar(chain, KL, p)
    assert_allclose(ric, rep.ricci, rtol=0, atol=1e-12 * abs(rep.ricci).max())
    assert scal == pytest.approx(rep.scalar, rel=1e-12)


def test_curvature_entry_points_check_their_potentials():
    phi = np.array([0.1, 0.0, -0.1])
    psi = np.array([0.0, 0.1, -0.1])
    for bad, message in (([np.nan, 0.0, 0.0], "non-finite"), ([0.1, -0.1], "3 entries")):
        with pytest.raises(ValueError, match=message):
            sectional(LATTICE, KL, bad, psi, UNIFORM)
        with pytest.raises(ValueError, match=message):
            riemann(LATTICE, KL, phi, psi, phi, bad, UNIFORM)
        with pytest.raises(ValueError, match=message):
            second_directional(LATTICE, KL, phi, bad, UNIFORM)
