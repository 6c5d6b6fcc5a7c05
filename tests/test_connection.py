"""Covariant derivative, geodesics, transport, and the energy Hessian."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onsagergeo import (
    AlphaMean,
    BvpNoConvergence,
    CustomMean,
    GeodesicPath,
    GeometricMean,
    KLLogMean,
    NearSingular,
    SampledPath,
    deflated_solve,
    divergence_energy,
    geodesic_bvp,
    geodesic_ivp,
    hessian_form,
    inner_product,
    lattice3_chain,
    levi_civita,
    parallel_transport,
    pseudo_inverse,
    response_matrix,
    triangle_reaction_chain,
)
from onsagergeo.acceptance import (
    _scaled_potential,
    random_interior_point,
    random_potential,
    random_reversible_chain,
)
from onsagergeo import connection, dynamics
from onsagergeo.chains import edge_difference, edge_matrix
from onsagergeo.connection import (
    JACOBIAN_BLOCK,
    GeodesicRecord,
    PointGeometry,
    _jacobian_width,
    _matvec,
    _mean_zero_basis,
    _shooting_jacobian,
    _speeds,
    _transport_rate,
)
from onsagergeo.dynamics import integrate
from onsagergeo.errors import StepLeavesSimplex
from onsagergeo.mobility import EPS_BOUNDARY
from oracles import contract_d1, koszul_scalar

LATTICE = lattice3_chain()
KL = KLLogMean()
UNIFORM = np.full(3, 1.0 / 3.0)

CURVED_MODELS = [KLLogMean(), AlphaMean(0.0), GeometricMean(0.5)]


def _case(rng, n=None):
    n = n or int(rng.integers(3, 6))
    chain = random_reversible_chain(rng, n)
    p = random_interior_point(rng, n, floor=1e-3)
    return chain, p


def test_gamma_vanishing_cases():
    rng = np.random.default_rng(2)
    chain, p = _case(rng)
    const = np.full(chain.n, 1.7)
    phi = random_potential(rng, chain.n)
    assert_allclose(PointGeometry(chain, KL, p).gamma(const, phi), 0.0, atol=1e-15)
    flat = AlphaMean(3.0)  # theta identically one
    assert np.abs(PointGeometry(chain, flat, p).gamma(phi, phi)).max() < 1e-12


def test_gamma_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        chain, p = _case(rng)
        phi1 = random_potential(rng, chain.n)
        phi2 = random_potential(rng, chain.n)
        geo = PointGeometry(chain, KL, p)
        assert np.array_equal(geo.gamma(phi1, phi2), geo.gamma(phi2, phi1))


def test_gamma_pairing_identity():
    # phi1^T L(V_3 theta) phi2 == (L phi3)^T Gamma(phi1, phi2)
    rng = np.random.default_rng(4)
    for model in CURVED_MODELS:
        for _ in range(10):
            chain, p = _case(rng)
            phi1, phi2, phi3 = (random_potential(rng, chain.n) for _ in range(3))
            L = response_matrix(chain, model.theta_matrix(chain, p))
            geo = PointGeometry(chain, model, p)
            lhs = float(phi1 @ geo.dL(phi3) @ phi2)
            rhs = float((L @ phi3) @ geo.gamma(phi1, phi2))
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


def test_directional_theta_matches_fd():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(15):
        chain, p = _case(rng)
        phi = random_potential(rng, chain.n)
        v = response_matrix(chain, KL.theta_matrix(chain, p)) @ phi
        fd = (KL.theta_matrix(chain, p + eps * v)
              - KL.theta_matrix(chain, p - eps * v)) / (2 * eps)
        geo = PointGeometry(chain, KL, p)
        d = edge_matrix(chain, geo.dtheta(geo.velocity(phi))[None])
        assert_allclose(d, fd, atol=1e-6 * (1 + abs(d).max()))
        assert_allclose(d, d.T, atol=1e-12 * (1 + abs(d).max()))
    const = np.ones(chain.n)
    assert_allclose(geo.dtheta(geo.velocity(const)), 0.0, atol=1e-15)


def test_commutator_basics():
    rng = np.random.default_rng(6)
    chain, p = _case(rng)
    phi1 = random_potential(rng, chain.n)
    phi2 = random_potential(rng, chain.n)
    geo = PointGeometry(chain, KL, p)
    assert_allclose(geo.commutator(phi1, phi1), 0.0, atol=1e-14)
    c12 = geo.commutator(phi1, phi2)
    c21 = geo.commutator(phi2, phi1)
    assert_allclose(c12, -c21, atol=1e-14 * (1 + abs(c12).max()))
    flat = AlphaMean(3.0)
    assert np.abs(PointGeometry(chain, flat, p).commutator(phi1, phi2)).max() < 1e-12


def test_commutator_matches_flow_composition():
    # compose Euler steps of the two flows in both orders
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(5):
        chain, p = _case(rng, n=3)
        phi1 = random_potential(rng, 3)
        phi2 = random_potential(rng, 3)

        def flow(q, phi):
            return q + eps * response_matrix(chain, KL.theta_matrix(chain, q)) @ phi

        fd = (flow(flow(p, phi1), phi2) - flow(flow(p, phi2), phi1)) / eps**2
        c = PointGeometry(chain, KL, p).commutator(phi1, phi2)
        assert_allclose(c, fd, atol=1e-3 * (1 + abs(c).max()))


def test_connection_is_torsion_free():
    rng = np.random.default_rng(8)
    for model in CURVED_MODELS:
        for _ in range(8):
            chain, p = _case(rng)
            phi1 = random_potential(rng, chain.n)
            phi2 = random_potential(rng, chain.n)
            d12 = levi_civita(chain, model, phi1, phi2, p).vector
            d21 = levi_civita(chain, model, phi2, phi1, p).vector
            c = PointGeometry(chain, model, p).commutator(phi1, phi2)
            assert_allclose(d12 - d21, c, atol=1e-10 * (1 + abs(c).max()))


def test_connection_symmetric_part():
    rng = np.random.default_rng(9)
    chain, p = _case(rng)
    phi1 = random_potential(rng, chain.n)
    phi2 = random_potential(rng, chain.n)
    L = response_matrix(chain, KL.theta_matrix(chain, p))
    total = (levi_civita(chain, KL, phi1, phi2, p).vector
             + levi_civita(chain, KL, phi2, phi1, p).vector)
    expected = L @ PointGeometry(chain, KL, p).gamma(phi1, phi2)
    assert_allclose(total, expected, atol=1e-12 * (1 + abs(expected).max()))


def test_connection_vector_is_mean_orthogonal():
    rng = np.random.default_rng(10)
    for _ in range(10):
        chain, p = _case(rng)
        phi1 = random_potential(rng, chain.n)
        phi2 = random_potential(rng, chain.n)
        cv = levi_civita(chain, KL, phi1, phi2, p)
        assert abs(cv.vector.sum()) < 1e-10 * (1 + abs(cv.vector).max())
        assert cv.scalar_form is None


def test_koszul_matches_connection_scalar():
    rng = np.random.default_rng(11)
    for model in CURVED_MODELS:
        for _ in range(10):
            chain, p = _case(rng)
            phi1, phi2, phi3 = (random_potential(rng, chain.n) for _ in range(3))
            cv = levi_civita(chain, model, phi1, phi2, p, phi3=phi3)
            k = koszul_scalar(chain, model, phi1, phi2, phi3, p)
            assert cv.scalar_form == pytest.approx(k, abs=1e-12 * (1 + abs(k)))


def test_metric_compatibility():
    # flow derivative of <V_2, V_3> splits into the two connection terms
    rng = np.random.default_rng(12)
    eps = 1e-6
    for _ in range(20):
        chain, p = _case(rng)
        phi1, phi2, phi3 = (random_potential(rng, chain.n) for _ in range(3))
        v1 = response_matrix(chain, KL.theta_matrix(chain, p)) @ phi1

        def pairing(q):
            return inner_product(chain, KL.theta_matrix(chain, q), phi2, phi3)

        fd = (pairing(p + eps * v1) - pairing(p - eps * v1)) / (2 * eps)
        rhs = (koszul_scalar(chain, KL, phi1, phi2, phi3, p)
               + koszul_scalar(chain, KL, phi1, phi3, phi2, p))
        assert fd == pytest.approx(rhs, abs=1e-5 * (1 + abs(rhs)))


def test_geodesic_conserves_speed():
    rng = np.random.default_rng(41)
    phi0 = _scaled_potential(LATTICE, KL, UNIFORM, rng.normal(size=3), speed=0.05)
    rec = geodesic_ivp(LATTICE, KL, UNIFORM, phi0, 1.0, 1e-3)
    assert rec.times.shape == (1001,)
    assert rec.states.shape == (1001, 3)
    assert abs(rec.speeds - 0.05).max() < 1e-8
    assert_allclose(rec.potentials.mean(axis=1), 0.0, atol=1e-14)
    assert_allclose(rec.states.sum(axis=1), 1.0, atol=1e-12)


def test_geodesic_with_zero_potential_stays_put():
    rec = geodesic_ivp(LATTICE, KL, UNIFORM, np.zeros(3), 1.0, 0.01)
    assert abs(rec.states - UNIFORM).max() < 1e-14
    assert abs(rec.speeds).max() == 0.0


def test_geodesic_time_reversal():
    rng = np.random.default_rng(42)
    phi0 = _scaled_potential(LATTICE, KL, UNIFORM, rng.normal(size=3), speed=0.05)
    fwd = geodesic_ivp(LATTICE, KL, UNIFORM, phi0, 1.0, 1e-3)
    back = geodesic_ivp(LATTICE, KL, fwd.final_state(), -fwd.potentials[-1],
                        1.0, 1e-3)
    assert abs(back.final_state() - UNIFORM).max() < 1e-10


def test_bvp_hits_the_target():
    target = np.array([0.5, 0.3, 0.2])
    phi0, rec, length = geodesic_bvp(LATTICE, KL, UNIFORM, target)
    assert abs(rec.final_state() - target).max() < 1e-7
    assert phi0.sum() == pytest.approx(0.0, abs=1e-12)
    assert length == pytest.approx(0.21353544999371732, rel=1e-7)

    # the geodesic is no longer than the straight segment
    ts = np.linspace(0.0, 1.0, 101)
    seg = np.outer(1 - ts, UNIFORM) + np.outer(ts, target)
    from onsagergeo import arc_length

    assert length < arc_length(LATTICE, KL, ts, seg)


def test_bvp_with_identical_endpoints():
    phi0, rec, length = geodesic_bvp(LATTICE, KL, UNIFORM, UNIFORM)
    assert abs(phi0).max() < 1e-12
    assert length == pytest.approx(0.0, abs=1e-12)
    assert_allclose(rec.final_state(), UNIFORM, atol=1e-12)


def test_bvp_reports_failure():
    with pytest.raises(BvpNoConvergence, match="shooting failed"):
        geodesic_bvp(LATTICE, KL, UNIFORM, np.array([0.55, 0.25, 0.2]),
                     max_iter=1, restarts=0, tol=1e-15)


def _shot_recorder(monkeypatch):
    """Record the potentials of every geodesic_ivp call geodesic_bvp makes."""
    shots = []
    ivp = connection.geodesic_ivp

    def recorded(chain, model, p0, phi0, T, dt):
        shots.append(np.shape(phi0))
        return ivp(chain, model, p0, phi0, T, dt)

    monkeypatch.setattr(connection, "geodesic_ivp", recorded)
    return shots


@pytest.mark.parametrize("options, match", [
    ({"nsteps": 0}, "nsteps"),
    ({"tol": 0.0}, "tol"),
    ({"tol": -1e-9}, "tol"),
    ({"tol": np.nan}, "tol"),
    ({"tol": np.inf}, "tol"),
    ({"max_iter": 0}, "max_iter"),
    ({"restarts": -1}, "restarts"),
])
def test_bvp_rejects_bad_options_before_shooting(monkeypatch, options, match):
    shots = _shot_recorder(monkeypatch)
    with pytest.raises(ValueError, match=match):
        geodesic_bvp(LATTICE, KL, UNIFORM, np.array([0.5, 0.3, 0.2]), **options)
    assert shots == []


def test_bvp_rejects_a_target_of_other_mass(monkeypatch):
    shots = _shot_recorder(monkeypatch)
    with pytest.raises(ValueError, match="conserves mass"):
        geodesic_bvp(LATTICE, KL, UNIFORM, np.array([0.3, 0.3, 0.5]))
    assert shots == []


def test_bvp_failure_names_its_context(monkeypatch):
    with pytest.raises(BvpNoConvergence) as info:
        geodesic_bvp(LATTICE, KL, UNIFORM, np.array([0.55, 0.25, 0.2]),
                     max_iter=1, restarts=2, tol=1e-15)
    message = str(info.value)
    assert message.startswith("shooting failed; best endpoint residual ")
    assert "after 1 Newton iterations" in message
    assert "first start and 2 restarts (0 of 3 failed to shoot)" in message

    # the first start's shot fails: one of the two starts is lost
    ivp, calls = connection.geodesic_ivp, []

    def failing_first(*args):
        calls.append(None)
        if len(calls) == 1:
            raise StepLeavesSimplex("forced")
        return ivp(*args)

    monkeypatch.setattr(connection, "geodesic_ivp", failing_first)
    with pytest.raises(BvpNoConvergence, match=r"and 1 restarts \(1 of 2 failed to shoot\)"):
        geodesic_bvp(LATTICE, KL, UNIFORM, np.array([0.55, 0.25, 0.2]),
                     max_iter=1, restarts=1, tol=1e-15)


def _column_newton(chain, model, p0, p1, nsteps=100, tol=1e-9):
    """The shooting Newton of geodesic_bvp's first start, with the Jacobian
    shot one column at a time against the base residual."""
    n = chain.n
    U = _mean_zero_basis(n)

    def shoot(x):
        return geodesic_ivp(chain, model, p0, U @ x, 1.0, 1.0 / nsteps).final_state() - p1

    R0 = pseudo_inverse(response_matrix(chain, model.theta_matrix(chain, p0)))
    x = U.T @ (R0 @ (p1 - p0))
    r = shoot(x)
    for _ in range(50):
        if abs(r).max() < tol:
            return U @ x
        h = 1e-7 * (1.0 + abs(x).max())
        J = np.column_stack([(shoot(x + e)[:-1] - r[:-1]) / h for e in h * np.eye(n - 1)])
        delta = np.linalg.solve(J, -r[:-1])
        lam = 1.0
        while abs(shoot(x + lam * delta)).max() >= abs(r).max():
            lam *= 0.5
            assert lam > 2.0**-12
        x = x + lam * delta
        r = shoot(x)
    raise AssertionError("column Newton did not converge")


def test_bvp_matches_a_column_by_column_newton():
    rng = np.random.default_rng(70)
    chain = random_reversible_chain(rng, 5)
    p = random_interior_point(rng, 5, floor=5e-3)
    step = random_potential(rng, 5)
    target = p + step * (0.3 * p.min() / abs(step).max())
    for chain, p0, p1 in [(LATTICE, UNIFORM, np.array([0.5, 0.3, 0.2])),
                          (chain, p, target)]:
        phi0, rec, _ = geodesic_bvp(chain, KL, p0, p1)
        want = _column_newton(chain, KL, p0, p1)
        assert_allclose(phi0, want, rtol=0, atol=1e-10 * abs(want).max())
        assert abs(rec.final_state() - p1).max() < 1e-9


def test_jacobian_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(71)
    n = 5
    chain, p = _case(rng, n)
    target = p + 0.2 * p.min() * random_potential(rng, n)
    U = _mean_zero_basis(n)

    def shoot(X):
        rec = geodesic_ivp(chain, KL, p, _matvec(U, X), 1.0, 0.02)
        return rec.final_state() - target, rec

    x = U.T @ (0.1 * random_potential(rng, n))
    r = shoot(x)[0]
    h = 1e-7 * (1.0 + abs(x).max())
    one = _shooting_jacobian(shoot, x, r, h)
    assert one.shape == (n - 1, n - 1)
    # blocks of 1, 2 and 3 columns beside their base, and single columns
    for rows in (2, 3, 4, 1):
        monkeypatch.setattr(connection, "JACOBIAN_BLOCK", rows * n * n)
        assert _jacobian_width(n) == rows - 1
        assert_allclose(_shooting_jacobian(shoot, x, r, h), one,
                        rtol=0, atol=1e-8 * abs(one).max())


def test_jacobian_shots_stay_within_the_block_budget(monkeypatch):
    for n in range(2, 1500):
        width = _jacobian_width(n)
        if width >= 1:
            assert (width + 1) * n * n <= JACOBIAN_BLOCK
        else:
            assert 2 * n * n > JACOBIAN_BLOCK
    assert _jacobian_width(30) + 1 >= 30  # one block at the benchmark's sizes

    rng = np.random.default_rng(72)
    chain, p = _case(rng, 5)
    target = p + 0.2 * p.min() * random_potential(rng, 5)
    for budget in (JACOBIAN_BLOCK, 3 * 25, 25):
        monkeypatch.setattr(connection, "JACOBIAN_BLOCK", budget)
        shots = _shot_recorder(monkeypatch)
        geodesic_bvp(chain, KL, p, target)
        points = [s[0] if len(s) == 2 else 1 for s in shots]
        assert max(points) == min(5, budget // 25)
        assert all(B * 5 * 5 <= budget for B in points)
        monkeypatch.undo()


def test_stacked_geometry_matches_rows():
    rng = np.random.default_rng(73)
    for model in CURVED_MODELS:
        chain, _ = _case(rng)
        n = chain.n
        P = np.array([random_interior_point(rng, n, floor=1e-3) for _ in range(4)])
        Phi, Psi = (np.array([random_potential(rng, n) for _ in range(4)]) for _ in range(2))
        geo = PointGeometry(chain, model, P)
        vel, gam = geo.velocity(Phi), geo.gamma(Phi, Phi)
        assert geo.L.shape == (4, n, n) and vel.shape == gam.shape == (4, n)
        stacked = [vel, gam, geo.dtheta(vel), geo.dL(Phi), geo.commutator(Phi, Psi),
                   geo.m(Phi, Psi)]
        for b in range(4):
            one = PointGeometry(chain, model, P[b])
            v = one.velocity(Phi[b])
            singles = [v, one.gamma(Phi[b], Phi[b]), one.dtheta(v), one.dL(Phi[b]),
                       one.commutator(Phi[b], Psi[b]), one.m(Phi[b], Psi[b])]
            for got, want in zip(stacked, singles):
                assert_allclose(got[b], want, rtol=0, atol=1e-15 * max(1.0, abs(want).max()))


def test_stacked_geodesics_match_single_runs():
    rng = np.random.default_rng(74)
    for model in CURVED_MODELS:
        chain, p = _case(rng)
        Phi = np.array([_scaled_potential(chain, model, p, rng.normal(size=chain.n), 0.05)
                        for _ in range(3)])
        rec = geodesic_ivp(chain, model, p, Phi, 0.5, 0.01)
        assert rec.states.shape == rec.potentials.shape == (51, 3, chain.n)
        assert rec.speeds.shape == (51, 3)
        for b in range(3):
            one = geodesic_ivp(chain, model, p, Phi[b], 0.5, 0.01)
            assert_allclose(rec.states[:, b], one.states, rtol=0, atol=1e-14)
            assert_allclose(rec.potentials[:, b], one.potentials, rtol=0, atol=1e-14)
            assert_allclose(rec.speeds[:, b], one.speeds, rtol=0, atol=1e-14)


def test_stacked_geodesics_halve_together(monkeypatch):
    # row 0 heads for the boundary: its one step of 0.2 must be halved twice
    P0 = np.array([[1e-3, 0.5, 0.499], UNIFORM, [0.5, 0.3, 0.2]])
    Phi = np.array([[-0.0144, 0.0072, 0.0072], [0.02, -0.01, -0.01], [-0.01, 0.0, 0.01]])
    singles = [geodesic_ivp(LATTICE, KL, p, phi, 0.2, 0.2) for p, phi in zip(P0, Phi)]
    halvings = []
    advance = dynamics.advance_interior

    def counted(f, y, dt, is_ok, depth=0):
        if depth:
            halvings.append(depth)
        return advance(f, y, dt, is_ok, depth)

    monkeypatch.setattr(dynamics, "advance_interior", counted)
    rec = geodesic_ivp(LATTICE, KL, P0, Phi, 0.2, 0.2)
    assert halvings
    assert (rec.states >= EPS_BOUNDARY).all()
    for b, one in enumerate(singles):
        assert abs(rec.states[:, b] - one.states).max() < 1e-8
        assert abs(rec.potentials[:, b] - one.potentials).max() < 1e-8


def test_speeds_are_computed_on_first_read():
    rng = np.random.default_rng(75)
    phi0 = _scaled_potential(LATTICE, KL, UNIFORM, rng.normal(size=3), speed=0.05)
    rec = geodesic_ivp(LATTICE, KL, UNIFORM, phi0, 0.1, 0.01)
    assert "speeds" not in vars(rec)
    want = [_speeds(LATTICE, KL, p[None], phi[None])[0]
            for p, phi in zip(rec.states, rec.potentials)]
    assert np.array_equal(rec.speeds, want)
    assert rec.speeds is rec.speeds


def test_transport_of_the_driving_potential():
    # the geodesic's own velocity field is parallel along it
    rng = np.random.default_rng(50)
    phi0 = _scaled_potential(LATTICE, KL, UNIFORM, rng.normal(size=3), speed=0.05)
    states = parallel_transport(LATTICE, KL, GeodesicPath(UNIFORM, phi0, 1.0),
                                phi0, 0.01)
    worst = max(abs(s.eta - s.phi).max() for s in states)
    assert worst < 1e-8
    assert states[0].t == 0.0 and states[-1].t == pytest.approx(1.0)


def test_transport_preserves_inner_products():
    rng = np.random.default_rng(51)
    phi0 = _scaled_potential(LATTICE, KL, UNIFORM, rng.normal(size=3), speed=0.05)
    eta0 = np.column_stack([random_potential(rng, 3), random_potential(rng, 3)])
    states = parallel_transport(LATTICE, KL, GeodesicPath(UNIFORM, phi0, 1.0),
                                eta0, 0.01)
    grams = []
    for s in states:
        t = KL.theta_matrix(LATTICE, s.gamma)
        grams.append([[inner_product(LATTICE, t, s.eta[:, a], s.eta[:, b])
                       for b in range(2)] for a in range(2)])
    grams = np.array(grams)
    assert abs(grams - grams[0]).max() < 1e-7


def test_transport_on_a_sampled_path_matches_the_geodesic_route():
    rng = np.random.default_rng(52)
    phi0 = _scaled_potential(LATTICE, KL, UNIFORM, rng.normal(size=3), speed=0.05)
    eta0 = random_potential(rng, 3)
    rec = geodesic_ivp(LATTICE, KL, UNIFORM, phi0, 1.0, 1e-3)
    direct = parallel_transport(LATTICE, KL, GeodesicPath(UNIFORM, phi0, 1.0),
                                eta0, 0.01)
    sampled = parallel_transport(
        LATTICE, KL, SampledPath(rec.times[::10], rec.states[::10]), eta0, 0.01)
    assert abs(sampled[-1].eta - direct[-1].eta).max() < 1e-6


def test_transport_and_geodesic_integrations_agree_exactly():
    # both step the same geodesic system on the same grid, short last step
    # included, so the geodesic part of the transport state is the same bits
    rng = np.random.default_rng(54)
    for model in CURVED_MODELS:
        for _ in range(3):
            chain, p = _case(rng)
            phi0 = _scaled_potential(chain, model, p, rng.normal(size=chain.n),
                                     speed=0.05)
            eta0 = random_potential(rng, chain.n)
            rec = geodesic_ivp(chain, model, p, phi0, 0.25, 0.1)
            states = parallel_transport(chain, model, GeodesicPath(p, phi0, 0.25),
                                        eta0, 0.1)
            assert_allclose(rec.times, [0.0, 0.1, 0.2, 0.25], rtol=0, atol=1e-15)
            assert np.array_equal([s.t for s in states], rec.times)
            assert np.array_equal([s.gamma for s in states], rec.states)
            assert np.array_equal([s.phi for s in states], rec.potentials)


def test_transport_rate_is_minus_the_connection():
    rng = np.random.default_rng(53)
    for _ in range(10):
        chain, p = _case(rng)
        phi = random_potential(rng, chain.n)
        eta = random_potential(rng, chain.n)
        L = response_matrix(chain, KL.theta_matrix(chain, p))
        rate = _transport_rate(PointGeometry(chain, KL, p), phi, eta[:, None])[:, 0]
        nabla = levi_civita(chain, KL, phi, eta, p).vector
        expected = -deflated_solve(L, nabla)
        assert_allclose(rate, expected, atol=1e-12 * (1 + abs(expected).max()))


def test_transport_input_validation():
    with pytest.raises(ValueError, match="eta0 must have"):
        parallel_transport(LATTICE, KL, GeodesicPath(UNIFORM, np.zeros(3)),
                           np.zeros(4), 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        parallel_transport(LATTICE, KL, GeodesicPath(UNIFORM, np.zeros(3)),
                           np.array([np.nan, 0.0, 0.0]), 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        geodesic_ivp(LATTICE, KL, UNIFORM, np.array([np.nan, 0.0, 0.0]), 1.0, 0.1)
    with pytest.raises(TypeError, match="GeodesicPath or a SampledPath"):
        parallel_transport(LATTICE, KL, (np.arange(3), np.eye(3)),
                           np.zeros(3), 0.1)


@pytest.mark.parametrize("times,states,message", [
    ([0.0], [UNIFORM], "two samples at least"),
    ([0.0, 0.0, 1.0], [UNIFORM] * 3, "strictly increasing"),
    ([0.0, 0.5, 1.0], [UNIFORM] * 2, r"states must have shape \(3, 3\), got \(2, 3\)"),
    ([0.0, 1.0], [UNIFORM[:2]] * 2, r"states must have shape \(2, 3\), got \(2, 2\)"),
], ids=["one-sample", "repeated-time", "fewer-states", "short-states"])
def test_sampled_path_checks_its_samples(times, states, message):
    chain = triangle_reaction_chain()
    eta0 = np.array([1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match=message):
        parallel_transport(chain, KL, SampledPath(np.array(times), np.array(states)), eta0, 0.1)


def test_connection_entry_points_check_their_potentials():
    phi = np.array([0.1, 0.0, -0.1])
    for bad, message in (([np.nan, 0.0, 0.0], "non-finite"), ([0.1, -0.1], "3 entries")):
        with pytest.raises(ValueError, match=message):
            levi_civita(LATTICE, KL, bad, phi, UNIFORM)
        with pytest.raises(ValueError, match=message):
            levi_civita(LATTICE, KL, phi, phi, UNIFORM, phi3=bad)
        with pytest.raises(ValueError, match=message):
            hessian_form(LATTICE, KL, divergence_energy(KL, LATTICE), phi, bad, UNIFORM)


def test_hessian_routes_and_symmetry():
    rng = np.random.default_rng(60)
    F = divergence_energy(KL, LATTICE)
    for _ in range(10):
        p = random_interior_point(rng, 3)
        phi1 = random_potential(rng, 3)
        phi2 = random_potential(rng, 3)
        a = hessian_form(LATTICE, KL, F, phi1, phi2, p, route="matrix")
        b = hessian_form(LATTICE, KL, F, phi1, phi2, p, route="edges")
        assert a == pytest.approx(b, abs=1e-10 * (1 + abs(a)))
        c = hessian_form(LATTICE, KL, F, phi2, phi1, p)
        assert a == pytest.approx(c, abs=1e-9 * (1 + abs(a)))
    with pytest.raises(ValueError, match="route"):
        hessian_form(LATTICE, KL, F, phi1, phi2, p, route="nope")


def test_hessian_matches_geodesic_second_difference():
    rng = np.random.default_rng(61)
    F = divergence_energy(KL, LATTICE)
    p = np.array([0.5, 0.3, 0.2])
    phi = random_potential(rng, 3)
    h = 1e-3
    fwd = geodesic_ivp(LATTICE, KL, p, phi, h, h / 5)
    bwd = geodesic_ivp(LATTICE, KL, p, -phi, h, h / 5)
    fd = (F.value(fwd.final_state()) - 2 * F.value(p)
          + F.value(bwd.final_state())) / h**2
    hess = hessian_form(LATTICE, KL, F, phi, phi, p)
    assert hess == pytest.approx(fd, rel=1e-4)


def _incidence_response(chain, M):
    """B diag(omega_e M_e) B^T over the unordered edges e = (i, j), with the
    incidence matrix B written out: the paper's form of L(M)."""
    B = np.zeros((chain.n, len(chain.edges)))
    weights = np.empty(len(chain.edges))
    for e, (i, j) in enumerate(chain.edges):
        B[i, e], B[j, e] = 1.0, -1.0
        weights[e] = chain.omega[i, j] * M[i, j]
    return (B * weights) @ B.T


def test_edge_geometry_matches_the_dense_incidence_definitions():
    rng = np.random.default_rng(77)
    sparse = random_reversible_chain(rng, 40, extra_edge_prob=0.03)
    complete = random_reversible_chain(rng, 12, extra_edge_prob=1.0)
    assert len(sparse.edges) < 80 and len(complete.edges) == 66
    for chain in (sparse, complete):
        n = chain.n
        P = np.array([random_interior_point(rng, n, floor=1e-4) for _ in range(3)])
        Phi, Psi = (np.array([random_potential(rng, n) for _ in range(3)]) for _ in range(2))
        for model in CURVED_MODELS:
            stacked = PointGeometry(chain, model, P)
            for b, p in enumerate(P):
                geo = PointGeometry(chain, model, p)
                theta, d1 = model.theta_d1_matrices(chain, p)
                L = _incidence_response(chain, theta)
                phi, psi = Phi[b], Psi[b]
                v = L @ phi
                dtheta = d1 * v[:, None] + d1.T * v[None, :]
                grad = lambda f: f[None, :] - f[:, None]
                gam = (chain.omega * grad(phi) * grad(psi) * d1).sum(axis=1)
                dL = {f.tobytes(): _incidence_response(chain, contract_d1(d1, L @ f))
                      for f in (phi, psi)}
                comm = dL[phi.tobytes()] @ psi - dL[psi.tobytes()] @ phi
                pairs = [(geo.L, L), (geo.velocity(phi), v),
                         (edge_matrix(chain, geo.dtheta(v)[None]), dtheta),
                         (geo.gamma(phi, psi), gam), (geo.dL(phi), dL[phi.tobytes()]),
                         (geo.commutator(phi, psi), comm)]
                rows = [stacked.L[b], stacked.velocity(Phi)[b],
                        edge_matrix(chain, stacked.dtheta(stacked.velocity(Phi))[b][None]),
                        stacked.gamma(Phi, Psi)[b], stacked.dL(Phi)[b],
                        stacked.commutator(Phi, Psi)[b]]
                for (got, want), row in zip(pairs, rows):
                    scale = abs(want).max()
                    assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
                    assert_allclose(row, want, rtol=0, atol=1e-12 * scale)


def test_transport_rate_matches_the_connection_on_a_sparse_chain():
    rng = np.random.default_rng(78)
    chain = random_reversible_chain(rng, 60, extra_edge_prob=0.03)
    p = random_interior_point(rng, 60, floor=1e-4)
    phi = random_potential(rng, 60)
    eta = np.column_stack([random_potential(rng, 60) for _ in range(2)])
    L = response_matrix(chain, KL.theta_matrix(chain, p))
    geo = PointGeometry(chain, KL, p)
    rate = _transport_rate(geo, phi, eta)
    for k in range(2):
        expected = -deflated_solve(L, levi_civita(chain, KL, phi, eta[:, k], p).vector)
        assert_allclose(rate[:, k], expected, rtol=0, atol=1e-12 * abs(expected).max())
        # one vector is transported as a 1-D array, as the first column
        assert_allclose(_transport_rate(geo, phi, eta[:, k]), rate[:, k],
                        rtol=0, atol=1e-14 * abs(expected).max())


def test_stacked_speeds_match_row_by_row():
    rng = np.random.default_rng(79)
    for model in CURVED_MODELS:
        chain, p = _case(rng)
        Phi = np.array([_scaled_potential(chain, model, p, rng.normal(size=chain.n), 0.05)
                        for _ in range(2)])
        rec = geodesic_ivp(chain, model, p, Phi, 0.5, 0.01)
        n = chain.n
        want = [_speeds(chain, model, q[None], f[None])[0]
                for q, f in zip(rec.states.reshape(-1, n), rec.potentials.reshape(-1, n))]
        want = np.reshape(want, rec.states.shape[:-1])
        assert_allclose(rec.speeds, want, rtol=0, atol=1e-14 * abs(want).max())
        # and against the quadratic form of the response matrix
        quad = [np.sqrt(f @ response_matrix(chain, model.theta_matrix(chain, q)) @ f)
                for q, f in zip(rec.states[-1], rec.potentials[-1])]
        assert_allclose(rec.speeds[-1], quad, rtol=1e-13)


def test_stacked_rows_stay_within_the_block_budget(monkeypatch):
    # speeds and the energy ledger take their rows in blocks whose (rows, 2, E)
    # edge arrays hold at most ROW_BLOCK doubles, and form no matrices
    rng = np.random.default_rng(80)
    chain, p = _case(rng, 5)
    phi0 = _scaled_potential(chain, KL, p, rng.normal(size=5), 0.05)
    rec = geodesic_ivp(chain, KL, p, phi0, 0.2, 0.01)
    traj = integrate(chain, KL, p, 0.2, 0.01)
    width = chain.edge_flat.size
    shapes = []

    class Recorded(KLLogMean):
        def theta_edges(self, chain, p):
            shapes.append(np.shape(p))
            return super().theta_edges(chain, p)

        def theta_matrix(self, chain, p):
            raise AssertionError("a matrix accessor was called")

        theta_d1_matrices = d2_matrices = theta_matrix

    budget = 4 * width
    monkeypatch.setattr(connection, "ROW_BLOCK", budget)
    model = Recorded()
    speeds = GeodesicRecord(rec.times, rec.states, rec.potentials, chain, model).speeds
    blocked = integrate(chain, model, p, 0.2, 0.01)
    assert len(rec.times) == 21 and len(shapes) == 2 * 6
    assert all(len(s) == 2 and s[0] * width <= budget for s in shapes)
    assert np.array_equal(speeds, rec.speeds)
    for name in ("energy", "dissipation_quadratic", "dissipation_edgesum"):
        assert np.array_equal(getattr(blocked, name), getattr(traj, name))


# -- transport through stage operators --------------------------------------------

def _route_spy(monkeypatch):
    """Record whether each transport took the operator route (True) or fell
    back to the joint march (False)."""
    taken = []
    original = connection._transport_by_operators

    def spy(*args):
        phases = original(*args)
        taken.append(phases is not None)
        return phases

    monkeypatch.setattr(connection, "_transport_by_operators", spy)
    return taken


def _joint_march(monkeypatch, chain, model, path, eta0, dt):
    with monkeypatch.context() as m:
        m.setattr(connection, "OPERATOR_MAX_N", 0)
        return parallel_transport(chain, model, path, eta0, dt)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_operator_route_matches_the_joint_march(monkeypatch, n):
    rng = np.random.default_rng(80 + n)
    models = [KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0), GeometricMean(0.7)]
    taken = _route_spy(monkeypatch)
    for model in models:
        chain = random_reversible_chain(rng, n)
        # a random point, and pi, where every edge starts on the Taylor branch
        for p in (random_interior_point(rng, n, floor=5e-3), chain.pi):
            phi0 = _scaled_potential(chain, model, p, random_potential(rng, n), speed=0.05)
            for eta0 in (random_potential(rng, n),
                         np.column_stack([random_potential(rng, n) for _ in range(2)])):
                path = GeodesicPath(p, phi0, 0.3)
                got = parallel_transport(chain, model, path, eta0, 0.01)
                want = _joint_march(monkeypatch, chain, model, path, eta0, 0.01)
                assert taken[-1]
                assert np.array_equal([s.t for s in got], [s.t for s in want])
                assert np.array_equal([s.gamma for s in got], [s.gamma for s in want])
                assert np.array_equal([s.phi for s in got], [s.phi for s in want])
                eta = np.array([s.eta for s in got])
                assert eta.shape == np.array([s.eta for s in want]).shape
                assert_allclose(eta, [s.eta for s in want], rtol=0,
                                atol=1e-12 * abs(eta).max())


def test_a_retaken_geodesic_step_takes_the_joint_march(monkeypatch):
    # the point heads for the boundary: its one step of 0.2 is halved
    p0 = np.array([1e-3, 0.5, 0.499])
    phi0 = np.array([-0.0144, 0.0072, 0.0072])
    eta0 = np.column_stack([[1.0, -0.5, -0.5], [0.0, 1.0, -1.0]])
    halvings = []
    advance = dynamics.advance_interior

    def counted(f, y, dt, is_ok, depth=0):
        if depth:
            halvings.append(depth)
        return advance(f, y, dt, is_ok, depth)

    monkeypatch.setattr(dynamics, "advance_interior", counted)
    taken = _route_spy(monkeypatch)
    got = parallel_transport(LATTICE, KL, GeodesicPath(p0, phi0, 0.2), eta0, 0.2)
    assert halvings and taken == [False]
    want = _joint_march(monkeypatch, LATTICE, KL, GeodesicPath(p0, phi0, 0.2), eta0, 0.2)
    for a, b in zip(got, want):
        assert a.t == b.t
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.eta, b.eta)


def test_stage_operators_are_formed_in_bounded_blocks(monkeypatch):
    # forced 3-stage blocks give the bits of one block, and no block holds
    # more than ROW_BLOCK doubles per (n, rows, 2, E) temporary
    rng = np.random.default_rng(86)
    chain, p = _case(rng, 5)
    phi0 = _scaled_potential(chain, KL, p, random_potential(rng, 5), speed=0.05)
    eta0 = random_potential(rng, 5)
    path = GeodesicPath(p, phi0, 0.1)
    one_block = parallel_transport(chain, KL, path, eta0, 0.01)
    sizes = []
    blocks = connection.row_blocks

    def small(count, chain, width=1):
        out = blocks(count, chain, width)
        if width > 1:
            sizes.append(out[0].stop - out[0].start)
            return [slice(k, k + 3) for k in range(0, count, 3)]
        return out

    monkeypatch.setattr(connection, "row_blocks", small)
    got = parallel_transport(chain, KL, path, eta0, 0.01)
    assert sizes and sizes[0] * 5 * chain.edge_flat.size <= connection.ROW_BLOCK
    assert np.array_equal([s.eta for s in got], [s.eta for s in one_block])


class _FlippedBelow(GeometricMean):
    """The geometric mean, with theta and D1 negated wherever p_0 falls
    below a threshold: there L(theta) is negative semidefinite."""

    def __init__(self, threshold):
        super().__init__(0.7)
        self.threshold = threshold

    def _edges(self, chain, p, order):
        edges = super()._edges(chain, p, order)
        if order != 1:
            return edges
        sign = np.where(p[..., :1] < self.threshold, -1.0, 1.0)
        return edges[0] * sign, edges[1] * sign[..., None]


def test_a_stage_that_is_not_positive_definite_names_its_time():
    # the geodesic of the plain mean crosses p_0 = 0.3 between two steps;
    # the first stage past it has a deflated matrix that is not positive
    # definite, and the error names that stage's time
    p0 = np.array([0.32, 0.34, 0.34])
    phi0 = np.array([-0.3, 0.15, 0.15])
    plain = geodesic_ivp(LATTICE, GeometricMean(0.7), p0, phi0, 1.0, 0.01)
    k = int(np.argmax(plain.states[:, 0] < 0.3))
    assert k > 1
    with pytest.raises(NearSingular) as info:
        parallel_transport(LATTICE, _FlippedBelow(0.3), GeodesicPath(p0, phi0, 1.0),
                           np.array([1.0, -0.5, -0.5]), 0.01)
    message = str(info.value)
    assert "not positive definite" in message
    t = float(message.split("of the geodesic stage at t = ")[1].split()[0])
    assert plain.times[k - 1] < t <= plain.times[k]


# -- the geodesic right-hand side ---------------------------------------------------

RATE_MODELS = [
    KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0), GeometricMean(0.7),
    KLLogMean(convention="scaled", c=3.0), AlphaMean(2.0, convention="scaled", c=5.0),
    GeometricMean(1.0, c=9.0, convention="scaled"),
    CustomMean(lambda chain, p: np.sqrt(np.outer(p, p)) + 0.1),
]


def _equal_ratio_point(chain, model):
    """A point whose ratios are equal on every edge but those at vertex 0:
    those edges take the Taylor branch of a divergence mean."""
    w = model._weights(chain) if hasattr(model, "_weights") else chain.pi
    p = w / w.sum()
    p[0] *= 1.2
    return p / p.sum()


@pytest.mark.parametrize("model", RATE_MODELS, ids=lambda m: f"{m.kind}-{getattr(m, 'convention', '')}")
def test_geodesic_rate_is_the_bundle_bit_for_bit(model):
    # [V_phi | -1/2 Gamma(phi, phi)] from one gather and one reduceat has the
    # bits of the bundle's velocity and gamma, for one point and for a stack
    rng = np.random.default_rng(91)
    for n in (3, 4, 6):
        chain = random_reversible_chain(rng, n)
        points = [random_interior_point(rng, n, floor=1e-3), _equal_ratio_point(chain, model)]
        pots = [random_potential(rng, n) for _ in points]
        for p, phi in zip(points, pots):
            geo = PointGeometry(chain, model, p)
            d, rate = geo.geodesic_rate(phi)
            assert rate.shape == (2, n)
            assert np.array_equal(d, edge_difference(chain, phi))
            assert np.array_equal(rate[0], geo.velocity(phi))
            assert np.array_equal(rate[1], -0.5 * geo.gamma(phi, phi))
        stack = PointGeometry(chain, model, np.array(points))
        d, rate = stack.geodesic_rate(np.array(pots))
        assert rate.shape == (2, len(points), n)
        assert np.array_equal(rate[0], stack.velocity(np.array(pots)))
        assert np.array_equal(rate[1], -0.5 * stack.gamma(np.array(pots), np.array(pots)))
        for k, (p, phi) in enumerate(zip(points, pots)):
            assert np.array_equal(rate[:, k], PointGeometry(chain, model, p).geodesic_rate(phi)[1])


def test_the_equal_ratio_point_takes_the_taylor_branch():
    rng = np.random.default_rng(92)
    chain = random_reversible_chain(rng, 4, extra_edge_prob=1.0)
    for model in RATE_MODELS[:4] + RATE_MODELS[5:7]:
        patch = model._branching(chain, _equal_ratio_point(chain, model))[-1]
        assert patch is not None and len(patch[0][0]) == 3  # the edges off vertex 0


class _CountedKL(KLLogMean):
    """KLLogMean that records the shape of every point it evaluates theta and
    D1 at."""

    def __init__(self):
        super().__init__()
        self.shapes = []

    def theta_d1_edges(self, chain, p):
        self.shapes.append(np.shape(p))
        return super().theta_d1_edges(chain, p)


@pytest.mark.parametrize("n", [4, 12])
def test_geodesic_marches_evaluate_the_model_once_a_stage(n):
    # four right-hand sides a step, each one model evaluation: geodesic_ivp,
    # the geodesic phase of a transport through stage operators (n = 4) and
    # the joint march (n = 12); the grid 0, 0.1, 0.2, 0.25 has three steps
    rng = np.random.default_rng(93)
    chain = random_reversible_chain(rng, n)
    p = random_interior_point(rng, n, floor=5e-3)
    phi0 = _scaled_potential(chain, KL, p, random_potential(rng, n), speed=0.05)
    model = _CountedKL()
    geodesic_ivp(chain, model, p, phi0, 0.25, 0.1)
    assert model.shapes == [(n,)] * 12
    model.shapes.clear()
    parallel_transport(chain, model, GeodesicPath(p, phi0, 0.25), random_potential(rng, n), 0.1)
    single = [s for s in model.shapes if s == (n,)]
    assert len(single) == 12
    # the stage operators evaluate the twelve recorded stages as one stack
    assert model.shapes[12:] == ([(12, n)] if n <= connection.OPERATOR_MAX_N else [])
