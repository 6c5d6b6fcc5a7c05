import numpy as np
import pytest
from numpy.testing import assert_allclose

from onsagergeo import (
    AlphaMean,
    Energy,
    KLLogMean,
    NearSingular,
    StepLeavesSimplex,
    build_reversible_chain,
    dissipation_pair,
    divergence_energy,
    gradient_flow_rhs,
    integrate,
    lattice3_chain,
    master_exact,
    master_rhs,
    metric_gradient,
    pseudo_inverse,
    response_at,
    triangle_reaction_chain,
)
from onsagergeo.acceptance import (
    random_interior_point,
    random_potential,
    random_reversible_chain,
)
from onsagergeo.chains import grad_matrix
from onsagergeo.dynamics import _time_grid, march
from onsagergeo.metric import response_matrix

TRIANGLE = triangle_reaction_chain()
LATTICE = lattice3_chain()
KL = KLLogMean()

PAIRED_MODELS = [KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0)]
PAIRED_IDS = ["kl", "alpha-1", "alpha0", "alpha2"]


def test_master_rhs_basics():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chain = random_reversible_chain(rng, int(rng.integers(2, 7)))
        p = random_interior_point(rng, chain.n)
        rhs = master_rhs(chain, p)
        assert rhs.sum() == pytest.approx(0.0, abs=1e-12)
        assert_allclose(master_rhs(chain, chain.pi), 0.0, atol=1e-12)
        # agrees with the time derivative of the exact solution
        eps = 1e-6
        fd = (master_exact(chain, p, eps) - master_exact(chain, p, -eps)) / (2 * eps)
        assert_allclose(rhs, fd, atol=1e-10 * (1 + abs(rhs).max()))


def test_master_exact_relaxes_to_stationarity():
    p = master_exact(TRIANGLE, np.array([0.7, 0.2, 0.1]), 20.0)
    assert_allclose(p, TRIANGLE.pi, atol=1e-6)


def test_integrator_tracks_matrix_exponential():
    p0 = np.array([0.7, 0.2, 0.1])
    traj = integrate(TRIANGLE, KL, p0, 2.0, 0.01)
    worst = max(abs(traj.states[k] - master_exact(TRIANGLE, p0, t)).max()
                for k, t in enumerate(traj.times))
    assert worst < 1e-7


@pytest.mark.parametrize("model", PAIRED_MODELS, ids=PAIRED_IDS)
def test_master_equation_is_the_divergence_gradient_flow(model):
    rng = np.random.default_rng(31)
    for _ in range(25):
        chain = random_reversible_chain(rng, int(rng.integers(3, 6)))
        p = random_interior_point(rng, chain.n, floor=1e-3)
        rhs = master_rhs(chain, p)
        flow = gradient_flow_rhs(chain, model, p)
        assert_allclose(flow, rhs, atol=1e-10 * (1 + abs(rhs).max()))


def test_gradient_flow_vanishes_at_stationarity():
    assert_allclose(gradient_flow_rhs(TRIANGLE, KL, TRIANGLE.pi), 0.0, atol=1e-12)


def test_metric_gradient_of_mass_is_zero():
    mass = Energy(value=lambda p: p.sum(), gradient=lambda p: np.ones_like(p))
    p = np.array([0.5, 0.3, 0.2])
    assert_allclose(metric_gradient(LATTICE, KL, mass, p), 0.0, atol=1e-12)


def test_metric_gradient_of_divergence_is_minus_master_rhs():
    rng = np.random.default_rng(8)
    for model in PAIRED_MODELS:
        F = divergence_energy(model, TRIANGLE)
        for _ in range(10):
            p = random_interior_point(rng, 3, floor=1e-3)
            assert_allclose(metric_gradient(TRIANGLE, model, F, p),
                            -master_rhs(TRIANGLE, p), atol=1e-10)


def test_metric_gradient_defining_property():
    # <grad F, V_phi> equals the Euclidean pairing dF . V_phi
    rng = np.random.default_rng(9)
    F = divergence_energy(KL, TRIANGLE)
    for _ in range(20):
        p = random_interior_point(rng, 3)
        phi = random_potential(rng, 3)
        L = response_at(TRIANGLE, KL, p)
        v_phi = L @ phi
        grad = metric_gradient(TRIANGLE, KL, F, p)
        lhs = float(grad @ pseudo_inverse(L) @ v_phi)
        rhs = float(F.gradient(p) @ v_phi)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


def test_trajectory_energetics():
    traj = integrate(TRIANGLE, KL, np.array([0.7, 0.2, 0.1]), 20.0, 0.01)
    assert_allclose(traj.final_state(), TRIANGLE.pi, atol=1e-6)
    assert abs(traj.states.sum(axis=1) - 1.0).max() < 1e-10
    assert (np.diff(traj.energy) <= 1e-9).all()
    assert (traj.dissipation_quadratic <= 1e-15).all()
    gap = abs(traj.dissipation_quadratic - traj.dissipation_edgesum).max()
    assert gap < 1e-10


def test_stationary_start_stays_put():
    traj = integrate(TRIANGLE, KL, TRIANGLE.pi, 1.0, 0.01)
    assert abs(traj.states - TRIANGLE.pi).max() < 1e-12
    assert abs(traj.energy).max() < 1e-12
    assert abs(traj.dissipation_quadratic).max() < 1e-12
    assert abs(traj.dissipation_edgesum).max() < 1e-12


def test_dissipation_routes_agree():
    rng = np.random.default_rng(44)
    for model in PAIRED_MODELS:
        for _ in range(10):
            chain = random_reversible_chain(rng, int(rng.integers(3, 6)))
            p = random_interior_point(rng, chain.n, floor=1e-3)
            quad, edge = dissipation_pair(chain, model, p)
            assert quad <= 0.0 and edge <= 1e-15
            assert quad == pytest.approx(edge, abs=1e-12 * (1 + abs(quad)))


@pytest.mark.parametrize("model", PAIRED_MODELS, ids=PAIRED_IDS)
def test_stacked_ledger_matches_row_by_row(model):
    rng = np.random.default_rng(45)
    chain = random_reversible_chain(rng, 6)
    traj = integrate(chain, model, random_interior_point(rng, 6, floor=1e-2), 2.0, 0.01)
    pairs = np.array([dissipation_pair(chain, model, p) for p in traj.states])
    energy = np.array([model.divergence(chain, p) for p in traj.states])
    for got, want in ((traj.energy, energy), (traj.dissipation_quadratic, pairs[:, 0]),
                      (traj.dissipation_edgesum, pairs[:, 1])):
        assert_allclose(got, want, rtol=0, atol=1e-14 * abs(want).max())
    # the one-state routes against their matrix forms
    for p, (quad, edge) in zip(traj.states[::20], pairs[::20]):
        g = model.divergence_gradient(chain, p)
        theta = model.theta_matrix(chain, p)
        gg = grad_matrix(chain, g)
        assert quad == pytest.approx(-g @ response_matrix(chain, theta) @ g, rel=1e-12)
        assert edge == pytest.approx(-0.5 * np.sum(gg * gg * theta), rel=1e-12)


def test_stiff_step_near_a_vertex_is_caught():
    Q = 1e8 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    chain = build_reversible_chain(Q)
    p0 = np.array([1.0 - 2e-6, 1e-6, 1e-6])
    with pytest.raises(StepLeavesSimplex, match="left the simplex interior"):
        integrate(chain, KL, p0, 1.0, 0.5)


def test_step_failure_names_its_time_step_and_margin():
    Q = 1e8 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    chain = build_reversible_chain(Q)
    p0 = np.array([1.0 - 2e-6, 1e-6, 1e-6])
    with pytest.raises(StepLeavesSimplex) as info:
        integrate(chain, KL, p0, 1.0, 0.5)
    message = str(info.value)
    assert "left the simplex interior after 20 halvings" in message
    assert "t = 0," in message
    assert "step 0.5," in message
    assert "smallest guarded entry 1.000e-06" in message


def test_time_grid():
    assert_allclose(_time_grid(0.0, 0.1), [0.0])
    assert_allclose(_time_grid(0.25, 0.1), [0.0, 0.1, 0.2, 0.25])
    assert_allclose(_time_grid(0.3, 0.1), [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="need dt > 0"):
        _time_grid(1.0, 0.0)
    for T, dt in [(np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError, match="need dt > 0"):
            _time_grid(T, dt)
    with pytest.raises(ValueError, match=r"the step count T/dt = inf is not finite"):
        _time_grid(1e300, 1e-300)

def test_energy_hessian_fallback_matches_analytic_diagonal():
    analytic = divergence_energy(KL, LATTICE)
    fd = Energy(value=lambda p: KL.divergence(LATTICE, p),
                gradient=lambda p: KL.divergence_gradient(LATTICE, p))
    p = np.array([0.5, 0.3, 0.2])
    H = analytic.hessian(p)
    assert_allclose(H, np.diag(np.diag(H)), atol=1e-14)
    assert_allclose(fd.hessian(p), H, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("guard", [0, 1])
def test_march_names_the_step_of_an_error_from_the_right_hand_side(guard):
    # y' = 1 from 0 with dt = 0.1: the first stage past y = 0.52 is the
    # second stage of the step from t = 0.5
    def f(y):
        if y[0] > 0.52:
            raise NearSingular("response matrix at stack row 3 is singular", row=3)
        return np.ones(1)

    with pytest.raises(NearSingular) as info:
        march(f, np.zeros(1), 1.0, 0.1, guard=guard)
    message = str(info.value)
    assert message.startswith("response matrix at stack row 3 is singular (t = 0.5, step 0.1")
    assert ("smallest guarded entry 5.000e-01" in message) == bool(guard)
    assert info.value.row == 3
    assert isinstance(info.value.__cause__, NearSingular)
