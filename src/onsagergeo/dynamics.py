"""Master-equation integration, the gradient-flow reformulation, metric
gradients of energies, and dissipation bookkeeping."""

from dataclasses import dataclass

import numpy as np

from .chains import edge_difference, incidence
from .errors import BoundaryPoint, OnsagerGeoError, StepLeavesSimplex
from .metric import response_at
from .mobility import EPS_BOUNDARY, as_simplex_point, check_interior

MAX_HALVINGS = 20


class Energy:
    """A scalar function of p with Euclidean gradient (and optional Hessian).

    The Hessian falls back to central differences of the gradient when no
    callback is supplied.
    """

    def __init__(self, value, gradient, hessian=None):
        self._value = value
        self._gradient = gradient
        self._hessian = hessian

    def value(self, p):
        return float(self._value(p))

    def gradient(self, p):
        return np.asarray(self._gradient(p), dtype=float)

    def hessian(self, p, h=1e-6):
        if self._hessian is not None:
            return np.asarray(self._hessian(p), dtype=float)
        n = len(p)
        H = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            H[:, k] = (self.gradient(p + e) - self.gradient(p - e)) / (2 * h)
        return 0.5 * (H + H.T)


def divergence_energy(model, chain) -> Energy:
    """The f-divergence of a model as an Energy (diagonal analytic Hessian)."""
    return Energy(
        value=lambda p: model.divergence(chain, p),
        gradient=lambda p: model.divergence_gradient(chain, p),
        hessian=lambda p: np.diag(model.divergence_hessian_diag(chain, p)),
    )


def master_rhs(chain, p):
    """Right-hand side of the master equation dp_i/dt = sum_j (Q_ji p_j - Q_ij p_i)."""
    return chain.flow_matrix() @ np.asarray(p, dtype=float)


def master_exact(chain, p0, t):
    """Exact master-equation solution via the generator matrix exponential
    (test oracle for the integrator)."""
    import scipy.linalg  # numpy has no matrix exponential; loaded on first use

    return scipy.linalg.expm(t * chain.flow_matrix()) @ np.asarray(p0, dtype=float)


def metric_gradient(chain, model, F, p):
    """Metric gradient of an energy: L(theta(p)) (euclidean gradient of F).

    F may be an Energy or a bare gradient callback.
    """
    p = check_interior(p)
    g = F.gradient(p) if isinstance(F, Energy) else np.asarray(F(p), dtype=float)
    return response_at(chain, model, p) @ g


def gradient_flow_rhs(chain, model, p):
    """-L(theta(p)) grad D_f(p): equals master_rhs identically when the model's
    mean function is built from the same f as its divergence."""
    p = check_interior(p)
    g = model.divergence_gradient(chain, p)
    return -response_at(chain, model, p) @ g


# -- integrators ---------------------------------------------------------------

def rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def advance_interior(f, y, dt, is_ok, depth=0):
    """One RK4 step that must land in the admissible set `is_ok`; failing steps
    are retaken as two half steps, at most MAX_HALVINGS levels deep."""
    try:
        y1 = rk4_step(f, y, dt)
        ok = is_ok(y1)
    except BoundaryPoint:
        ok = False
    if ok:
        return y1
    if depth >= MAX_HALVINGS:
        raise StepLeavesSimplex(
            f"integrator step left the simplex interior after {MAX_HALVINGS} halvings"
        )
    y_half = advance_interior(f, y, 0.5 * dt, is_ok, depth + 1)
    return advance_interior(f, y_half, 0.5 * dt, is_ok, depth + 1)


def _time_grid(T, dt):
    if not (np.isfinite(T) and np.isfinite(dt)) or dt <= 0 or T < 0:
        raise ValueError("need dt > 0 and T >= 0, both finite")
    if not np.isfinite(T / dt):
        raise ValueError(f"the step count T/dt = {T / dt} is not finite")
    steps = int(np.floor(T / dt + 1e-12))
    times = [k * dt for k in range(steps + 1)]
    if T - times[-1] > 1e-12 * max(1.0, T):
        times.append(T)
    return np.array(times)


def march(f, y0, T, dt, guard, project=None):
    """RK4 from y0 over `_time_grid(T, dt)`, one `advance_interior` step per
    interval.  Each step must keep the first `guard` entries of the state at
    or above EPS_BOUNDARY (failing steps are halved); `project`, if given,
    corrects each new state in place.  Returns the grid and the
    (len(times), len(y0)) table of states.

    A library error raised in a step, by the step guard or by `f`, is raised
    again with the step's start time, its size and, when there is a guard,
    the smallest guarded entry at its start."""
    y = np.array(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("initial state has a non-finite entry")
    times = _time_grid(T, dt)
    # min() is nan, and the test false, when a guarded entry is nan
    is_ok = (lambda z: bool(z[:guard].min() >= EPS_BOUNDARY)) if guard else (lambda z: True)
    table = np.empty((len(times), len(y)))
    table[0] = y
    for k in range(1, len(times)):
        step = times[k] - times[k - 1]
        try:
            y = advance_interior(f, y, step, is_ok)
        except OnsagerGeoError as exc:
            # the same error, with where the march was: the type and its
            # fields (a stack `row`) stay
            low = f", smallest guarded entry {y[:guard].min():.3e}" if guard else ""
            error = type(exc)(f"{exc} (t = {times[k - 1]:.6g}, step {step:.6g}{low})")
            error.__dict__.update(vars(exc))
            raise error from exc
        if project is not None:
            project(y)
        table[k] = y
    return times, table


@dataclass
class Trajectory:
    """A recorded master-equation solution with its energy ledger: energy is
    D_f per time, and the decay rate is recorded two ways (dissipation_pair)."""

    times: np.ndarray
    states: np.ndarray                 # p(t), row per time
    energy: np.ndarray
    dissipation_quadratic: np.ndarray
    dissipation_edgesum: np.ndarray

    def final_state(self):
        return self.states[-1]


def _dissipation(chain, model, p):
    """Both dissipation routes at a point, or at each point of a stack."""
    g = model.divergence_gradient(chain, p)
    theta = model.theta_edges(chain, p)
    dg = edge_difference(chain, g)
    # the quadratic form: g paired with L(theta) g = B (omega theta B^T g)
    quad = -(g * incidence(chain, chain.edge_omega * theta * dg)).sum(axis=-1)
    # the squared weighted gradient weighted by theta, summed over the edges
    edge = -(chain.edge_omega * dg * dg * theta).sum(axis=-1)
    return quad, edge


def dissipation_pair(chain, model, p):
    """The energy decay rate along the flow, computed two ways:
    the quadratic form -g^T L(theta) g and the ordered-edge sum
    -1/2 sum (grad_omega g)_ij^2 theta_ij, g = grad D_f."""
    quad, edge = _dissipation(chain, model, check_interior(p))
    return float(quad), float(edge)


def integrate(chain, model, p0, T, dt) -> Trajectory:
    """RK4 solution of the master equation with energy/dissipation records.

    Steps that would leave the eps-interior are retaken as half steps
    (recursively, bounded); the recorded grid keeps the requested dt.  The
    ledger is evaluated on the whole state table, in blocks of rows.
    """
    from .connection import row_blocks

    A = chain.flow_matrix()
    times, states = march(lambda q: A @ q, as_simplex_point(p0), T, dt, guard=chain.n)
    energy, dq, de = (np.empty(len(times)) for _ in range(3))
    for rows in row_blocks(len(times), chain):
        energy[rows] = model.divergence(chain, states[rows])
        dq[rows], de[rows] = _dissipation(chain, model, states[rows])
    return Trajectory(times, states, energy, dq, de)
