"""Covariant structure of the probability manifold: commutators, the edge
coupling operator Gamma, the Levi-Civita connection, parallel transport,
geodesics (initial- and boundary-value), and Hessian forms."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import (
    edge_difference,
    edge_matrix,
    end_sum,
    gather,
    grad_matrix,
    incidence,
    null_space,
)
from .dynamics import Energy, march
from .errors import BvpNoConvergence, NearSingular, OnsagerGeoError
from .metric import (
    curve_velocity,
    deflated_solve,
    mean_zero,
    metric_action,
    pseudo_inverse,
    response_at,
    response_from_edges,
)
from .mobility import check_interior


def contract_d1(d1, vec):
    """The dense form of `PointGeometry.dtheta`: contract a matrix of theta
    partials (or a stack of shape (..., n, n)) against a vertex vector (or
    each vector of a stack, shape (..., n)):
    out_ij = (d theta_ij/d p_i) vec_i + (d theta_ij/d p_j) vec_j."""
    return d1 * vec[..., None] + d1.mT * vec[..., None, :]


def _matvec(M, v):
    """M @ v over the leading stack axes of M (..., n, n) and v (..., n)."""
    return (M @ v[..., None])[..., 0]


class PointGeometry:
    """The per-point ingredients of every covariant formula: theta and its
    first partials D1 at p, from one model evaluation, as arrays over the
    chain's edges: theta of shape (E,) and D1 of shape (2, E), the partial by
    p_i at end i and by p_j at end j.  The dense L(theta), the metric
    R = L^+, the second partials (S_ii, S_ij) and the edge weights
    `conductance` and `omega_d1` are computed on first use.

    Potentials passed to the methods are float arrays of length n, or stacks
    of them of shape (..., n); a method taking two potentials broadcasts
    their leading axes, so `m(pots[:, None], pots[None, :])` is the (k, k)
    table of every pair.  Edge-valued results (`dtheta`, `second_theta`,
    `nabla_theta_L`, `m`) are per-edge arrays of shape (..., E).  The model's
    evaluation validates p.

    p may also be a stack of B points of shape (B, n) on the one chain.  Then
    theta and d1 are (B, E) and (B, 2, E) stacks, L and R are (B, n, n), and
    the methods take one potential per point, shape (..., B, n), and return
    one result per point.
    """

    def __init__(self, chain, model, p):
        self.chain = chain
        self.model = model
        self.p = np.asarray(p, dtype=float)
        self.theta, self.d1 = model.theta_d1_edges(chain, self.p)

    @cached_property
    def conductance(self):
        """omega_ij theta_ij: L(theta) = B diag(conductance) B^T."""
        return self.chain.edge_omega * self.theta

    @cached_property
    def omega_d1(self):
        """omega_ij D1 at both ends, the weight of every Gamma sum."""
        return self.chain.edge_omega * self.d1

    @cached_property
    def L(self):
        return response_from_edges(self.chain, self.theta)

    @cached_property
    def R(self):
        try:
            return pseudo_inverse(self.L)
        except NearSingular as exc:
            # name the smallest entry of the point whose matrix failed (of
            # the whole stack when the eigensolver cannot place it)
            p = self.p if exc.row is None else self.p[exc.row]
            raise NearSingular(f"{exc}; min p {p.min():.3e}", row=exc.row) from exc

    @cached_property
    def d2(self):
        """(S_ii, S_ij) on the edges, as model.d2_edges."""
        return self.model.d2_edges(self.chain, self.p)

    def velocity(self, phi):
        """The tangent vector V_phi = L(theta) phi = B (conductance B^T phi),
        with no matrix."""
        return self.flow(edge_difference(self.chain, phi))

    def flow(self, d):
        """B (conductance d): V_phi from d = edge_difference(phi)."""
        return incidence(self.chain, self.conductance * d)

    def geodesic_rate(self, phi):
        """Phi's edge differences d and the geodesic rate
        [dgamma/dt | dPhi/dt] = [L(theta) Phi | -1/2 Gamma(Phi, Phi)] as one
        (2, n) array, or (2, B, n) on a stack of B points with one potential
        each: its ravel is the layout [points | potentials] of the march's
        state.

        Both halves are sums over each vertex's edge ends, of conductance d
        with the incidence sign (`flow`) and of d d omega D1 (`coupling`).
        Their terms are formed per edge as [omega theta d | omega D1 d d],
        taken to the ends in vertex order by one signed gather (two rows),
        and summed by one `reduceat` straight into that layout: the terms,
        the order and the bits of `flow` and `coupling` (a sign changes no
        rounding, and -1/2 scales the sums as `gamma`'s callers do)."""
        chain = self.chain
        lead = self.theta.shape[:-1]
        d = edge_difference(chain, phi)
        dd = d * d
        terms = np.concatenate((self.theta, self.d1.reshape(lead + (-1,))), axis=-1)
        terms *= chain.source_omega
        terms *= np.concatenate((d, dd, dd), axis=-1)
        terms = gather(terms, chain.end_source)
        terms *= chain.end_source_sign
        rate = np.empty((2,) + lead + (chain.n,))
        np.add.reduceat(terms, chain.end_starts, axis=-1, out=rate.swapaxes(0, -2))
        rate[1] *= -0.5
        return d, rate

    def dtheta(self, v):
        """Directional derivative of theta along the vertex vector v, per
        edge: D1_ij v_i + D1_ji v_j."""
        ends = self.d1 * gather(v, self.chain.edge_ends)
        return ends[..., 0, :] + ends[..., 1, :]

    def act(self, M, psi):
        """L(M) psi for per-edge values M, with no matrix."""
        chain = self.chain
        return incidence(chain, chain.edge_omega * M * edge_difference(chain, psi))

    def dL(self, phi):
        """L(V_phi theta), the derivative of L(theta) along V_phi, as a dense
        matrix."""
        return response_from_edges(self.chain, self.dtheta(self.velocity(phi)))

    def gamma(self, phi, psi):
        """Gamma(phi, psi)_i = sum_j (grad phi)_ij (grad psi)_ij dtheta_ij/dp_i."""
        g = edge_difference(self.chain, phi)
        return self.coupling(g, g if psi is phi else edge_difference(self.chain, psi))

    def coupling(self, g, h):
        """Gamma from the edge differences g, h of its two potentials: the
        products g h omega D1 summed over the edge ends at each vertex."""
        return end_sum(self.chain, (g * h)[..., None, :] * self.omega_d1)

    def commutator(self, phi1, phi2):
        """[V1, V2] = L(V_1 theta) phi2 - L(V_2 theta) phi1."""
        return (self.act(self.dtheta(self.velocity(phi1)), phi2)
                - self.act(self.dtheta(self.velocity(phi2)), phi1))

    def second_theta(self, phi_a, phi_b):
        """W: the mixed second derivative of theta along V_a, V_b frozen."""
        return self.d2theta(self.velocity(phi_a), self.velocity(phi_b))

    def d2theta(self, va, vb):
        """Second directional derivative of theta along the vertex vectors
        va, vb, per edge: sum over the ends a, b of S_ab va_a vb_b."""
        ends = self.chain.edge_ends
        s_ii, s_ij = self.d2
        va, vb = gather(va, ends), gather(vb, ends)
        # at each end: S_aa vb_a + S_ij vb_(other end)
        dd = s_ii * vb + s_ij[..., None, :] * vb[..., ::-1, :]
        return (dd * va).sum(axis=-2)

    def nabla_theta_L(self, phi_a, phi_b):
        """dtheta contracted with L(V_a theta) phi_b."""
        return self.dtheta(self.act(self.dtheta(self.velocity(phi_a)), phi_b))

    def m(self, phi_a, phi_b):
        """m = -2W - dtheta(L(V_a theta) phi_b) - dtheta(L(V_b theta) phi_a)."""
        return (-2.0 * self.second_theta(phi_a, phi_b)
                - self.nabla_theta_L(phi_a, phi_b)
                - self.nabla_theta_L(phi_b, phi_a))


def directional_theta(chain, model, phi, p):
    """First directional derivative of theta along V_phi (symmetric edge matrix)."""
    geo = PointGeometry(chain, model, p)
    return edge_matrix(chain, geo.dtheta(geo.velocity(np.asarray(phi, dtype=float)))[None])


def gamma_op(chain, model, phi1, phi2, p):
    """Gamma(phi1, phi2, p)_i = sum_j (grad phi1)_ij (grad phi2)_ij dtheta_ij/dp_i."""
    return PointGeometry(chain, model, p).gamma(np.asarray(phi1, dtype=float),
                                                np.asarray(phi2, dtype=float))


def commutator(chain, model, phi1, phi2, p):
    """Lie bracket of the fields V_phi1, V_phi2 (potentials held fixed):
    [V1, V2] = L(V_1 theta) phi2 - L(V_2 theta) phi1."""
    return PointGeometry(chain, model, p).commutator(np.asarray(phi1, dtype=float),
                                                     np.asarray(phi2, dtype=float))


@dataclass
class ConnectionValue:
    """The covariant derivative as a tangent vector, with the optional scalar
    pairing against a third potential."""

    vector: np.ndarray
    scalar_form: float | None = None


def levi_civita(chain, model, phi1, phi2, p, phi3=None) -> ConnectionValue:
    """nabla_{V1} V2 = 1/2 ( L(V_1 theta) phi2 - L(V_2 theta) phi1
    + L(theta) Gamma(phi1, phi2, p) ); with phi3 the scalar form <nabla_1 2, V3>.

    The reference for the W-form transport rate `_transport_rate`, which
    never calls it."""
    geo = PointGeometry(chain, model, p)
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    vec = 0.5 * (geo.commutator(phi1, phi2) + geo.L @ geo.gamma(phi1, phi2))
    scalar = None
    if phi3 is not None:
        # <vec, V3> = vec^T R L phi3 = vec^T phi3 because vec is mean-orthogonal
        scalar = float(vec @ (np.asarray(phi3, dtype=float)))
    return ConnectionValue(vector=vec, scalar_form=scalar)


def koszul_scalar(chain, model, phi1, phi2, phi3, p):
    """<nabla_{V1} V2, V3> written purely through Gamma:
    1/2 ( phi1^T L Gamma(2,3) - phi2^T L Gamma(1,3) + phi3^T L Gamma(1,2) )."""
    geo = PointGeometry(chain, model, p)
    phi1, phi2, phi3 = (np.asarray(f, dtype=float) for f in (phi1, phi2, phi3))
    return 0.5 * float(phi1 @ geo.L @ geo.gamma(phi2, phi3)
                       - phi2 @ geo.L @ geo.gamma(phi1, phi3)
                       + phi3 @ geo.L @ geo.gamma(phi1, phi2))


# -- geodesics -----------------------------------------------------------------

@dataclass
class GeodesicRecord:
    """A geodesic sampled on a time grid.  From a (B, n) stack of initial
    potentials, states and potentials are (len(times), B, n) and the speeds
    (len(times), B)."""

    times: np.ndarray
    states: np.ndarray      # gamma(t), row per time
    potentials: np.ndarray  # Phi(t), mean-zero
    chain: object = field(repr=False)
    model: object = field(repr=False)

    @cached_property
    def speeds(self):
        """sqrt(<V_Phi, V_Phi>) per recorded state, computed on first read,
        every row at once (`_speeds`)."""
        n = self.chain.n
        speeds = _speeds(self.chain, self.model, self.states.reshape(-1, n),
                         self.potentials.reshape(-1, n))
        return speeds.reshape(self.states.shape[:-1])

    def final_state(self):
        return self.states[-1]


def _center(v):
    """Shift v (or each column of a 2-D v) to mean zero, in place."""
    v -= v.sum(axis=0) / len(v)  # the bits of v.mean(axis=0), with less overhead


# Doubles in one stacked temporary of a Jacobian shot, which stacks
# B <= JACOBIAN_BLOCK / n^2 points; their edge arrays, (B, 2, E) at most, are
# smaller still.
JACOBIAN_BLOCK = 2**20
# Doubles in one (rows, 2, E) array of a stack of rows (speeds, the energy
# ledger): a model evaluation holds about ten such arrays at once, and blocks
# this size stay in cache.
ROW_BLOCK = JACOBIAN_BLOCK // 16


def row_blocks(count, chain, width=1):
    """Slices covering `count` rows on the chain, each holding at most
    ROW_BLOCK doubles of a (width, rows, 2, E) array, and one row at least."""
    step = max(1, ROW_BLOCK // (width * chain.edge_flat.size))
    return [slice(k, k + step) for k in range(0, count, step)]


def state_blocks(count, n):
    """Slices covering `count` states of n entries, each holding at most
    JACOBIAN_BLOCK doubles of a (rows, n, n) array, and one row at least."""
    step = max(1, JACOBIAN_BLOCK // n**2)
    return [slice(k, k + step) for k in range(0, count, step)]


def _speeds(chain, model, states, pots):
    """sqrt(phi^T L(theta(p)) phi) for each row of a (rows, n) stack of points
    and of potentials, as the edge sum sum_(i,j) omega theta (phi_i - phi_j)^2
    over blocks of rows."""
    speeds = np.empty(len(states))
    for rows in row_blocks(len(states), chain):
        d = edge_difference(chain, pots[rows])
        q = (chain.edge_omega * model.theta_edges(chain, states[rows]) * d * d).sum(axis=-1)
        speeds[rows] = np.sqrt(np.maximum(q, 0.0))
    return speeds


def _speed(chain, model, p, phi):
    """The speed at one point: the one-row case of `_speeds`."""
    return float(_speeds(chain, model, np.asarray(p)[None], np.asarray(phi)[None])[0])


def geodesic_ivp(chain, model, p0, phi0, T, dt) -> GeodesicRecord:
    """Integrate the geodesic system
    dgamma/dt = L(theta) Phi,   dPhi_i/dt = -1/2 sum_j (grad Phi)_ij^2 dtheta_ij/dp_i
    with RK4, projecting Phi to mean zero after every step.

    phi0 may be a (B, n) stack: the B geodesics from p0 (one point, or one
    per potential) are integrated as one system with state
    [all B points | all B potentials].  The step guard covers every point,
    so a step that one geodesic must halve is halved for all of them.
    """
    n = chain.n
    phi0 = mean_zero(phi0)
    shape = phi0.shape  # (n,) or (B, n)
    size = phi0.size
    p0 = np.broadcast_to(check_interior(p0), shape)
    y0 = np.concatenate([p0.ravel(), phi0.ravel()])

    def f(y):
        p, phi = y.reshape((2,) + shape)
        return PointGeometry(chain, model, p).geodesic_rate(phi)[1].ravel()

    # the transposed view puts each geodesic's potential in a column
    project = lambda y: _center(y[size:].reshape(-1, n).T)
    times, table = march(f, y0, T, dt, guard=size, project=project)
    states = table[:, :size].reshape(-1, *shape)
    pots = table[:, size:].reshape(-1, *shape)
    return GeodesicRecord(times, states, pots, chain, model)


def _mean_zero_basis(n):
    return null_space(np.ones((1, n)))  # (n, n-1), orthonormal


def _jacobian_width(n):
    """Perturbed columns per stacked Jacobian shot, beside their base; 0 when
    two points would not fit the block budget."""
    return JACOBIAN_BLOCK // n**2 - 1


def _shooting_jacobian(shoot, x, r, h):
    """Forward-difference Jacobian of the endpoint residual over the first
    n-1 coordinates, at x with residual r = shoot(x) and step h.

    `shoot` maps x, or a (B, n-1) stack of them, to the endpoint residuals
    and the record.  The base x is shot again beside each block of
    perturbations and every column is differenced against the base of its
    own stack, so a step halved for one column is halved for its base too.
    Where two points exceed the block budget each column is shot alone and
    differenced against r."""
    m = len(x)
    cols = x + h * np.eye(m)
    width = _jacobian_width(len(r))
    if width < 1:
        return np.column_stack([(shoot(c)[0][:-1] - r[:-1]) / h for c in cols])
    blocks = [shoot(np.vstack([x, cols[k:k + width]]))[0] for k in range(0, m, width)]
    return np.hstack([(R[1:, :-1] - R[0, :-1]).T / h for R in blocks])


def geodesic_bvp(chain, model, p0, p1, nsteps=100, tol=1e-9, max_iter=50,
                 restarts=8, seed=0):
    """Single shooting for the two-point geodesic problem on [0, 1].

    Damped Newton on the endpoint residual gamma(1) - p1 over mean-zero initial
    potentials; the Jacobian is taken by forward differences, its columns
    shot as stacks of at most JACOBIAN_BLOCK / n^2 geodesics
    (`_shooting_jacobian`).  Returns
    (phi0, GeodesicRecord, length).
    """
    if not nsteps >= 1:
        raise ValueError(f"nsteps must be at least 1, got {nsteps!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not restarts >= 0:
        raise ValueError(f"restarts must be at least 0, got {restarts!r}")
    p0 = check_interior(p0)
    p1 = check_interior(p1)
    if abs(p1.sum() - p0.sum()) > 1e-12:
        raise ValueError(f"p1 has mass {p1.sum()!r} but p0 has {p0.sum()!r}; "
                         "a geodesic conserves mass")
    n = chain.n
    U = _mean_zero_basis(n)
    dt = 1.0 / nsteps

    def shoot(x):
        rec = geodesic_ivp(chain, model, p0, _matvec(U, x), 1.0, dt)
        return rec.final_state() - p1, rec

    R0 = pseudo_inverse(response_at(chain, model, p0))
    x_init = U.T @ (R0 @ (p1 - p0))
    rng = np.random.default_rng(seed)
    best, best_steps, failed = np.inf, 0, 0

    for attempt in range(restarts + 1):
        if attempt == 0:
            x = x_init.copy()
        else:
            scale = max(np.abs(x_init).max(), 1e-3)
            x = x_init + rng.normal(size=n - 1) * scale * 0.5 * attempt
        try:
            r, rec = shoot(x)
        except OnsagerGeoError:
            failed += 1
            continue
        norm = np.abs(r).max()
        steps = 0
        for _ in range(max_iter):
            if norm < tol:
                break
            h = 1e-7 * (1.0 + np.abs(x).max())
            try:
                J = _shooting_jacobian(shoot, x, r, h)
            except OnsagerGeoError:
                break
            try:
                delta = np.linalg.solve(J, -r[:-1])
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(J, -r[:-1], rcond=None)[0]
            lam, improved = 1.0, False
            while lam > 2.0**-12:
                try:
                    rc, recc = shoot(x + lam * delta)
                except OnsagerGeoError:
                    lam *= 0.5
                    continue
                if np.abs(rc).max() < norm:
                    x = x + lam * delta
                    r, rec, norm = rc, recc, np.abs(rc).max()
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
            steps += 1
        if norm < best:
            best, best_steps = norm, steps
        if norm < tol:
            length = float(np.trapezoid(rec.speeds, rec.times))
            return U @ x, rec, length
    raise BvpNoConvergence(
        f"shooting failed; best endpoint residual {best:.3e} after {best_steps} "
        f"Newton iterations, over the first start and {restarts} restarts "
        f"({failed} of {restarts + 1} failed to shoot)")


# -- parallel transport ----------------------------------------------------------

@dataclass
class TransportState:
    t: float
    gamma: np.ndarray
    phi: np.ndarray
    eta: np.ndarray


@dataclass
class GeodesicPath:
    """Transport along the geodesic started at (p0, phi0), for time T."""

    p0: np.ndarray
    phi0: np.ndarray
    T: float = 1.0


@dataclass
class SampledPath:
    """Transport along a sampled curve; the driving potential is recovered as
    Phi = R(theta) dgamma/dt with central differences."""

    times: np.ndarray
    states: np.ndarray


def _transport_rate(geo, phi, eta):
    """d eta/dt = -1/2 R(theta) [ L(V_phi theta) eta - L(V_eta theta) phi
    + L(theta) Gamma(phi, eta) ] at the bundle's point;  eta may hold several
    columns.

    Written in the W-form of `_eta_rate` and checked against `levi_civita`,
    which is its reference.  The metric action R(...) on the mean-zero
    bracket is taken by a kernel-deflated solve rather than an
    eigendecomposition.
    """
    d = edge_difference(geo.chain, phi)
    return _eta_rate(geo, d, geo.flow(d), eta)


def _eta_rate(geo, d, v, eta):
    """The transport rate of `_transport_rate` from the driving potential's
    edge differences d and velocity v = V_phi.

    On a stacked bundle of S points, d and v are (S, E) and (S, n), and eta
    is an (S, n, c) stack, or (1, n, c) for the same columns at every point;
    the result is (S, n, c)."""
    chain = geo.chain
    L = geo.L
    # W_ij = omega_ij D1_ij (phi_i - phi_j) collects every phi-weighted theta
    # sensitivity; with K = diag(rowsum W) - W both remaining terms are
    # products with eta:
    #   L(V_eta theta) phi = K^T L eta,   Gamma(phi, eta) = K eta.
    # Over the ends of one edge, the two terms of K^T L eta meet as
    # omega (D1_ij x_i + D1_ji x_j) (phi_i - phi_j) with x = L eta, so the
    # bracket is B[omega (V_phi theta dEta - V_x theta d)] + L K eta, with
    # dEta the edge differences of eta (taken one row per column) and L the
    # dense matrix the solve needs anyway.
    H = np.moveaxis(eta, -1, 0)  # one row per column: (c, n) or (c, S, n)
    dH = edge_difference(chain, H)
    x = _times_L(H, L)
    bracket = (incidence(chain, chain.edge_omega * (geo.dtheta(v) * dH - geo.dtheta(x) * d))
               + _times_L(geo.coupling(d, dH), L))
    return -0.5 * deflated_solve(L, np.moveaxis(bracket, 0, -1))


def _times_L(H, L):
    """L h for each row h of H, with L symmetric: H @ L for one matrix; for
    an (S, n, n) stack, rows (c, S, n) take the matrix of their point."""
    return H @ L if L.ndim == 2 else (H[..., None, :] @ L)[..., 0, :]


# The largest state count whose transports along a geodesic march eta
# through stage operators (`_transport_by_operators`).  Measured against the
# joint march (kl, 500 steps, one and two eta columns, sparse and complete
# chains, median of up to five runs): the operators take 0.46-0.71 of its
# time at n = 5 and 8 and 0.61-0.96 at n = 10, and 1.02-2.52 times as long
# from n = 12 on complete chains and n = 16 on sparse ones (one column).
OPERATOR_MAX_N = 10

# Where the four RK4 stages of a step evaluate, as shares of the step.
RK4_NODES = (0.0, 0.5, 0.5, 1.0)


def _stage_operators(chain, model, times, stages):
    """The operators A_s with d eta/dt = A_s eta at each recorded stage
    point [gamma | Phi] of a geodesic march without retaken steps, in
    order: `_eta_rate` of the n identity columns on a stacked bundle, formed
    lazily in blocks of `row_blocks` rows (width n)."""
    n = chain.n
    identity = np.eye(n)[None]
    for rows in row_blocks(len(stages), chain, width=n):
        y = stages[rows]
        geo = PointGeometry(chain, model, y[:, :n])
        d = edge_difference(chain, y[:, n:])
        try:
            A = _eta_rate(geo, d, geo.flow(d), identity)
        except NearSingular as exc:
            if exc.row is None:
                raise
            k, node = divmod(rows.start + exc.row, 4)
            t = times[k] + RK4_NODES[node] * (times[k + 1] - times[k])
            raise NearSingular(f"{exc}; in the eta operator of the geodesic stage at "
                               f"t = {t:.6g}") from exc
        yield from A


def _transport_by_operators(chain, model, y0, H, T, dt, cols):
    """Transport along a geodesic in two phases.  The geodesic y0 =
    [gamma | Phi] is marched alone, recording every stage point; those are
    the bits of the joint march, whose geodesic part never reads eta.  Then
    eta, linear in itself along a fixed geodesic, is marched from the
    columns H through the stage operators, seen in the shape `cols`.

    Returns the grid, the geodesic table and the eta table; None when the
    geodesic march retook a step (more than four right-hand sides per step),
    where the stages no longer follow the steps of a march without a guard."""
    n = chain.n
    stages = []

    def f(y):
        stages.append(y)
        p, phi = y.reshape(2, n)
        return PointGeometry(chain, model, p).geodesic_rate(phi)[1].ravel()

    times, table = march(f, y0, T, dt, guard=n, project=lambda y: _center(y[n:]))
    if len(stages) != 4 * (len(times) - 1):
        return None
    operators = _stage_operators(chain, model, times, np.array(stages))
    _, etas = march(lambda u: (next(operators) @ u.reshape(cols)).ravel(), H.ravel(), T, dt,
                    guard=0, project=lambda u: _center(u.reshape(cols)))
    return times, table, etas


def parallel_transport(chain, model, path, eta0, dt):
    """Transport eta0 (one potential per column if 2-D) along the path.

    Along a GeodesicPath on at most OPERATOR_MAX_N states, the geodesic is
    marched first and eta then through one operator per RK4 stage
    (`_transport_by_operators`); on larger chains, and when the geodesic
    march retook a step, geodesic and eta are marched as one system.

    Returns a list of TransportState; the inner products <V_eta, V_eta> are
    invariants of the exact flow.
    """
    eta0 = np.asarray(eta0, dtype=float)
    n = chain.n
    if eta0.shape[:1] != (n,):
        raise ValueError("eta0 must have n entries (or one column of n per vector)")
    # the rates see one vector, or one column per vector
    cols = (n,) if eta0.ndim == 1 else (n, -1)
    H = eta0.reshape(n, -1)
    H = H - H.mean(axis=0)

    def state(t, gamma, phi, eta):
        return TransportState(float(t), gamma, phi, eta.reshape(cols))

    if isinstance(path, GeodesicPath):
        y0 = np.concatenate([check_interior(path.p0), mean_zero(path.phi0)])
        if n <= OPERATOR_MAX_N:
            phases = _transport_by_operators(chain, model, y0, H, path.T, dt, cols)
            if phases is not None:
                times, table, etas = phases
                return [state(t, y[:n], y[n:], eta) for t, y, eta in zip(times, table, etas)]

        def f(y):
            geo = PointGeometry(chain, model, y[:n])
            d, rate = geo.geodesic_rate(y[n:2 * n])
            deta = _eta_rate(geo, d, rate[0], y[2 * n:].reshape(cols))
            return np.concatenate([rate.ravel(), deta.ravel()])

        def project(y):
            _center(y[n:2 * n])
            _center(y[2 * n:].reshape(cols))

        times, table = march(f, np.concatenate([y0, H.ravel()]), path.T, dt, guard=n,
                             project=project)
        return [state(t, y[:n], y[n:2 * n], y[2 * n:]) for t, y in zip(times, table)]

    if isinstance(path, SampledPath):
        times = np.asarray(path.times, dtype=float)
        states = np.asarray(path.states, dtype=float)
        pots = mean_zero(metric_action(chain, model, states, curve_velocity(times, states)))

        def at(t, samples):
            return np.array([np.interp(t, times, samples[:, i]) for i in range(n)])

        def f(y):
            # y = (t, eta): the time rides along so one RK4 step serves both
            t = y[0]
            geo = PointGeometry(chain, model, at(t, states))
            deta = _transport_rate(geo, at(t, pots), y[1:].reshape(cols))
            return np.concatenate([[1.0], deta.ravel()])

        y0 = np.concatenate([times[:1], H.ravel()])
        grid, table = march(f, y0, times[-1] - times[0], dt, guard=0,
                            project=lambda y: _center(y[1:].reshape(cols)))
        return [state(t, at(t, states), at(t, pots), y[1:])
                for t, y in zip(times[0] + grid, table)]

    raise TypeError("path must be a GeodesicPath or a SampledPath")


# -- Hessian of an energy --------------------------------------------------------

def hessian_form(chain, model, F: Energy, phi1, phi2, p, route="matrix"):
    """Hess F(V_phi1, V_phi2) at p.

    route="matrix": the response-matrix expression
        phi1^T L H_F L phi2 + 1/2 gradF . ( L(V_1 theta) phi2 + L(V_2 theta) phi1
                                            - L(theta) Gamma(phi1, phi2) )
    route="edges": the same first-order part rewritten as ordered-edge sums of
    Gamma terms; an independent reference that the matrix route must match.
    """
    geo = PointGeometry(chain, model, p)
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    L = geo.L
    grad_f = F.gradient(geo.p)
    second = float(phi1 @ L @ F.hessian(geo.p) @ L @ phi2)
    if route == "matrix":
        first = 0.5 * float(grad_f @ (
            geo.dL(phi1) @ phi2
            + geo.dL(phi2) @ phi1
            - L @ geo.gamma(phi1, phi2)
        ))
    elif route == "edges":
        theta_mat, d1 = model.theta_d1_matrices(chain, geo.p)
        g1 = grad_matrix(chain, phi1)
        g2 = grad_matrix(chain, phi2)
        gf = grad_matrix(chain, grad_f)
        gam_2f = (g2 * gf * d1).sum(axis=1)
        gam_1f = (g1 * gf * d1).sum(axis=1)
        gam_12 = (g1 * g2 * d1).sum(axis=1)
        first = 0.25 * float(np.sum(theta_mat * (
            g1 * grad_matrix(chain, gam_2f)
            + g2 * grad_matrix(chain, gam_1f)
            - gf * grad_matrix(chain, gam_12)
        )))
    else:
        raise ValueError(f"unknown route {route!r}")
    return second + first
