"""The numbered acceptance checks behind the `validate` command.

Each criterion is a standalone function returning a CriterionResult; run_all
executes them in order and prints one pass/fail line per criterion.  The same
functions are exercised directly by the test suite.
"""

import time
from dataclasses import dataclass

import numpy as np

from .chains import build_reversible_chain, grad_matrix, triangle_reaction_chain
from .connection import (
    GeodesicPath,
    PointGeometry,
    geodesic_bvp,
    geodesic_ivp,
    hessian_form,
    levi_civita,
    parallel_transport,
)
from .curvature import (
    chart_curvature_oracle,
    oracle_contraction,
    ricci_scalar,
    riemann,
)
from .dynamics import divergence_energy, gradient_flow_rhs, integrate, master_exact
from .lattice3 import lattice3_closed_forms, lattice3_sweep, lattice3_unit_chain
from .metric import mean_zero, response_at, response_matrix
from .mobility import AlphaMean, GeometricMean, KLLogMean


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index} ({self.name}): {self.detail} [{self.seconds:.2f}s]"


# -- randomized-case helpers (shared with the test suite) -----------------------

def random_reversible_chain(rng, n, extra_edge_prob=0.5):
    """Connected reversible chain with moderate weights: path backbone plus
    random extra edges, rates Q_ij = omega_ij / pi_i."""
    pi = rng.dirichlet(np.full(n, 5.0))
    omega = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or rng.random() < extra_edge_prob:
                omega[i, j] = omega[j, i] = rng.uniform(0.3, 1.5)
    return build_reversible_chain(omega / pi[:, None])


def random_interior_point(rng, n, conc=8.0, floor=1e-4):
    while True:
        p = rng.dirichlet(np.full(n, conc))
        if p.min() > floor:
            return p


def random_potential(rng, n):
    return mean_zero(rng.normal(size=n))


def builtin_models(rng=None):
    alpha = 0.0 if rng is None else rng.choice([-1.0, 0.0, 2.0])
    beta = 0.7 if rng is None else rng.uniform(0.4, 1.4)
    return [KLLogMean(), AlphaMean(alpha=float(alpha)), GeometricMean(beta=float(beta))]


def _scaled_potential(chain, model, p, phi, speed):
    L = response_at(chain, model, p)
    norm = np.sqrt(max(phi @ L @ phi, 1e-300))
    return phi * (speed / norm)


def _result(index, name, start, failures, detail_ok, limit):
    seconds = time.perf_counter() - start
    if failures:
        return CriterionResult(index, name, False, "; ".join(failures), seconds)
    if seconds >= limit:
        return CriterionResult(index, name, False,
                               f"runtime {seconds:.2f}s exceeds {limit:.0f}s", seconds)
    return CriterionResult(index, name, True, detail_ok, seconds)


# -- the criteria -----------------------------------------------------------------

def criterion_1(seed=0):
    """Gradient flow of the KL divergence reproduces the master equation."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    chain = triangle_reaction_chain()
    model = KLLogMean()
    A = chain.flow_matrix()
    worst = 0.0
    for _ in range(1000):
        p = random_interior_point(rng, 3, conc=2.0, floor=1e-6)
        dev = np.abs(gradient_flow_rhs(chain, model, p) - A @ p).max()
        worst = max(worst, dev)
    failures = [] if worst < 1e-10 else [f"max |flow - master| = {worst:.2e} (tol 1e-10)"]
    return _result(1, "gradient-flow identity", start, failures,
                   f"max deviation {worst:.2e} over 1000 points", 1.0)


def criterion_2(seed=0):
    """Divergence decay, dissipation agreement, and relaxation to pi."""
    start = time.perf_counter()
    chain = triangle_reaction_chain()
    model = KLLogMean()
    p0 = np.array([0.7, 0.2, 0.1])
    traj = integrate(chain, model, p0, T=20.0, dt=0.01)
    failures = []
    increase = np.diff(traj.energy).max()
    if increase > 1e-9:
        failures.append(f"divergence increases by {increase:.2e} (slack 1e-9)")
    gap = np.abs(traj.dissipation_quadratic - traj.dissipation_edgesum).max()
    if gap > 1e-10:
        failures.append(f"dissipation routes differ by {gap:.2e} (tol 1e-10)")
    final = traj.final_state()
    pi_dev = np.abs(final - chain.pi).max()
    if pi_dev > 1e-6:
        failures.append(f"final state off pi by {pi_dev:.2e} (tol 1e-6)")
    oracle_dev = np.abs(final - master_exact(chain, p0, 20.0)).max()
    if oracle_dev > 1e-6:
        failures.append(f"final state off exp(tA)p0 by {oracle_dev:.2e} (tol 1e-6)")
    return _result(2, "dissipation and relaxation", start, failures,
                   f"off pi by {pi_dev:.2e}, off oracle by {oracle_dev:.2e}", 1.0)


def criterion_3(seed=0):
    """Torsion-freeness, the symmetric-part identity, metric compatibility."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_torsion = worst_sym = worst_compat = 0.0
    eps = 1e-6
    for case in range(200):
        n = 3 + case % 4
        model = builtin_models(rng)[case % 3]
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n)
        phi1, phi2, phi3 = (random_potential(rng, n) for _ in range(3))
        n12 = levi_civita(chain, model, phi1, phi2, p).vector
        n21 = levi_civita(chain, model, phi2, phi1, p).vector
        torsion = n12 - n21 - PointGeometry(chain, model, p).commutator(phi1, phi2)
        worst_torsion = max(worst_torsion, np.abs(torsion).max())
        theta_mat = model.theta_matrix(chain, p)
        d1 = model.d1_matrix(chain, p)
        g1 = grad_matrix(chain, phi1)
        g2 = grad_matrix(chain, phi2)
        gam = (g1 * g2 * d1).sum(axis=1)
        sym = n12 + n21 - response_matrix(chain, theta_mat) @ gam
        worst_sym = max(worst_sym, np.abs(sym).max())
        v3 = response_matrix(chain, theta_mat) @ phi3

        def pairing(q):
            return phi1 @ response_at(chain, model, q) @ phi2

        lhs = (pairing(p + eps * v3) - pairing(p - eps * v3)) / (2 * eps)
        rhs = (levi_civita(chain, model, phi3, phi1, p).vector @ phi2
               + levi_civita(chain, model, phi3, phi2, p).vector @ phi1)
        worst_compat = max(worst_compat, abs(lhs - rhs))
    failures = []
    if worst_torsion > 1e-10:
        failures.append(f"torsion {worst_torsion:.2e} (tol 1e-10)")
    if worst_sym > 1e-10:
        failures.append(f"symmetric part {worst_sym:.2e} (tol 1e-10)")
    if worst_compat > 1e-5:
        failures.append(f"metric compatibility {worst_compat:.2e} (tol 1e-5)")
    return _result(3, "connection identities", start, failures,
                   f"torsion {worst_torsion:.2e}, symmetric {worst_sym:.2e}, "
                   f"compatibility {worst_compat:.2e}", 10.0)


def criterion_4(seed=0):
    """Parallel transport preserves the Gram matrix of a 2-frame."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(50):
        n = 3 + case % 3
        model = builtin_models(rng)[case % 3]
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n, floor=5e-3)
        phi0 = _scaled_potential(chain, model, p,
                                 random_potential(rng, n), speed=0.05)
        eta0 = np.column_stack([random_potential(rng, n) for _ in range(2)])
        states = parallel_transport(chain, model, GeodesicPath(p, phi0, T=1.0),
                                    eta0, dt=1e-3)
        L = response_at(chain, model, [st.gamma for st in states])
        eta = np.array([st.eta for st in states])
        gram = eta.mT @ L @ eta
        worst = max(worst, np.abs(gram[1:] - gram[0]).max())
    failures = [] if worst < 1e-7 else [f"Gram drift {worst:.2e} (tol 1e-7)"]
    return _result(4, "transport isometry", start, failures,
                   f"max Gram drift {worst:.2e} over 50 transports", 30.0)


def criterion_5(seed=0):
    """Geodesic speed conservation and two-point solver accuracy."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_drift = worst_residual = 0.0
    for case in range(20):
        n = 3 + case % 3
        model = builtin_models(rng)[case % 3]
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n, floor=5e-3)
        phi0 = _scaled_potential(chain, model, p,
                                 random_potential(rng, n), speed=0.05)
        rec = geodesic_ivp(chain, model, p, phi0, T=1.0, dt=1e-3)
        worst_drift = max(worst_drift, np.abs(rec.speeds - rec.speeds[0]).max())
        step = random_potential(rng, n)
        target = p + step * (0.3 * p.min() / np.abs(step).max())
        _, sol, _ = geodesic_bvp(chain, model, p, target, seed=seed + case)
        worst_residual = max(worst_residual,
                             np.abs(sol.final_state() - target).max())
    failures = []
    if worst_drift > 1e-8:
        failures.append(f"speed drift {worst_drift:.2e} (tol 1e-8)")
    if worst_residual > 1e-7:
        failures.append(f"endpoint residual {worst_residual:.2e} (tol 1e-7)")
    return _result(5, "geodesic conservation and BVP", start, failures,
                   f"speed drift {worst_drift:.2e}, endpoint residual "
                   f"{worst_residual:.2e}", 30.0)


def criterion_6(seed=0):
    """Curvature routes agree with each other and with the chart oracle."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_rel = worst_sym = worst_bianchi = 0.0
    for case in range(100):
        n = 3 + case % 3
        model = builtin_models(rng)[case % 3]
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n, floor=5e-3)
        phis = [random_potential(rng, n) for _ in range(4)]
        a = riemann(chain, model, *phis, p, route="assembled")
        b = riemann(chain, model, *phis, p, route="explicit")
        lowered = chart_curvature_oracle(chain, model, p)
        c = oracle_contraction(chain, model, *phis, p, lowered=lowered)
        scale = max(1.0, abs(a), abs(b), abs(c))
        worst_rel = max(worst_rel, abs(a - b) / scale, abs(a - c) / scale,
                        abs(b - c) / scale)
        p1, p2, p3, p4 = phis
        r = lambda *args: riemann(chain, model, *args, p)
        base = r(p1, p2, p3, p4)
        worst_sym = max(
            worst_sym,
            abs(base + r(p2, p1, p3, p4)),
            abs(base + r(p1, p2, p4, p3)),
            abs(base - r(p3, p4, p1, p2)),
        )
        worst_bianchi = max(
            worst_bianchi,
            abs(r(p1, p2, p3, p4) + r(p2, p3, p1, p4) + r(p3, p1, p2, p4)),
        )
    failures = []
    if worst_rel > 1e-5:
        failures.append(f"route deviation {worst_rel:.2e} (tol 1e-5)")
    if worst_sym > 1e-9:
        failures.append(f"symmetry defect {worst_sym:.2e} (tol 1e-9)")
    if worst_bianchi > 1e-9:
        failures.append(f"Bianchi defect {worst_bianchi:.2e} (tol 1e-9)")
    return _result(6, "curvature route agreement", start, failures,
                   f"routes {worst_rel:.2e}, symmetries {worst_sym:.2e}, "
                   f"Bianchi {worst_bianchi:.2e}", 60.0)


def criterion_7(seed=0):
    """Closed-form values and identities on the unit 3-path."""
    start = time.perf_counter()
    chain = lattice3_unit_chain()
    model = GeometricMean(beta=1.0, c=9.0, convention="scaled")
    uniform = np.full(3, 1.0 / 3.0)
    failures = []
    targets = (-13.5, -13.5, -13.5, -27.0)
    for route in ("partials", "example"):
        values = lattice3_closed_forms(model, uniform, route=route)
        dev = max(abs(v - t) for v, t in zip(values, targets))
        if dev > 1e-6:
            failures.append(f"{route} route off by {dev:.2e} at uniform p (tol 1e-6)")
    ric, scal = ricci_scalar(chain, model, uniform)
    if abs(scal + 27.0) > 1e-6:
        failures.append(f"frame scalar {scal:.8f} != -27 (tol 1e-6)")
    worst_id = 0.0
    ticks = np.arange(1, 21) / 21.0
    for u in ticks:
        for v in ticks:
            p = np.array([u, (1 - u) * v, (1 - u) * (1 - v)])
            k12, r11, r22, s = lattice3_closed_forms(model, p, route="example")
            T = model.theta_matrix(chain, p)
            t1, t2 = T[0, 1], T[1, 2]
            worst_id = max(worst_id, abs(r11 - k12 * t2), abs(r22 - k12 * t1),
                           abs(s - 2.0 * k12 * t1 * t2))
    if worst_id > 1e-9:
        failures.append(f"grid identity defect {worst_id:.2e} (tol 1e-9)")
    return _result(7, "3-path closed forms", start, failures,
                   f"uniform-point values match, grid identities {worst_id:.2e}",
                   10.0)


def criterion_8(seed=0):
    """Negativity of the plane curvature across sweep grids."""
    start = time.perf_counter()
    failures = []
    cases = [(f"beta={b}", GeometricMean(beta=b)) for b in (0.5, 1.0, 2.0)]
    cases.append(("kl-log-mean", KLLogMean()))
    for label, model in cases:
        rows = lattice3_sweep(model, 50)
        k12 = rows[:, 3]
        flagged = np.isnan(k12)
        if flagged.any():
            failures.append(f"{label}: {flagged.sum()} flagged rows on the grid")
            continue
        if (k12 >= 0).any():
            failures.append(f"{label}: K12 max {k12.max():.3e} not negative")
    return _result(8, "curvature sign laws", start, failures,
                   "K12 < 0 on all four 50x50 sweeps", 120.0)


def criterion_9(seed=0):
    """Hessian form equals the second difference along geodesics."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    h = 1e-3
    for case in range(50):
        n = 3 + case % 3
        model = (KLLogMean(), AlphaMean(alpha=0.0), AlphaMean(alpha=2.0))[case % 3]
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n, floor=5e-3)
        phi = _scaled_potential(chain, model, p, random_potential(rng, n), speed=0.2)
        F = divergence_energy(model, chain)
        analytic = hessian_form(chain, model, F, phi, phi, p)
        fwd = geodesic_ivp(chain, model, p, phi, T=h, dt=h / 5).final_state()
        bwd = geodesic_ivp(chain, model, p, -phi, T=h, dt=h / 5).final_state()
        second_diff = (F.value(fwd) - 2.0 * F.value(p) + F.value(bwd)) / h**2
        worst = max(worst, abs(analytic - second_diff))
    failures = [] if worst < 1e-4 else [f"max deviation {worst:.2e} (tol 1e-4)"]
    return _result(9, "Hessian vs geodesic second difference", start, failures,
                   f"max deviation {worst:.2e} over 50 cases", 30.0)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(seed=0, echo=print):
    """Run every criterion in order, echoing one line each."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn(seed=seed)
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
