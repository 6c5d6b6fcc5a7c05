"""Output checks: each reads what one CLI call wrote and tests it against the
benchmark's own computations (reference.py, scipy) or against properties the
method must have.  None of them imports the program.

Every check takes (op, out) -- the operation and its parsed output -- and
returns None when it holds or a one-line message when it does not.  CHECKS
maps an operation kind to its named checks; selftest.py feeds each one a
corrupted output.
"""

import json

import numpy as np
import scipy.linalg

import reference as ref

# Tolerances.  RK4 at the workloads' step sizes conserves the geodesic and
# transport invariants to about 1e-9 relative; the bounds leave room above
# that and stay below the corruptions in selftest.py.
EXPM_ATOL = 1e-7          # sampled states against expm (RK4 error reaches 3e-8)
MASS_ATOL = 1e-12         # per-row |sum p - 1|
ENERGY_SLACK = 1e-13      # allowed rise of D_f between rows (round-off)
DISSIPATION_RTOL = 2e-3   # dD/dt by 5-point differences vs the column
ROUTES_RTOL = 1e-9        # quadratic vs edge-sum dissipation
INVARIANT_RTOL = 1e-6     # conserved speeds and inner products
OWN_SPEED_RTOL = 1e-9     # program speed vs the benchmark's edge sum
BVP_ATOL = 1e-9           # the shooting solver's endpoint tolerance
SYMMETRY_RTOL = 1e-7      # tensor identities, relative to max|R|
ORACLE_RTOL = 1e-4        # chart-oracle residual, relative to max|R|
SCALAR_RTOL = 1e-9        # the paper's lattice3 scalar
CLOSED_FORM_RTOL = 1e-10  # geometric K12 against the paper's formula
SWEEP_RESIDUAL_RTOL = 1e-6  # closed form vs tensor route, per row


# -- parsing -------------------------------------------------------------------

def parse(kind, text):
    if kind == "analyze":
        return json.loads(text)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def columns(header, data, prefix, n):
    idx = [header.index(f"{prefix}{i + 1}") for i in range(n)]
    return data[:, idx]


def expected_header(op):
    n = op.chain.n
    idx = lambda prefix: [f"{prefix}{i + 1}" for i in range(n)]
    if op.kind == "simulate":
        return ["t"] + idx("p") + ["D_f", "dissipation_quadratic", "dissipation_edgesum"]
    if op.kind in ("geodesic", "bvp"):
        return ["t"] + idx("gamma") + idx("phi") + ["speed"]
    if op.kind == "transport":
        return ["t"] + idx("gamma") + idx("phi") + idx("eta") + ["speed"]
    return ["p1", "p2", "p3", "K12", "R11", "R22", "S", "oracle_residual"]


def check_header(op, out):
    header, data = out
    want = expected_header(op)
    if header != want:
        return f"header {header[:4]}... differs from {want[:4]}..."
    if data.ndim != 2 or data.shape[1] != len(want):
        return f"data shape {data.shape} does not match {len(want)} columns"
    return None


def _rel(x, scale):
    return float(x) / max(float(scale), 1e-300)


# -- simulate --------------------------------------------------------------------

def sim_expm(op, out):
    """States at t = T/20, T/4 and T against expm(t A) p0 of the written rates."""
    header, data = out
    t = data[:, 0]
    states = columns(header, data, "p", op.chain.n)
    A = op.chain.generator()
    p0 = np.asarray(op.config["p0"])
    worst = 0.0
    for k in (len(t) // 20, len(t) // 4, len(t) - 1):
        exact = scipy.linalg.expm(t[k] * A) @ p0
        worst = max(worst, np.abs(states[k] - exact).max())
    if worst > EXPM_ATOL:
        return f"state differs from expm(tA) p0 by {worst:.3e} > {EXPM_ATOL:g}"
    return None


def sim_mass(op, out):
    header, data = out
    err = np.abs(columns(header, data, "p", op.chain.n).sum(axis=1) - 1.0).max()
    if err > MASS_ATOL:
        return f"mass differs from 1 by {err:.3e}"
    return None


def sim_energy_monotone(op, out):
    header, data = out
    D = data[:, header.index("D_f")]
    rise = np.diff(D).max()
    if rise > ENERGY_SLACK + 1e-12 * D[0]:
        return f"D_f increases by {rise:.3e}"
    return None


def sim_dissipation_rate(op, out):
    """dD/dt by the benchmark's own 5-point central differences of the D_f
    column against the (negative) dissipation column."""
    header, data = out
    t = data[:, 0]
    D = data[:, header.index("D_f")]
    dq = data[:, header.index("dissipation_quadratic")]
    h = t[1] - t[0]
    rate = (-D[4:] + 8.0 * D[3:-1] - 8.0 * D[1:-3] + D[:-4]) / (12.0 * h)
    err = np.abs(rate - dq[2:-2]).max()
    scale = np.abs(dq).max()
    if err > DISSIPATION_RTOL * scale:
        return f"dissipation differs from dD/dt by {_rel(err, scale):.3e} of max"
    return None


def sim_routes(op, out):
    header, data = out
    dq = data[:, header.index("dissipation_quadratic")]
    de = data[:, header.index("dissipation_edgesum")]
    err = np.abs(dq - de).max()
    scale = np.abs(dq).max()
    if err > ROUTES_RTOL * scale:
        return f"dissipation routes differ by {_rel(err, scale):.3e} of max"
    return None


# -- geodesics ---------------------------------------------------------------------

def speed_constant(op, out):
    header, data = out
    s = data[:, header.index("speed")]
    err = np.abs(s - s[0]).max()
    if err > INVARIANT_RTOL * s[0]:
        return f"speed drifts by {_rel(err, s[0]):.3e} relative"
    return None


def speed_own(op, out):
    """The speed column against sqrt(phi^T L phi) from the benchmark's own
    means and its own L, at every row."""
    header, data = out
    n = op.chain.n
    gamma = columns(header, data, "gamma", n)
    phi = columns(header, data, "phi", n)
    own = ref.speed(op.config["model"], op.chain, gamma, phi)
    s = data[:, header.index("speed")]
    err = np.abs(s - own).max()
    if err > OWN_SPEED_RTOL * own.max():
        return f"speed differs from the edge-sum speed by {_rel(err, own.max()):.3e} relative"
    return None


def bvp_endpoint(op, out):
    header, data = out
    last = columns(header, data, "gamma", op.chain.n)[-1]
    err = np.abs(last - np.asarray(op.config["p1"])).max()
    if not err <= BVP_ATOL:
        return f"gamma(1) misses p1 by {err:.3e} > {BVP_ATOL:g}"
    if data[-1, 0] != 1.0:
        return f"path ends at t = {data[-1, 0]!r}, not 1"
    return None


# -- transport ---------------------------------------------------------------------

def _transport_forms(op, out):
    header, data = out
    n = op.chain.n
    spec = op.config["model"]
    gamma = columns(header, data, "gamma", n)
    phi = columns(header, data, "phi", n)
    eta = columns(header, data, "eta", n)
    theta = np.array([ref.edge_theta(spec, op.chain, p) for p in gamma])
    ee = ref.edge_form(op.chain, theta, eta, eta)
    ep = ref.edge_form(op.chain, theta, eta, phi)
    pp = ref.edge_form(op.chain, theta, phi, phi)
    return ee, ep, pp


def transport_norm(op, out):
    ee, _, _ = _transport_forms(op, out)
    err = np.abs(ee - ee[0]).max()
    if err > INVARIANT_RTOL * ee[0]:
        return f"<V_eta, V_eta> drifts by {_rel(err, ee[0]):.3e} relative"
    return None


def transport_angle(op, out):
    ee, ep, pp = _transport_forms(op, out)
    scale = np.sqrt(ee[0] * pp[0])
    err = np.abs(ep - ep[0]).max()
    if err > INVARIANT_RTOL * scale:
        return f"<V_eta, V_phi> drifts by {_rel(err, scale):.3e} relative"
    return None


def transport_tangent(op, out):
    """eta0 = phi0 transports to eta(t) = phi(t): the tangent is parallel."""
    if not op.tags.get("eta_is_phi"):
        return None
    header, data = out
    n = op.chain.n
    phi = columns(header, data, "phi", n)
    eta = columns(header, data, "eta", n)
    err = np.abs(eta - phi).max()
    scale = np.abs(phi).max()
    if err > INVARIANT_RTOL * scale:
        return f"transported tangent leaves phi by {_rel(err, scale):.3e} relative"
    return None


# -- curvature -----------------------------------------------------------------------

def _tensor(out):
    R = np.asarray(out["riemann"], dtype=float)
    return R, np.abs(R).max()


def tensor_antisymmetry(op, out):
    R, top = _tensor(out)
    err = max(np.abs(R + R.transpose(1, 0, 2, 3)).max(),
              np.abs(R + R.transpose(0, 1, 3, 2)).max())
    if err > SYMMETRY_RTOL * top:
        return f"antisymmetry fails by {_rel(err, top):.3e} of max|R|"
    return None


def tensor_pair_symmetry(op, out):
    R, top = _tensor(out)
    err = np.abs(R - R.transpose(2, 3, 0, 1)).max()
    if err > SYMMETRY_RTOL * top:
        return f"pair symmetry fails by {_rel(err, top):.3e} of max|R|"
    return None


def tensor_bianchi(op, out):
    """R_abcd + R_acdb + R_adbc = 0."""
    R, top = _tensor(out)
    err = np.abs(R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)).max()
    if err > SYMMETRY_RTOL * top:
        return f"first Bianchi identity fails by {_rel(err, top):.3e} of max|R|"
    return None


def oracle_relative(op, out):
    _, top = _tensor(out)
    res = out["oracle_residual"]
    if not res <= ORACLE_RTOL * top:
        return f"oracle residual {res!r} exceeds {ORACLE_RTOL:g} of max|R| = {top:.3e}"
    return None


def paper_scalar(op, out):
    want = op.tags.get("scalar")
    if want is None:
        return None
    err = abs(out["scalar"] - want)
    if not err <= SCALAR_RTOL * abs(want):
        return f"scalar {out['scalar']!r} differs from the paper's {want}"
    return None


# -- sweep ---------------------------------------------------------------------------

def flagged_rows(data):
    return np.isnan(data).any(axis=1)


def sweep_grid(op, out):
    header, data = out
    want = ref.sweep_points(op.config["grid"])
    if data.shape[0] != len(want) or np.abs(data[:, :3] - want).max() > 1e-15:
        return "sweep points differ from the paper's grid"
    return None


def sweep_negative(op, out):
    header, data = out
    ok = data[~flagged_rows(data)]
    bad = int((ok[:, 3] >= 0).sum())
    if bad:
        return f"K12 >= 0 on {bad} unflagged rows"
    return None


def sweep_closed_form(op, out):
    spec = op.config["model"]
    if spec["kind"] != "geometric":
        return None
    header, data = out
    ok = data[~flagged_rows(data)]
    c_eff = spec["c"] if spec.get("convention") == "scaled" else 9.0 ** spec["beta"]
    own = ref.geometric_k12(spec["beta"], c_eff, ok[:, :3])
    err = np.abs(ok[:, 3] - own) / np.abs(own)
    if err.max() > CLOSED_FORM_RTOL:
        return f"K12 differs from the paper's closed form by {err.max():.3e} relative"
    return None


def sweep_residual(op, out):
    header, data = out
    ok = data[~flagged_rows(data)]
    rel = ok[:, 7] / np.abs(ok[:, 3])
    if not rel.max() <= SWEEP_RESIDUAL_RTOL:
        return f"tensor-route residual reaches {rel.max():.3e} of |K12|"
    return None


CHECKS = {
    "simulate": [check_header, sim_expm, sim_mass, sim_energy_monotone,
                 sim_dissipation_rate, sim_routes],
    "geodesic": [check_header, speed_constant, speed_own],
    "bvp": [check_header, bvp_endpoint, speed_constant, speed_own],
    "transport": [check_header, transport_norm, transport_angle, transport_tangent,
                  speed_own],
    "analyze": [tensor_antisymmetry, tensor_pair_symmetry, tensor_bianchi,
                oracle_relative, paper_scalar],
    "sweep": [check_header, sweep_grid, sweep_negative, sweep_closed_form,
              sweep_residual],
}


def run_checks(op, out):
    """All problems found in one output, as 'check: message' lines."""
    problems = []
    for check in CHECKS[op.kind]:
        msg = check(op, out)
        if msg is not None:
            problems.append(f"{check.__name__}: {msg}")
            if check is check_header:
                break
    return problems
