"""Closed-form curvature on the three-state path graph with unit edge weights.

Everything here lives in the cumulative coordinates x1 = p1, x2 = p1 + p2,
where the metric is diag(1/theta_1, 1/theta_2) with theta_1 = theta_{12},
theta_2 = theta_{23}.  K12 denotes the plane numerator <R(d1, d2) d2, d1>;
the normalized sectional value is K12 * theta_1 * theta_2.
"""

import numpy as np

from .connection import PointGeometry
from .curvature import _riemann_assembled
from .errors import EqualComponents, OnsagerGeoError
from .mobility import AlphaMean, GeometricMean, KLLogMean, check_interior

_CHAIN = None


def lattice3_unit_chain():
    """The canonical 3-path chain with uniform stationary law and unit omega."""
    global _CHAIN
    if _CHAIN is None:
        from .chains import lattice3_chain
        _CHAIN = lattice3_chain()
    return _CHAIN


def _partials_route(geo):
    """General route: cumulative-coordinate partials of log theta taken by
    exact chain rule from the model's p-partials at the bundle's point, read
    from its matrix accessors."""
    T, d1 = geo.model.theta_d1_matrices(geo.chain, geo.p)
    s_ii, _ = geo.model.d2_matrices(geo.chain, geo.p)
    t1, t2 = T[0, 1], T[1, 2]

    d1_log_t1 = (d1[0, 1] - d1[1, 0]) / t1
    d1_log_t2 = -d1[1, 2] / t2
    d2_log_t1 = d1[1, 0] / t1
    d2_log_t2 = (d1[1, 2] - d1[2, 1]) / t2
    d11_log_t2 = s_ii[1, 2] / t2 - (d1[1, 2] / t2) ** 2
    d22_log_t1 = s_ii[1, 0] / t1 - (d1[1, 0] / t1) ** 2

    k12 = ((0.5 * d11_log_t2 + 0.25 * (d1_log_t1 - d1_log_t2) * d1_log_t2) / t2
           + (0.5 * d22_log_t1 + 0.25 * (d2_log_t2 - d2_log_t1) * d2_log_t1) / t1)
    return k12, k12 * t2, k12 * t1, 2.0 * k12 * t1 * t2


def _scaling_constant(model, chain):
    w = model._weights(chain)
    if not np.allclose(w, w[0], rtol=1e-12, atol=0.0):
        raise ValueError("closed forms require a uniform ratio weighting")
    return 1.0 / w[0]


def _example_divergence_mean(model, p):
    """The alpha-family/KL specialization: curvature written through f'' and
    f''' of the scaled ratios.  Singular where adjacent components coincide."""
    chain = lattice3_unit_chain()
    if min(abs(p[0] - p[1]), abs(p[1] - p[2])) < 1e-9:
        raise EqualComponents("adjacent components coincide; use the partials route")
    c = _scaling_constant(model, chain)
    T = model.theta_matrix(chain, p)
    t1, t2 = T[0, 1], T[1, 2]
    f2 = model.f2
    f3 = model.f3
    z1, z2, z3 = c * p[0], c * p[1], c * p[2]

    b1 = (1.5 / t1 - 0.5 * f2(z2) ** 2 * t1
          - (f2(z2) - c * f3(z2) * (p[1] - p[0])))
    b2 = (1.5 / t2 - 0.5 * f2(z2) ** 2 * t2
          - (f2(z2) - c * f3(z2) * (p[1] - p[2])))
    cross = 1.0 / (4.0 * (p[1] - p[0]) * (p[1] - p[2]))
    k12 = -(b1 / (2.0 * (p[0] - p[1]) ** 2)
            + b2 / (2.0 * (p[1] - p[2]) ** 2)
            + cross * (2.0 - (f2(z2) + f2(z3)) * t2) * (f2(z2) - 1.0 / t1)
            + cross * (2.0 - (f2(z1) + f2(z2)) * t1) * (f2(z2) - 1.0 / t2))
    return k12, k12 * t2, k12 * t1, 2.0 * k12 * t1 * t2


def _example_geometric_mean(model, p):
    """The geometric-mean specialization: all four quantities in elementary
    closed form (negative for every positive exponent)."""
    chain = lattice3_unit_chain()
    T = model.theta_matrix(chain, p)
    t1, t2 = T[0, 1], T[1, 2]
    beta = model.beta
    p1, p2, p3 = p
    c_eff = t1 / (p1 * p2) ** beta

    a = beta / p2**2 + beta**2 / (2.0 * p1 * p2)
    b = beta / p2**2 + beta**2 / (2.0 * p2 * p3)
    k12 = -0.5 * (a / t2 + b / t1)
    r11 = -0.5 * (a + (p3 / p1) ** beta * b)
    r22 = -0.5 * (b + (p1 / p3) ** beta * a)
    s = -c_eff * beta * (
        p1**beta * p2 ** (beta - 2.0)
        + p2 ** (beta - 2.0) * p3**beta
        + 0.5 * beta * (p1 ** (beta - 1.0) * p2 ** (beta - 1.0)
                        + p2 ** (beta - 1.0) * p3 ** (beta - 1.0))
    )
    return k12, r11, r22, s


def lattice3_closed_forms(model, p, route="partials"):
    """(K12, R11, R22, S) on the unit 3-path.

    route="partials": the general formula through cumulative-coordinate
    partials of log theta (any mobility model).
    route="example": the per-family specializations (ratio means and the
    geometric mean); raises EqualComponents where those are singular.
    """
    p = check_interior(np.asarray(p, dtype=float))
    if p.shape != (3,):
        raise ValueError("closed forms are for three states")
    if route == "partials":
        k12, r11, r22, s = _partials_route(PointGeometry(lattice3_unit_chain(), model, p))
    elif route == "example":
        if isinstance(model, GeometricMean):
            k12, r11, r22, s = _example_geometric_mean(model, p)
        elif isinstance(model, (KLLogMean, AlphaMean)):
            k12, r11, r22, s = _example_divergence_mean(model, p)
        else:
            raise ValueError(f"no specialized closed form for {model.kind!r}")
    else:
        raise ValueError(f"unknown route {route!r}")
    return float(k12), float(r11), float(r22), float(s)


# -- grid sweep -------------------------------------------------------------------

SWEEP_COLUMNS = ("p1", "p2", "p3", "K12", "R11", "R22", "S", "oracle_residual")

_D1 = np.array([1.0, -1.0, 0.0])   # tangent of x1
_D2 = np.array([0.0, 1.0, -1.0])   # tangent of x2


def sweep_grid(resolution):
    """Interior simplex points on a resolution x resolution parameter grid."""
    ticks = np.arange(1, resolution + 1) / (resolution + 1.0)
    points = np.empty((resolution * resolution, 3))
    k = 0
    for u in ticks:
        for v in ticks:
            points[k] = (u, (1.0 - u) * v, (1.0 - u) * (1.0 - v))
            k += 1
    return points


def lattice3_sweep(model, resolution):
    """Closed-form curvature over the grid, with a per-row residual against
    the assembled tensor route.

    Uses the per-family specialization when the model has one, and the
    general partials route otherwise and where the specialization is singular
    (adjacent components equal).  Rows where the library raises are kept and
    flagged with nan values rather than dropped."""
    chain = lattice3_unit_chain()
    example = isinstance(model, (GeometricMean, KLLogMean, AlphaMean))
    rows = np.empty((resolution * resolution, len(SWEEP_COLUMNS)))
    for k, p in enumerate(sweep_grid(resolution)):
        rows[k, :3] = p
        try:
            geo = PointGeometry(chain, model, p)
            try:
                forms = (lattice3_closed_forms(model, p, route="example") if example
                         else _partials_route(geo))
            except EqualComponents:
                forms = _partials_route(geo)
            numerator = _riemann_assembled(geo, [geo.R @ _D1, geo.R @ _D2])[0, 1, 1, 0]
            rows[k, 3:] = (*forms, abs(numerator - forms[0]))
        except OnsagerGeoError:
            rows[k, 3:] = np.nan
    return rows
