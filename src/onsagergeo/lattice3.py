"""Closed-form curvature on the three-state path graph with unit edge weights.

Everything here lives in the cumulative coordinates x1 = p1, x2 = p1 + p2,
where the metric is diag(1/theta_1, 1/theta_2) with theta_1 = theta_{12},
theta_2 = theta_{23}.  K12 denotes the plane numerator <R(d1, d2) d2, d1>;
the normalized sectional value is K12 * theta_1 * theta_2.

Every route is an elementwise formula over a (B, 3) stack of points; the
single-point API is the one-row case.
"""

import numpy as np

from .connection import PointGeometry, row_blocks
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


def _forms(k12, t1, t2):
    """The rows (K12, R11, R22, S) = (K12, K12 theta_2, K12 theta_1,
    2 K12 theta_1 theta_2)."""
    return np.column_stack([k12, k12 * t2, k12 * t1, 2.0 * k12 * t1 * t2])


def _partials_route(model, p):
    """General route at each point of a (B, 3) stack: cumulative-coordinate
    partials of log theta taken by exact chain rule from the model's
    p-partials, read from its matrix accessors."""
    chain = lattice3_unit_chain()
    T, d1 = model.theta_d1_matrices(chain, p)
    s_ii, _ = model.d2_matrices(chain, p)
    t1, t2 = T[:, 0, 1], T[:, 1, 2]

    d1_log_t1 = (d1[:, 0, 1] - d1[:, 1, 0]) / t1
    d1_log_t2 = -d1[:, 1, 2] / t2
    d2_log_t1 = d1[:, 1, 0] / t1
    d2_log_t2 = (d1[:, 1, 2] - d1[:, 2, 1]) / t2
    d11_log_t2 = s_ii[:, 1, 2] / t2 - (d1[:, 1, 2] / t2) ** 2
    d22_log_t1 = s_ii[:, 1, 0] / t1 - (d1[:, 1, 0] / t1) ** 2

    k12 = ((0.5 * d11_log_t2 + 0.25 * (d1_log_t1 - d1_log_t2) * d1_log_t2) / t2
           + (0.5 * d22_log_t1 + 0.25 * (d2_log_t2 - d2_log_t1) * d2_log_t1) / t1)
    return _forms(k12, t1, t2)


def _scaling_constant(model, chain):
    w = model._weights(chain)
    if not np.allclose(w, w[0], rtol=1e-12, atol=0.0):
        raise ValueError("closed forms require a uniform ratio weighting")
    return 1.0 / w[0]


# Adjacent gap |p_i - p_j| below which the ratio-mean specialization is not
# used: its 1/(p_i - p_j)^2 terms cancel as the gap closes.  From this gap up
# it meets the partials route to 1e-7 relative (kl and alpha -1, 0, 2, 200
# random points per gap); the two part by up to 3e-7 at 5.6e-5, 1e-5 at 1e-5
# and a factor of nine at 1e-8.
EXAMPLE_MIN_GAP = 1e-4


def _equal_components(p):
    """The rows of a (B, 3) stack whose adjacent components coincide, to
    within EXAMPLE_MIN_GAP, where the ratio-mean specialization is singular
    or loses its digits to cancellation."""
    gap = np.minimum(np.abs(p[:, 0] - p[:, 1]), np.abs(p[:, 1] - p[:, 2]))
    return gap < EXAMPLE_MIN_GAP


def _example_divergence_mean(model, p):
    """The alpha-family/KL specialization at each point of a (B, 3) stack:
    curvature written through f'' and f''' of the scaled ratios.  Not finite
    on the rows that `_equal_components` marks."""
    chain = lattice3_unit_chain()
    c = _scaling_constant(model, chain)
    T = model.theta_matrix(chain, p)
    t1, t2 = T[:, 0, 1], T[:, 1, 2]
    f2 = model.f2
    f3 = model.f3
    p1, p2, p3 = p.T
    z1, z2, z3 = c * p1, c * p2, c * p3

    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (1.5 / t1 - 0.5 * f2(z2) ** 2 * t1
              - (f2(z2) - c * f3(z2) * (p2 - p1)))
        b2 = (1.5 / t2 - 0.5 * f2(z2) ** 2 * t2
              - (f2(z2) - c * f3(z2) * (p2 - p3)))
        cross = 1.0 / (4.0 * (p2 - p1) * (p2 - p3))
        k12 = -(b1 / (2.0 * (p1 - p2) ** 2)
                + b2 / (2.0 * (p2 - p3) ** 2)
                + cross * (2.0 - (f2(z2) + f2(z3)) * t2) * (f2(z2) - 1.0 / t1)
                + cross * (2.0 - (f2(z1) + f2(z2)) * t1) * (f2(z2) - 1.0 / t2))
    return _forms(k12, t1, t2)


def _example_geometric_mean(model, p):
    """The geometric-mean specialization at each point of a (B, 3) stack: all
    four quantities in elementary closed form (negative for every positive
    exponent)."""
    chain = lattice3_unit_chain()
    T = model.theta_matrix(chain, p)
    t1, t2 = T[:, 0, 1], T[:, 1, 2]
    beta = model.beta
    p1, p2, p3 = p.T
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
    return np.column_stack([k12, r11, r22, s])


def _example_route(model, p):
    """The per-family specialization at each point of a (B, 3) stack, and
    the mask of the rows where it is singular."""
    if isinstance(model, GeometricMean):
        return _example_geometric_mean(model, p), np.zeros(len(p), dtype=bool)
    if isinstance(model, (KLLogMean, AlphaMean)):
        return _example_divergence_mean(model, p), _equal_components(p)
    raise ValueError(f"no specialized closed form for {model.kind!r}")


def lattice3_closed_forms(model, p, route="partials"):
    """(K12, R11, R22, S) on the unit 3-path.

    route="partials": the general formula through cumulative-coordinate
    partials of log theta (any mobility model).
    route="example": the per-family specializations (ratio means and the
    geometric mean); raises EqualComponents where those are singular, for
    the ratio means wherever adjacent components are closer than
    EXAMPLE_MIN_GAP.

    The one-row case of the stacked routes that `lattice3_sweep` evaluates.
    """
    p = check_interior(np.asarray(p, dtype=float))
    if p.shape != (3,):
        raise ValueError("closed forms are for three states")
    if route == "partials":
        forms = _partials_route(model, p[None])
    elif route == "example":
        forms, singular = _example_route(model, p[None])
        if singular[0]:
            raise EqualComponents("adjacent components coincide (gap below "
                                  f"{EXAMPLE_MIN_GAP:g}); use the partials route")
    else:
        raise ValueError(f"unknown route {route!r}")
    k12, r11, r22, s = forms[0]
    return float(k12), float(r11), float(r22), float(s)


# -- grid sweep -------------------------------------------------------------------

SWEEP_COLUMNS = ("p1", "p2", "p3", "K12", "R11", "R22", "S", "oracle_residual")

_D1 = np.array([1.0, -1.0, 0.0])   # tangent of x1
_D2 = np.array([0.0, 1.0, -1.0])   # tangent of x2


def sweep_grid(resolution):
    """Interior simplex points on a resolution x resolution parameter grid,
    (u, (1 - u) v, (1 - u)(1 - v)) with u the outer and v the inner tick."""
    ticks = np.arange(1, resolution + 1) / (resolution + 1.0)
    u = np.repeat(ticks, resolution)
    v = np.tile(ticks, resolution)
    return np.column_stack([u, (1.0 - u) * v, (1.0 - u) * (1.0 - v)])


def _sweep_forms(model, p):
    """The closed forms at each point of a (B, 3) stack: the per-family
    specialization when the model has one, and the partials route for every
    other model and on the rows where the specialization is singular."""
    if not isinstance(model, (GeometricMean, KLLogMean, AlphaMean)):
        return _partials_route(model, p)
    forms, singular = _example_route(model, p)
    if singular.any():
        forms[singular] = _partials_route(model, p[singular])
    return forms


def _sweep_rows(model, p):
    """The sweep's columns K12 ... oracle_residual at each point of a (B, 3)
    stack: the closed forms and their distance from the plane numerator of
    the assembled tensor, with every point in one bundle."""
    geo = PointGeometry(lattice3_unit_chain(), model, p)
    R = geo.R
    forms = _sweep_forms(model, p)
    numerator = _riemann_assembled(geo, np.stack([R @ _D1, R @ _D2]))[:, 0, 1, 1, 0]
    return np.column_stack([forms, np.abs(numerator - forms[:, 0])])


def lattice3_sweep(model, resolution):
    """Closed-form curvature over the grid, with a per-row residual against
    the assembled tensor route.

    Uses the per-family specialization when the model has one, and the
    general partials route otherwise and where the specialization is singular
    (adjacent components equal).  The grid points are evaluated as stacks, in
    the blocks of `connection.row_blocks`.  A block that raises is evaluated
    again one row at a time, and the rows where the library raises are kept
    and flagged with nan values rather than dropped."""
    points = sweep_grid(resolution)
    rows = np.empty((len(points), len(SWEEP_COLUMNS)))
    rows[:, :3] = points
    for block in row_blocks(len(points), lattice3_unit_chain()):
        try:
            rows[block, 3:] = _sweep_rows(model, points[block])
        except OnsagerGeoError:
            for k in range(len(points))[block]:
                try:
                    rows[k, 3:] = _sweep_rows(model, points[k:k + 1])
                except OnsagerGeoError:
                    rows[k, 3:] = np.nan
    return rows
