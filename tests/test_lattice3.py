"""Closed-form curvature on the three-state path and the grid sweep."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onsagergeo import (
    SWEEP_COLUMNS,
    AlphaMean,
    CustomMean,
    EqualComponents,
    GeometricMean,
    KLLogMean,
    lattice3_chain,
    lattice3_closed_forms,
    lattice3_sweep,
    pseudo_inverse,
    response_at,
    response_matrix,
    riemann,
    sweep_grid,
)
from onsagergeo import connection
from onsagergeo.acceptance import random_interior_point
from onsagergeo.connection import PointGeometry
from onsagergeo.curvature import _riemann_assembled
from onsagergeo.lattice3 import EXAMPLE_MIN_GAP, _sweep_forms

LATTICE = lattice3_chain()
KL = KLLogMean()
D1 = np.array([1.0, -1.0, 0.0])
D2 = np.array([0.0, 1.0, -1.0])

GRID3 = np.array([
    [0.25, 0.1875, 0.5625],
    [0.25, 0.375, 0.375],
    [0.25, 0.5625, 0.1875],
    [0.5, 0.125, 0.375],
    [0.5, 0.25, 0.25],
    [0.5, 0.375, 0.125],
    [0.75, 0.0625, 0.1875],
    [0.75, 0.125, 0.125],
    [0.75, 0.1875, 0.0625],
])


def _distinct_point(rng):
    while True:
        p = random_interior_point(rng, 3, floor=5e-3)
        if abs(p[0] - p[1]) > 1e-4 and abs(p[1] - p[2]) > 1e-4:
            return p


def test_frozen_geometric_forms_at_uniform():
    model = GeometricMean(beta=1.0, c=9.0, convention="scaled")
    u = np.full(3, 1.0 / 3.0)
    for route in ("partials", "example"):
        k12, r11, r22, s = lattice3_closed_forms(model, u, route=route)
        assert k12 == pytest.approx(-13.5, rel=1e-12)
        assert r11 == pytest.approx(-13.5, rel=1e-12)
        assert r22 == pytest.approx(-13.5, rel=1e-12)
        assert s == pytest.approx(-27.0, rel=1e-12)


def test_frozen_kl_forms():
    p = np.array([0.5, 0.3, 0.2])
    expected = (-6.641234061563699, -4.913789568146053,
                -7.8005884034580655, -11.543170912813242)
    got = lattice3_closed_forms(KL, p, route="partials")
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(lattice3_closed_forms(KL, p, route="example"), expected,
                    rtol=1e-10)


def test_routes_agree_at_random_points():
    rng = np.random.default_rng(30)
    models = [KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), GeometricMean(0.5),
              GeometricMean(beta=1.0, c=9.0, convention="scaled")]
    for model in models:
        for _ in range(8):
            p = _distinct_point(rng)
            a = np.array(lattice3_closed_forms(model, p, route="partials"))
            b = np.array(lattice3_closed_forms(model, p, route="example"))
            assert_allclose(a, b, atol=1e-9 * (1 + abs(a).max()))


def test_curvature_component_identities():
    # R11 = K12 theta_23, R22 = K12 theta_12, S = 2 K12 theta_12 theta_23
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = _distinct_point(rng)
        k12, r11, r22, s = lattice3_closed_forms(KL, p)
        t = KL.theta_matrix(LATTICE, p)
        scale = 1 + abs(s)
        assert abs(r11 - k12 * t[1, 2]) < 1e-12 * scale
        assert abs(r22 - k12 * t[0, 1]) < 1e-12 * scale
        assert abs(s - 2 * k12 * t[0, 1] * t[1, 2]) < 1e-12 * scale


def test_example_route_guards_equal_components():
    with pytest.raises(EqualComponents, match="adjacent components coincide"):
        lattice3_closed_forms(KL, np.array([0.4, 0.4, 0.2]), route="example")
    # the general route has no such singularity
    vals = lattice3_closed_forms(KL, np.array([0.4, 0.4, 0.2]), route="partials")
    assert np.isfinite(vals).all()
    with pytest.raises(ValueError, match="unknown route"):
        lattice3_closed_forms(KL, np.array([0.5, 0.3, 0.2]), route="nope")
    with pytest.raises(ValueError, match="no specialized closed form"):
        lattice3_closed_forms(CustomMean(lambda c, q: np.ones((3, 3))),
                              np.array([0.5, 0.3, 0.2]), route="example")


def test_convention_equivalence():
    p = np.array([0.5, 0.3, 0.2])
    kl_scaled = KLLogMean(convention="scaled", c=3.0)
    assert_allclose(kl_scaled.theta_matrix(LATTICE, p),
                    KL.theta_matrix(LATTICE, p), atol=1e-14)
    assert_allclose(lattice3_closed_forms(kl_scaled, p),
                    lattice3_closed_forms(KL, p), rtol=1e-10)
    for beta in (0.5, 1.0, 0.8):
        geo_pi = GeometricMean(beta=beta)
        geo_sc = GeometricMean(beta=beta, c=3.0 ** (2 * beta), convention="scaled")
        assert_allclose(geo_sc.theta_matrix(LATTICE, p),
                        geo_pi.theta_matrix(LATTICE, p), atol=1e-13)
        assert_allclose(lattice3_closed_forms(geo_sc, p),
                        lattice3_closed_forms(geo_pi, p), rtol=1e-10)


def test_coordinate_frame_diagonalizes_the_metric():
    rng = np.random.default_rng(32)
    for _ in range(10):
        p = _distinct_point(rng)
        t = KL.theta_matrix(LATTICE, p)
        R = pseudo_inverse(response_matrix(LATTICE, t))
        assert abs(D1 @ R @ D2) < 1e-12
        assert D1 @ R @ D1 == pytest.approx(1.0 / t[0, 1], rel=1e-12)
        assert D2 @ R @ D2 == pytest.approx(1.0 / t[1, 2], rel=1e-12)


def test_closed_form_matches_the_tensor_route():
    rng = np.random.default_rng(33)
    for _ in range(10):
        p = _distinct_point(rng)
        k12, _, _, _ = lattice3_closed_forms(KL, p)
        R = pseudo_inverse(response_at(LATTICE, KL, p))
        num = riemann(LATTICE, KL, R @ D1, R @ D2, R @ D2, R @ D1, p)
        assert num == pytest.approx(k12, abs=1e-9 * (1 + abs(k12)))


def test_sweep_grid_three():
    g = sweep_grid(3)
    assert_allclose(g, GRID3, atol=1e-15)
    assert_allclose(g.sum(axis=1), 1.0, atol=1e-15)
    assert g.min() == pytest.approx(0.0625)


def test_sweep_midline_rows_are_finite():
    rows = lattice3_sweep(KL, 5)
    assert rows.shape == (25, len(SWEEP_COLUMNS))
    assert np.isfinite(rows).all()
    # on the p2 == p3 midline the per-family form is singular and the sweep
    # falls back to the general route
    midline = np.abs(rows[:, 1] - rows[:, 2]) < 1e-15
    assert midline.sum() == 5
    mid = rows[(abs(rows[:, 0] - 0.5) < 1e-12) & midline]
    assert mid.shape[0] == 1 and mid[0, 1] == pytest.approx(0.25)
    assert mid[0, 3] == pytest.approx(-8.7363, abs=1e-4)

    assert (rows[:, 3] < 0).all()
    assert rows[:, 7].max() < 1e-9
    for model in (AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0)):
        rows = lattice3_sweep(model, 5)
        assert np.isfinite(rows).all()
        assert (rows[:, 3] < 0).all()
        assert rows[:, 7].max() < 1e-9

    assert np.isfinite(lattice3_sweep(KL, 4)).all()


def test_sweep_uses_the_general_route_for_custom_models():
    model = CustomMean(lambda chain, p: 9.0 * np.outer(p, p))
    rows = lattice3_sweep(model, 5)
    assert not np.isnan(rows[:, 3]).any()
    assert rows[:, 7].max() < 1e-9


def test_sweep_columns_are_stable():
    assert SWEEP_COLUMNS == ("p1", "p2", "p3", "K12", "R11", "R22", "S",
                             "oracle_residual")


# -- the sweep as stacked evaluations ---------------------------------------------

SWEEP_MODELS = [GeometricMean(beta=b, c=9.0, convention="scaled") for b in (0.5, 1.0, 2.0)] + [
    GeometricMean(beta=0.7), KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0),
    CustomMean(lambda chain, p: 9.0 * np.outer(p, p)),
]


def _single_point_row(model, p):
    """One sweep row from the single-point API: the specialization where the
    model has one and it is regular, the partials route elsewhere, and the
    plane numerator of a single-point tensor."""
    try:
        route = "partials" if isinstance(model, CustomMean) else "example"
        forms = np.array(lattice3_closed_forms(model, p, route=route))
    except EqualComponents:
        forms = np.array(lattice3_closed_forms(model, p, route="partials"))
    geo = PointGeometry(LATTICE, model, p)
    numerator = _riemann_assembled(geo, [geo.R @ D1, geo.R @ D2])[0, 1, 1, 0]
    return forms, abs(numerator - forms[0])


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: f"{m.kind}")
def test_stacked_sweep_matches_the_single_point_routes(model):
    rows = lattice3_sweep(model, 5)
    assert np.isfinite(rows).all()
    for row in rows:
        forms, residual = _single_point_row(model, row[:3])
        assert_allclose(row[3:7], forms, rtol=1e-13, atol=0.0)
        assert abs(row[7] - residual) <= 1e-12 * abs(forms[0])
    if isinstance(model, KLLogMean):
        # the rows compared include the p2 == p3 midline, where the sweep
        # takes the partials route
        assert (rows[:, 1] == rows[:, 2]).sum() == 5


def _degenerate_at(points):
    """9 p p^T, with edge (1, 2) cut at the given points, where L(theta) has a
    two-dimensional kernel."""
    def theta(chain, p):
        t = 9.0 * np.outer(p, p)
        if any(np.array_equal(p, q) for q in points):
            t[0, 1] = t[1, 0] = 0.0
        return t
    return CustomMean(theta)


def test_sweep_flags_exactly_the_degenerate_rows():
    grid = sweep_grid(4)
    chosen = [3, 8, 9]
    clean = lattice3_sweep(_degenerate_at([]), 4)
    rows = lattice3_sweep(_degenerate_at(grid[chosen]), 4)
    flagged = np.flatnonzero(np.isnan(rows[:, 3:]).any(axis=1))
    assert flagged.tolist() == chosen
    assert np.isnan(rows[chosen, 3:]).all()
    assert_array_equal(rows[:, :3], grid)
    others = np.setdiff1d(np.arange(len(grid)), chosen)
    assert_array_equal(rows[others], clean[others])


class _Counting(GeometricMean):
    """A geometric mean that counts its model evaluations: theta, D1 and S
    all come from `_edges`."""

    evaluations = 0

    def _edges(self, chain, p, order):
        self.evaluations += 1
        return super()._edges(chain, p, order)


def test_multi_block_sweep_evaluates_per_block(monkeypatch):
    models = [_Counting(beta=1.0, c=9.0, convention="scaled"), KLLogMean(), AlphaMean(2.0)]
    whole = [lattice3_sweep(model, 5) for model in models]
    per_sweep, models[0].evaluations = models[0].evaluations, 0
    # blocks of 7 rows: a (rows, 2, E) array on the 3-path holds 4 doubles a row
    monkeypatch.setattr(connection, "ROW_BLOCK", 7 * 4)
    assert len(connection.row_blocks(25, LATTICE)) == 4
    for model, rows in zip(models, whole):
        assert_array_equal(lattice3_sweep(model, 5), rows)
    assert models[0].evaluations == 4 * per_sweep < 25


@pytest.mark.parametrize("model", [KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0),
                                   KLLogMean(convention="scaled", c=3.0)],
                         ids=["kl", "alpha-1", "alpha0", "alpha2", "kl-scaled"])
def test_example_route_guards_near_equal_components(model):
    # below the guard the specialization loses its digits to cancellation
    # (23 % at a gap of 1e-8 for kl); from the guard up it meets the
    # partials route
    rng = np.random.default_rng(93)
    for gap in (1e-8, 1e-7, 1e-6, 1e-5, 5e-5, 9.9e-5, 1e-4, 3e-4, 1e-3):
        for _ in range(5):
            a, b = rng.uniform(0.1, 0.8, 2)
            p = np.array([a, b + gap / 2, b - gap / 2])
            p = (p if rng.random() < 0.5 else p[::-1]) / (a + 2 * b)
            partials = np.array(lattice3_closed_forms(model, p, route="partials"))
            if min(abs(p[0] - p[1]), abs(p[1] - p[2])) < EXAMPLE_MIN_GAP:
                with pytest.raises(EqualComponents, match="adjacent components coincide"):
                    lattice3_closed_forms(model, p, route="example")
                # the sweep takes the partials route there
                assert_array_equal(_sweep_forms(model, p[None])[0], partials)
            else:
                example = np.array(lattice3_closed_forms(model, p, route="example"))
                assert_allclose(example, partials, rtol=0, atol=2e-7 * abs(partials).max())


def test_sweep_grids_have_no_gap_inside_the_guard():
    # their adjacent gaps are 0 or at least about 1/2500, so the guard
    # changes no row of a sweep
    for resolution in (25, 50):
        p = sweep_grid(resolution)
        gap = np.minimum(abs(p[:, 0] - p[:, 1]), abs(p[:, 1] - p[:, 2]))
        assert_array_equal(gap < EXAMPLE_MIN_GAP, gap < 1e-12)
