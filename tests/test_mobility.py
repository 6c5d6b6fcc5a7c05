import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onsagergeo import (
    AlphaMean,
    BoundaryPoint,
    CustomMean,
    GeometricMean,
    KLLogMean,
    NoDivergenceDefined,
    NonconvexF,
    as_simplex_point,
    check_interior,
    lattice3_chain,
    model_from_spec,
    triangle_reaction_chain,
)
from onsagergeo.acceptance import random_interior_point, random_reversible_chain
from onsagergeo.mobility import DELTA_RATIO, _DivergenceMean
from oracles import constant_mobility

LATTICE = lattice3_chain()
TRIANGLE = triangle_reaction_chain()

MODELS = [KLLogMean(), AlphaMean(-1.0), AlphaMean(0.0), AlphaMean(2.0),
          GeometricMean(0.5)]
MODEL_IDS = ["kl", "alpha-1", "alpha0", "alpha2", "geometric"]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_theta_is_one_at_stationary(model):
    for chain in (LATTICE, TRIANGLE):
        t = model.theta_matrix(chain, chain.pi)
        assert_allclose(t[chain.edge_mask], 1.0, atol=1e-12)


def test_scaled_log_mean_formula():
    model = KLLogMean(convention="scaled", c=3.0)
    t = model.theta_matrix(LATTICE, np.array([0.5, 0.3, 0.2]))
    # logarithmic mean of the scaled densities (1.5, 0.9, 0.6)
    assert t[0, 1] == pytest.approx(0.6 / np.log(5.0 / 3.0), rel=1e-14)
    assert t[0, 1] == pytest.approx(1.1745691133827305, rel=1e-13)
    assert t[1, 2] == pytest.approx(0.3 / np.log(1.5), rel=1e-14)
    assert t[0, 2] == 0.0


def test_theta_positive_symmetric_masked():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n)
        for model in MODELS:
            t = model.theta_matrix(chain, p)
            assert (t[chain.edge_mask] > 0).all()
            assert_allclose(t, t.T, atol=1e-12 * (1 + t.max()))
            assert (t[~chain.edge_mask] == 0.0).all()


def test_log_mean_between_min_and_max_ratio():
    rng = np.random.default_rng(3)
    kl = KLLogMean()
    for _ in range(200):
        chain = random_reversible_chain(rng, 4)
        p = random_interior_point(rng, 4)
        z = p / chain.pi
        t = kl.theta_matrix(chain, p)
        for i, j in chain.edges:
            assert min(z[i], z[j]) - 1e-12 <= t[i, j] <= max(z[i], z[j]) + 1e-12


def test_equal_ratios_take_the_series_value():
    # z1 == z2 == 0.75 exactly; the log mean degenerates to z itself
    t = KLLogMean().theta_matrix(LATTICE, np.array([0.25, 0.25, 0.5]))
    assert t[0, 1] == pytest.approx(0.75, abs=1e-14)


def test_theta_continuous_toward_equal_ratios():
    kl = KLLogMean()
    base = np.array([0.25, 0.25, 0.5])
    target = kl.theta_matrix(LATTICE, base)[0, 1]
    errs = [abs(kl.theta_matrix(LATTICE, base + np.array([g, -g, 0.0]))[0, 1] - target)
            for g in (1e-4, 1e-6, 1e-8, 1e-10)]
    assert errs[0] < 1e-6
    assert errs[1] < 1e-10
    assert errs[2] < 1e-13
    assert errs[3] < 1e-13


def test_branch_crossing_is_seamless():
    # straddle the series/generic switchover of the ratio gap
    kl = KLLogMean()
    u = np.full(3, 1.0 / 3.0)
    lo = u + np.array([0.99e-7 / 6, -0.99e-7 / 6, 0.0])
    hi = u + np.array([1.01e-7 / 6, -1.01e-7 / 6, 0.0])
    t_lo, d_lo = kl.theta_d1_matrices(LATTICE, lo)
    t_hi, d_hi = kl.theta_d1_matrices(LATTICE, hi)
    assert abs(t_lo[0, 1] - t_hi[0, 1]) < 1e-12
    assert abs(d_lo[0, 1] - d_hi[0, 1]) < 1e-7


def test_kl_first_partials_match_fd():
    rng = np.random.default_rng(11)
    kl = KLLogMean()
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = 3 + int(rng.integers(0, 3))
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n)
        d1 = kl.d1_matrix(chain, p)
        for i, j in chain.edges:
            e = np.zeros(n)
            e[i] = h
            fd = (kl.theta_matrix(chain, p + e)[i, j]
                  - kl.theta_matrix(chain, p - e)[i, j]) / (2 * h)
            worst = max(worst, abs(d1[i, j] - fd) / max(abs(fd), 1e-12))
    assert worst < 1e-6


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
def test_alpha_second_partials_match_fd(alpha):
    rng = np.random.default_rng(int(10 * alpha) + 100)
    model = AlphaMean(alpha)
    h = 1e-4
    for _ in range(20):
        chain = random_reversible_chain(rng, 3)
        p = random_interior_point(rng, 3, floor=0.05)
        s_ii, s_ij = model.d2_matrices(chain, p)
        for i, j in chain.edges:
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            t = lambda q: model.theta_matrix(chain, q)[i, j]
            fd_ii = (t(p + ei) - 2 * t(p) + t(p - ei)) / h**2
            fd_ij = (t(p + ei + ej) - t(p + ei - ej)
                     - t(p - ei + ej) + t(p - ei - ej)) / (4 * h**2)
            assert s_ii[i, j] == pytest.approx(fd_ii, rel=1e-4, abs=1e-5)
            assert s_ij[i, j] == pytest.approx(fd_ij, rel=1e-4, abs=1e-5)


@pytest.mark.parametrize("model", [GeometricMean(0.5), GeometricMean(1.3),
                                   GeometricMean(beta=0.7, c=4.0, convention="scaled")],
                         ids=["pi-half", "pi-1.3", "scaled"])
def test_geometric_partials_are_exact(model):
    rng = np.random.default_rng(8)
    b = model.beta
    for _ in range(20):
        chain = random_reversible_chain(rng, 4)
        p = random_interior_point(rng, 4)
        t = model.theta_matrix(chain, p)
        d1 = model.d1_matrix(chain, p)
        s_ii, s_ij = model.d2_matrices(chain, p)
        assert_allclose(d1, b * t / p[:, None], atol=1e-13 * (1 + t.max()))
        assert_allclose(s_ii, b * (b - 1) * t / p[:, None] ** 2, rtol=1e-12, atol=1e-12)
        assert_allclose(s_ij, b**2 * t / np.outer(p, p), rtol=1e-12, atol=1e-12)


def test_alpha_minus_one_is_the_product_mean():
    model = AlphaMean(-1.0)
    p = np.array([0.5, 0.3, 0.2])
    z = p / LATTICE.pi
    t = model.theta_matrix(LATTICE, p)
    assert t[0, 1] == pytest.approx(z[0] * z[1], rel=1e-13)
    s_ii, s_ij = model.d2_matrices(LATTICE, p)
    assert np.abs(s_ii).max() < 1e-12
    assert s_ij[0, 1] == pytest.approx(1 / (LATTICE.pi[0] * LATTICE.pi[1]), rel=1e-12)


def test_alpha_three_gives_constant_mobility():
    model = AlphaMean(3.0)
    p = np.array([0.5, 0.3, 0.2])
    assert_allclose(model.theta_matrix(LATTICE, p)[LATTICE.edge_mask], 1.0, atol=1e-14)
    assert np.abs(model.d1_matrix(LATTICE, p)).max() == 0.0
    s_ii, s_ij = model.d2_matrices(LATTICE, p)
    assert np.abs(s_ii).max() == 0.0 and np.abs(s_ij).max() == 0.0


def test_alpha_one_is_rejected():
    with pytest.raises(ValueError, match="alpha = 1"):
        AlphaMean(1.0)


def test_nonconvex_family_rejected():
    class Concave(_DivergenceMean):
        kind = "concave"

        def f0(self, z):
            return -z**2

        def f1(self, z):
            return -2 * z

        def f2(self, z):
            return -2 * np.ones_like(z)

        def f3(self, z):
            return np.zeros_like(z)

        f4 = f3
        f5 = f3

    with pytest.raises(NonconvexF):
        Concave().theta_matrix(LATTICE, np.array([0.5, 0.3, 0.2]))


@pytest.mark.parametrize("model", [KLLogMean(), AlphaMean(-1.0), AlphaMean(2.0)],
                         ids=["kl", "alpha-1", "alpha2"])
def test_divergence_vanishes_at_reference(model):
    for chain in (LATTICE, TRIANGLE):
        assert model.divergence(chain, chain.pi) == pytest.approx(0.0, abs=1e-14)
        g = model.divergence_gradient(chain, chain.pi)
        assert_allclose(g, g[0], atol=1e-14)  # constant vector, killed by L


def test_kl_divergence_frozen_value():
    d = KLLogMean().divergence(LATTICE, np.array([0.5, 0.3, 0.2]))
    assert d == pytest.approx(0.06895927460353615, rel=1e-14)


def test_divergence_gradient_matches_fd():
    rng = np.random.default_rng(21)
    eps = 1e-6
    for model in (KLLogMean(), AlphaMean(0.0), AlphaMean(2.0)):
        for _ in range(20):
            n = 3 + int(rng.integers(0, 3))
            chain = random_reversible_chain(rng, n)
            p = random_interior_point(rng, n, floor=0.01)
            delta = rng.normal(size=n)
            delta -= delta.mean()
            fd = (model.divergence(chain, p + eps * delta)
                  - model.divergence(chain, p - eps * delta)) / (2 * eps)
            assert fd == pytest.approx(
                float(model.divergence_gradient(chain, p) @ delta), abs=1e-7)


def test_geometric_mean_has_no_divergence():
    model = GeometricMean(0.5)
    assert not model.has_divergence
    assert KLLogMean().has_divergence
    with pytest.raises(NoDivergenceDefined):
        model.divergence(LATTICE, np.array([0.5, 0.3, 0.2]))
    with pytest.raises(NoDivergenceDefined):
        model.divergence_gradient(LATTICE, np.array([0.5, 0.3, 0.2]))


def test_custom_mean_fd_matches_analytic():
    ref = GeometricMean(beta=1.0, c=9.0, convention="scaled")
    custom = CustomMean(lambda chain, p: 9.0 * np.outer(p, p))
    p = np.array([0.5, 0.3, 0.2])
    assert_allclose(custom.theta_matrix(LATTICE, p), ref.theta_matrix(LATTICE, p),
                    atol=1e-14)
    assert_allclose(custom.d1_matrix(LATTICE, p), ref.d1_matrix(LATTICE, p),
                    rtol=1e-8, atol=1e-8)
    c_ii, c_ij = custom.d2_matrices(LATTICE, p)
    r_ii, r_ij = ref.d2_matrices(LATTICE, p)
    assert_allclose(c_ii, r_ii, rtol=1e-5, atol=1e-5)
    assert_allclose(c_ij, r_ij, rtol=1e-5, atol=1e-5)


def test_custom_mean_divergence_triple():
    kl = KLLogMean()
    custom = CustomMean(
        lambda chain, p: np.ones((chain.n, chain.n)),
        f=(lambda z: z * np.log(z) - z + 1.0, np.log, lambda z: 1.0 / z),
    )
    assert custom.has_divergence
    p = np.array([0.5, 0.3, 0.2])
    assert custom.divergence(LATTICE, p) == pytest.approx(
        kl.divergence(LATTICE, p), rel=1e-14)
    assert_allclose(custom.divergence_gradient(LATTICE, p),
                    kl.divergence_gradient(LATTICE, p), atol=1e-14)
    assert_allclose(custom.divergence_hessian_diag(LATTICE, p),
                    kl.divergence_hessian_diag(LATTICE, p), atol=1e-14)


def test_constant_mobility_is_flat():
    model = constant_mobility()
    p = np.array([0.5, 0.3, 0.2])
    assert_allclose(model.theta_matrix(LATTICE, p)[LATTICE.edge_mask], 1.0)
    assert np.abs(model.d1_matrix(LATTICE, p)).max() < 1e-9
    s_ii, s_ij = model.d2_matrices(LATTICE, p)
    assert np.abs(s_ii).max() < 1e-6 and np.abs(s_ij).max() < 1e-6
    with pytest.raises(NoDivergenceDefined):
        model.divergence(LATTICE, p)


def test_model_from_spec():
    assert isinstance(model_from_spec({"kind": "kl"}), KLLogMean)
    m = model_from_spec({"kind": "alpha", "alpha": 2.0})
    assert isinstance(m, AlphaMean) and m.alpha == 2.0
    g = model_from_spec({"kind": "geometric", "beta": 1.0, "c": 9.0,
                         "convention": "scaled"})
    assert (g.beta, g.c, g.convention) == (1.0, 9.0, "scaled")

    with pytest.raises(ValueError, match="unknown mobility kind"):
        model_from_spec({"kind": "nope"})
    with pytest.raises(ValueError, match="requires key 'alpha'"):
        model_from_spec({"kind": "alpha"})
    with pytest.raises(ValueError, match="unknown mobility keys"):
        model_from_spec({"kind": "kl", "beta": 1.0})
    with pytest.raises(ValueError, match="must be a mapping"):
        model_from_spec("kl")


# (spec, the parameter named in the error, its kind of fault)
BAD_PARAMETERS = [
    ({"kind": "alpha", "alpha": float("nan")}, "alpha", "must be finite, got nan"),
    ({"kind": "alpha", "alpha": float("inf")}, "alpha", "must be finite, got inf"),
    ({"kind": "alpha", "alpha": -float("inf")}, "alpha", "must be finite, got -inf"),
    ({"kind": "alpha", "alpha": "2"}, "alpha", "must be a number, got '2'"),
    ({"kind": "alpha", "alpha": True}, "alpha", "must be a number, got True"),
    ({"kind": "alpha", "alpha": None}, "alpha", "must be a number, got None"),
    ({"kind": "geometric", "beta": float("nan")}, "beta", "must be finite, got nan"),
    ({"kind": "geometric", "beta": True}, "beta", "must be a number, got True"),
    ({"kind": "geometric", "beta": [0.5]}, "beta", "must be a number, got [0.5]"),
    ({"kind": "geometric", "c": float("inf"), "convention": "scaled"}, "c",
     "must be finite, got inf"),
    ({"kind": "kl", "c": float("nan"), "convention": "scaled"}, "c", "must be finite, got nan"),
    ({"kind": "kl", "c": float("inf"), "convention": "scaled"}, "c", "must be finite, got inf"),
    ({"kind": "alpha", "alpha": 2.0, "c": "3", "convention": "scaled"}, "c",
     "must be a number, got '3'"),
    ({"kind": "kl", "c": False, "convention": "scaled"}, "c", "must be a number, got False"),
    # the pi convention takes its ratio constants from the chain
    ({"kind": "kl", "c": 3}, "c", "applies to the scaled convention only"),
    ({"kind": "geometric", "c": 5}, "c", "applies to the scaled convention only"),
    ({"kind": "alpha", "alpha": 2.0, "c": 3.0, "convention": "pi"}, "c",
     "applies to the scaled convention only"),
]
BAD_IDS = ["alpha-nan", "alpha-inf", "alpha-minus-inf", "alpha-string", "alpha-bool",
           "alpha-none", "beta-nan", "beta-bool", "beta-list", "geometric-c-inf", "kl-c-nan",
           "kl-c-inf", "alpha-c-string", "kl-c-bool", "kl-c-pi", "geometric-c-pi",
           "alpha-c-pi"]


@pytest.mark.parametrize("spec,name,fault", BAD_PARAMETERS, ids=BAD_IDS)
def test_invalid_model_parameters_are_rejected(spec, name, fault):
    message = f"model parameter '{name}' {fault}"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_spec(spec)
    params = {k: v for k, v in spec.items() if k != "kind"}
    build = {"alpha": AlphaMean, "geometric": GeometricMean, "kl": KLLogMean}[spec["kind"]]
    with pytest.raises(ValueError, match=re.escape(message)):
        build(**params)


def test_model_parameters_are_kept_as_floats():
    assert AlphaMean(2).alpha == 2.0 and isinstance(AlphaMean(2).alpha, float)
    assert AlphaMean(np.float32(0.5)).alpha == 0.5
    g = GeometricMean(np.int64(1), c=9, convention="scaled")
    assert (g.beta, g.c) == (1.0, 9.0) and isinstance(g.c, float)
    assert KLLogMean().c is None
    with pytest.raises(ValueError, match="alpha = 1"):
        AlphaMean(np.float64(1.0))
    with pytest.raises(ValueError, match="requires c > 0"):
        KLLogMean(convention="scaled", c=-1.0)


@pytest.mark.parametrize("model", MODELS + [constant_mobility()],
                         ids=MODEL_IDS + ["custom"])
def test_combined_accessor_matches_separate_calls(model):
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = 3 + int(rng.integers(0, 3))
        chain = random_reversible_chain(rng, n)
        p = random_interior_point(rng, n)
        t, d = model.theta_d1_matrices(chain, p)
        assert np.array_equal(t, model.theta_matrix(chain, p))
        assert np.array_equal(d, model.d1_matrix(chain, p))


STACK_MODELS = MODELS + [GeometricMean(1.0, c=9.0, convention="scaled"),
                         CustomMean(lambda chain, p: np.sqrt(np.outer(p, p)))]
STACK_IDS = MODEL_IDS + ["geometric-scaled", "custom"]


@pytest.mark.parametrize("model", STACK_MODELS, ids=STACK_IDS)
def test_stacked_points_match_row_by_row(model):
    rng = np.random.default_rng(19)
    chain = random_reversible_chain(rng, 5)
    P = np.array([random_interior_point(rng, 5) for _ in range(4)])
    # row 1 gets an equal-ratio pair, which puts it on the Taylor branch
    P[1, 1] = P[1, 0] / chain.pi[0] * chain.pi[1]
    P[1] /= P[1].sum()
    z = P[1] / chain.pi
    assert abs(z[0] - z[1]) < DELTA_RATIO
    t, d = model.theta_d1_matrices(chain, P)
    s_ii, s_ij = model.d2_matrices(chain, P)
    th = model.theta_matrix(chain, P)
    assert t.shape == th.shape == s_ii.shape == (4, 5, 5)
    for k, p in enumerate(P):
        rows = (t[k], d[k], th[k], s_ii[k], s_ij[k])
        singles = (*model.theta_d1_matrices(chain, p), model.theta_matrix(chain, p),
                   *model.d2_matrices(chain, p))
        for got, want in zip(rows, singles):
            assert_allclose(got, want, rtol=0, atol=1e-15 * max(1.0, abs(want).max()))
    # any number of leading axes
    t2, d2 = model.theta_d1_matrices(chain, P.reshape(2, 2, 5))
    assert np.array_equal(t2.reshape(4, 5, 5), t)
    assert np.array_equal(d2.reshape(4, 5, 5), d)


def test_interior_validation():
    with pytest.raises(BoundaryPoint):
        check_interior(np.array([0.7, 0.3, 0.0]))
    with pytest.raises(BoundaryPoint):
        KLLogMean().theta_matrix(LATTICE, np.array([0.7, 0.3, 0.0]))
    with pytest.raises(ValueError, match="sum"):
        as_simplex_point([0.5, 0.5, 0.1])
    assert_allclose(as_simplex_point([0.5, 0.3, 0.2]), [0.5, 0.3, 0.2])


def test_non_finite_points_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BoundaryPoint, match="non-finite"):
            check_interior(np.array([bad, 0.5, 0.5]))
        with pytest.raises(BoundaryPoint, match="non-finite"):
            as_simplex_point([bad, 0.5, 0.5])


def test_convention_validation():
    with pytest.raises(ValueError):
        KLLogMean(convention="scaled")  # needs c
    with pytest.raises(ValueError):
        KLLogMean(convention="weird")
    with pytest.raises(ValueError):
        GeometricMean(convention="weird")
    with pytest.raises(ValueError):
        GeometricMean(convention="scaled", c=-1.0)


@pytest.mark.parametrize("model", STACK_MODELS, ids=STACK_IDS)
def test_edge_arrays_match_the_matrices_and_finite_differences(model):
    rng = np.random.default_rng(23)
    chain = random_reversible_chain(rng, 5)
    P = np.array([random_interior_point(rng, 5, floor=0.02) for _ in range(3)])
    # row 1 gets equal ratios on the edge (0, 1), which puts it on the Taylor branch
    P[1, 1] = P[1, 0] / chain.pi[0] * chain.pi[1]
    P[1] /= P[1].sum()
    assert abs(P[1, 0] / chain.pi[0] - P[1, 1] / chain.pi[1]) < DELTA_RATIO
    i, j = chain.edge_ends
    E = len(chain.edges)
    assert list(zip(i, j)) == list(chain.edges)
    t, d = model.theta_d1_edges(chain, P)
    s_ii, s_ij = model.d2_edges(chain, P)
    assert t.shape == s_ij.shape == (3, E) and d.shape == s_ii.shape == (3, 2, E)
    assert np.array_equal(model.theta_edges(chain, P), t)
    # the matrix accessors hold the same numbers, (i, j) for end i and
    # (j, i) for end j, and zeros off the edges
    theta, d1 = model.theta_d1_matrices(chain, P)
    m_ii, m_ij = model.d2_matrices(chain, P)
    for both, ends in ((theta, t), (m_ij, s_ij)):
        assert np.array_equal(both[:, i, j], ends) and np.array_equal(both[:, j, i], ends)
    for two, ends in ((d1, d), (m_ii, s_ii)):
        assert np.array_equal(two[:, i, j], ends[:, 0]) and np.array_equal(two[:, j, i], ends[:, 1])
    for dense in (theta, d1, m_ii, m_ij):
        assert (dense[:, ~chain.edge_mask] == 0.0).all()

    def theta_at(Q):
        return model.theta_edges(chain, Q)

    # the Taylor row's neighbours at p +- h are on the generic quotients,
    # whose theta loses eps / |z_i - z_j| to cancellation: about 1e-11 at
    # h1 = 1e-5, which the first differences divide by h1, and 1e-12 at
    # h2 = 1e-4, which the second differences divide by h2^2 (hence atol)
    h1, h2 = 1e-5, 1e-4
    for k in range(chain.n):
        e = np.zeros(chain.n)
        e[k] = 1.0
        fd1 = (theta_at(P + h1 * e) - theta_at(P - h1 * e)) / (2 * h1)
        fd2 = (theta_at(P + h2 * e) - 2 * t + theta_at(P - h2 * e)) / h2**2
        for end, at in ((0, i == k), (1, j == k)):
            assert_allclose(d[:, end, at], fd1[:, at], rtol=1e-6, atol=1e-8)
            assert_allclose(s_ii[:, end, at], fd2[:, at], rtol=1e-4, atol=1e-4)
    for e, (a, b) in enumerate(chain.edges):
        ea, eb = np.zeros(chain.n), np.zeros(chain.n)
        ea[a] = eb[b] = h2
        mixed = (theta_at(P + ea + eb) - theta_at(P + ea - eb)
                 - theta_at(P - ea + eb) + theta_at(P - ea - eb)) / (4 * h2**2)
        assert_allclose(s_ij[:, e], mixed[:, e], rtol=1e-4, atol=1e-4)


# (a fresh model, the names of its constructor parameters)
FAMILIES = [
    (lambda: KLLogMean(), {"convention", "c"}),
    (lambda: AlphaMean(2.0, convention="scaled", c=5.0), {"alpha", "convention", "c"}),
    (lambda: GeometricMean(0.7), {"beta", "convention", "c"}),
    (lambda: GeometricMean(1.0, c=9.0, convention="scaled"), {"beta", "convention", "c"}),
    (lambda: CustomMean(lambda chain, p: np.sqrt(np.outer(p, p)) + 0.1), {"theta_fn", "f"}),
]


@pytest.mark.parametrize("fresh,params", FAMILIES,
                         ids=["kl", "alpha-scaled", "geometric", "geometric-scaled", "custom"])
def test_models_hold_no_chain_state(fresh, params):
    # one model on chains A, B, A in turn gives the bits of a fresh model on
    # each, and keeps nothing of them
    rng = np.random.default_rng(29)
    chains = [random_reversible_chain(rng, 4), random_reversible_chain(rng, 5)]
    points = [np.array([random_interior_point(rng, ch.n) for _ in range(2)]) for ch in chains]
    for P, chain in zip(points, chains):
        # row 1 on the Taylor branch of a divergence mean in the pi convention
        P[1, 1] = P[1, 0] / chain.pi[0] * chain.pi[1]
        P[1] /= P[1].sum()

    def evaluations(model, chain, P):
        out = [model.theta_edges(chain, P), *model.theta_d1_edges(chain, P),
               *model.d2_edges(chain, P)]
        if model.has_divergence:
            out += [model.divergence(chain, P), model.divergence_gradient(chain, P),
                    model.divergence_hessian_diag(chain, P)]
        return out

    model = fresh()
    for k in (0, 1, 0):
        got = evaluations(model, chains[k], points[k])
        want = evaluations(fresh(), chains[k], points[k])
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert set(vars(model)) == params
