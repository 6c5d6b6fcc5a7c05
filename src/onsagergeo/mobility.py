"""Mean functions (mobilities) on edges, their analytic partial derivatives,
and the paired divergences.

A mobility model assigns every edge (i, j) a positive weight theta_ij built
from the density ratios z = p/pi (or z = c*p in the "scaled" convention used
by the three-point closed forms).  The divergence-paired families are

  log-mean        theta = (z_j - z_i)/(log z_j - log z_i),  f = z log z - z + 1
  alpha-mean      theta = (z_j - z_i)/(f'(z_j) - f'(z_i)),  f the alpha family
  geometric mean  theta = (z_i z_j)^beta                    (no paired f)

Near equal ratios all quotients switch to two-term Taylor expansions about the
midpoint ratio, which is also how the limiting value theta -> 1/f''(z) is
realized numerically.

Models evaluate theta and its partials on the chain's edges (see
`ReversibleChain`): theta and the mixed second partial once per edge, shape
(..., E), and the partials by one endpoint at both ends, shape (..., 2, E).
The matrix accessors scatter those arrays to (..., n, n).
"""

import numbers

import numpy as np

from .chains import INCIDENCE, edge_matrix, gather
from .errors import (
    BoundaryPoint,
    NonconvexF,
    NoDivergenceDefined,
    UnsupportedVertex,
)

EPS_BOUNDARY = 1e-9   # interior margin for simplex points
DELTA_RATIO = 1e-7    # |z_i - z_j| below which the Taylor branch is used
H1 = 1e-6             # FD step for first partials (Custom models)
H2 = 1e-4             # FD step for second partials (Custom models)


def check_interior(p, eps=EPS_BOUNDARY):
    """Return p as an array, raising BoundaryPoint unless every entry is finite and >= eps."""
    p = np.asarray(p, dtype=float)
    # the minimum is nan when an entry is nan, the sum is inf when an entry is
    # +inf (the ufuncs' own reductions: `p.min()` adds a Python call)
    if not (np.minimum.reduce(p, None) >= eps and np.add.reduce(p, None) < np.inf):
        if not np.isfinite(p).all():
            raise BoundaryPoint(f"point has a non-finite entry ({p})")
        raise BoundaryPoint(f"point touches the simplex boundary (min entry {p.min():.3e})")
    return p


def model_parameter(name, value):
    """A model parameter as a float, raising ValueError unless it is a finite
    real number: a bool, a string or a non-finite value is rejected."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"model parameter {name!r} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"model parameter {name!r} must be finite, got {value!r}")
    return value


def as_simplex_point(p, eps=EPS_BOUNDARY):
    """Validate an interior simplex point (positive entries, sums to one)."""
    p = check_interior(p, eps)
    s = p.sum()
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {s!r}, expected 1")
    return p


class MobilityModel:
    """Base class; concrete models evaluate theta and its partial derivatives
    on the edges (i, j) of the chain:
        theta_ij and S_ij = d^2 theta_ij / d p_i d p_j, one per edge;
        D1 = d theta_ij / d p_a and S_aa = d^2 theta_ij / d p_a^2 at both ends
        a = i, j (end i first).

    Every accessor also takes a stack of points of shape (..., n) on the one
    chain and returns one array per point: (..., E) or (..., 2, E) for the
    edge accessors, (..., n, n) for the matrix accessors.
    """

    kind = "abstract"
    has_divergence = False

    # -- edge arrays, implemented by subclasses on validated points ----------
    def _theta_edges(self, chain, p):
        raise NotImplementedError

    def _theta_d1_edges(self, chain, p):
        raise NotImplementedError

    def _d2_edges(self, chain, p):
        raise NotImplementedError

    # -- public accessors -----------------------------------------------------
    def theta_edges(self, chain, p):
        """theta on each edge, (..., E)."""
        return self._theta_edges(chain, check_interior(p))

    def theta_d1_edges(self, chain, p):
        """(theta, D1) from one evaluation: (..., E) and (..., 2, E)."""
        return self._theta_d1_edges(chain, check_interior(p))

    def d2_edges(self, chain, p):
        """(S_ii at both ends, S_ij): (..., 2, E) and (..., E)."""
        return self._d2_edges(chain, check_interior(p))

    def theta_matrix(self, chain, p):
        """Symmetric positive edge matrix theta, zero off the edge set."""
        return edge_matrix(chain, self.theta_edges(chain, p)[..., None, :])

    def d1_matrix(self, chain, p):
        """D1[i, j] = d theta_ij / d p_i on edges, zero elsewhere."""
        return self.theta_d1_matrices(chain, p)[1]

    def d2_matrices(self, chain, p):
        """(S_ii, S_ij) with S_ii[i, j] = d^2 theta_ij / d p_i^2 and
        S_ij[i, j] = d^2 theta_ij / d p_i d p_j (S_ij symmetric)."""
        s_ii, s_ij = self.d2_edges(chain, p)
        return edge_matrix(chain, s_ii), edge_matrix(chain, s_ij[..., None, :])

    def theta_d1_matrices(self, chain, p):
        """(theta, D1) as matrices in one call."""
        t, d = self.theta_d1_edges(chain, p)
        return edge_matrix(chain, t[..., None, :]), edge_matrix(chain, d)

    # -- divergence interface -------------------------------------------------
    def divergence(self, chain, p):
        raise NoDivergenceDefined(f"{self.kind} has no paired divergence")

    def divergence_gradient(self, chain, p):
        raise NoDivergenceDefined(f"{self.kind} has no paired divergence")

    def divergence_hessian_diag(self, chain, p):
        raise NoDivergenceDefined(f"{self.kind} has no paired divergence")


class _RatioMean(MobilityModel):
    """Shared machinery for models built from density ratios z.

    convention "pi":     z_i = p_i / pi_i        (reference = the chain's pi)
    convention "scaled": z_i = c * p_i           (uniform-reference closed-form
                                                  parameterization; weight 1/c)
    """

    def __init__(self, convention="pi", c=None):
        if convention not in ("pi", "scaled"):
            raise ValueError(f"unknown convention {convention!r}")
        if c is not None:
            c = model_parameter("c", c)
        if convention == "scaled":
            if c is None or c <= 0:
                raise ValueError("scaled convention requires c > 0")
        self.convention = convention
        self.c = c

    def _weights(self, chain):
        """Reference weights w with z = p / w."""
        if self.convention == "scaled":
            return np.full(chain.n, 1.0 / self.c)
        return chain.pi

    def _ratios(self, chain, p):
        w = self._weights(chain)
        return p / w, 1.0 / w  # z and s = dz/dp

    _scaled_chain = None  # the chain whose constants `_rescale` keeps

    def _rescale(self, chain):
        """Keep the constants of the chain: the reference weights w, (n,),
        and s = 1/w at the edge ends, unsigned and signed by INCIDENCE,
        (2, E).  They are computed on the chain's first evaluation and kept
        until another chain is evaluated."""
        self._w = self._weights(chain)
        self._s_ends = (1.0 / self._w)[chain.edge_ends]
        self._signed_s_ends = self._s_ends * INCIDENCE
        self._scaled_chain = chain


class _DivergenceMean(_RatioMean):
    """Mean functions theta = (z_j - z_i)/(f'(z_j) - f'(z_i)) for a convex f.

    Subclasses provide the scalar family f0..f5 (f and its first five
    derivatives, vectorized over numpy arrays).
    """

    has_divergence = True

    # scalar family, implemented by subclasses
    def f0(self, z):
        raise NotImplementedError

    def f1(self, z):
        raise NotImplementedError

    def f2(self, z):
        raise NotImplementedError

    def f3(self, z):
        raise NotImplementedError

    def f4(self, z):
        raise NotImplementedError

    def f5(self, z):
        raise NotImplementedError

    def _branching(self, chain, p):
        """Ratios plus the generic-branch plumbing on the edges (i, j).  The
        scalar family is evaluated on the ratio vectors (n calls per point)
        and gathered to the edge ends.  `patch` holds the indices and the
        midpoint data of the edges in the Taylor regime, or None when there
        are none (the usual case); `safe` is f'(z_j) - f'(z_i), one on those
        edges.  It keeps the chain's constants (`_rescale`) for the callers."""
        if self._scaled_chain is not chain:
            self._rescale(chain)
        z = p / self._w
        f1v = self.f1(z)
        f2v = self.f2(z)
        # the ratios of a checked point are finite, so the minimum decides as
        # any() would
        if np.minimum.reduce(f2v, None) <= 0:
            raise NonconvexF(f"f'' <= 0 at a sampled ratio ({self.kind})")
        ze = gather(z, chain.edge_ends)
        diff = ze[..., 1, :] - ze[..., 0, :]
        f1e = gather(f1v, chain.edge_ends)
        safe = f1e[..., 1, :] - f1e[..., 0, :]
        gap = np.abs(diff)
        if not np.minimum.reduce(gap, None) < DELTA_RATIO:
            return z, f2v, diff, safe, None
        near = gap < DELTA_RATIO
        idx = np.nonzero(near)
        zi, zj = ze[..., 0, :][idx], ze[..., 1, :][idx]
        patch = idx, 0.5 * (zi + zj), 0.5 * (zj - zi)
        return z, f2v, diff, np.where(near, 1.0, safe), patch

    def _taylor_theta(self, mid, half):
        """Two-term Taylor expansion of theta about the midpoint ratio."""
        f2m = self.f2(mid)
        return 1.0 / f2m - self.f4(mid) / (6.0 * f2m**2) * half**2

    def _taylor_d1(self, mid, half):
        """Two-term Taylor expansion of D1 at end i (before the ratio scale
        s); end j takes -half."""
        f2m = self.f2(mid)
        return -self.f3(mid) / (2.0 * f2m**2) + self.f4(mid) / (6.0 * f2m**2) * half

    # The generic formulas below hold off the Taylor edges only; the patch
    # overwrites those.  At end a of an edge with other end b the quotients
    # divide by f'(z_b) - f'(z_a), which is safe at end i and -safe at end j.
    def _theta_edges(self, chain, p):
        z, f2v, diff, safe, patch = self._branching(chain, p)
        t = diff / safe
        if patch is not None:
            idx, mid, half = patch
            t[idx] = self._taylor_theta(mid, half)
        return t

    def _theta_d1_edges(self, chain, p):
        """theta and D1 from one branching pass.  D1 divides by safe at both
        ends and takes the sign of end j with the ratio scale s (x / -safe
        times s is x / safe times -s, bit for bit), so the Taylor value at
        end j enters negated."""
        z, f2v, diff, safe, patch = self._branching(chain, p)
        t = diff / safe
        d = t[..., None, :] * gather(f2v, chain.edge_ends)
        d -= 1.0
        d /= safe[..., None, :]
        if patch is not None:
            idx, mid, half = patch
            t[idx] = self._taylor_theta(mid, half)
            d[..., 0, :][idx] = self._taylor_d1(mid, half)
            d[..., 1, :][idx] = -self._taylor_d1(mid, -half)
        d *= self._signed_s_ends
        return t, d

    def _d2_edges(self, chain, p):
        z, f2v, diff, safe, patch = self._branching(chain, p)
        ends = chain.edge_ends
        t = diff / safe
        f2e = gather(f2v, ends)
        f2i, f2j = f2e[..., 0, :], f2e[..., 1, :]
        den = safe[..., None, :] * INCIDENCE
        te = t[..., None, :]
        s_ii = 2.0 * f2e * (te * f2e - 1.0) / den**2 + te * gather(self.f3(z), ends) / den
        s_ij = (f2i + f2j - 2.0 * t * f2i * f2j) / safe**2
        if patch is not None:
            idx, mid, half = patch
            f2m = self.f2(mid)
            f3m = self.f3(mid)
            f4m = self.f4(mid)
            even = f3m**2 / (2.0 * f2m**3)
            odd = self.f5(mid) / (6.0 * f2m**2) - f4m * f3m / (3.0 * f2m**3)
            s_ii[..., 0, :][idx] = even - f4m / (3.0 * f2m**2) + half * odd
            s_ii[..., 1, :][idx] = even - f4m / (3.0 * f2m**2) - half * odd
            s_ij[idx] = even - f4m / (6.0 * f2m**2)
        se = self._s_ends
        return s_ii * se**2, s_ij * se[0] * se[1]

    # divergence D_f(p || reference) = sum_i w_i f(z_i) ----------------------
    def divergence(self, chain, p):
        """The divergence; one value per point of a stack."""
        p = check_interior(p)
        z, _ = self._ratios(chain, p)
        return (self._weights(chain) * self.f0(z)).sum(axis=-1)

    def divergence_gradient(self, chain, p):
        p = check_interior(p)
        z, _ = self._ratios(chain, p)
        return self.f1(z)

    def divergence_hessian_diag(self, chain, p):
        p = check_interior(p)
        z, s = self._ratios(chain, p)
        return self.f2(z) * s


class KLLogMean(_DivergenceMean):
    """Logarithmic mean of density ratios, paired with relative entropy."""

    kind = "kl-log-mean"

    def f0(self, z):
        return z * np.log(z) - z + 1.0

    def f1(self, z):
        return np.log(z)

    def f2(self, z):
        return 1.0 / z

    def f3(self, z):
        return -1.0 / z**2

    def f4(self, z):
        return 2.0 / z**3

    def f5(self, z):
        return -6.0 / z**4


class AlphaMean(_DivergenceMean):
    """The one-parameter divergence family (alpha != 1; alpha = -1 is the
    reciprocal/exact-limit member, alpha = 3 gives constant mobility)."""

    kind = "alpha-mean"

    def __init__(self, alpha, convention="pi", c=None):
        alpha = model_parameter("alpha", alpha)
        if alpha == 1:
            raise ValueError("alpha = 1 is excluded; use KLLogMean instead")
        super().__init__(convention, c)
        self.alpha = alpha

    def f0(self, z):
        a = self.alpha
        if a == -1.0:  # limit of the generic prefactor 4/(1 - a^2)
            return z - 1.0 - np.log(z)
        return 4.0 / (1.0 - a**2) * (
            (1.0 - a) / 2.0 + (1.0 + a) / 2.0 * z - z ** ((1.0 + a) / 2.0)
        )

    def f1(self, z):
        a = self.alpha
        return 2.0 / (a - 1.0) * (z ** ((a - 1.0) / 2.0) - 1.0)

    def f2(self, z):
        return z ** ((self.alpha - 3.0) / 2.0)

    def f3(self, z):
        a = self.alpha
        return (a - 3.0) / 2.0 * z ** ((a - 5.0) / 2.0)

    def f4(self, z):
        a = self.alpha
        return (a - 3.0) / 2.0 * (a - 5.0) / 2.0 * z ** ((a - 7.0) / 2.0)

    def f5(self, z):
        a = self.alpha
        return (a - 3.0) / 2.0 * (a - 5.0) / 2.0 * (a - 7.0) / 2.0 * z ** ((a - 9.0) / 2.0)


class GeometricMean(_RatioMean):
    """theta_ij = (z_i z_j)^beta ("pi") or c (p_i p_j)^beta ("scaled").

    beta = 1/2 in the pi convention is the classic geometric mean of the
    ratios.  No paired divergence exists for this family.
    """

    kind = "geometric-mean"
    has_divergence = False

    def __init__(self, beta=0.5, c=1.0, convention="pi"):
        super().__init__(convention, c)
        self.beta = model_parameter("beta", beta)

    def _theta_edges(self, chain, p):
        if self.convention == "scaled":
            pe = gather(p, chain.edge_ends)
            return self.c * (pe[..., 0, :] * pe[..., 1, :]) ** self.beta
        ze = gather(p / chain.pi, chain.edge_ends)
        return (ze[..., 0, :] * ze[..., 1, :]) ** self.beta

    def _theta_d1_edges(self, chain, p):
        t = self._theta_edges(chain, p)
        return t, self.beta * t[..., None, :] / gather(p, chain.edge_ends)

    def _d2_edges(self, chain, p):
        t = self._theta_edges(chain, p)
        pe = gather(p, chain.edge_ends)
        b = self.beta
        return (b * (b - 1.0) * t[..., None, :] / pe**2,
                b**2 * t / (pe[..., 0, :] * pe[..., 1, :]))


class CustomMean(MobilityModel):
    """User-supplied theta with finite-difference partials.

    Parameters
    ----------
    theta_fn : callable(chain, p) -> (n, n) array
        Full symmetric matrix of edge weights, called with one point at a
        time; it is read at the edge entries (off-edge entries ignored).
    f : optional triple (f0, f1, f2) of scalar callables
        Paired divergence family; enables the divergence interface.
    """

    kind = "custom"

    def __init__(self, theta_fn, f=None):
        self.theta_fn = theta_fn
        self.f = f
        self.has_divergence = f is not None

    def _theta_edges(self, chain, p):
        # the callback sees one point at a time and is read at each edge (i, j)
        i, j = chain.edge_ends
        rows = [np.asarray(self.theta_fn(chain, q), dtype=float)[i, j]
                for q in p.reshape(-1, chain.n)]
        return np.asarray(rows).reshape(p.shape[:-1] + i.shape)

    def _partials_by_vertex(self, chain, p, h, difference):
        """Two-ended values at the edge ends of each vertex k, from
        difference(theta at p + h e_k, theta at p - h e_k)."""
        out = np.empty(p.shape[:-1] + chain.edge_ends.shape)
        for k in range(chain.n):
            e = np.zeros(chain.n)
            e[k] = h
            value = difference(self._theta_edges(chain, p + e), self._theta_edges(chain, p - e))
            for end in (0, 1):
                mine = chain.edge_ends[end] == k
                out[..., end, mine] = value[..., mine]
        return out

    def _theta_d1_edges(self, chain, p):
        d1 = self._partials_by_vertex(chain, p, H1, lambda tp, tm: (tp - tm) / (2 * H1))
        return self._theta_edges(chain, p), d1

    def _d2_edges(self, chain, p):
        n = chain.n
        t0 = self._theta_edges(chain, p)
        s_ii = self._partials_by_vertex(chain, p, H2, lambda tp, tm: (tp - 2 * t0 + tm) / H2**2)
        s_ij = np.empty_like(t0)
        for e, (k, l) in enumerate(chain.edges):
            ek = np.zeros(n)
            el = np.zeros(n)
            ek[k] = H2
            el[l] = H2
            mixed = (
                self._theta_edges(chain, p + ek + el)
                - self._theta_edges(chain, p + ek - el)
                - self._theta_edges(chain, p - ek + el)
                + self._theta_edges(chain, p - ek - el)
            ) / (4 * H2**2)
            s_ij[..., e] = mixed[..., e]
        return s_ii, s_ij

    def divergence(self, chain, p):
        if self.f is None:
            return super().divergence(chain, p)
        p = check_interior(p)
        z = p / chain.pi
        return (chain.pi * self.f[0](z)).sum(axis=-1)

    def divergence_gradient(self, chain, p):
        if self.f is None:
            return super().divergence_gradient(chain, p)
        p = check_interior(p)
        return self.f[1](p / chain.pi)

    def divergence_hessian_diag(self, chain, p):
        if self.f is None:
            return super().divergence_hessian_diag(chain, p)
        p = check_interior(p)
        return self.f[2](p / chain.pi) / chain.pi


def constant_mobility():
    """theta identically one on every edge (flat metric); handy in tests."""
    return CustomMean(lambda chain, p: np.ones((chain.n, chain.n)))


# -- operation-style wrappers -------------------------------------------------

def theta(model, chain, p):
    """The symmetric edge matrix theta_ij(p)."""
    return model.theta_matrix(chain, p)


def theta_partial(model, chain, p, edge, k):
    """d theta_ij / d p_k for k in {i, j}."""
    i, j = edge
    if k == i:
        return float(model.d1_matrix(chain, p)[i, j])
    if k == j:
        return float(model.d1_matrix(chain, p)[j, i])
    raise UnsupportedVertex(f"theta_{i}{j} does not depend on p_{k}")


def theta_second_partial(model, chain, p, edge, kl):
    """d^2 theta_ij / (d p_k d p_l) for k, l in {i, j}."""
    i, j = edge
    k, l = kl
    if {k, l} - {i, j}:
        raise UnsupportedVertex(f"theta_{i}{j} does not depend on p_{{{k},{l}}}")
    s_ii, s_ij = model.d2_matrices(chain, p)
    if k == l:
        return float(s_ii[k, j if k == i else i])
    return float(s_ij[i, j])


def f_divergence(model, chain, p):
    """D_f(p || reference) = sum_i w_i f(p_i / w_i); >= 0, zero at p = reference."""
    return model.divergence(chain, p)


def f_divergence_gradient(model, chain, p):
    """Euclidean gradient (f'(z_i))_i of the divergence."""
    return model.divergence_gradient(chain, p)


# -- config ingestion ----------------------------------------------------------

def model_from_spec(spec):
    """Build a model from a config mapping: {"kind": ..., parameters...}."""
    if not isinstance(spec, dict):
        raise ValueError("mobility spec must be a mapping")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    convention = spec.pop("convention", "pi")
    c = spec.pop("c", None)
    if kind in ("kl", "kl-log-mean", "log-mean"):
        model = KLLogMean(convention=convention, c=c)
    elif kind in ("alpha", "alpha-mean"):
        if "alpha" not in spec:
            raise ValueError("mobility kind 'alpha' requires key 'alpha'")
        model = AlphaMean(spec.pop("alpha"), convention=convention, c=c)
    elif kind in ("geometric", "geometric-mean"):
        model = GeometricMean(
            beta=spec.pop("beta", 0.5),
            c=1.0 if c is None else c,
            convention=convention,
        )
    else:
        raise ValueError(f"unknown mobility kind {kind!r}")
    if spec:
        raise ValueError(f"unknown mobility keys {sorted(spec)}")
    return model
