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
"""

import numpy as np

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
    # p.min() is nan when an entry is nan, p.sum() is inf when an entry is +inf
    if not (p.min() >= eps and p.sum() < np.inf):
        if not np.isfinite(p).all():
            raise BoundaryPoint(f"point has a non-finite entry ({p})")
        raise BoundaryPoint(f"point touches the simplex boundary (min entry {p.min():.3e})")
    return p


def _zero_diagonal(m):
    """Zero the diagonal of a square matrix, or of each matrix of a stack of
    shape (..., n, n), in place."""
    r = np.arange(m.shape[-1])
    m[..., r, r] = 0.0


def _outer(v):
    """v_i v_j for a vector, or for each vector of a stack of shape (..., n)."""
    return v[..., :, None] * v[..., None, :]


def as_simplex_point(p, eps=EPS_BOUNDARY):
    """Validate an interior simplex point (positive entries, sums to one)."""
    p = check_interior(p, eps)
    s = p.sum()
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {s!r}, expected 1")
    return p


class MobilityModel:
    """Base class; concrete models provide full-pair matrices of theta and its
    partial derivatives (entry [i, j] differentiates theta_ij by p_i).

    Every accessor also takes a stack of points of shape (..., n) on the one
    chain and returns one matrix per point, shape (..., n, n).
    """

    kind = "abstract"
    has_divergence = False

    # -- full-pair matrices (no edge mask), implemented by subclasses --------
    def _theta_full(self, chain, p):
        raise NotImplementedError

    def _d1_full(self, chain, p):
        raise NotImplementedError

    def _d2_full(self, chain, p):
        raise NotImplementedError

    def _theta_d1_full(self, chain, p):
        """Both of the above; models override it to share intermediates."""
        return self._theta_full(chain, p), self._d1_full(chain, p)

    # -- public, edge-masked accessors ---------------------------------------
    def theta_matrix(self, chain, p):
        """Symmetric positive edge matrix theta, zero off the edge set."""
        p = check_interior(p)
        return np.where(chain.edge_mask, self._theta_full(chain, p), 0.0)

    def d1_matrix(self, chain, p):
        """D1[i, j] = d theta_ij / d p_i on edges, zero elsewhere."""
        return self.theta_d1_matrices(chain, p)[1]

    def d2_matrices(self, chain, p):
        """(S_ii, S_ij) with S_ii[i, j] = d^2 theta_ij / d p_i^2 and
        S_ij[i, j] = d^2 theta_ij / d p_i d p_j (S_ij symmetric)."""
        p = check_interior(p)
        s_ii, s_ij = self._d2_full(chain, p)
        mask = chain.edge_mask
        return np.where(mask, s_ii, 0.0), np.where(mask, s_ij, 0.0)

    def theta_d1_matrices(self, chain, p):
        """(theta, D1) in one call; ODE right-hand sides use this so models can
        share intermediates between the two."""
        p = check_interior(p)
        t, d = self._theta_d1_full(chain, p)
        mask = chain.edge_mask
        return np.where(mask, t, 0.0), np.where(mask, d, 0.0)

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
        """Ratios plus the generic-branch plumbing.  The scalar family is
        evaluated on the ratio vectors (n calls per point, broadcast to
        pairs); `near` marks pairs needing the Taylor branch and always holds
        the diagonal."""
        z, s = self._ratios(chain, p)
        f1v = self.f1(z)
        f2v = self.f2(z)
        if (f2v <= 0).any():
            raise NonconvexF(f"f'' <= 0 at a sampled ratio ({self.kind})")
        diff = z[..., None, :] - z[..., :, None]
        near = np.abs(diff) < DELTA_RATIO
        safe = np.where(near, 1.0, f1v[..., None, :] - f1v[..., :, None])
        return z, s, f2v, diff, near, safe

    def _near_patch(self, z, near):
        """Index/midpoint data for off-diagonal pairs in the Taylor regime,
        over every point of a stack, or None when every off-diagonal pair is
        generic (the usual case)."""
        if np.count_nonzero(near) == z.size:  # diagonals only
            return None
        off = near.copy()
        _zero_diagonal(off)
        idx = np.nonzero(off)
        if idx[0].size == 0:
            return None
        *lead, rows, cols = idx
        zi, zj = z[(*lead, rows)], z[(*lead, cols)]
        return idx, 0.5 * (zi + zj), 0.5 * (zj - zi)

    def _taylor_theta(self, mid, half):
        """Two-term Taylor expansion of theta about the midpoint ratio."""
        f2m = self.f2(mid)
        return 1.0 / f2m - self.f4(mid) / (6.0 * f2m**2) * half**2

    def _taylor_d1(self, mid, half):
        """Two-term Taylor expansion of D1 (before the ratio scale s)."""
        f2m = self.f2(mid)
        return -self.f3(mid) / (2.0 * f2m**2) + self.f4(mid) / (6.0 * f2m**2) * half

    # The generic formulas below hold off the `near` pairs only; the Taylor
    # patch overwrites the off-diagonal ones, and theta's diagonal is already
    # diff / safe = 0 / 1 = 0.
    def _theta_full(self, chain, p):
        z, s, f2v, diff, near, safe = self._branching(chain, p)
        t = diff / safe
        patch = self._near_patch(z, near)
        if patch is not None:
            idx, mid, half = patch
            t[idx] = self._taylor_theta(mid, half)
        return t

    def _theta_d1_full(self, chain, p):
        """Full-pair theta and D1 from one branching pass."""
        z, s, f2v, diff, near, safe = self._branching(chain, p)
        t = diff / safe
        d = (t * f2v[..., :, None] - 1.0) / safe
        patch = self._near_patch(z, near)
        if patch is not None:
            idx, mid, half = patch
            t[idx] = self._taylor_theta(mid, half)
            d[idx] = self._taylor_d1(mid, half)
        _zero_diagonal(d)
        return t, d * s[:, None]

    def _d2_full(self, chain, p):
        z, s, f2v, diff, near, safe = self._branching(chain, p)
        t = diff / safe
        f2i = f2v[..., :, None]
        f2j = f2v[..., None, :]
        s_ii = 2.0 * f2i * (t * f2i - 1.0) / safe**2 + t * self.f3(z)[..., :, None] / safe
        s_ij = (f2i + f2j - 2.0 * t * f2i * f2j) / safe**2
        patch = self._near_patch(z, near)
        if patch is not None:
            idx, mid, half = patch
            f2m = self.f2(mid)
            f3m = self.f3(mid)
            f4m = self.f4(mid)
            even = f3m**2 / (2.0 * f2m**3)
            s_ii[idx] = even - f4m / (3.0 * f2m**2) + half * (
                self.f5(mid) / (6.0 * f2m**2) - f4m * f3m / (3.0 * f2m**3)
            )
            s_ij[idx] = even - f4m / (6.0 * f2m**2)
        _zero_diagonal(s_ii)
        _zero_diagonal(s_ij)
        sv = s[:, None]
        return s_ii * sv**2, s_ij * sv * s[None, :]

    # divergence D_f(p || reference) = sum_i w_i f(z_i) ----------------------
    def divergence(self, chain, p):
        p = check_interior(p)
        z, _ = self._ratios(chain, p)
        return float(self._weights(chain) @ self.f0(z))

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
        if alpha == 1:
            raise ValueError("alpha = 1 is excluded; use KLLogMean instead")
        super().__init__(convention, c)
        self.alpha = float(alpha)

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
        self.beta = float(beta)

    def _theta_full(self, chain, p):
        if self.convention == "scaled":
            t = self.c * _outer(p) ** self.beta
        else:
            t = _outer(p / chain.pi) ** self.beta
        _zero_diagonal(t)
        return t

    def _theta_d1_full(self, chain, p):
        t = self._theta_full(chain, p)
        return t, self.beta * t / p[..., :, None]

    def _d2_full(self, chain, p):
        t = self._theta_full(chain, p)
        b = self.beta
        s_ii = b * (b - 1.0) * t / p[..., :, None] ** 2
        s_ij = b**2 * t / _outer(p)
        return s_ii, s_ij


class CustomMean(MobilityModel):
    """User-supplied theta with finite-difference partials.

    Parameters
    ----------
    theta_fn : callable(chain, p) -> (n, n) array
        Full symmetric matrix of edge weights (off-edge entries ignored),
        called with one point at a time.
    f : optional triple (f0, f1, f2) of scalar callables
        Paired divergence family; enables the divergence interface.
    """

    kind = "custom"

    def __init__(self, theta_fn, f=None):
        self.theta_fn = theta_fn
        self.f = f
        self.has_divergence = f is not None

    def _theta_full(self, chain, p):
        # the callback sees one point at a time
        rows = [self.theta_fn(chain, q) for q in p.reshape(-1, chain.n)]
        return np.asarray(rows, dtype=float).reshape(p.shape + (chain.n,))

    def _d1_full(self, chain, p):
        n = chain.n
        d1 = np.zeros(p.shape + (n,))
        for k in range(n):
            e = np.zeros(n)
            e[k] = H1
            dt = (self._theta_full(chain, p + e) - self._theta_full(chain, p - e)) / (2 * H1)
            d1[..., k, :] = dt[..., k, :]
        return d1

    def _d2_full(self, chain, p):
        n = chain.n
        t0 = self._theta_full(chain, p)
        s_ii = np.zeros(p.shape + (n,))
        s_ij = np.zeros(p.shape + (n,))
        for k in range(n):
            e = np.zeros(n)
            e[k] = H2
            tp = self._theta_full(chain, p + e)
            tm = self._theta_full(chain, p - e)
            s_ii[..., k, :] = (tp - 2 * t0 + tm)[..., k, :] / H2**2
        for k in range(n):
            for l in range(k + 1, n):
                ek = np.zeros(n)
                el = np.zeros(n)
                ek[k] = H2
                el[l] = H2
                mixed = (
                    self._theta_full(chain, p + ek + el)
                    - self._theta_full(chain, p + ek - el)
                    - self._theta_full(chain, p - ek + el)
                    + self._theta_full(chain, p - ek - el)
                ) / (4 * H2**2)
                s_ij[..., k, l] = mixed[..., k, l]
                s_ij[..., l, k] = mixed[..., k, l]
        return s_ii, s_ij

    def divergence(self, chain, p):
        if self.f is None:
            return super().divergence(chain, p)
        p = check_interior(p)
        z = p / chain.pi
        return float(chain.pi @ self.f[0](z))

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
