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
Each family writes that arithmetic once, in `_edges`: theta, then D1, then
(S_ii, S_ij), up to the order the accessor asks for, from one evaluation of
the ratios.  The matrix accessors scatter those arrays to (..., n, n).

A model holds only its parameters.  The constants of the ratios are the
chain's (pi, and 1/pi at the edge ends, built with the chain) or, in the
scaled convention, the scalar weight 1/c.
"""

import numbers

import numpy as np

from .chains import INCIDENCE, edge_matrix, gather
from .errors import BoundaryPoint, NonconvexF, NoDivergenceDefined

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


def check_potential(phi, n):
    """Return phi as an array, raising ValueError unless it holds n entries
    (or n per potential of a stack), every one finite."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1:] != (n,):
        raise ValueError(f"potential must have {n} entries, got shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError(f"potential has a non-finite entry ({phi})")
    return phi


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

    A model holds its parameters only; whatever an evaluation needs of the
    chain it reads from the chain.
    """

    kind = "abstract"
    has_divergence = False

    def _edges(self, chain, p, order):
        """The edge arrays at validated points p, from one evaluation of the
        model: (theta,) for order 0, (theta, D1) for order 1 and
        (theta, D1, S_ii, S_ij) for order 2.  Implemented by subclasses."""
        raise NotImplementedError

    # -- public accessors -----------------------------------------------------
    def theta_edges(self, chain, p):
        """theta on each edge, (..., E)."""
        return self._edges(chain, check_interior(p), 0)[0]

    def theta_d1_edges(self, chain, p):
        """(theta, D1) from one evaluation: (..., E) and (..., 2, E)."""
        return self._edges(chain, check_interior(p), 1)

    def d2_edges(self, chain, p):
        """(S_ii at both ends, S_ij): (..., 2, E) and (..., E)."""
        return self._edges(chain, check_interior(p), 2)[2:]

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
    """Shared machinery for models built from density ratios z = p / w.

    convention "pi":     w = the chain's pi      (z_i = p_i / pi_i)
    convention "scaled": w = 1/c at every state  (the uniform-reference
                                                  closed-form parameterization)

    The parameter c belongs to the scaled convention only.
    """

    def __init__(self, convention="pi", c=None):
        if convention not in ("pi", "scaled"):
            raise ValueError(f"unknown convention {convention!r}")
        if c is not None:
            c = model_parameter("c", c)
        if convention == "scaled":
            if c is None or c <= 0:
                raise ValueError("scaled convention requires c > 0")
        elif c is not None:
            raise ValueError("model parameter 'c' applies to the scaled convention only")
        self.convention = convention
        self.c = c

    def _ratio_constants(self, chain):
        """(w, s, s signed by INCIDENCE): the reference weights, z = p / w,
        and the ratio scale s = dz/dp = 1/w at the edge ends.  In the pi
        convention these are the chain's pi and its (2, E) arrays of 1/pi at
        the edge ends; the scaled convention has the scalar weight 1/c, and s
        as a (2, 1) column."""
        if self.convention == "scaled":
            w = 1.0 / self.c
            s = np.full((2, 1), 1.0 / w)
            return w, s, s * INCIDENCE
        return chain.pi, chain.end_inv_pi, chain.signed_end_inv_pi

    def _weights(self, chain):
        """Reference weights w with z = p / w, one per state."""
        return np.broadcast_to(self._ratio_constants(chain)[0], chain.n)


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
        edges."""
        z = p / self._ratio_constants(chain)[0]
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

    def _edges(self, chain, p, order):
        """The generic quotients hold off the Taylor edges only: the patch,
        two-term Taylor expansions about the midpoint ratio, overwrites
        those.  At end a of an edge with other end b the quotients divide
        by f'(z_b) - f'(z_a), which is safe at end i and -safe at end j.
        D1 divides by safe at both ends and takes the sign of end j with the
        ratio scale s (x / -safe times s is x / safe times -s, bit for bit),
        so the Taylor value at end j enters negated."""
        z, f2v, diff, safe, patch = self._branching(chain, p)
        t = diff / safe
        if order:
            ends = chain.edge_ends
            f2e = gather(f2v, ends)
            te = t[..., None, :]
            d = te * f2e
            d -= 1.0
            if order == 2:
                den = safe[..., None, :] * INCIDENCE
                s_ii = 2.0 * f2e * d / den**2 + te * gather(self.f3(z), ends) / den
                f2i, f2j = f2e[..., 0, :], f2e[..., 1, :]
                s_ij = (f2i + f2j - 2.0 * t * f2i * f2j) / safe**2
            d /= safe[..., None, :]
        if patch is not None:
            idx, mid, half = patch
            f2m = self.f2(mid)
            f4m = self.f4(mid)
            q = f4m / (6.0 * f2m**2)
            t[idx] = 1.0 / f2m - q * half**2
            if order:
                f3m = self.f3(mid)
                g = -f3m / (2.0 * f2m**2)
                d[..., 0, :][idx] = g + q * half
                d[..., 1, :][idx] = -(g - q * half)  # g + q * -half, negated
            if order == 2:
                even = f3m**2 / (2.0 * f2m**3)
                odd = self.f5(mid) / (6.0 * f2m**2) - f4m * f3m / (3.0 * f2m**3)
                s_ii[..., 0, :][idx] = even - f4m / (3.0 * f2m**2) + half * odd
                s_ii[..., 1, :][idx] = even - f4m / (3.0 * f2m**2) - half * odd
                s_ij[idx] = even - q
        if not order:
            return (t,)
        _, s, signed_s = self._ratio_constants(chain)
        d *= signed_s
        if order == 1:
            return t, d
        return t, d, s_ii * s**2, s_ij * s[0] * s[1]

    # divergence D_f(p || reference) = sum_i w_i f(z_i) ----------------------
    def divergence(self, chain, p):
        """The divergence; one value per point of a stack."""
        w = self._ratio_constants(chain)[0]
        return (w * self.f0(check_interior(p) / w)).sum(axis=-1)

    def divergence_gradient(self, chain, p):
        return self.f1(check_interior(p) / self._ratio_constants(chain)[0])

    def divergence_hessian_diag(self, chain, p):
        w = self._ratio_constants(chain)[0]
        return self.f2(check_interior(p) / w) * (1.0 / w)


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
    """theta_ij = (z_i z_j)^beta ("pi") or c (p_i p_j)^beta ("scaled", c = 1
    unless given).

    beta = 1/2 in the pi convention is the classic geometric mean of the
    ratios.  No paired divergence exists for this family.
    """

    kind = "geometric-mean"
    has_divergence = False

    def __init__(self, beta=0.5, c=None, convention="pi"):
        super().__init__(convention, 1.0 if c is None and convention == "scaled" else c)
        self.beta = model_parameter("beta", beta)

    def _edges(self, chain, p, order):
        """theta from the densities ("scaled") or the ratios ("pi") at the
        edge ends; every partial is theta times a power of the densities."""
        scaled = self.convention == "scaled"
        xe = gather(p if scaled else p / chain.pi, chain.edge_ends)
        t = (xe[..., 0, :] * xe[..., 1, :]) ** self.beta
        if scaled:
            t *= self.c
        if not order:
            return (t,)
        pe = xe if scaled else gather(p, chain.edge_ends)
        b = self.beta
        te = t[..., None, :]
        d = b * te / pe
        if order == 1:
            return t, d
        return t, d, b * (b - 1.0) * te / pe**2, b**2 * t / (pe[..., 0, :] * pe[..., 1, :])


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

    @property
    def has_divergence(self):
        return self.f is not None

    def _sampled(self, chain, p):
        """theta_fn at each point of p, read at each edge (i, j)."""
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
            value = difference(self._sampled(chain, p + e), self._sampled(chain, p - e))
            for end in (0, 1):
                mine = chain.edge_ends[end] == k
                out[..., end, mine] = value[..., mine]
        return out

    def _edges(self, chain, p, order):
        """theta from the callback, D1 and S from central differences of it."""
        t = self._sampled(chain, p)
        if not order:
            return (t,)
        d1 = self._partials_by_vertex(chain, p, H1, lambda tp, tm: (tp - tm) / (2 * H1))
        if order == 1:
            return t, d1
        n = chain.n
        s_ii = self._partials_by_vertex(chain, p, H2, lambda tp, tm: (tp - 2 * t + tm) / H2**2)
        s_ij = np.empty_like(t)
        for e, (k, l) in enumerate(chain.edges):
            ek = np.zeros(n)
            el = np.zeros(n)
            ek[k] = H2
            el[l] = H2
            mixed = (
                self._sampled(chain, p + ek + el)
                - self._sampled(chain, p + ek - el)
                - self._sampled(chain, p - ek + el)
                + self._sampled(chain, p - ek - el)
            ) / (4 * H2**2)
            s_ij[..., e] = mixed[..., e]
        return t, d1, s_ii, s_ij

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
        model = GeometricMean(spec.pop("beta", 0.5), c=c, convention=convention)
    else:
        raise ValueError(f"unknown mobility kind {kind!r}")
    if spec:
        raise ValueError(f"unknown mobility keys {sorted(spec)}")
    return model
