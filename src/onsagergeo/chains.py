"""Reversible Markov chains as weighted graphs, plus the discrete calculus
(gradient, divergence, Laplacian) everything else is built on.

A chain is specified by its off-diagonal rate matrix Q.  The stationary
distribution pi is computed, reversibility (detailed balance) is verified, and
the symmetric edge weights omega_ij = Q_ij * pi_i define the graph.
"""

import numbers

import numpy as np

from .errors import (
    DetailedBalanceViolation,
    DegenerateStationary,
    DisconnectedGraph,
)

DB_RTOL = 1e-9        # detailed-balance tolerance, relative to max omega
PI_FLOOR = 1e-12      # smallest admissible stationary entry


class ReversibleChain:
    """A reversible finite-state Markov chain and its weighted graph.

    Attributes
    ----------
    n : int
        Number of states (vertices).
    Q : (n, n) ndarray
        Off-diagonal transition rates; the diagonal is zeroed and unused.
    pi : (n,) ndarray
        Stationary distribution, strictly positive, sums to 1.
    omega : (n, n) ndarray
        Symmetric edge weights omega_ij = Q_ij * pi_i, zero diagonal.
    edge_mask : (n, n) bool ndarray
        True on the edges, omega_ij > 0.
    edge_ends : (2, E) int ndarray
        The E unordered edges as columns (i, j) with i < j, in row-major
        order (by i, then j): the order of `edges`.  A per-edge quantity is
        an array over these columns, on a last axis of length E; one that
        differs at the two ends of an edge (a partial derivative by p_i or by
        p_j) has a second-to-last axis of length 2, end i first.
    edge_omega : (E,) ndarray
        omega_ij on each edge.
    edge_flat : (2, E) int ndarray
        i * n + j and j * n + i: where the entries (i, j) and (j, i) of each
        edge sit in a flattened n x n matrix.
    end_order, end_starts : int ndarrays
        The 2E ends, flattened as ``edge_ends.ravel()``, ordered by vertex,
        and the first of each vertex in that order; every vertex has an edge,
        so ``np.add.reduceat`` over them sums each vertex's ends.
    end_edge, end_sign : ndarrays
        The edge of each end in that vertex order, and the incidence entry
        there: +1.0 at end i, -1.0 at end j.
    end_source, end_source_sign : (2, 2E) ndarrays
        Two sums over each vertex's ends from one gather
        (`PointGeometry.geodesic_rate`).  `end_source` takes a per-edge
        array x (E,) and a two-ended one y (2, E), laid end to end as
        [x | y] with y flattened, to the ends in vertex order: row 0 reads x
        at each end's edge, row 1 reads y at the end itself.
        `end_source_sign` is the sign of each read value in its sum: the
        incidence entry `end_sign` in row 0, +1.0 in row 1.
    source_omega : (3E,) ndarray
        omega_ij at each entry of [x | y].
    end_inv_pi, signed_end_inv_pi : (2, E) ndarrays
        1/pi at each edge's two ends, the scale dz/dp of the density ratios
        z = p/pi there, and the same signed by `INCIDENCE`.
    edges : tuple of (int, int)
        Unordered edges as pairs (i, j) with i < j and omega_ij > 0.
    neighbors : tuple of frozenset
        Adjacency sets N(i).

    Instances are treated as immutable once built; use
    :func:`build_reversible_chain`.
    """

    def __init__(self, Q, pi, omega):
        n = self.n = len(pi)
        self.Q = Q
        self.pi = pi
        self.omega = omega
        self.sqrt_omega = np.sqrt(omega)
        self.edge_mask = omega > 0
        i, j = np.nonzero(np.triu(self.edge_mask))
        self.edge_ends = np.stack([i, j])
        self.edge_omega = omega[i, j]
        self.edge_flat = np.stack([i * n + j, j * n + i])
        self.end_order = np.argsort(self.edge_ends.ravel(), kind="stable")
        self.end_starts = np.searchsorted(self.edge_ends.ravel()[self.end_order], np.arange(n))
        n_edges = len(i)
        self.end_edge = self.end_order % n_edges
        self.end_sign = np.where(self.end_order < n_edges, 1.0, -1.0)
        self.end_source = np.stack([self.end_edge, n_edges + self.end_order])
        self.end_source_sign = np.stack([self.end_sign, np.ones(2 * n_edges)])
        self.source_omega = np.tile(self.edge_omega, 3)
        self.end_inv_pi = (1.0 / pi)[self.edge_ends]
        self.signed_end_inv_pi = self.end_inv_pi * INCIDENCE
        self.edges = tuple(zip(i.tolist(), j.tolist()))
        others = self.edge_ends[::-1].ravel()[self.end_order]
        self.neighbors = tuple(
            frozenset(nbrs.tolist()) for nbrs in np.split(others, self.end_starts[1:])
        )

    def flow_matrix(self):
        """Generator of the master equation dp/dt = A p:
        A_ij = Q_ji for i != j, A_ii = -sum_j Q_ij."""
        A = self.Q.T.copy()
        np.fill_diagonal(A, -self.Q.sum(axis=1))
        return A

    def __repr__(self):
        return f"ReversibleChain(n={self.n}, edges={len(self.edges)})"


class EdgeField:
    """An antisymmetric function on the ordered edges of a chain.

    Stored as a full matrix with `values[i, j] = -values[j, i]` and zeros off
    the edge set; indexing an ordered pair returns the signed value.
    """

    def __init__(self, chain, values):
        values = np.asarray(values, dtype=float)
        if not np.allclose(values, -values.T, atol=1e-12 * (1 + np.abs(values).max())):
            raise ValueError("edge field must be antisymmetric")
        self.chain = chain
        self.values = np.where(chain.edge_mask, values, 0.0)

    def __getitem__(self, ij):
        i, j = ij
        return self.values[i, j]


def _connected(mask):
    n = mask.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(mask[i]):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def build_reversible_chain(Q) -> ReversibleChain:
    """Build a :class:`ReversibleChain` from a nonnegative rate matrix.

    Parameters
    ----------
    Q : (n, n) array_like
        Off-diagonal entries are transition rates per unit time; the diagonal
        is ignored.

    Returns
    -------
    ReversibleChain
        With stationary pi solved from the generator's null space and
        omega = Q_ij * pi_i verified symmetric.

    Raises
    ------
    ValueError
        If Q is not square with n >= 2, or has an off-diagonal rate that is
        not finite or is negative.
    DisconnectedGraph
        If the support of Q + Q^T is not connected.
    DegenerateStationary
        If the stationary distribution is not unique/strictly positive.
    DetailedBalanceViolation
        If Q_ij pi_i != Q_ji pi_j beyond tolerance.
    """
    Q = np.array(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    n = Q.shape[0]
    if n < 2:
        raise ValueError("need at least two states")
    np.fill_diagonal(Q, 0.0)
    bad = ~np.isfinite(Q)
    if bad.any():
        listed = ", ".join(f"Q[{i}, {j}] = {Q[i, j]}" for i, j in zip(*np.nonzero(bad)))
        raise ValueError(f"rates must be finite: {listed}")
    if (Q < 0).any():
        raise ValueError("off-diagonal rates must be nonnegative")

    support = (Q > 0) | (Q.T > 0)
    if not _connected(support):
        raise DisconnectedGraph("rate matrix does not induce a connected graph")

    # stationary distribution: null space of the transposed generator; finite
    # rates may sum to an infinite diagonal, which `null_space` refuses
    with np.errstate(over="ignore"):
        A = Q.T - np.diag(Q.sum(axis=1))  # dp/dt = A p
    ns = null_space(A)
    if ns.shape[1] != 1:
        raise DegenerateStationary(
            f"stationary distribution is not unique (kernel dim {ns.shape[1]})"
        )
    pi = ns[:, 0]
    pi = pi / pi.sum()
    if (pi <= PI_FLOOR).any():
        raise DegenerateStationary("stationary distribution has a non-positive entry")

    omega = Q * pi[:, None]
    asym = np.abs(omega - omega.T).max()
    if asym > DB_RTOL * omega.max():
        raise DetailedBalanceViolation(
            f"detailed balance fails: max|Q_ij pi_i - Q_ji pi_j| = {asym:.3e}"
        )
    omega = 0.5 * (omega + omega.T)  # kill round-off asymmetry
    return ReversibleChain(Q, pi, omega)


def null_space(A):
    """Orthonormal basis of the null space of a matrix A, as the columns of
    an (N, K) array: the right singular vectors whose singular values are at
    most s_max * eps * max(A.shape).

    The same SVD (LAPACK gesdd), tolerance and memory layout as
    `scipy.linalg.null_space`, so the basis matches it bit for bit; the
    layout matters because products with the basis round by its strides.
    """
    A = np.asarray(A, dtype=float)
    # scipy's check: LAPACK's SVD may not return on a non-finite matrix
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    _, s, vh = np.linalg.svd(A)
    tol = s.max(initial=0.0) * (np.finfo(float).eps * max(A.shape))
    return np.asfortranarray(vh)[int((s > tol).sum()):].T


def _is_index(k):
    """An integral number that is not a bool (2.0 is one)."""
    return not isinstance(k, bool) and isinstance(k, numbers.Real) and float(k).is_integer()


def chain_from_rates(n, rates) -> ReversibleChain:
    """Build a chain from 1-based (i, j, Q_ij) triples, the config format.
    Each index is an integral number, not a bool, and each ordered pair
    (i, j) appears once."""
    # a complete chain's config has n (n - 1) triples, so plain ints take a
    # quick first test and the pairs are kept as flat indices: a tuple set
    # and an any() test per triple cost 13 ms at n = 100
    flat, values = [], []
    for i, j, q in rates:
        if not (type(i) is int and type(j) is int or _is_index(i) and _is_index(j)):
            raise ValueError(f"bad rate entry ({i!r}, {j!r}): indices are 1-based integers")
        i, j = int(i), int(j)
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad rate entry ({i}, {j}): indices are 1-based and distinct")
        flat.append((i - 1) * n + j - 1)
        values.append(float(q))
    unique, first = np.unique(flat, return_index=True)
    if len(unique) < len(flat):
        i, j = divmod(flat[np.setdiff1d(np.arange(len(flat)), first)[0]], n)
        raise ValueError(f"bad rate entry ({i + 1}, {j + 1}): the pair is given twice")
    Q = np.zeros(n * n)
    Q[flat] = values
    return build_reversible_chain(Q.reshape(n, n))


# -- built-in example chains -------------------------------------------------

def triangle_reaction_chain() -> ReversibleChain:
    """Three species in a reaction cycle: rates 1<->2: (1, 2), 2<->3: (1, 2),
    1<->3: (1, 4).  Stationary distribution (4/7, 2/7, 1/7)."""
    Q = np.array([[0.0, 1.0, 1.0],
                  [2.0, 0.0, 1.0],
                  [4.0, 2.0, 0.0]])
    return build_reversible_chain(Q)


def lattice3_chain() -> ReversibleChain:
    """Three-point path 1 - 2 - 3 with unit edge weights (rates 3 * adjacency,
    uniform stationary distribution)."""
    Q = 3.0 * np.array([[0.0, 1.0, 0.0],
                        [1.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0]])
    return build_reversible_chain(Q)


PRESETS = {
    "triangle-reaction": triangle_reaction_chain,
    "lattice3": lattice3_chain,
}


def preset_chain(name) -> ReversibleChain:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


# -- edge arrays -------------------------------------------------------------

# The incidence matrix B has column +1 at i and -1 at j for each edge (i, j);
# this is its two entries, as the ends axis of a per-edge array.
INCIDENCE = np.array([[1.0], [-1.0]])


def gather(values, index):
    """values[..., index], a gather along the last axis; a flat array takes
    plain indexing, the fastest gather for one vector, and a stack the
    array's own `take` (`np.take` adds a Python call)."""
    return values[index] if values.ndim == 1 else values.take(index, axis=-1)


def edge_difference(chain, phi):
    """phi_i - phi_j on every edge (i, j), i.e. B^T phi, shape (..., E) for
    potentials (..., n)."""
    at = gather(phi, chain.edge_ends)
    return at[..., 0, :] - at[..., 1, :]


def end_sum(chain, values):
    """sum over the edge ends at each vertex of two-ended values (..., 2, E):
    out_v = sum_(e = (v, j)) values[0, e] + sum_(e = (i, v)) values[1, e]."""
    flat = values.reshape(values.shape[:-2] + (-1,))
    return np.add.reduceat(gather(flat, chain.end_order), chain.end_starts, axis=-1)


def incidence(chain, x):
    """B x for per-edge values x (..., E): the sum of x over the edges leaving
    each vertex minus the sum over the edges entering it, as one signed,
    vertex-ordered gather (the terms and their order of `end_sum`)."""
    return np.add.reduceat(gather(x, chain.end_edge) * chain.end_sign, chain.end_starts,
                           axis=-1)


def edge_matrix(chain, values, fill=0.0):
    """The (..., n, n) matrix holding two-ended values (..., 2, E) at (i, j)
    (end i) and (j, i) (end j), `fill` off the edge set; per-edge values pass
    as (..., 1, E) and fill both."""
    n = chain.n
    out = np.full(values.shape[:-2] + (n, n), fill)
    if values.ndim == 2:
        out.reshape(-1)[chain.edge_flat] = values
    else:
        out.reshape(-1, n * n)[:, chain.edge_flat] = values.reshape((-1,) + values.shape[-2:])
    return out


# -- discrete calculus -------------------------------------------------------

def grad_omega(chain, phi) -> EdgeField:
    """Weighted graph gradient: (grad phi)_ij = sqrt(omega_ij) (phi_j - phi_i)."""
    phi = np.asarray(phi, dtype=float)
    return EdgeField(chain, grad_matrix(chain, phi))


def grad_matrix(chain, phi):
    """Gradient as a raw antisymmetric matrix (hot path, no wrapper); one per
    potential for a stack of shape (..., n)."""
    return chain.sqrt_omega * (phi[..., None, :] - phi[..., None])


def div_omega(chain, v):
    """Weighted divergence: div(v)_i = sum_{j in N(i)} sqrt(omega_ij) v_ij.

    Adjoint to the gradient: sum_i phi_i div(v)_i
    = -1/2 sum_{ordered (i,j)} (grad phi)_ij v_ij.
    """
    m = v.values if isinstance(v, EdgeField) else np.asarray(v, dtype=float)
    return (chain.sqrt_omega * m).sum(axis=1)


def laplacian_omega(chain, phi):
    """div(grad(phi)); negative semidefinite, kernel = constants."""
    phi = np.asarray(phi, dtype=float)
    return div_omega(chain, grad_matrix(chain, phi))
