"""The Onsager response matrix, its pseudo-inverse (the metric tensor), inner
products, orthonormal frames, arc length, and geodesic distance."""

import numpy as np

from .chains import edge_matrix, grad_matrix
from .errors import NearSingular

KERNEL_RTOL = 1e-12  # eigenvalues below KERNEL_RTOL * lambda_max count as kernel


def mean_zero(phi):
    """Project a potential, or each potential of a stack (..., n), to the
    mean-zero gauge."""
    phi = np.asarray(phi, dtype=float)
    return phi - phi.mean(axis=-1, keepdims=True)


def response_from_edges(chain, values):
    """The response matrix L(M) = B diag(omega M) B^T of per-edge values M
    (shape (..., E)): L_ij = -omega_ij M_ij on the edges, L_ii =
    sum_j omega_ij M_ij.

    The one place a response matrix is assembled; one matrix per row of a
    stack.  Rows and columns sum to zero.
    """
    # -omega M entrywise, down to the -0.0 off the edges: eigh takes its
    # eigenvector signs, and so the frames of the curvature reports, from
    # these bits
    out = edge_matrix(chain, -(chain.edge_omega * values)[..., None, :], fill=-0.0)
    # the diagonal takes minus the column sums; out is a fresh contiguous
    # array, so the reshape is a view and every n+1-th entry of a flattened
    # matrix is its diagonal
    n = chain.n
    out.reshape(-1, n * n)[:, :: n + 1] = -out.sum(axis=-2).reshape(-1, n)
    return out


def response_matrix(chain, edge_values):
    """The response matrix L(M) of a symmetric edge matrix M (or of each
    matrix of a stack of shape (..., n, n)): `response_from_edges` of M's
    entries (i, j), i < j.  For M = theta this is the Onsager matrix; the
    same assembly applies to directional derivatives of theta, etc."""
    i, j = chain.edge_ends
    return response_from_edges(chain, np.asarray(edge_values)[..., i, j])


def response_at(chain, model, p):
    """L(theta(p)), from the model's theta alone (no partials).  p may be a
    (B, n) stack of points, giving a (B, n, n) stack."""
    return response_from_edges(chain, model.theta_edges(chain, p))


def eigensystem(L):
    """The positive eigenpairs of a response matrix whose kernel is the
    constants: the n-1 positive eigenvalues in ascending order and the
    matching orthonormal eigenvectors, the columns of an (n, n-1) array.
    A (B, n, n) stack of matrices gives (B, n-1) eigenvalues and (B, n, n-1)
    eigenvectors, each matrix checked on its own.

    Eigenvalues below KERNEL_RTOL * lambda_max count as kernel.  Raises
    NearSingular when the eigensolver fails, when L has no positive
    eigenvalue, or when the kernel is not one-dimensional; the last names the
    kernel dimension and lambda_1 / lambda_max, where lambda_1 is the second
    smallest eigenvalue, the smallest positive one when the kernel is right.
    For a stack the error names the first failing row and carries it as
    `row`.
    """
    L = np.asarray(L, dtype=float)
    try:
        lam, U = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"response matrix eigensystem failed ({exc})")
    top = lam[..., -1:]
    kernel = (lam < KERNEL_RTOL * top).sum(axis=-1)
    bad = (top[..., 0] <= 0) | (kernel != 1)
    if bad.any():
        if L.ndim == 2:
            row, where = None, "response matrix"
        else:
            row = int(np.flatnonzero(bad)[0])
            where = f"response matrix at stack row {row}"
            lam, kernel = lam[row], kernel[row]
        if lam[-1] <= 0:
            raise NearSingular(f"{where} has no positive eigenvalue "
                               f"(lambda_max {lam[-1]:.3e})", row=row)
        raise NearSingular(
            f"{where} has kernel dimension {kernel}, expected 1, "
            f"with lambda_1 / lambda_max = {lam[1] / lam[-1]:.3e} "
            "(point effectively on the boundary or mobility degenerate)",
            row=row,
        )
    return lam[..., 1:], U[..., 1:]


def pseudo_inverse(L):
    """Moore-Penrose inverse of L(theta) restricted to the mean-zero subspace,
    for one matrix or each matrix of a (B, n, n) stack.

    Satisfies L R L = L, R L R = R, R 1 = 0; raises NearSingular when the
    kernel is more than one-dimensional.
    """
    lam, U = eigensystem(L)
    return (U / lam[..., None, :]) @ U.mT


def metric_action(chain, model, states, vectors):
    """R(theta(p)) v for each row of (rows, n) stacks of points p and vectors
    v: one stacked `pseudo_inverse` per block of states, each (rows, n, n)
    temporary holding at most `connection.JACOBIAN_BLOCK` doubles
    (`connection.state_blocks`)."""
    from .connection import state_blocks

    out = np.empty(vectors.shape)
    for rows in state_blocks(len(states), chain.n):
        R = pseudo_inverse(response_at(chain, model, states[rows]))
        out[rows] = (R @ vectors[rows, :, None])[..., 0]
    return out


def deflated_solve(L, rhs):
    """The pseudo-inverse action x = R rhs for mean-zero rhs, computed as the
    solution of the kernel-deflated system (L + 1 1^T / n) x = rhs.

    Adding the rank-one term moves the constant kernel to eigenvalue one and
    leaves the mean-zero subspace untouched, so the deflated matrix is
    positive definite and a Cholesky solve replaces the eigendecomposition
    inside ODE right-hand sides.

    A (B, n, n) stack of matrices takes a (B, n, c) stack of right-hand
    sides.  LAPACK's `posv` takes one matrix, so a stack is factored by one
    stacked Cholesky, which checks every matrix, and solved by one stacked
    LU solve; the error for a matrix that is not positive definite carries
    its index as `row`.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim == 2:
        # numpy has no Cholesky solve, and its LU solve would not check that
        # the matrix is positive definite; loaded on first use
        import scipy.linalg

        _, x, info = scipy.linalg.lapack.dposv(L + 1.0 / L.shape[0], rhs, overwrite_a=True)
        if info != 0:
            raise NearSingular(f"deflated response solve failed (LAPACK posv info {info}: "
                               "the deflated matrix is not positive definite)")
        return x
    M = L + 1.0 / L.shape[-1]
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        row = next((k for k, m in enumerate(M) if not _positive_definite(m)), None)
        raise NearSingular(f"deflated response solve failed at stack row {row} "
                           "(the deflated matrix is not positive definite)", row=row) from None
    return np.linalg.solve(M, rhs)


def _positive_definite(M):
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def inner_product(chain, theta_mat, phi1, phi2):
    """Riemannian inner product <V_phi1, V_phi2> = phi1^T L(theta) phi2."""
    return float(phi1 @ response_matrix(chain, theta_mat) @ phi2)


def inner_product_edges(chain, theta_mat, phi1, phi2):
    """Same inner product as an ordered-pair edge sum:
    1/2 sum_(i,j) (grad phi1)_ij (grad phi2)_ij theta_ij."""
    g1 = grad_matrix(chain, np.asarray(phi1, dtype=float))
    g2 = grad_matrix(chain, np.asarray(phi2, dtype=float))
    return float(0.5 * np.sum(g1 * g2 * theta_mat))


def orthonormal_frame(L):
    """Tangent vectors e_k = sqrt(lambda_k) u_k, k = 1..n-1, orthonormal in the
    metric <x, y> = x^T R y.  Returned as rows of an (n-1, n) array."""
    lam, U = eigensystem(L)
    return (U * np.sqrt(lam)).T


def frame_potentials(L):
    """Potentials generating the orthonormal frame: Phi_k = u_k / sqrt(lambda_k),
    so that L Phi_k = e_k."""
    lam, U = eigensystem(L)
    return (U / np.sqrt(lam)).T


def curve_velocity(times, states):
    """Central-difference velocity of a sampled curve (one-sided at the ends)."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    v = np.empty_like(states)
    v[1:-1] = (states[2:] - states[:-2]) / (times[2:] - times[:-2])[:, None]
    v[0] = (states[1] - states[0]) / (times[1] - times[0])
    v[-1] = (states[-1] - states[-2]) / (times[-1] - times[-2])
    return v


def arc_length(chain, model, times, states):
    """Length of a sampled curve: quadrature of sqrt(pdot^T R(theta) pdot).

    Simpson's rule on uniform grids, trapezoid otherwise; velocities by
    central differences.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if len(times) < 2:
        return 0.0
    if not (np.diff(times) > 0).all():
        raise ValueError("time grid must be strictly increasing")
    vel = curve_velocity(times, states)
    speeds = np.sqrt(np.maximum((vel * metric_action(chain, model, states, vel)).sum(axis=-1), 0.0))
    steps = np.diff(times)
    if np.allclose(steps, steps[0], rtol=1e-10, atol=0.0):
        import scipy.integrate  # numpy has no Simpson's rule; loaded on first use

        return float(scipy.integrate.simpson(speeds, x=times))
    return float(np.trapezoid(speeds, times))


def distance(chain, model, p0, p1, **bvp_options):
    """Geodesic distance between two interior points (shooting solver)."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if np.allclose(p0, p1, rtol=0.0, atol=1e-14):
        return 0.0
    from .connection import geodesic_bvp

    _, record, length = geodesic_bvp(chain, model, p0, p1, **bvp_options)
    return length
