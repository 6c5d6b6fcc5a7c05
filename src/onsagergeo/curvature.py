"""Riemann curvature of the mobility geometry.

Second directional derivatives of the edge activity, the curvature tensor by
two independent evaluation routes (a response-matrix assembly and an explicit
ordered-edge sum), sectional/Ricci/scalar curvatures on the orthonormal frame,
and a finite-difference chart oracle used to cross-validate everything.
"""

from dataclasses import dataclass

import numpy as np

from .chains import edge_difference, edge_matrix, grad_matrix, incidence
from .connection import PointGeometry
from .errors import DegeneratePlane
from .metric import frame_potentials, pseudo_inverse, response_at
from .mobility import check_interior, check_potential

# The sign convention for the m-matrix that matches both the chart oracle and
# the 3-lattice closed forms: m = -2 W - (unhalved) directional contractions.
M_CONVENTION = "m = -2W - dtheta(L(V1 theta) phi2) - dtheta(L(V2 theta) phi1)"


@dataclass
class SecondDirectional:
    """Second-order directional data of theta along V_phi1, V_phi2.

    All fields are symmetric edge matrices; `m` is in the sign convention
    that reproduces the chart oracle.
    """

    W: np.ndarray
    nabla_theta_L: np.ndarray  # dtheta contracted with L(V_phi1 theta) phi2
    theta_second: np.ndarray   # V_phi1 (V_phi2 theta), equals W + nabla_theta_L
    m: np.ndarray


def second_directional(chain, model, phi1, phi2, p) -> SecondDirectional:
    geo = PointGeometry(chain, model, p)
    phi1 = check_potential(phi1, chain.n)
    phi2 = check_potential(phi2, chain.n)
    W = geo.second_theta(phi1, phi2)
    n12 = geo.nabla_theta_L(phi1, phi2)
    W, n12, sum12, m = (edge_matrix(chain, e[None]) for e in (W, n12, W + n12, geo.m(phi1, phi2)))
    return SecondDirectional(W=W, nabla_theta_L=n12, theta_second=sum12, m=m)


def gamma3(chain, model, phi1, phi2, phi3, phi4, p):
    """Third-order coupling matrix.

    With A_ij = (grad Gamma(phi1, phi2))_ij (grad phi4)_ij dtheta_ij/dp_i,
    Gamma3_ij = 1/2 sum_k sqrt(w_ik) (A_kj - A_ij) (grad phi3)_ik theta_ik.
    """
    geo = PointGeometry(chain, model, p)
    phi1, phi2, phi3, phi4 = (check_potential(f, chain.n) for f in (phi1, phi2, phi3, phi4))
    theta_mat, d1 = model.theta_d1_matrices(chain, geo.p)
    return _gamma3_core(chain, theta_mat, d1, geo.gamma(phi1, phi2),
                        grad_matrix(chain, phi3), grad_matrix(chain, phi4))


def _gamma3_core(chain, theta_mat, d1, gam_12, g3, g4):
    A = grad_matrix(chain, gam_12) * g4 * d1
    M = chain.sqrt_omega * g3 * theta_mat
    term1 = np.einsum("ik,kj->ij", M, A)
    term2 = M.sum(axis=1)[:, None] * A
    return 0.5 * (term1 - term2)


def _riemann_assembled(geo: PointGeometry, pots):
    """The tensor T[a,b,c,d] = <R(V_a, V_b) V_c, V_d> over a stack of k
    potentials, shape (k, n), as a (k, k, k, k) array.  On a bundle of B
    points the potentials are (k, B, n), one per point, and the result is
    (B, k, k, k, k), one tensor per point.

    Nine terms built from three k^2 x k^2 blocks over the pairs of
    potentials:
        M[(a,c),(b,d)] = phi_b^T L(m(a,c)) phi_d,
        G[(a,c),(b,d)] = Gamma(a,c)^T L Gamma(b,d),
        C[(a,c),(b,d)] = [V_a, V_c]^T R [V_b, V_d];
    every component is evaluated, none is filled in from a symmetry.

    One table X[a,b] = L(V_a theta) phi_b, from the k directional
    derivatives of theta, serves both m and the commutators:
    [V_a, V_b] = X[a,b] - X[b,a] and m(a,b) = -2 W(a,b) - dtheta(X[a,b] + X[b,a]).
    The edge differences g and velocities V of the potentials are taken
    once for all of these.
    """
    pots = np.asarray(pots, dtype=float)
    k = len(pots)
    chain = geo.chain
    g = edge_difference(chain, pots)
    V = geo.flow(g)
    X = incidence(chain, chain.edge_omega * geo.dtheta(V)[:, None] * g[None, :])
    Xt = X.swapaxes(0, 1)

    def pairs(Z):
        """A (k, k, ..., m) table of pairs as (..., k^2, m) blocks, the
        points' axis first."""
        return np.moveaxis(Z, (0, 1), (-3, -2)).reshape(Z.shape[2:-1] + (k * k, -1))

    # phi^T L(M) psi = sum_(edges ij) omega_ij M_ij (phi_i - phi_j)(psi_i - psi_j),
    # one (k^2, E) @ (E, k^2) product per point for all pairs
    m = (-2.0 * geo.d2theta(V[:, None], V[None, :]) - geo.dtheta(X + Xt)) * chain.edge_omega
    M = pairs(m) @ pairs(g[:, None] * g[None, :]).mT
    gam = pairs(geo.coupling(g[:, None], g[None, :]))
    G = gam @ geo.L @ gam.mT
    comm = pairs(X - Xt)
    C = comm @ geo.R @ comm.mT
    M, G, C = (Z.reshape(Z.shape[:-2] + (k, k, k, k)) for Z in (M, G, C))
    MGC = M + G + C
    return 0.25 * (
        np.einsum("...acbd->...abcd", MGC) - np.einsum("...bcad->...abcd", MGC)
        + np.einsum("...bdac->...abcd", M) - np.einsum("...adbc->...abcd", M)
        + 2.0 * np.einsum("...cdab->...abcd", C)
    )


def _riemann_explicit(geo: PointGeometry, phis):
    """The curvature as explicit ordered-edge sums of theta and its partials,
    read from the model's matrix accessors: a reference route, kept
    independent of `_riemann_assembled` so that the two can check each
    other."""
    ch, model = geo.chain, geo.model
    T, d1 = model.theta_d1_matrices(ch, geo.p)
    s_ii, s_ij = model.d2_matrices(ch, geo.p)
    g = [grad_matrix(ch, f) for f in phis]
    sw = ch.sqrt_omega

    # vertex-diagonal second partials: pair the two gradients sitting on the
    # same pivot vertex with the outgoing flux sums
    def b1pair(a, b):
        return (g[a] * g[b] * s_ii).sum(axis=1)

    def flux(a):
        return (sw * T * g[a]).sum(axis=1)

    block1 = 0.5 * np.sum(
        -b1pair(1, 3) * flux(0) * flux(2)
        - b1pair(0, 2) * flux(1) * flux(3)
        + b1pair(1, 2) * flux(0) * flux(3)
        + b1pair(0, 3) * flux(1) * flux(2)
    )

    # mixed second partials under the four-index difference operator
    def b2(a, b, c, d):
        C = g[a] * g[b] * s_ij
        P = sw * g[c] * T
        Q = sw * g[d] * T
        u, u0 = P.sum(axis=1), P.sum(axis=0)
        v, v0 = Q.sum(axis=1), Q.sum(axis=0)
        return (
            np.einsum("i,k,ik->", u, v, C)
            - np.einsum("i,l,il->", u, v0, C)
            - np.einsum("j,k,jk->", u0, v, C)
            + np.einsum("j,l,jl->", u0, v0, C)
        )

    block2 = 0.125 * (-b2(1, 3, 0, 2) - b2(0, 2, 1, 3) + b2(1, 2, 0, 3) + b2(0, 3, 1, 2))

    # eight third-order coupling terms
    gam = lambda a, b: (g[a] * g[b] * d1).sum(axis=1)

    def g3sum(a, b, c, d):
        return _gamma3_core(ch, T, d1, gam(a, b), g[c], g[d]).sum()

    block3 = 0.25 * (
        -g3sum(1, 3, 0, 2) - g3sum(1, 3, 2, 0)
        - g3sum(0, 2, 1, 3) - g3sum(0, 2, 3, 1)
        + g3sum(1, 2, 0, 3) + g3sum(1, 2, 3, 0)
        + g3sum(0, 3, 1, 2) + g3sum(0, 3, 2, 1)
    )

    block4 = 0.125 * np.sum(T * (
        grad_matrix(ch, gam(0, 2)) * grad_matrix(ch, gam(1, 3))
        - grad_matrix(ch, gam(1, 2)) * grad_matrix(ch, gam(0, 3))
    ))

    comm = lambda a, b: geo.commutator(phis[a], phis[b])
    block5 = 0.25 * (
        comm(0, 2) @ geo.R @ comm(1, 3)
        - comm(1, 2) @ geo.R @ comm(0, 3)
        + 2.0 * comm(2, 3) @ geo.R @ comm(0, 1)
    )
    return block1 + block2 + block3 + block4 + block5


def riemann(chain, model, phi1, phi2, phi3, phi4, p, route="assembled"):
    """<R(V_phi1, V_phi2) V_phi3, V_phi4> at p."""
    geo = PointGeometry(chain, model, p)
    phis = [check_potential(f, chain.n) for f in (phi1, phi2, phi3, phi4)]
    if route == "assembled":
        return float(_riemann_assembled(geo, phis)[0, 1, 2, 3])
    if route == "explicit":
        return float(_riemann_explicit(geo, phis))
    raise ValueError(f"unknown route {route!r}")


def sectional(chain, model, phi1, phi2, p):
    """Sectional curvature of the plane spanned by V_phi1, V_phi2."""
    geo = PointGeometry(chain, model, p)
    phi1 = check_potential(phi1, chain.n)
    phi2 = check_potential(phi2, chain.n)
    a11 = float(phi1 @ geo.L @ phi1)
    a22 = float(phi2 @ geo.L @ phi2)
    a12 = float(phi1 @ geo.L @ phi2)
    gram = a11 * a22 - a12 * a12
    if gram <= 1e-12 * max(a11 * a22, 0.0):
        raise DegeneratePlane(f"Gram determinant {gram:.3e} below tolerance")
    num = _riemann_assembled(geo, [phi1, phi2])[0, 1, 1, 0]
    return float(num / gram)


def ricci_scalar(chain, model, p):
    """Ricci form on the orthonormal frame and the scalar curvature.

    Ric(e_a, e_b) = sum_c <R(e_c, e_a) e_b, e_c>; scalar = trace.
    """
    geo = PointGeometry(chain, model, p)
    ric = np.einsum("cabc->ab", _riemann_assembled(geo, frame_potentials(geo.L)))
    return ric, float(np.trace(ric))


# -- chart-coordinate oracle ---------------------------------------------------

def _chart_metric(chain, model, x):
    p = np.append(x, 1.0 - x.sum())
    R = pseudo_inverse(response_at(chain, model, p))
    n = chain.n
    J = np.vstack([np.eye(n - 1), -np.ones(n - 1)])
    return J.T @ R @ J


def _central_differences(f, x, h):
    """The central differences (f(x + h e_a) - f(x - h e_a)) / 2h, stacked
    along a new leading axis a."""
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in h * np.eye(len(x))])


def _chart_christoffel(chain, model, x, h_metric):
    G_inv = np.linalg.inv(_chart_metric(chain, model, x))
    dG = _central_differences(lambda y: _chart_metric(chain, model, y), x, h_metric)
    # Gamma^i_jk = 1/2 G^il (d_j G_lk + d_k G_lj - d_l G_jk); dG[a] = d_a G
    lowered = np.einsum("jlk->ljk", dG) + np.einsum("klj->ljk", dG) - dG
    return 0.5 * np.einsum("il,ljk->ijk", G_inv, lowered)


def chart_curvature_oracle(chain, model, p, h_metric=1e-5, h_christoffel=1e-4):
    """Fully lowered Riemann tensor in the chart x = (p_1, ..., p_{n-1}).

    Christoffel symbols come from central differences of the chart metric;
    their partials from a second central-difference layer.  An oracle: it
    never uses the theta partials or PointGeometry, so it arbitrates the
    response-matrix routes.
    """
    p = check_interior(p)
    x = np.asarray(p, dtype=float)[:-1]
    d_gam = _central_differences(
        lambda y: _chart_christoffel(chain, model, y, h_metric), x, h_christoffel)
    gam = _chart_christoffel(chain, model, x, h_metric)
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
    #           + Gamma^m_lj Gamma^i_km - Gamma^m_kj Gamma^i_lm
    r_up = (np.einsum("kilj->ijkl", d_gam) - np.einsum("likj->ijkl", d_gam)
            + np.einsum("mlj,ikm->ijkl", gam, gam)
            - np.einsum("mkj,ilm->ijkl", gam, gam))
    G0 = _chart_metric(chain, model, x)
    return np.einsum("im,mjkl->ijkl", G0, r_up)


def oracle_contraction(chain, model, phi1, phi2, phi3, phi4, p, lowered=None):
    """Contract the chart tensor to <R(V_phi1, V_phi2) V_phi3, V_phi4> (oracle
    route, for comparison with `riemann`)."""
    if lowered is None:
        lowered = chart_curvature_oracle(chain, model, p)
    L = response_at(chain, model, p)
    v = [(L @ check_potential(f, chain.n))[:-1] for f in (phi1, phi2, phi3, phi4)]
    return float(np.einsum("ijkl,i,j,k,l->", lowered, v[3], v[2], v[0], v[1]))


# -- summary report --------------------------------------------------------------

@dataclass
class CurvatureReport:
    point: np.ndarray
    riemann: np.ndarray          # frame components <R(e_a,e_b)e_c,e_d>
    sectional: np.ndarray        # frame-pair plane curvatures, nan on diagonal
    ricci: np.ndarray
    scalar: float
    oracle_residual: float
    m_convention: str = M_CONVENTION


def curvature_report(chain, model, p) -> CurvatureReport:
    """Frame curvature data at p, cross-checked against the chart oracle."""
    geo = PointGeometry(chain, model, p)
    pots = frame_potentials(geo.L)
    tensor = _riemann_assembled(geo, pots)
    lowered = chart_curvature_oracle(chain, model, p)
    E = geo.velocity(pots)[:, :-1]
    oracle = np.einsum("ijkl,di,cj,ak,bl->abcd", lowered, E, E, E, E, optimize=True)
    residual = float(np.abs(tensor - oracle).max())

    # frame vectors are orthonormal, so the Gram determinant is 1
    sec = np.einsum("abba->ab", tensor).copy()
    np.fill_diagonal(sec, np.nan)
    ric = np.einsum("cabc->ab", tensor)
    return CurvatureReport(
        point=np.asarray(p, dtype=float).copy(),
        riemann=tensor,
        sectional=sec,
        ricci=ric,
        scalar=float(np.trace(ric)),
        oracle_residual=residual,
    )
