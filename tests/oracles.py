"""Test-side expressions of the paper's formulas, written apart from the
package's per-point bundle so that the tests can check one against the other.
None of them is package API."""

import numpy as np

from onsagergeo import CustomMean
from onsagergeo.chains import grad_matrix
from onsagergeo.connection import PointGeometry


def constant_mobility():
    """theta identically one on every edge (flat metric)."""
    return CustomMean(lambda chain, p: np.ones((chain.n, chain.n)))


def contract_d1(d1, vec):
    """The dense form of `PointGeometry.dtheta`: contract a matrix of theta
    partials against a vertex vector,
    out_ij = (d theta_ij/d p_i) vec_i + (d theta_ij/d p_j) vec_j."""
    return d1 * vec[..., None] + d1.mT * vec[..., None, :]


def div_omega(chain, v):
    """Weighted divergence of an antisymmetric edge matrix v:
    div(v)_i = sum_{j in N(i)} sqrt(omega_ij) v_ij, adjoint to the gradient:
    sum_i phi_i div(v)_i = -1/2 sum_{ordered (i,j)} (grad phi)_ij v_ij."""
    return (chain.sqrt_omega * v).sum(axis=1)


def inner_product_edges(chain, theta_mat, phi1, phi2):
    """<V_phi1, V_phi2> as an ordered-pair edge sum:
    1/2 sum_(i,j) (grad phi1)_ij (grad phi2)_ij theta_ij."""
    g1 = grad_matrix(chain, np.asarray(phi1, dtype=float))
    g2 = grad_matrix(chain, np.asarray(phi2, dtype=float))
    return float(0.5 * np.sum(g1 * g2 * theta_mat))


def koszul_scalar(chain, model, phi1, phi2, phi3, p):
    """<nabla_{V1} V2, V3> written purely through Gamma:
    1/2 ( phi1^T L Gamma(2,3) - phi2^T L Gamma(1,3) + phi3^T L Gamma(1,2) )."""
    geo = PointGeometry(chain, model, p)
    return 0.5 * float(phi1 @ geo.L @ geo.gamma(phi2, phi3)
                       - phi2 @ geo.L @ geo.gamma(phi1, phi3)
                       + phi3 @ geo.L @ geo.gamma(phi1, phi2))
