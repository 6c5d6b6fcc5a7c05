"""The benchmark's own geometry, written apart from the onsagergeo package.

Everything here uses numpy only.  Chains are held in incidence form
(edge arrays I, J with weights omega_e = Q_ij pi_i), so the response matrix is
L = B diag(omega . theta) B^T and every quadratic form is an edge sum.  The
input generator uses these routines to scale potentials, and the output checks
use them to recompute what the program wrote.
"""

import numpy as np


class Chain:
    """A reversible chain as the benchmark wrote it: rates, pi and edges."""

    def __init__(self, Q, pi):
        self.Q = np.asarray(Q, dtype=float)
        self.pi = np.asarray(pi, dtype=float)
        self.n = len(self.pi)
        I, J = np.nonzero(np.triu(self.Q + self.Q.T, 1))
        self.I, self.J = I, J
        self.omega = 0.5 * (self.Q[I, J] * self.pi[I] + self.Q[J, I] * self.pi[J])

    @classmethod
    def from_weights(cls, n, I, J, w, pi):
        """Rates Q_ij = w_e / pi_i, which satisfy detailed balance with pi."""
        Q = np.zeros((n, n))
        Q[I, J] = w / pi[I]
        Q[J, I] = w / pi[J]
        return cls(Q, pi)

    def generator(self):
        """A with dp/dt = A p."""
        return self.Q.T - np.diag(self.Q.sum(axis=1))

    def rates_config(self):
        """The config's 1-based [i, j, rate] triples."""
        rows, cols = np.nonzero(self.Q)
        return [[int(i) + 1, int(j) + 1, float(self.Q[i, j])] for i, j in zip(rows, cols)]


PRESETS = {
    # 1 - 2 - 3 with rates 3 on each direction, uniform pi
    "lattice3": (3.0 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                 np.full(3, 1.0 / 3.0)),
    # reaction cycle with stationary law 4:2:1
    "triangle-reaction": (np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [4.0, 2.0, 0.0]]),
                          np.array([4.0, 2.0, 1.0]) / 7.0),
}


def preset(name):
    Q, pi = PRESETS[name]
    return Chain(Q, pi)


def ratios(spec, chain, p):
    if spec.get("convention", "pi") == "scaled":
        return spec["c"] * p
    return p / chain.pi


def edge_theta(spec, chain, p):
    """theta_e at p for the config's model spec, one value per edge.

    The ratio means are written with log1p/expm1, which keeps them accurate
    when the two ratios nearly coincide; equal ratios give the limit 1/f''.
    """
    kind = spec["kind"]
    I, J = chain.I, chain.J
    if kind == "geometric":
        beta = spec.get("beta", 0.5)
        if spec.get("convention", "pi") == "scaled":
            return spec["c"] * (p[I] * p[J]) ** beta
        z = p / chain.pi
        return (z[I] * z[J]) ** beta
    z = ratios(spec, chain, p)
    a, b = z[I], z[J]
    x = (b - a) / a
    same = x == 0.0
    xs = np.where(same, 1.0, x)
    if kind == "kl":
        theta = (b - a) / np.log1p(xs)
        return np.where(same, a, theta)
    if kind == "alpha":
        al = spec["alpha"]
        k = 0.5 * (al - 1.0)
        # f'(b) - f'(a) = 2/(al-1) (b^k - a^k) = 2/(al-1) a^k expm1(k log1p(x))
        den = 2.0 / (al - 1.0) * a**k * np.expm1(k * np.log1p(xs))
        theta = (b - a) / den
        return np.where(same, a ** (0.5 * (3.0 - al)), theta)
    raise ValueError(f"no reference mean for kind {kind!r}")


def edge_form(chain, theta, x, y):
    """x^T L(theta) y as the edge sum of omega_e theta_e (grad x)_e (grad y)_e.
    x and y may be stacked along a leading axis."""
    gx = x[..., chain.J] - x[..., chain.I]
    gy = y[..., chain.J] - y[..., chain.I]
    return (gx * gy * (chain.omega * theta)).sum(axis=-1)


def response(chain, theta):
    """Dense L(theta) = B diag(omega . theta) B^T."""
    n = chain.n
    w = chain.omega * theta
    L = np.zeros((n, n))
    np.add.at(L, (chain.I, chain.I), w)
    np.add.at(L, (chain.J, chain.J), w)
    np.add.at(L, (chain.I, chain.J), -w)
    np.add.at(L, (chain.J, chain.I), -w)
    return L


def speed(spec, chain, gamma, phi):
    """sqrt(<V_phi, V_phi>) at each row of gamma / phi."""
    out = np.empty(len(gamma))
    for k, (p, f) in enumerate(zip(gamma, phi)):
        out[k] = np.sqrt(max(edge_form(chain, edge_theta(spec, chain, p), f, f), 0.0))
    return out


def sweep_points(resolution):
    """The paper's grid on the 3-path: (u, (1-u) v, (1-u)(1-v))."""
    ticks = np.arange(1, resolution + 1) / (resolution + 1.0)
    u, v = np.meshgrid(ticks, ticks, indexing="ij")
    u, v = u.ravel(), v.ravel()
    return np.column_stack([u, (1.0 - u) * v, (1.0 - u) * (1.0 - v)])


def geometric_k12(beta, c_eff, p):
    """The paper's closed form for the plane numerator K12 of the geometric
    mean theta = c (p_i p_j)^beta on the unit 3-path."""
    p1, p2, p3 = p[:, 0], p[:, 1], p[:, 2]
    t1 = c_eff * (p1 * p2) ** beta
    t2 = c_eff * (p2 * p3) ** beta
    a = beta / p2**2 + beta**2 / (2.0 * p1 * p2)
    b = beta / p2**2 + beta**2 / (2.0 * p2 * p3)
    return -0.5 * (a / t2 + b / t1)
