"""The three workloads: operations and their configs, generated from a seed.

The make-up of a workload (commands, models, sizes, edge counts, step
counts) is fixed; the seed draws the stationary laws, edge sets and weights,
points and potentials.  So every seed asks for the same amount of work and
the same number of operations.  Potentials and endpoints are scaled with the
benchmark's own metric so that every path stays well inside the simplex.
"""

from dataclasses import dataclass, field

import numpy as np

import reference as ref

# Share of each coordinate by which a geodesic may move at first order over
# its time span.
GEODESIC_REACH = 0.3

KL = {"kind": "kl"}
ALPHA_M1 = {"kind": "alpha", "alpha": -1.0}
ALPHA_0 = {"kind": "alpha", "alpha": 0.0}
ALPHA_2 = {"kind": "alpha", "alpha": 2.0}
GEOMETRIC = {"kind": "geometric", "beta": 0.7}
PAPER_POINT = {"kind": "geometric", "beta": 1.0, "c": 9.0, "convention": "scaled"}

# simulate needs a divergence-paired mean; the other commands take any model
DIVERGENCE_MODELS = [KL, ALPHA_M1, ALPHA_0, ALPHA_2]
SMALL_MODELS = [KL, ALPHA_M1, ALPHA_0, ALPHA_2, GEOMETRIC]

SWEEP_MODELS = [{"kind": "geometric", "beta": b, "c": 9.0, "convention": "scaled"}
                for b in (0.5, 1.0, 2.0)] + [KL]
SWEEP_GRID = 25

# The CLI subcommand behind each operation kind, and the end-to-end metric
# its time is summed into.
COMMAND = {"simulate": "simulate", "geodesic": "geodesic", "bvp": "geodesic",
           "transport": "transport", "analyze": "analyze", "sweep": "sweep"}
METRIC = {"simulate": "simulate_s", "geodesic": "geodesic_s", "bvp": "bvp_s",
          "transport": "transport_s", "analyze": "curvature_s", "sweep": "curvature_s"}


@dataclass
class Op:
    kind: str
    config: dict
    chain: ref.Chain
    tags: dict = field(default_factory=dict)

    @property
    def rows(self):
        """Operations this call counts as: one per sweep row, else one."""
        return self.config["grid"] ** 2 if self.kind == "sweep" else 1


# -- inputs ----------------------------------------------------------------------

def random_chain(rng, n, n_edges, scale):
    """A connected reversible chain with exactly n_edges edges: a random
    spanning path plus random extra pairs, weights scale * U(0.5, 1.5)."""
    pi = rng.uniform(0.5, 1.5, n)
    pi /= pi.sum()
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[k]), int(order[k + 1])))) for k in range(n - 1)}
    if n_edges == n * (n - 1) // 2:
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    while len(edges) < n_edges:
        i, j = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((i, j))
    I, J = np.array(sorted(edges)).T
    w = scale * rng.uniform(0.5, 1.5, len(I))
    return ref.Chain.from_weights(n, I, J, w, pi)


def chain_config(chain, name=None):
    if name is not None:
        return {"preset": name}
    return {"n": chain.n, "rates": chain.rates_config()}


def interior_point(rng, chain, spread):
    p = chain.pi * rng.uniform(1.0 - spread, 1.0 + spread, chain.n)
    return p / p.sum()


def mean_zero(x):
    return x - x.mean()


def scaled_potential(rng, spec, chain, p0, T):
    """A random mean-zero potential whose velocity L phi moves no coordinate
    by more than GEODESIC_REACH of itself over time T at first order."""
    phi = mean_zero(rng.normal(size=chain.n))
    v = ref.response(chain, ref.edge_theta(spec, chain, p0)) @ phi
    return phi * GEODESIC_REACH / (T * np.abs(v / p0).max())


def endpoint(rng, p0, reach):
    """p0 with each coordinate moved by up to `reach` of itself."""
    p1 = p0 * (1.0 + rng.uniform(-reach, reach, len(p0)))
    return p1 / p1.sum()


def floats(x):
    return [float(v) for v in x]


# -- operations ------------------------------------------------------------------

def simulate(rng, chain, name, spec, T, dt):
    cfg = {"chain": chain_config(chain, name), "model": spec,
           "p0": floats(interior_point(rng, chain, 0.7)), "T": T, "dt": dt}
    return Op("simulate", cfg, chain)


def geodesic(rng, chain, name, spec, T, dt):
    p0 = interior_point(rng, chain, 0.5)
    phi0 = scaled_potential(rng, spec, chain, p0, T)
    cfg = {"chain": chain_config(chain, name), "model": spec,
           "p0": floats(p0), "phi0": floats(phi0), "T": T, "dt": dt}
    return Op("geodesic", cfg, chain)


def bvp(rng, chain, name, spec, nsteps, reach):
    p0 = interior_point(rng, chain, 0.5)
    cfg = {"chain": chain_config(chain, name), "model": spec,
           "p0": floats(p0), "p1": floats(endpoint(rng, p0, reach)), "nsteps": nsteps}
    return Op("bvp", cfg, chain)


def transport(rng, chain, name, spec, T, dt, eta_is_phi):
    p0 = interior_point(rng, chain, 0.5)
    phi0 = scaled_potential(rng, spec, chain, p0, T)
    eta0 = phi0 if eta_is_phi else mean_zero(rng.normal(size=chain.n))
    cfg = {"chain": chain_config(chain, name), "model": spec, "p0": floats(p0),
           "phi0": floats(phi0), "eta0": floats(eta0), "T": T, "dt": dt}
    return Op("transport", cfg, chain, {"eta_is_phi": eta_is_phi})


def analyze(rng, chain, name, spec):
    cfg = {"chain": chain_config(chain, name), "model": spec,
           "point": floats(interior_point(rng, chain, 0.5))}
    return Op("analyze", cfg, chain)


def sweep(spec):
    cfg = {"chain": {"preset": "lattice3"}, "model": spec, "grid": SWEEP_GRID}
    return Op("sweep", cfg, ref.preset("lattice3"))


# -- workloads -------------------------------------------------------------------

def small_chains(rng):
    """The two presets and random chains with n = 3, 4, 5 under the kl,
    alpha (-1, 0, 2) and geometric models; geodesics and transports at
    T = 1, dt = 1e-3; simulate to T = 20; the paper's lattice3 point and the
    grid-25 sweeps."""
    chains = [("lattice3", ref.preset("lattice3")),
              ("triangle-reaction", ref.preset("triangle-reaction"))]
    for n, n_edges in ((3, 3), (4, 4), (5, 6)):
        chains.append((None, random_chain(rng, n, n_edges, 1.0 / n)))
    ops = []
    for c, (name, chain) in enumerate(chains):
        ops.append(simulate(rng, chain, name, DIVERGENCE_MODELS[c % 4], 20.0, 0.01))
        ops.append(geodesic(rng, chain, name, SMALL_MODELS[c % 5], 1.0, 1e-3))
        ops.append(bvp(rng, chain, name, SMALL_MODELS[(c + 4) % 5], 100, 0.3))
        ops.append(transport(rng, chain, name, SMALL_MODELS[(c + 1) % 5], 1.0, 1e-3, True))
        ops.append(transport(rng, chain, name, SMALL_MODELS[(c + 3) % 5], 1.0, 1e-3, False))
        ops.append(analyze(rng, chain, name, SMALL_MODELS[c % 5]))
    paper = Op("analyze", {"chain": {"preset": "lattice3"}, "model": PAPER_POINT,
                           "point": [1.0 / 3.0] * 3},
               ref.preset("lattice3"), {"scalar": -27.0})
    return ops + [paper] + [sweep(spec) for spec in SWEEP_MODELS]


def _large(rng, sizes, edges, scale, bvp_n, analyze_n):
    """simulate (two models) / geodesic / transport for 100 steps on each
    size, one two-point geodesic and one curvature report on smaller chains.
    The curvature report runs first, where the pass's first-call costs are
    small beside its own time."""
    ops = [analyze(rng, random_chain(rng, analyze_n, edges(analyze_n), scale(analyze_n)),
                   None, KL)]
    for n, spec in zip(sizes, (GEOMETRIC, KL)):
        chain = random_chain(rng, n, edges(n), scale(n))
        for sim_spec in (ALPHA_2, KL):
            ops.append(simulate(rng, chain, None, sim_spec, 1.0, 0.01))
        ops.append(geodesic(rng, chain, None, spec, 1.0, 0.01))
        ops.append(transport(rng, chain, None, spec, 1.0, 0.01, n == sizes[0]))
    # reach 0.1 keeps Newton at two iterations on every seed (0.3 takes two
    # or three at n = 30), so bvp_s does not depend on the seed
    bvp_chain = random_chain(rng, bvp_n, edges(bvp_n), scale(bvp_n))
    ops.append(bvp(rng, bvp_chain, None, KL, 100, 0.1))
    return ops


def large_sparse(rng):
    """Mean degree 3.6 (|E| = 1.8 n): n = 100 and 300, bvp at n = 30,
    analyze at n = 10."""
    return _large(rng, (100, 300), lambda n: int(round(1.8 * n)), lambda n: 1.0 / n, 30, 10)


def dense_complete(rng):
    """Complete graphs: n = 30 and 100, bvp at n = 20, analyze at n = 8."""
    return _large(rng, (30, 100), lambda n: n * (n - 1) // 2, lambda n: 1.0 / n**2, 20, 8)


WORKLOADS = {
    "small-chains": small_chains,
    "large-sparse": large_sparse,
    "dense-complete": dense_complete,
}


def build(name, seed):
    return WORKLOADS[name](np.random.default_rng(seed))


def warm_up():
    """One short call per command on the lattice3 preset, run during set-up
    so that first-call costs (lazy imports, LAPACK workspace queries) are not
    timed in the first pass."""
    rng = np.random.default_rng(0)
    chain, name = ref.preset("lattice3"), "lattice3"
    return [simulate(rng, chain, name, KL, 0.1, 0.01),
            geodesic(rng, chain, name, KL, 0.01, 0.001),
            bvp(rng, chain, name, KL, 10, 0.1),
            transport(rng, chain, name, KL, 0.01, 0.001, True),
            analyze(rng, chain, name, KL),
            Op("sweep", {"chain": {"preset": name}, "model": KL, "grid": 2}, chain)]
