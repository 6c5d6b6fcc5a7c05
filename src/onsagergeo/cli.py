"""Command-line front end: config ingestion, the analysis commands, and
deterministic CSV/JSON emission (floats at 17 significant digits)."""

import argparse
import json
import sys

import numpy as np

from .acceptance import run_all
from .chains import chain_from_rates, preset_chain
from .connection import (
    GeodesicPath,
    GeodesicRecord,
    geodesic_bvp,
    geodesic_ivp,
    parallel_transport,
)
from .curvature import curvature_report
from .dynamics import integrate
from .errors import OnsagerGeoError
from .lattice3 import SWEEP_COLUMNS, lattice3_sweep
from .metric import mean_zero
from .mobility import as_simplex_point, model_from_spec


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


def fmt(x):
    return f"{float(x):.17g}"


# -- config handling ---------------------------------------------------------------

def load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return data


def check_keys(cfg, allowed):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}'")


def require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing required config key '{key}'")
    return cfg[key]


def get_vector(cfg, key, length=None):
    value = require(cfg, key)
    if (not isinstance(value, list)
            or not value
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        raise ConfigError(f"config key '{key}' must be a list of numbers")
    arr = np.asarray(value, dtype=float)
    if length is not None and arr.shape != (length,):
        raise ConfigError(f"config key '{key}' must have length {length}")
    return arr


def get_point(cfg, key, n):
    """A config vector of n probabilities that sums to one within 1e-12."""
    try:
        return as_simplex_point(get_vector(cfg, key, n))
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def get_potential(cfg, key, n):
    """A config vector of n finite numbers."""
    arr = get_vector(cfg, key, n)
    if not np.isfinite(arr).all():
        raise ConfigError(f"config key '{key}' must have finite entries")
    return arr


def get_number(cfg, key, default):
    value = cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value) or value <= 0):
        raise ConfigError(f"config key '{key}' must be a positive number")
    return float(value)


def get_time_span(cfg):
    """The keys T and dt, positive numbers whose step count T/dt is finite."""
    T = get_number(cfg, "T", 1.0)
    dt = get_number(cfg, "dt", 1e-3)
    if not np.isfinite(T / dt):
        raise ConfigError(f"config keys 'T' and 'dt': the step count T/dt = {T / dt} "
                          "is not finite")
    return T, dt


def build_chain(cfg, preset_flag):
    spec = {"preset": preset_flag} if preset_flag else cfg.get("chain")
    if spec is None:
        raise ConfigError("missing required config key 'chain' (or pass --preset)")
    if not isinstance(spec, dict):
        raise ConfigError("config key 'chain' must be an object")
    if "preset" in spec:
        for key in spec:
            if key != "preset":
                raise ConfigError(f"unknown config key 'chain.{key}'")
        try:
            return preset_chain(spec["preset"])
        except ValueError as exc:
            raise ConfigError(f"config key 'chain.preset': {exc}") from None
    for key in spec:
        if key not in ("n", "rates"):
            raise ConfigError(f"unknown config key 'chain.{key}'")
    n = spec.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ConfigError("config key 'chain.n' must be an integer >= 2")
    rates = spec.get("rates")
    if not isinstance(rates, list):
        raise ConfigError("config key 'chain.rates' must be a list of [i, j, rate] triples")
    try:
        return chain_from_rates(n, rates)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"config key 'chain.rates': {exc}") from None


def build_model(cfg):
    spec = require(cfg, "model")
    if not isinstance(spec, dict):
        raise ConfigError("config key 'model' must be an object")
    try:
        return model_from_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"config key 'model': {exc}") from None


# -- output helpers ------------------------------------------------------------------

def csv_text(header, rows):
    """The header line and one line per row, every value as `fmt` writes
    it: one %-template per row over Python floats gives the same bytes."""
    rows = np.asarray(rows, dtype=float)
    template = ",".join(["%.17g"] * rows.shape[-1])
    return "\n".join([",".join(header)] + [template % tuple(row.tolist()) for row in rows]) + "\n"


def render_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(key)}: {render_json(value, indent + 1)}'
                 for key, value in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj):
            items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return "[" + ", ".join(render_json(v, indent + 1) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    x = float(obj)
    return fmt(x) if np.isfinite(x) else "null"


def emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ---------------------------------------------------------------------

_COMMON_KEYS = {"chain", "model", "out"}


def cmd_analyze(args):
    cfg = load_config(args.config)
    check_keys(cfg, _COMMON_KEYS | {"point"})
    chain = build_chain(cfg, args.preset)
    model = build_model(cfg)
    point = get_point(cfg, "point", chain.n)
    report = curvature_report(chain, model, point)
    payload = {
        "point": report.point,
        "riemann": report.riemann,
        "sectional": report.sectional,
        "ricci": report.ricci,
        "scalar": report.scalar,
        "oracle_residual": report.oracle_residual,
        "m_convention": report.m_convention,
    }
    emit(render_json(payload) + "\n", args.out or cfg.get("out"))
    return 0


def cmd_simulate(args):
    cfg = load_config(args.config)
    check_keys(cfg, _COMMON_KEYS | {"p0", "T", "dt"})
    chain = build_chain(cfg, args.preset)
    model = build_model(cfg)
    p0 = get_point(cfg, "p0", chain.n)
    T, dt = get_time_span(cfg)
    traj = integrate(chain, model, p0, T, dt)
    n = chain.n
    header = (["t"] + [f"p{i + 1}" for i in range(n)]
              + ["D_f", "dissipation_quadratic", "dissipation_edgesum"])
    rows = np.column_stack([traj.times, traj.states, traj.energy,
                            traj.dissipation_quadratic, traj.dissipation_edgesum])
    emit(csv_text(header, rows), args.out or cfg.get("out"))
    return 0


def _geodesic_rows(chain, rec):
    n = chain.n
    header = (["t"] + [f"gamma{i + 1}" for i in range(n)]
              + [f"phi{i + 1}" for i in range(n)] + ["speed"])
    rows = np.column_stack([rec.times, rec.states, rec.potentials, rec.speeds])
    return header, rows


def cmd_geodesic(args):
    cfg = load_config(args.config)
    check_keys(cfg, _COMMON_KEYS | {"p0", "p1", "phi0", "T", "dt", "nsteps"})
    chain = build_chain(cfg, args.preset)
    model = build_model(cfg)
    p0 = get_point(cfg, "p0", chain.n)
    if "p1" in cfg and "phi0" in cfg:
        raise ConfigError("give either 'phi0' (initial value) or 'p1' (two-point), not both")
    # each mode's own keys: a two-point geodesic always runs on [0, 1]
    mixed = [k for k in (("T", "dt") if "p1" in cfg else ("nsteps",)) if k in cfg]
    if mixed:
        mode = "an initial-value ('phi0')" if "p1" in cfg else "a two-point ('p1')"
        raise ConfigError(f"config key '{mixed[0]}' belongs to {mode} geodesic")
    if "p1" in cfg:
        p1 = get_point(cfg, "p1", chain.n)
        nsteps = cfg.get("nsteps", 100)
        if not isinstance(nsteps, int) or isinstance(nsteps, bool) or nsteps < 1:
            raise ConfigError("config key 'nsteps' must be a positive integer")
        _, rec, _ = geodesic_bvp(chain, model, p0, p1, nsteps=nsteps)
    else:
        phi0 = mean_zero(get_potential(cfg, "phi0", chain.n))
        T, dt = get_time_span(cfg)
        rec = geodesic_ivp(chain, model, p0, phi0, T, dt)
    header, rows = _geodesic_rows(chain, rec)
    emit(csv_text(header, rows), args.out or cfg.get("out"))
    return 0


def cmd_transport(args):
    cfg = load_config(args.config)
    check_keys(cfg, _COMMON_KEYS | {"p0", "phi0", "eta0", "T", "dt"})
    chain = build_chain(cfg, args.preset)
    model = build_model(cfg)
    p0 = get_point(cfg, "p0", chain.n)
    phi0 = mean_zero(get_potential(cfg, "phi0", chain.n))
    eta0 = get_potential(cfg, "eta0", chain.n)
    T, dt = get_time_span(cfg)
    states = parallel_transport(chain, model, GeodesicPath(p0, phi0, T), eta0, dt)
    rec = GeodesicRecord(np.array([st.t for st in states]),
                         np.array([st.gamma for st in states]),
                         np.array([st.phi for st in states]), chain, model)
    header, rows = _geodesic_rows(chain, rec)
    # the eta columns go before the speed
    header[-1:-1] = [f"eta{i + 1}" for i in range(chain.n)]
    rows = np.column_stack([rows[:, :-1], [st.eta for st in states], rows[:, -1]])
    emit(csv_text(header, rows), args.out or cfg.get("out"))
    return 0


def cmd_sweep(args):
    cfg = load_config(args.config)
    check_keys(cfg, _COMMON_KEYS | {"grid"})
    if args.preset or cfg.get("chain") is not None:
        # the chain is optional here, but one that is given passes the same
        # checks as for the other commands, and --preset overrides it
        build_chain(cfg, args.preset)
        if (args.preset or cfg["chain"].get("preset")) != "lattice3":
            raise ConfigError("sweep runs on the lattice3 preset only")
    model = build_model(cfg)
    if args.grid is not None:
        resolution = args.grid
    else:
        resolution = cfg.get("grid", 25)
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 1:
        raise ConfigError("config key 'grid' must be a positive integer")
    rows = lattice3_sweep(model, resolution)
    emit(csv_text(list(SWEEP_COLUMNS), rows), args.out or cfg.get("out"))
    return 0


def cmd_validate(args):
    results = run_all(seed=args.seed)
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(f"criterion {r.index} ({r.name})" for r in failed)
        print(f"validation failed: {names}")
        return 3
    print("all criteria passed")
    return 0


# -- entry point --------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="onsagergeo",
        description="Geometry of reversible Markov chains: metric, geodesics, "
                    "curvature, and the validation suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func, preset=True, grid=False, seed=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        if seed:
            cmd.add_argument("--seed", type=int, default=0,
                             help="seed for the randomized property checks")
            return cmd
        cmd.add_argument("--config", metavar="PATH", help="JSON run configuration")
        cmd.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        if preset:
            cmd.add_argument("--preset", metavar="NAME",
                             help="built-in chain preset (overrides config)")
        if grid:
            cmd.add_argument("--grid", metavar="R", type=int,
                             help="sweep resolution (overrides config)")
        return cmd

    add("analyze", "curvature report at a point (JSON)", cmd_analyze)
    add("simulate", "gradient-flow trajectory (CSV)", cmd_simulate)
    add("geodesic", "geodesic path, initial-value or two-point (CSV)", cmd_geodesic)
    add("transport", "parallel transport along a geodesic (CSV)", cmd_transport)
    add("sweep", "closed-form curvature grid on the 3-path (CSV)", cmd_sweep, grid=True)
    add("validate", "run the acceptance criteria", cmd_validate, seed=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OnsagerGeoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
