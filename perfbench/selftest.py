"""Self-test of the output checks: each must pass on a real output and fail
on a corrupted copy of it.

    python3 perfbench/selftest.py

Runs one small operation of each kind through onsagergeo.cli.main (the
program is imported from ./src, as run.py does), then feeds every check in
checks.CHECKS the pristine output and one corrupted output.  Exits 1 if a
check rejects a pristine output or accepts a corrupted one.
"""

import copy
import shutil
import sys

import numpy as np

import checks
import run
import workloads


def shifted(rows, cols, delta):
    """Shift data[rows, cols] by delta."""
    def corrupt(op, out):
        header, data = out
        data = data.copy()
        for col, d in zip(cols, delta):
            data[rows, header.index(col)] += d
        return header, data
    return corrupt


def scaled(rows, prefix, factor):
    """Scale every column starting with prefix on the given rows."""
    def corrupt(op, out):
        header, data = out
        data = data.copy()
        for k, name in enumerate(header):
            if name.startswith(prefix):
                data[rows, k] *= factor
        return header, data
    return corrupt


def energy_rise(op, out):
    header, data = out
    data = data.copy()
    k = header.index("D_f")
    data[10, k] = data[9, k] * (1.0 + 1e-6)
    return header, data


def drop_column(op, out):
    header, data = out
    return header[:-1], data[:, :-1]


def flip_largest(op, out, cross_pair=False):
    """Negate the largest tensor component; with cross_pair, the largest one
    whose index pairs differ, since R_abab is its own pair transpose."""
    out = copy.deepcopy(out)
    R = np.abs(np.asarray(out["riemann"]))
    if cross_pair:
        a, b, c, d = np.indices(R.shape)
        R = np.where((a == c) & (b == d), -1.0, R)
    a, b, c, d = np.unravel_index(R.argmax(), R.shape)
    out["riemann"][a][b][c][d] *= -1.0
    return out


def json_field(key, fn):
    def corrupt(op, out):
        out = copy.deepcopy(out)
        out[key] = fn(out[key])
        return out
    return corrupt


def sweep_row(col, fn):
    def corrupt(op, out):
        header, data = out
        data = data.copy()
        k = header.index(col)
        data[100, k] = fn(data[100])
        return header, data
    return corrupt


ALL = slice(None)
LATER = slice(-500, None)

# (kind, tag filter, check, corruption, description)
CORRUPTIONS = [
    ("simulate", None, checks.check_header, drop_column, "last column dropped"),
    ("simulate", None, checks.sim_expm, shifted(-1, ("p1", "p2"), (1e-6, -1e-6)),
     "final state shifted by 1e-6"),
    ("simulate", None, checks.sim_mass, shifted(50, ("p1",), (1e-6,)), "one row's mass off by 1e-6"),
    ("simulate", None, checks.sim_energy_monotone, energy_rise, "D_f rises by 1e-6 relative"),
    ("simulate", None, checks.sim_dissipation_rate, scaled(ALL, "dissipation", 1.01),
     "both dissipation columns scaled by 1.01"),
    ("simulate", None, checks.sim_routes, scaled(ALL, "dissipation_edgesum", 1.0 + 1e-6),
     "edge-sum dissipation scaled by 1 + 1e-6"),
    ("geodesic", None, checks.speed_constant, scaled(-1, "speed", 1.0 + 1e-5),
     "last speed scaled by 1 + 1e-5"),
    ("geodesic", None, checks.speed_own, scaled(ALL, "phi", 1.01), "phi scaled by 1.01"),
    ("bvp", None, checks.bvp_endpoint, shifted(-1, ("gamma1", "gamma2"), (1e-6, -1e-6)),
     "last gamma row shifted by 1e-6"),
    ("bvp", None, checks.speed_constant, scaled(-1, "speed", 1.0 + 1e-5),
     "last speed scaled by 1 + 1e-5"),
    ("transport", None, checks.transport_norm, scaled(LATER, "eta", 1.01),
     "eta scaled by 1.01 on the later rows"),
    ("transport", None, checks.transport_angle, scaled(LATER, "eta", 1.01),
     "eta scaled by 1.01 on the later rows"),
    ("transport", "eta_is_phi", checks.transport_tangent, scaled(LATER, "eta", 1.01),
     "transported tangent scaled by 1.01"),
    ("transport", None, checks.speed_own, scaled(ALL, "phi", 1.01), "phi scaled by 1.01"),
    ("analyze", None, checks.tensor_antisymmetry, flip_largest, "largest component negated"),
    ("analyze", None, checks.tensor_pair_symmetry,
     lambda op, out: flip_largest(op, out, cross_pair=True),
     "largest component with distinct index pairs negated"),
    ("analyze", None, checks.tensor_bianchi, flip_largest, "largest component negated"),
    ("analyze", None, checks.oracle_relative, json_field("oracle_residual", lambda r: r * 1e3),
     "oracle residual times 1e3"),
    ("analyze", "scalar", checks.paper_scalar, json_field("scalar", lambda s: s + 1e-6),
     "scalar shifted by 1e-6"),
    ("sweep", "geometric", checks.sweep_grid, sweep_row("p2", lambda row: row[1] + 1e-12),
     "one grid point moved by 1e-12"),
    ("sweep", "geometric", checks.sweep_negative, sweep_row("K12", lambda row: -row[3]),
     "one K12 negated"),
    ("sweep", "geometric", checks.sweep_closed_form,
     sweep_row("K12", lambda row: row[3] * (1.0 + 1e-8)), "one K12 scaled by 1 + 1e-8"),
    ("sweep", "geometric", checks.sweep_residual,
     sweep_row("oracle_residual", lambda row: 1e-4 * abs(row[3])),
     "one tensor-route residual set to 1e-4 |K12|"),
]


def matches(op, tag):
    if tag is None:
        return True
    if tag == "geometric":
        return op.config["model"]["kind"] == "geometric"
    return bool(op.tags.get(tag))


def sample_ops():
    """From the small-chains workload: the n = 5 chain's operations (a frame
    with k = 4, so the Bianchi identity is not vacuous), the paper's lattice3
    point, one geometric sweep and the kl sweep."""
    ops = workloads.build("small-chains", 0)
    picked = [op for op in ops if op.chain.n == 5]
    picked += [op for op in ops if op.tags.get("scalar") is not None]
    sweeps = [op for op in ops if op.kind == "sweep"]
    return picked + [sweeps[0], sweeps[-1]]


def main():
    package = run.import_program()
    ops = sample_ops()
    workdir = run.SCRATCH / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = []
    try:
        argvs = run.write_configs(ops, workdir)
        outputs = []
        for op, argv in zip(ops, argvs):
            code = package.cli.main(argv)
            if code != 0:
                bad.append(f"{op.kind}: exit code {code}")
                outputs.append(None)
                continue
            with open(argv[-1], encoding="utf-8") as fh:
                outputs.append(checks.parse(op.kind, fh.read()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op, out in zip(ops, outputs):
        if out is None:
            continue
        for msg in checks.run_checks(op, out):
            bad.append(f"pristine {op.kind}: {msg}")
        if op.kind == "sweep" and op.config["model"]["kind"] == "kl":
            flagged = int(checks.flagged_rows(out[1]).sum())
            line = f"kl grid-25 sweep: {flagged} flagged rows (expected 25)"
            print(line)
            if flagged != 25:
                bad.append(line)

    for kind, tag, check, corrupt, what in CORRUPTIONS:
        cases = [(op, out) for op, out in zip(ops, outputs)
                 if op.kind == kind and out is not None and matches(op, tag)]
        if not cases:
            bad.append(f"{check.__name__}: no {kind} output to corrupt")
            continue
        for op, out in cases:
            msg = check(op, corrupt(op, out))
            status = "caught" if msg is not None else "MISSED"
            print(f"{status}  {kind:9s} {check.__name__:22s} {what}: {msg}")
            if msg is None:
                bad.append(f"{check.__name__} missed: {what}")

    for line in bad:
        print(f"FAIL {line}")
    print("selftest:", "failed" if bad else "all checks pass pristine outputs and catch corruptions")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
