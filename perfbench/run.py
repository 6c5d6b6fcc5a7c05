"""onsagergeo benchmark: the six-command CLI, end to end, in one process.

    python3 perfbench/run.py --workload small-chains --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The set-up imports onsagergeo from
./src, generates the workload's inputs from the seed and writes one config
file per operation.  The timed part is a closed loop: one in-process call of
onsagergeo.cli.main at a time, each writing its output to a scratch file,
repeated in whole passes over the workload while the next pass still fits in
--seconds.  Afterwards every output is read back and checked against the
benchmark's own computations (checks.py), and every later pass must have
written the same bytes as the first.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  With --trace 0 they are the set-up time, the median pass time,
per command kind the sum of each call's median time over the passes, and the
peak RSS.  With --trace 1 they are the per-layer counts and self times of
tracing.py (medians over passes), also written with the median pass time to
.perfbench_run/trace-<workload>-<seed>.json.
"""

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_run"

KINDS = ("simulate_s", "geodesic_s", "bvp_s", "transport_s", "curvature_s")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def pin_runtime():
    """Make a call's cost independent of what ran before it in the process.

    BLAS runs on one thread: on the two-vCPU host a threaded call waits on
    the other vCPU, and the same n = 300 solve varied 2x.  glibc serves
    blocks up to 32 MB from the heap and never trims it: by default an
    n x n array at n = 300 (720 KB) is mapped and faulted in afresh or
    reused depending on the heap's history, which made the same geodesic
    call take 1.0 s or 2.0 s.  Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)


def since_process_start():
    """Wall time since this process started, from the kernel's start stamp
    (clock-tick resolution), so interpreter start-up is included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_program():
    src = ROOT / "src"
    if not (src / "onsagergeo" / "cli.py").is_file():
        sys.exit(f"perfbench: no onsagergeo sources under {src}")
    sys.path.insert(0, str(src))
    import onsagergeo
    import onsagergeo.cli

    if Path(onsagergeo.__file__).resolve().parent != src / "onsagergeo":
        sys.exit(f"perfbench: imported onsagergeo from {onsagergeo.__file__}, not {src}")
    return onsagergeo


def write_configs(ops, workdir):
    """One config per operation; returns the argv of each call."""
    from workloads import COMMAND

    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        cfg_path = workdir / f"op{i:03d}.json"
        cfg_path.write_text(json.dumps(op.config))
        argvs.append([COMMAND[op.kind], "--config", str(cfg_path),
                      "--out", str(workdir / f"op{i:03d}.out")])
    return argvs


def run_pass(main, argvs, tracer):
    """One closed-loop pass; returns each call's time, the pass time, the
    exit codes and, when tracing, this pass's per-layer snapshot."""
    op_times = []
    codes = []
    clock = time.perf_counter
    start = clock()
    for argv in argvs:
        t0 = clock()
        try:
            code = main(argv)
        except Exception:  # an uncaught error is a failed call, as for a user
            traceback.print_exc()
            code = 1
        op_times.append(clock() - t0)
        codes.append(code)
    total = clock() - start
    layers = None
    if tracer is not None:
        layers = tracer.snapshot()
        tracer.reset()
    return op_times, total, codes, layers


def digest(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def check_outputs(ops, argvs, codes):
    """(problems, failed operations per pass) for the outputs on disk."""
    import checks

    problems = []
    failed = 0
    for i, (op, argv, code) in enumerate(zip(ops, argvs, codes)):
        if code != 0:
            failed += op.rows
            continue
        text = Path(argv[-1]).read_text()
        try:
            out = checks.parse(op.kind, text)
        except (ValueError, IndexError) as exc:
            problems.append(f"op{i:03d} {op.kind}: unreadable output ({exc})")
            continue
        if op.kind == "sweep":
            failed += int(checks.flagged_rows(out[1]).sum())
        problems += [f"op{i:03d} {op.kind}: {p}" for p in checks.run_checks(op, out)]
    return problems, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    pin_runtime()
    package = import_program()
    import workloads
    from workloads import METRIC

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed)
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        argvs = write_configs(ops, workdir)
        warm = workloads.warm_up()
        for argv in write_configs(warm, workdir / "warm-up"):
            package.cli.main(argv)
        setup_s = since_process_start()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.install(package)
        main_fn = package.cli.main

        passes = []
        codes_seen = []
        digests = None
        problems = []
        started = time.perf_counter()
        while True:
            op_times, total, codes, layers = run_pass(main_fn, argvs, tracer)
            passes.append((op_times, total, layers))
            codes_seen.append(codes)
            now = [digest(Path(argv[-1])) for argv in argvs]
            if digests is None:
                digests = now
            elif now != digests:
                changed = sum(a != b for a, b in zip(now, digests))
                problems.append(f"pass {len(passes)}: {changed} outputs differ from pass 1")
            elapsed = time.perf_counter() - started
            if elapsed + total > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if any(c != codes_seen[0] for c in codes_seen):
            problems.append("exit codes differ between passes")
        check_problems, failed_per_pass = check_outputs(ops, argvs, codes_seen[0])
        problems += check_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    n_pass = len(passes)
    total_s = statistics.median(p[1] for p in passes)
    if args.trace:
        from tracing import metric_names
        metrics = {name: {"value": statistics.median(p[2][name] for p in passes), "unit": unit}
                   for name, unit in metric_names()}
        summary = {"workload": args.workload, "seed": args.seed, "passes": n_pass,
                   "total_s": total_s,
                   "layers": {k: v["value"] for k, v in metrics.items()}}
        SCRATCH.mkdir(exist_ok=True)
        (SCRATCH / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(summary, indent=1) + "\n")
    else:
        # each call's median over the passes, summed by kind: a slow spell of
        # the host during one pass does not move the figure
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "total_s": {"value": total_s, "unit": "s"}}
        for key in KINDS:
            metrics[key] = {"value": 0.0, "unit": "s"}
        for i, op in enumerate(ops):
            metrics[METRIC[op.kind]]["value"] += statistics.median(p[0][i] for p in passes)
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    ops_per_pass = sum(op.rows for op in ops)
    print(json.dumps({"correct": not problems,
                      "attempted": n_pass * ops_per_pass,
                      "failed": n_pass * failed_per_pass,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
