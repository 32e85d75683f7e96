"""hypflow benchmark: one workload, closed loop, in one process.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

Passes of the workload's fixed work run back to back (each starts when the
previous one ends) while another pass still fits in `--seconds`; at least one
pass always runs.  With `--trace 0` the last line reports the end-to-end
metrics (medians over passes); with `--trace 1` half the time runs untraced
and half traced, and the last line reports the per-layer metrics per traced
pass.  The lines before it carry the machine record, every physics number at
full precision, the workload-specific end-to-end figures and, when traced,
the per-group breakdown.  The program is loaded from `src/` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads: single-threaded BLAS, whatever the host default
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WAITING = ("none: one process runs a closed loop of one operation at a time, "
           "with no queues, so no operation ever waits")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> float:
    """First import of hypflow (with numpy and scipy) from this checkout's
    src/; returns its seconds."""
    if not (SRC / "hypflow" / "__init__.py").is_file():
        die(f"no hypflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import hypflow
    import_s = perf_counter() - t0
    if Path(hypflow.__file__).resolve().parent != (SRC / "hypflow").resolve():
        die(f"hypflow loaded from {hypflow.__file__}, not from {SRC}")
    return import_s


def fresh_import():
    """hypflow and the workloads imported anew; numpy and scipy stay loaded,
    so every set-up repeat pays for the program's own imports only."""
    for name in [k for k in sys.modules if k.split(".")[0] in ("hypflow", "workloads")]:
        del sys.modules[name]
    return importlib.import_module("hypflow"), importlib.import_module("workloads")


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(workloads, run_pass, state, budget, hook, tracer=None):
    """Closed loop of passes while another one fits in `budget` seconds,
    with `hook` installed around each pass."""
    passes = []
    t_begin = perf_counter()
    while True:
        p = workloads.Pass(tracer)
        hook.install()
        try:
            t0 = perf_counter()
            run_pass(state, p)
            p.wall = perf_counter() - t0
        finally:
            hook.uninstall()
        passes.append(p)
        if perf_counter() - t_begin + p.wall > budget:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    import_s = load_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    print("machine " + json.dumps(machine_record()), flush=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        hypflow, workloads = fresh_import()
        setup, run_pass = workloads.WORKLOADS[args.workload]
        state = setup(args.seed)
        setup_times.append(perf_counter() - t0)

    budget = args.seconds / 2 if args.trace else args.seconds
    probe = spans.EvolveProbe(hypflow.pde_sim)
    plain = measure(workloads, run_pass, state, budget, probe)
    tracer = None
    traced = []
    if args.trace:
        tracer = spans.Tracer(hypflow, sys.modules["numpy"])
        traced = measure(workloads, run_pass, state, budget, tracer, tracer)
    everything = plain + traced

    attempted = sum(len(p.ops) for p in everything)
    failures = [o for p in everything for o in p.ops if o["failed"]]
    physics = [json.dumps(p.physics, sort_keys=True, default=str) for p in everything]
    print("physics " + physics[0])

    def med(values):
        return statistics.median(values) if values else None

    wall_s = med([p.wall for p in plain])
    setup_s = statistics.median(setup_times)
    detail = {
        "workload": args.workload, "seed": args.seed, "passes": len(plain),
        "traced_passes": len(traced), "pass_wall_s": [p.wall for p in plain],
        "wall_s": wall_s, "setup_s": setup_s, "first_import_s": import_s,
        "setup_repeat_s": setup_times,
        "experiment_s": med([p.group_seconds("experiment") for p in plain]) or None,
        "control_s": med([p.group_seconds("control") for p in plain]) or None,
        "node_steps_per_s": med([n / s for s, n in probe.readings if s > 0]),
        "node_modes_per_s": med([p.modes_work / p.modes_seconds
                                 for p in plain if p.modes_seconds > 0]),
        "ops_per_pass": len(plain[0].ops),
        "reproducible": len(set(physics)) == 1,
        "waiting": WAITING,
        "failures": [f"{o['group']}: {o['failed']}" for o in failures],
    }
    print("detail " + json.dumps(detail))

    if args.trace:
        n = len(traced)
        traced_wall = sum(p.wall for p in traced)
        metrics = spans.layer_metrics(tracer, n, traced_wall, wall_s)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(str(spans_path))
        print("trace " + json.dumps({
            "groups": spans.group_breakdown(tracer, n), "spans": len(tracer.start),
            "unwrapped": sorted(tracer.missing),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "accounting": "self_sum_s + outside_s = wall_s (traced); "
                          "wall_s - untraced_wall_s = overhead_s"}))
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
