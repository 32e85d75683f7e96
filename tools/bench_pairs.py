"""Alternating parent/change pairs of perfbench runs, side by side.

    python3 tools/bench_pairs.py PARENT CHANGE --workload free --pairs 10 --seconds 20

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
`perfbench/run.py --seed SEED --trace 0` (`--seed`, default 0) once in
each, one after the other: the parent first in even pairs, the change first
in odd ones.  The runs get PYTHONDONTWRITEBYTECODE=1, and any `__pycache__`
under the checkouts' `src/` and `perfbench/` is removed first, so every run
compiles the modules it imports, as a fresh checkout does.  Two lines of
perfbench's output are read: the last, the end-to-end metrics, and the
`physics` line.  Every pair is printed; then, per metric, both medians, the
parent's quartiles, how many pairs the change read lower and a verdict (see
`verdict`) against the metric's bound in the change checkout's
BENCHMARK.json; and last whether the two physics lines were
byte-identical in every pair, or else, for the first pair that differs, the
largest relative difference over the numeric leaves, with its key and both
values, and every non-numeric difference (a changed string, flag or None, a
missing key, a list of another length).  It exits 1 when the change would be
refused (see `refusal`) and 0 otherwise, and says which rule it applied.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One perfbench run in checkout `root`; returns its last output line,
    with its physics line, as printed, under "physics"."""
    for sub in ("src", "perfbench"):
        for cache in (root / sub).rglob("__pycache__"):
            shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    physics = [line for line in lines if line.startswith("physics ")]
    if proc.returncode != 0 or not physics:
        sys.exit(f"bench_pairs: perfbench failed in {root} (exit {proc.returncode}):\n"
                 f"{proc.stderr.strip()[-2000:]}")
    return {**json.loads(lines[-1]), "physics": physics[0]}


def differences(old, new, path: str = "physics"):
    """(path, old, new) for every differing leaf of two parsed physics
    records, keys in sorted order; a key present on one side only, or lists
    of different lengths, count as one difference at their path."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                yield f"{path}.{key}", old.get(key, "<absent>"), new.get(key, "<absent>")
            else:
                yield from differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif json.dumps(old) != json.dumps(new):
        yield path, old, new


def describe_differences(old, new) -> list[str]:
    """Lines naming the largest relative difference |a - b| / max(|a|, |b|)
    over the numeric leaves, and every non-numeric difference."""
    numeric, other = [], []
    for path, a, b in differences(old, new):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            numeric.append((abs(a - b) / max(abs(a), abs(b)), path, a, b))
        else:
            other.append(f"{path}: {json.dumps(a)} -> {json.dumps(b)}")
    lines = []
    if numeric:
        rel, path, a, b = max(numeric, key=lambda d: d[0])
        lines.append(f"{len(numeric)} numeric leaves differ; the largest relative "
                     f"difference is {rel:.3g} at {path}: {a!r} -> {b!r}")
    return lines + other


def verdict(old: list, new: list, bound: float, better: str) -> str:
    """The verdict on one end-to-end metric over paired runs, `bound` a
    fraction of the parent's median and `better` "lower" or "higher":

    - "regressed": the change's median is worse than the parent's by more
      than the bound;
    - "unresolved": the parent's quartile spread exceeds the bound, unless
      every change run beats every parent run;
    - "gain shown": the change wins at least 9 in 10 pairs (ties count for
      neither side) and the medians differ by more than the parent's
      quartile spread;
    - "within bound" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0       # sign * (a - b) > 0: b beats a
    base = statistics.median(old)
    q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else (old[0],) * 3
    gain = sign * (base - statistics.median(new))
    if -gain > bound * abs(base):
        return "regressed"
    if q3 - q1 > bound * abs(base) and not all(sign * (a - b) > 0 for a in old for b in new):
        return "unresolved"
    wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
    if wins >= 0.9 * len(old) and gain > q3 - q1:
        return "gain shown"
    return "within bound"


def refusal(verdicts: dict, failed: list) -> str | None:
    """Why the change would be refused, or None if it would not.

    `verdicts` maps each end-to-end metric to its `verdict`; `failed` holds
    one (parent, change) count of failed operations per pair.  A change is
    refused when a verdict reads "regressed" or when it failed more
    operations than the parent in any pair.
    """
    worse = [name for name, v in verdicts.items() if v == "regressed"]
    if worse:
        return "regressed: " + ", ".join(worse)
    more = [i + 1 for i, (old, new) in enumerate(failed) if new > old]
    if more:
        return f"the change failed more operations than the parent in pairs {more}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, root in sides.items():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{name} checkout {root} has no perfbench/run.py")

    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(sides[side], args.workload, args.seconds, args.seed)
                for side in order}
        results.append(pair)
        cells = [f"{name} {pair['parent']['metrics'][name]['value']:.4g} / "
                 f"{pair['change']['metrics'][name]['value']:.4g}"
                 for name in pair["parent"]["metrics"]]
        fails = f"failed {pair['parent']['failed']}/{pair['change']['failed']}"
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(cells) + f", {fails}",
              flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, parent / change:")
    verdicts = {}
    for name, meta in results[0]["parent"]["metrics"].items():
        old = [r["parent"]["metrics"][name]["value"] for r in results]
        new = [r["change"]["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else (old[0],) * 3
        lower = sum(b < a for a, b in zip(old, new))
        entry = bounds.get(name)
        if entry is not None:
            verdicts[name] = verdict(old, new, entry["bound"], entry["better"])
        tail = "" if entry is None else f": {verdicts[name]} (bound {entry['bound']:g})"
        print(f"  {name} [{meta['unit']}]: medians {statistics.median(old):.4g} / "
              f"{statistics.median(new):.4g}, parent quartiles {q1:.4g}-{q3:.4g}, "
              f"change lower in {lower} of {len(results)}{tail}")
    differ = [i for i, r in enumerate(results)
              if r["parent"]["physics"] != r["change"]["physics"]]
    if not differ:
        print(f"  physics: byte-identical in all {len(results)} pairs")
    else:
        old, new = (json.loads(results[differ[0]][side]["physics"][len("physics "):])
                    for side in ("parent", "change"))
        print(f"  physics: differs in {len(differ)} of {len(results)} pairs; in pair "
              f"{differ[0] + 1}:")
        for line in describe_differences(old, new):
            print(f"    {line}")
    reason = refusal(verdicts, [(r["parent"]["failed"], r["change"]["failed"])
                                for r in results])
    if reason is not None:
        print(f"refused, exit 1: {reason}")
        return 1
    print("not refused, exit 0: no end-to-end verdict reads regressed and the change "
          "failed no more operations than the parent in any pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
