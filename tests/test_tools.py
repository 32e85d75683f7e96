import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_bench_pairs_verdicts():
    # the rules of a paired comparison, on ten pairs of a lower-is-better metric
    verdict = bench_pairs.verdict
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    assert verdict(parent, [0.60 + 0.001 * i for i in range(10)], 0.25, "lower") \
        == "gain shown"
    assert verdict(parent, [1.30] * 10, 0.25, "lower") == "regressed"
    assert verdict(parent, [1.05] * 10, 0.25, "lower") == "within bound"
    # 8 wins in 10 pairs show no gain, however large the median gap
    assert verdict(parent, [0.6] * 8 + [1.1] * 2, 0.25, "lower") == "within bound"
    # a parent spread wider than the bound leaves the metric unresolved ...
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert verdict(wide, [1.0] * 10, 0.25, "lower") == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict(wide, [0.5] * 10, 0.25, "lower") == "gain shown"
    # higher-is-better metrics win the other way
    assert verdict(parent, [0.60] * 10, 0.25, "higher") == "regressed"
    assert verdict(parent, [1.40] * 10, 0.25, "higher") == "gain shown"


def test_bench_pairs_refusal():
    # exit 1 on a regressed end-to-end verdict or on more failed operations
    refusal = bench_pairs.refusal
    fine = {"setup_s": "within bound", "wall_s": "gain shown", "peak_rss_mb": "unresolved"}
    assert refusal(fine, [(0, 0), (2, 1)]) is None
    assert refusal({**fine, "peak_rss_mb": "regressed"}, [(0, 0)]) == "regressed: peak_rss_mb"
    assert "pairs [2]" in refusal(fine, [(0, 0), (0, 1), (3, 3)])
