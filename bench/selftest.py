"""Self-test of the benchmark's checks and trace arithmetic.

    python3 bench/selftest.py

Run it from the root of a checkout.  It shows that

* every doctored output is counted as a failed run: r0 shifted by 1e-6,
  a flipped verdict, an entropy off by 10 stderr, a weak-mixing
  statistic off by 1e-6, and two repeats whose report bytes differ;
* self time subtracts a nested span once, also when a wrapped function
  re-enters itself, and ``distinct_ratio`` and the computed byte counts
  come out right on a hand-built trace;
* ``BENCHMARK.json`` names exactly the metrics the benchmark prints;
* on the traced ``letter`` run at gamma = sqrt(2) - 1 the counts are the
  ones measured at the baseline commit (121 dense solves, 6,988
  ``frac_multiple`` calls on 9 distinct arguments), the dense r0 oracle
  has the largest ``tower`` self time, and the report is byte-identical
  to an untraced run's;
* on the traced ``kolmogorov`` run ``systems.sample_batch`` has the
  largest self time.

It makes about five CLI runs (about 30 s) and exits with code 1 if any
check fails.
"""

from __future__ import annotations

import copy
import json
import sys
from types import SimpleNamespace

import numpy as np

import oracles
import run
import workloads
from spans import Recorder
from trace_layers import LAYER_METRICS, SPANS, _wrap, batch_bytes, layer_metrics

# Counts of the traced letter run at gamma = sqrt(2) - 1, measured at the
# baseline commit.  An optimisation that removes calls changes them.
BASELINE_LETTER_COUNTS = {
    "tower.dense_solves": 121,
    "quadratic.frac_multiple.calls": 6988,
    "quadratic.frac_multiple.distinct": 9,
}
R0_ORACLE_SPANS = ("tower.dense_solve", "tower.residual_reference")
RUN_LEVEL_METRICS = ("trace.overhead_s", "trace.coverage", "failed_share")

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("PASS " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def counted_failed(report: dict, workload: workloads.Workload) -> bool:
    """Does ``run.judge`` count a run with this report as failed?"""
    child = run.ChildRun(0.0, 0.0, 0.0, 0, "", json.dumps(report).encode())
    run.judge([child], oracles.Checker(workload))
    return bool(child.problems)


def test_trace_arithmetic() -> None:
    rec = Recorder()
    # outer [0, 10] holds a re-entrant pair [1, 4] > [2, 3] and a leaf [5, 6]
    for name, t in (("outer", 0), ("again", 1), ("again", 2)):
        rec.enter(name, t)
    rec.exit(3)
    rec.exit(4)
    rec.enter("leaf", 5)
    rec.exit(6)
    rec.exit(10)
    spans = rec.summary()["spans"]
    expect(spans["outer"]["self_s"] == 6, "parent self time subtracts each child once")
    expect(spans["again"] == {"calls": 2, "s": 3, "self_s": 3},
           "re-entrant spans: total counts the outermost only, self sums both levels")
    expect(rec.covered_s == 10, "covered time is the top-level span")

    rec = Recorder()
    hooks = {span[0]: span[3] for span in SPANS}

    def frac_multiple(self, k):
        return k

    def sample_batch(spec, n):
        return SimpleNamespace(u=np.zeros(n), v=None, sym=np.zeros((n, 21), dtype=np.int64))

    wrapped = _wrap(rec, "quadratic.frac_multiple", frac_multiple,
                    hooks["quadratic.frac_multiple"])
    for k in (1, 2, 1, 2, 1, 2, 1, 2):
        wrapped("gamma", k)
    batch = _wrap(rec, "systems.sample_batch", sample_batch,
                  hooks["systems.sample_batch"])(None, 10)
    metrics = layer_metrics(rec.summary())
    expect(metrics["quadratic.frac_multiple.calls"] == 8
           and metrics["quadratic.frac_multiple.distinct"] == 2
           and metrics["quadratic.frac_multiple.distinct_ratio"] == 0.25,
           "distinct_ratio = 2 distinct / 8 calls")
    expect(batch_bytes(batch) == 10 * 8 + 10 * 21 * 8
           and metrics["systems.sample_batch.bytes_computed"] == 1760,
           "bytes_computed = 80 + 1680 for a hand-built batch")


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json names the workloads of workloads.py")
    expect({m["name"] for m in spec["end_to_end"]}
           == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"},
           "BENCHMARK.json names the end-to-end metrics run.py prints")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    printed = [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    expect([entry[0] for entry in layer] == [e[0] for e in printed] + list(RUN_LEVEL_METRICS)
           and layer[:len(printed)] == printed,
           "BENCHMARK.json names the per-layer metrics run.py prints")


def traced_pair(name: str, seed: int) -> tuple[dict, bytes, bytes]:
    """One traced and one untraced CLI run; returns summary and both reports."""
    workload = workloads.make(name, seed)
    runner = run.Runner(workload, f"selftest-{name}")
    try:
        summary_path = runner.dir / "trace.json"
        traced = runner.cli(traced_summary=summary_path)
        untraced = runner.cli()
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    finally:
        runner.close()
    return summary, traced.report, untraced.report


def largest_self(summary: dict, prefix: str = "") -> str:
    spans = {k: v for k, v in summary["spans"].items() if k.startswith(prefix)}
    return max(spans, key=lambda k: spans[k]["self_s"])


def test_letter() -> dict:
    letter = workloads.make("letter", 0)
    expect(letter.angle == (-1, 1, 2, 1), "seed 0 picks gamma = sqrt(2) - 1")
    summary, traced, untraced = traced_pair("letter", 0)
    metrics = layer_metrics(summary)
    for metric, value in BASELINE_LETTER_COUNTS.items():
        expect(metrics[metric] == value, f"letter {metric} = {metrics[metric]} (baseline {value})")
    expect(largest_self(summary, "tower.") in R0_ORACLE_SPANS,
           f"largest tower self time is the dense r0 oracle ({largest_self(summary, 'tower.')})")
    expect(traced == untraced, "letter: traced report.json is byte-identical to untraced")
    return json.loads(untraced)


def test_kolmogorov() -> dict:
    summary, traced, untraced = traced_pair("kolmogorov", 0)
    expect(largest_self(summary) == "systems.sample_batch",
           f"kolmogorov: largest self time is {largest_self(summary)}")
    expect(traced == untraced, "kolmogorov: traced report.json is byte-identical to untraced")
    return json.loads(untraced)


def test_negatives(letter: dict, kolmogorov: dict) -> None:
    letter_wl = workloads.make("letter", 0)
    kolmogorov_wl = workloads.make("kolmogorov", 0)
    mixing_wl = workloads.make("mixing", 0)
    runner = run.Runner(mixing_wl, "selftest-mixing")
    try:
        mixing_run = runner.cli()
    finally:
        runner.close()
    mixing = json.loads(mixing_run.report)

    expect(not counted_failed(letter, letter_wl), "letter report passes its checks")
    expect(not counted_failed(kolmogorov, kolmogorov_wl), "kolmogorov report passes its checks")
    expect(not counted_failed(mixing, mixing_wl), "mixing report passes its checks")

    doctored = copy.deepcopy(letter)
    doctored["results"]["towers"]["evidence"]["system_b"]["certificate"]["r0"] += 1e-6
    expect(counted_failed(doctored, letter_wl), "r0 shifted by 1e-6 is counted as failed")

    doctored = copy.deepcopy(letter)
    doctored["verdicts"][1]["statement"] = "not distinguished by tower"
    expect(counted_failed(doctored, letter_wl), "a flipped verdict is counted as failed")

    doctored = copy.deepcopy(kolmogorov)
    sampled = doctored["results"]["entropies"][0]["sampled"]
    # these shifts are uniform, so the estimator's stderr is 0 and the
    # check's floor sets the scale: one stderr is taken as the floor / 5
    stderr = max(sampled["stderr"], oracles.ENTROPY_FLOOR / oracles.ENTROPY_STDERRS)
    sampled["value"] += 10 * stderr
    expect(counted_failed(doctored, kolmogorov_wl), "an entropy off by 10 stderr is counted as failed")

    doctored = copy.deepcopy(mixing)
    doctored["results"]["statistic"] += 1e-6
    expect(counted_failed(doctored, mixing_wl), "a statistic off by 1e-6 is counted as failed")

    first = run.ChildRun(0.0, 0.0, 0.0, 0, "", mixing_run.report)
    second = run.ChildRun(0.0, 0.0, 0.0, 0, "", mixing_run.report + b" ")
    run.judge([first, second], oracles.Checker(mixing_wl))
    expect(not first.problems and bool(second.problems),
           "two repeats whose report bytes differ count one failed run")


def main() -> int:
    if not (run.SRC / "ergolab" / "cli.py").is_file():
        print(f"error: no ergolab sources at {run.SRC}", file=sys.stderr)
        return 2
    test_trace_arithmetic()
    test_benchmark_json()
    letter = test_letter()
    kolmogorov = test_kolmogorov()
    test_negatives(letter, kolmogorov)
    print(f"{len(failures)} of the checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
