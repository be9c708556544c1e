"""Benchmark of the ergolab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and runs the
checkout's ``src/ergolab`` through ``python3 -m ergolab.cli``.  One
client in a closed loop: each CLI run starts when the previous one has
exited, so the load stays within two cores (the CLI plus OpenBLAS's
own threads in ``eigvalsh``).

``--trace 0`` times untraced CLI runs from outside for ``S`` seconds
(at least two runs, so that determinism is checked) and reports the
end-to-end metrics: median wall and CPU time of one run, median peak
RSS, and ``setup_s``, the median time a fresh interpreter needs to
import ``ergolab.cli`` and build and validate the workload's config.

``--trace 1`` makes one traced run (``trace_layers.py``) plus untraced
runs for the rest of the time, and reports the per-layer metrics, the
tracing overhead and the share of wall time inside named spans.

Every run's outputs are checked by ``oracles.py``; a run fails if its
exit code is not 0, a check fails, or its ``report.json`` differs from
the first run's.  The last line of standard output is the JSON result;
the line before it records the environment.  A copy with every sample
is written under ``bench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import oracles
import workloads
from trace_layers import LAYER_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PROBES = 5  # at least this many timed; one more runs first to fill the bytecode cache
REFERENCE_LOOP_N = 300_000
MIN_RUNS = 2
DEADLINE_S = 170.0  # the whole benchmark exits well within 180 s
MB = 1024.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: Optional[int]
    stderr: str
    report: Optional[bytes] = None
    problems: list = field(default_factory=list)


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> ChildRun:
    """Run one child to completion, timed from outside, with its own
    rusage from ``wait4``.  A child still running at ``timeout`` is killed."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        reaped: dict = {}

        def reap() -> None:
            reaped["wait4"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(timeout)
            timed_out = waiter.is_alive()
        finally:
            # on timeout, or when the benchmark itself is interrupted
            if waiter.is_alive():
                proc.kill()
                waiter.join()
    _, status, usage = reaped["wait4"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    if timed_out:
        stderr += f"\nkilled after {timeout:.0f} s"
    return ChildRun(
        wall_s=reaped["end"] - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / MB,
        exit_code=None if timed_out else proc.returncode,
        stderr=stderr,
    )


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop in this process.  It reads the
    host's CPU speed at that moment, so that a slow stretch of the host
    can be told apart from a slower program."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i % 7
    return time.perf_counter() - start


class Runner:
    """One benchmark invocation: its workload, scratch directory and clock."""

    def __init__(self, workload: workloads.Workload, tag: str) -> None:
        self.workload = workload
        self.started = time.perf_counter()
        self.dir = WORK / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workload.config, sort_keys=True), encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.children = 0
        self.reference_s: list[float] = []

    def _timeout(self) -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.started))

    def _child(self, argv: list[str]) -> ChildRun:
        self.children += 1
        log = self.dir / f"child{self.children}"
        return run_child([sys.executable, *argv], self.env, log, self._timeout())

    def setup_probe(self) -> ChildRun:
        """One set-up probe, with the same arguments as a CLI run, next to
        one pass of the reference loop."""
        self.reference_s.append(reference_loop_s())
        out = self.dir / "probe-out"
        run = self._child([str(BENCH / "setup_probe.py"),
                           *self.workload.cli_args(str(self.config), str(out))])
        if run.exit_code != 0:
            raise RuntimeError(f"setup probe failed ({run.exit_code}): {run.stderr.strip()}")
        return run

    def cli(self, traced_summary: Optional[Path] = None) -> ChildRun:
        out = self.dir / f"report{self.children + 1}"
        args = self.workload.cli_args(str(self.config), str(out))
        if traced_summary is None:
            argv = ["-m", "ergolab.cli", *args]
        else:
            argv = [str(BENCH / "trace_layers.py"), str(traced_summary), "--", *args]
        run = self._child(argv)
        report = out / "report.json"
        run.report = report.read_bytes() if report.is_file() else None
        return run

    def cli_loop(self, seconds: float, min_runs: int,
                 probes: Optional[list[ChildRun]] = None) -> list[ChildRun]:
        """Untraced runs until the next one would end after ``seconds``.
        Given a ``probes`` list, a set-up probe runs before each CLI run and
        is appended to it, so that both sample the same stretches of the host."""
        runs: list[ChildRun] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            if probes is not None:
                probes.append(self.setup_probe())
            runs.append(self.cli())
            now = time.perf_counter()
            longest = max(longest, now - began)
            if len(runs) >= min_runs and now - start + longest > seconds:
                return runs

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def judge(runs: list[ChildRun], check: oracles.Checker) -> None:
    """Fill in each run's problems: exit code, oracles, then determinism."""
    for run in runs:
        if run.exit_code != 0:
            run.problems.append(f"exit code {run.exit_code}: {run.stderr.strip()[-500:]}")
        elif run.report is None:
            run.problems.append("no report.json written")
        else:
            try:
                run.problems.extend(check(json.loads(run.report)))
            except ValueError as exc:
                run.problems.append(f"report.json is not JSON: {exc}")
    for i in oracles.differing_repeats([r.report for r in runs]):
        runs[i].problems.append("report.json differs from the first run's")


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get(
            "OPENBLAS_NUM_THREADS", "unset (OpenBLAS default: one thread per core)"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "jsonschema": _version("jsonschema"),
        "commit": git_commit(),
    }


def measure(runner: Runner, seconds: float) -> tuple[list[ChildRun], dict, dict]:
    runner.setup_probe()  # fills the bytecode cache; not timed
    probes: list[ChildRun] = []
    runs = runner.cli_loop(seconds, MIN_RUNS, probes)
    while len(probes) < SETUP_PROBES:
        probes.append(runner.setup_probe())
    judge(runs, oracles.Checker(runner.workload))
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": [p.wall_s for p in probes],
    }
    metrics = {name: (statistics.median(values), END_TO_END_UNITS[name])
               for name, values in samples.items()}
    return runs, metrics, samples


def measure_traced(runner: Runner, seconds: float) -> tuple[list[ChildRun], dict, dict]:
    runner.setup_probe()  # fills the bytecode cache and checks where ergolab comes from
    summary_path = runner.dir / "trace.json"
    start = time.perf_counter()
    traced = runner.cli(traced_summary=summary_path)
    untraced = runner.cli_loop(seconds - (time.perf_counter() - start), 1)
    runs = [traced, *untraced]
    judge(runs, oracles.Checker(runner.workload))
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    else:
        summary = {"spans": {}, "counters": {}, "distinct": {}, "covered_s": 0.0}
        traced.problems.append("the traced run wrote no trace summary")
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in layer_metrics(summary).items()}
    failed = sum(1 for r in runs if r.problems)
    metrics["trace.overhead_s"] = (traced.wall_s - statistics.median(r.wall_s for r in untraced), "s")
    metrics["trace.coverage"] = (summary["covered_s"] / traced.wall_s, "ratio")
    metrics["failed_share"] = (failed / len(runs), "ratio")
    samples = {
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": [r.wall_s for r in untraced],
        "trace": summary,
    }
    return runs, metrics, samples


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ergolab" / "cli.py").is_file():
        print(f"error: no ergolab sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_before = os.getloadavg()
    runner = Runner(workload, tag)
    try:
        if args.trace:
            runs, metrics, samples = measure_traced(runner, args.seconds)
        else:
            runs, metrics, samples = measure(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    failed = [r for r in runs if r.problems]
    env = {**environment(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
           "reference_loop_s": [round(t, 4) for t in runner.reference_s]}
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "angle": workload.angle,
        "environment": env,
        "samples": samples,
        "problems": [r.problems for r in runs],
        "result": result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    for run in failed:
        print("# failed run: " + "; ".join(run.problems), file=sys.stderr)
    print(f"# {len(runs)} CLI runs, {len(failed)} failed; every sample is in "
          f"{results_dir / (tag + '.json')}")
    if not args.trace:
        print("# samples " + json.dumps({k: [round(x, 4) for x in v] for k, v in samples.items()}))
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
