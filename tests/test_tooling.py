"""The benchmark's traced layers still name real code, and the demos run.

``bench/trace_layers.SPANS`` wraps functions by (module, attribute path)
when the benchmark runs with ``--trace 1``; a rename under ``src/``
would otherwise surface only in a traced benchmark run.  The bench
directory is read, never written.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_module(name: str):
    """A module of ``bench/``, such as ``trace_layers`` (and the ``spans``
    module it imports) or ``workloads``."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def _trace_layers():
    return _bench_module("trace_layers")


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in _trace_layers().SPANS], ids=str
)
def test_traced_span_targets_resolve(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


#: The spans ``bench/trace_layers.py`` wraps on the path of the
#: ``kolmogorov`` workload that its per-layer rows read.
KOLMOGOROV_SPANS = (
    "systems.sample_batch",
    "entropy.partition_refine_entropy",
    "entropy.exact_block_entropy_rate",
    "koopman.build_intertwiner",
    "koopman.verify_intertwiner",
)


def _kolmogorov_rows(summary: dict) -> None:
    for name in KOLMOGOROV_SPANS:
        assert summary["spans"].get(name, {}).get("calls", 0) > 0, name
    assert summary["spans"]["systems.sample_batch"]["calls"] == 2
    assert summary["counters"]["systems.sample_batch.bytes"] == 2 * 2000 * 10


def _three_shift_rows(summary: dict) -> None:
    """Three shifts make three pairs, each with its own intertwiner, and
    each shift gets its own spectrum and closed-form rate."""
    for name in ("koopman.build_intertwiner", "koopman.verify_intertwiner"):
        assert summary["spans"][name]["calls"] == 3, name
    assert summary["spans"]["koopman.spectrum_of"]["calls"] == 3
    assert summary["spans"]["entropy.exact_block_entropy_rate"]["calls"] == 3


def _mixing_rows(summary: dict) -> None:
    assert summary["spans"]["mixing.weak_mixing_statistic"]["calls"] == 1
    assert summary["counters"]["mixing.weak_mixing_statistic.lags"] == 50


def _letter_rows(pairs: int, checked: int):
    """The rows of a letter run whose skew-product pairing shows (2B+1)^2
    ``pairs`` at truncation B, and whose certificate decides ``checked``
    identities at every B."""

    def check(summary: dict) -> None:
        for name in ("koopman.build_intertwiner", "koopman.verify_intertwiner"):
            assert summary["spans"][name]["calls"] == 1, name
        assert summary["counters"]["koopman.intertwiner.pairs"] == pairs
        assert summary["counters"]["koopman.intertwiner.checked"] == checked

    return check


#: In-process runs, each with its config and a check of the rows the
#: benchmark reads off its trace; the hooks read results by field name
#: and arguments by parameter name, so a renamed one fails here.
TRACED_RUNS = {
    "reproduce-kolmogorov": (["reproduce-kolmogorov"], {"samples": 2000}, _kolmogorov_rows),
    "reproduce-kolmogorov, three shifts": (
        ["reproduce-kolmogorov"],
        {"samples": 2000, "systems": [
            {"kind": "bernoulli", "probs": probs, "symbols": list(range(len(probs)))}
            for probs in ([0.5, 0.5], [0.25] * 4, [0.1, 0.9])
        ]},
        _three_shift_rows,
    ),
    "weak-mixing": (["compute", "weak-mixing"], {"params": {"t": 50}}, _mixing_rows),
    "reproduce-letter": (["reproduce-letter"], {}, _letter_rows(1089, 9)),
    # the ``letter-wide`` workload's sizes, B = 192 and N = 16
    "letter-wide": (
        ["reproduce-letter"],
        {"truncation": 192, "residual_truncation": 16},
        _letter_rows(148_225, 9),
    ),
}


@pytest.mark.parametrize("run", list(TRACED_RUNS))
def test_traced_kolmogorov_run_enters_every_sampling_span(run, tmp_path, monkeypatch):
    """An in-process run (``reproduce-kolmogorov`` at 2,000 samples,
    ``compute weak-mixing`` at t = 50, or ``reproduce-letter`` at B = 16
    or 192), traced
    as the benchmark traces it, enters every span its rows read and
    fills their counters, so a call rewired past a wrapped function, or
    a renamed parameter or result field, cannot zero a row unnoticed.
    Every attribute the tracer replaces is restored afterwards."""
    from ergolab import cli

    argv, config, check = TRACED_RUNS[run]
    trace_layers = _trace_layers()
    modules = [importlib.import_module(m) for m in trace_layers.ERGOLAB_MODULES]
    for _, module_name, path, _ in trace_layers.SPANS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, original)
        if not classes:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, original)
    recorder = trace_layers.Recorder()
    trace_layers.install(recorder)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    check(recorder.summary())


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on the path."""
    src = str(Path(ergolab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize("name", _bench_module("workloads").NAMES)
def test_setup_probe_builds_each_workload_config(name, tmp_path):
    """``bench/setup_probe.py``, timed by the benchmark as ``setup_s``,
    builds each workload's config through ``cli._build_parser`` and
    ``cli._merged_config`` (at seed 0) and exits 0 without writing its
    output directory."""
    workload = _bench_module("workloads").make(name, 0)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(workload.config))
    done = subprocess.run(
        [sys.executable, "-B", str(BENCH / "setup_probe.py"), *workload.cli_args(str(cfg), str(out))],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env=_src_env(), capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
