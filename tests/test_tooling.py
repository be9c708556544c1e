"""The benchmark's traced layers still name real code, and the demos run.

``bench/trace_layers.SPANS`` wraps functions by (module, attribute path)
when the benchmark runs with ``--trace 1``; a rename under ``src/``
would otherwise surface only in a traced benchmark run.  The bench
directory is read, never written.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _trace_layers():
    """``bench/trace_layers.py`` (and the ``spans`` module it imports)."""
    sys.path.insert(0, str(BENCH))
    try:
        import trace_layers
    finally:
        sys.path.remove(str(BENCH))
    return trace_layers


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


def test_traced_kolmogorov_run_enters_every_sampling_span(tmp_path, monkeypatch):
    """An in-process ``reproduce-kolmogorov`` at 2,000 samples, traced as
    the benchmark traces it, enters every span its rows read, so a call
    rewired past a wrapped function cannot zero a row unnoticed.  One
    worker thread keeps the recorder's single span stack in order, and
    every attribute the tracer replaces is restored afterwards."""
    from ergolab import cli

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
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    recorder = trace_layers.Recorder()
    trace_layers.install(recorder)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": "reproduce-kolmogorov", "samples": 2000}')
    code = cli.main(["reproduce-kolmogorov", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = recorder.summary()
    for name in KOLMOGOROV_SPANS:
        assert summary["spans"].get(name, {}).get("calls", 0) > 0, name
    assert summary["spans"]["systems.sample_batch"]["calls"] == 2
    assert summary["counters"]["systems.sample_batch.bytes"] == 2 * 2000 * 10


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs(demo):
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
