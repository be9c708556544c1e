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


def _spans() -> tuple:
    sys.path.insert(0, str(BENCH))
    try:
        import trace_layers
    finally:
        sys.path.remove(str(BENCH))
    return trace_layers.SPANS


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in _spans()], ids=str
)
def test_traced_span_targets_resolve(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


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
