"""Traced run of the ergolab CLI, with spans recorded from outside the program.

Usage (with the checkout's ``src`` on ``PYTHONPATH``)::

    python3 bench/trace_layers.py TRACE_JSON -- <ergolab CLI arguments>

Wraps the public functions of each ergolab module named in ``SPANS`` in
a :class:`spans.Recorder` span, calls ``ergolab.cli.main`` with the
given arguments, writes the recorder's summary to ``TRACE_JSON`` and
exits with the CLI's exit code.  Methods are wrapped on their class;
module functions are replaced in every ergolab namespace that holds
them, since callers look them up through their own module (the
residual search, for instance, is called through both ``ergolab.tower``
and ``ergolab.cli``).  Nothing under ``src/`` is changed.

``layer_metrics`` turns a summary into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

from spans import Recorder

ERGOLAB_MODULES = (
    "ergolab",
    "ergolab.quadratic",
    "ergolab.systems",
    "ergolab.koopman",
    "ergolab.tower",
    "ergolab.entropy",
    "ergolab.mixing",
    "ergolab.cli",
)
MB = 1024 * 1024


def batch_bytes(batch) -> int:
    """Bytes of the arrays a ``SampleBatch`` holds, computed from their sizes."""
    return sum(a.nbytes for a in (batch.u, batch.v, batch.sym) if a is not None)


def _count_distinct_frac(rec: Recorder, arguments: dict) -> None:
    rec.distinct("quadratic.frac_multiple", (arguments["self"], arguments["k"]))


def _count_lags(rec: Recorder, arguments: dict) -> None:
    rec.count("mixing.weak_mixing_statistic.lags", arguments["t"])


@contextmanager
def _traced_memory(rec: Recorder, name: str):
    """Peak bytes traced by tracemalloc while the block runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        yield
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        if started:
            tracemalloc.stop()
        rec.counters[name] = max(rec.counters[name], peak)


# (span name, module, attribute path, hooks).  Hooks: "call" sees the
# bound arguments by parameter name, "result" the return value, and
# "around" wraps the span in a context manager.
SPANS = (
    ("quadratic.frac_multiple", "ergolab.quadratic", "RotationNumber.frac_multiple",
     {"call": _count_distinct_frac}),
    ("quadratic.to_mpf", "ergolab.quadratic", "QuadraticReal.to_mpf", {}),
    ("quadratic.sign", "ergolab.quadratic", "QuadraticReal.sign", {}),
    ("quadratic.integral_combination", "ergolab.quadratic", "integral_combination", {}),
    ("tower.residual_reference", "ergolab.tower", "residual_reference", {}),
    # the dense r0 oracle is the only caller of eigvalsh
    ("tower.dense_solve", "numpy.linalg", "eigvalsh", {}),
    ("tower.search", "ergolab.tower", "quasi_eigen_residual_search",
     {"result": lambda rec, r: rec.count("tower.search.nodes", r.dimension)}),
    ("tower.compute_tower", "ergolab.tower", "compute_tower", {}),
    ("tower.certify_product_tower", "ergolab.tower", "certify_product_tower", {}),
    ("koopman.spectrum_of", "ergolab.koopman", "spectrum_of", {}),
    ("koopman.point_spectrum_groups_equal", "ergolab.koopman",
     "point_spectrum_groups_equal", {}),
    ("koopman.build_intertwiner", "ergolab.koopman", "build_intertwiner",
     {"result": lambda rec, r: rec.count("koopman.intertwiner.pairs", len(r.mapping))}),
    ("koopman.verify_intertwiner", "ergolab.koopman", "verify_intertwiner",
     {"result": lambda rec, r: rec.count("koopman.intertwiner.checked", r.checked)}),
    ("systems.sample_batch", "ergolab.systems", "sample_batch",
     {"result": lambda rec, r: rec.count("systems.sample_batch.bytes", batch_bytes(r))}),
    ("systems.iterate_batch", "ergolab.systems", "iterate_batch", {}),
    ("entropy.partition_refine_entropy", "ergolab.entropy", "partition_refine_entropy",
     {"around": lambda rec: _traced_memory(rec, "entropy.partition_refine_entropy.peak")}),
    ("entropy.cell_index_batch", "ergolab.entropy", "PartitionSpec.cell_index_batch", {}),
    ("entropy.exact_block_entropy_rate", "ergolab.entropy", "exact_block_entropy_rate", {}),
    ("mixing.weak_mixing_statistic", "ergolab.mixing", "weak_mixing_statistic",
     {"call": _count_lags}),
    ("mixing.contains_batch", "ergolab.mixing", "TestSet.contains_batch", {}),
    # jsonschema validation of the config and of the report
    ("cli.validate", "jsonschema", "validate", {}),
    ("cli.emit_report", "ergolab.cli", "emit_report", {}),
)


def _wrap(rec: Recorder, name: str, fn, hooks: dict):
    on_call = hooks.get("call")
    signature = inspect.signature(fn) if on_call is not None else None
    on_result = hooks.get("result")
    around = hooks.get("around")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(rec, signature.bind(*args, **kwargs).arguments)
        with around(rec) if around is not None else nullcontext():
            rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
        if on_result is not None:
            on_result(rec, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every function in ``SPANS``; needs ``ergolab`` importable."""
    modules = [importlib.import_module(m) for m in ERGOLAB_MODULES]
    for name, module_name, path, hooks in SPANS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapper = _wrap(rec, name, original, hooks)
        setattr(owner, attr, wrapper)
        if not classes:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _span(field: str, name: str):
    return lambda s: s["spans"].get(name, {}).get(field, 0)


def _counter(name: str, scale: int = 1):
    if scale == 1:
        return lambda s: s["counters"].get(name, 0)
    return lambda s: s["counters"].get(name, 0) / scale


def _distinct_ratio(s: dict) -> float:
    calls = s["spans"].get("quadratic.frac_multiple", {}).get("calls", 0)
    return s["distinct"].get("quadratic.frac_multiple", 0) / calls if calls else 0.0


# (metric name, unit, better, value from a trace summary)
LAYER_METRICS = (
    ("quadratic.frac_multiple.calls", "count", "lower", _span("calls", "quadratic.frac_multiple")),
    ("quadratic.frac_multiple.distinct", "count", "lower",
     lambda s: s["distinct"].get("quadratic.frac_multiple", 0)),
    ("quadratic.frac_multiple.distinct_ratio", "ratio", "higher", _distinct_ratio),
    ("quadratic.frac_multiple.self_s", "s", "lower", _span("self_s", "quadratic.frac_multiple")),
    ("quadratic.to_mpf.calls", "count", "lower", _span("calls", "quadratic.to_mpf")),
    ("quadratic.to_mpf.self_s", "s", "lower", _span("self_s", "quadratic.to_mpf")),
    ("quadratic.sign.calls", "count", "lower", _span("calls", "quadratic.sign")),
    ("quadratic.integral_combination.calls", "count", "lower",
     _span("calls", "quadratic.integral_combination")),
    ("tower.residual_reference.s", "s", "lower", _span("s", "tower.residual_reference")),
    ("tower.dense_solves", "count", "lower", _span("calls", "tower.dense_solve")),
    ("tower.dense_solve.s", "s", "lower", _span("s", "tower.dense_solve")),
    ("tower.search.calls", "count", "lower", _span("calls", "tower.search")),
    ("tower.search.self_s", "s", "lower", _span("self_s", "tower.search")),
    ("tower.search.nodes", "count", "lower", _counter("tower.search.nodes")),
    ("tower.compute_tower.s", "s", "lower", _span("s", "tower.compute_tower")),
    ("tower.certify_product_tower.self_s", "s", "lower",
     _span("self_s", "tower.certify_product_tower")),
    ("koopman.spectrum_of.s", "s", "lower", _span("s", "koopman.spectrum_of")),
    ("koopman.point_spectrum_groups_equal.s", "s", "lower",
     _span("s", "koopman.point_spectrum_groups_equal")),
    ("koopman.build_intertwiner.s", "s", "lower", _span("s", "koopman.build_intertwiner")),
    ("koopman.verify_intertwiner.s", "s", "lower", _span("s", "koopman.verify_intertwiner")),
    ("koopman.intertwiner.pairs", "count", "higher", _counter("koopman.intertwiner.pairs")),
    ("koopman.intertwiner.checked", "count", "higher", _counter("koopman.intertwiner.checked")),
    ("systems.sample_batch.s", "s", "lower", _span("s", "systems.sample_batch")),
    ("systems.sample_batch.bytes_computed", "bytes", "lower",
     _counter("systems.sample_batch.bytes")),
    ("systems.iterate_batch.calls", "count", "lower", _span("calls", "systems.iterate_batch")),
    ("systems.iterate_batch.s", "s", "lower", _span("s", "systems.iterate_batch")),
    ("entropy.partition_refine_entropy.self_s", "s", "lower",
     _span("self_s", "entropy.partition_refine_entropy")),
    ("entropy.partition_refine_entropy.peak_traced_mb", "MB", "lower",
     _counter("entropy.partition_refine_entropy.peak", MB)),
    ("entropy.cell_index_batch.s", "s", "lower", _span("s", "entropy.cell_index_batch")),
    ("entropy.exact_block_entropy_rate.s", "s", "lower",
     _span("s", "entropy.exact_block_entropy_rate")),
    ("mixing.weak_mixing_statistic.self_s", "s", "lower",
     _span("self_s", "mixing.weak_mixing_statistic")),
    ("mixing.weak_mixing_statistic.lags", "count", "higher",
     _counter("mixing.weak_mixing_statistic.lags")),
    ("mixing.contains_batch.calls", "count", "lower", _span("calls", "mixing.contains_batch")),
    ("mixing.contains_batch.s", "s", "lower", _span("s", "mixing.contains_batch")),
    ("cli.validate.calls", "count", "lower", _span("calls", "cli.validate")),
    ("cli.validate.self_s", "s", "lower", _span("self_s", "cli.validate")),
    ("cli.emit_report.s", "s", "lower", _span("s", "cli.emit_report")),
)


def layer_metrics(summary: dict) -> dict[str, float]:
    return {name: value(summary) for name, _, _, value in LAYER_METRICS}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_layers.py TRACE_JSON -- <ergolab CLI arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    import ergolab.cli

    start = time.perf_counter()
    code = ergolab.cli.main(argv[2:])
    summary = rec.summary()
    summary["main_s"] = time.perf_counter() - start
    summary["exit_code"] = code
    Path(argv[0]).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
