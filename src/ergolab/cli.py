"""Experiment orchestration: named scenarios, deterministic seeding, and
machine-readable reports.

Three built-in scenarios reproduce the headline comparisons (the
skew-vs-product letter argument, the entropy separation of shifts, the
rotation classification), and a free-form ``compute`` mode exposes the
individual operations.  Every runner in ``RUNNERS`` maps a config to
``(results, verdicts)``; ``main`` wraps them in one ``ExperimentReport``,
and ``emit_report`` validates it once, before any file is written, then
writes ``report.json`` and the files ``EXTRA_FILES`` lists for its
scenario.  A run's config is built once: the scenario's ``DEFAULTS``,
then the ``--config`` file, then the flags, merged as JSON and read by
one ``ExperimentConfig.from_json``.  Each cost budget refuses inside the
code it prices (the census work in ``tower``, the radicand digits in
``quadratic``, the lag digits in ``mixing``), so a library caller is
refused as a run is; only the sampling budget, on a sum over a run's
systems, is checked here.  Reports are deterministic byte for byte under a
fixed seed: one root seed is split into named substreams, no timestamps
are recorded, and JSON keys are sorted.  Exit codes are a stable
contract: 0 success, 2 inconclusive evidence, 1 error.

Config building and validation need only the standard library, the
angles and the system specs; ``_schema.validate`` checks a config, a
compute op's params and a report against the packaged schemas.  The
``from_json`` readers trust the validated shape; the domain constructors
keep the rules a schema does not state, such as which fields a kind
takes, and a refusal of theirs names the input's path too.  Each runner
imports the toolkits it computes with when it runs, so ``compute
weak-mixing`` loads not even the tower and ``reproduce-kolmogorov`` not
the mixing toolkit.  Only ``reproduce-kolmogorov`` loads numpy, hence
inspect, and it samples on one thread; no run imports the dataclass
module or ``concurrent``.  Without a bytecode cache a run compiles each
module it imports, 4-5 microseconds a source line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from ._record import field, fields, record
from ._schema import validate
from .quadratic import SQRT2_MINUS_1
from .systems import MAPS, BernoulliSpec, CylinderSet, InconclusiveEvidenceError, SystemSpec

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "emit_report",
    "main",
    "run_compute",
    "run_reproduce_kolmogorov",
    "run_reproduce_letter",
    "run_theorem1_check",
]

DEFAULT_SEED = 1
#: Most symbols the sampled entropy cross-checks of
#: ``reproduce-kolmogorov`` may draw: samples x block length, summed over
#: the systems.  Memory stays flat, so the budget bounds time.  The
#: systems are sampled one after another on one thread.  A law of more
#: than 32 bits (a whole generator word per symbol) takes 2.7-3.6 ns of
#: wall time per symbol for two to four symbols on a 2-core x86-64 host
#: (best of nine estimates, 10^6 samples at n = 10), so the budget caps a
#: run near 1.4 s; a refusal prices its sample at 3.2 ns a symbol, and
#: laws of at most 32 bits take 0.4-1.7 ns.  The budget is twice the 10^7-sample run (n =
#: 10, two shifts: 0.2 s at 37 MB for the whole command) and 20 times
#: the default 10^6.
MAX_SAMPLED_SYMBOLS = 4 * 10**8


def _validate_config(data: dict) -> None:
    validate("config.schema.json", "configuration", data)


def _read(reader, data, where: str):
    """``reader(data)``, for schema-validated ``data`` at ``where`` in the
    config; a refusal by the domain constructors names ``where``."""
    try:
        return reader(data)
    except ValueError as exc:
        raise ValueError(f"invalid configuration at {where}: {exc}") from None


@record(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; every run stamps its echo."""

    scenario: str
    seed: int = DEFAULT_SEED
    systems: tuple[dict, ...] = ()
    truncation: int = 16
    residual_truncation: int = 8
    samples: int = 1_000_000
    block_length: int = 10
    bits: bool = False
    format: str = "csv"
    out: str = "ergolab-report"
    op: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_config(self.to_json())
        for key in ("op", "params"):
            if getattr(self, key) and self.scenario != "compute":
                raise ValueError(f"invalid configuration at {key}: "
                                 f"{self.scenario} takes no {key!r}; only compute reads it")

    def to_json(self) -> dict:
        """Every field, leaving out ``systems``, ``op`` and ``params`` when
        they are empty."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(systems=[dict(s) for s in self.systems], params=dict(self.params))
        return {k: v for k, v in data.items() if v or k not in ("systems", "op", "params")}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """The config a validated JSON object names; the schema admits
        only field names, and absent fields keep their defaults.  An
        integral float, which the schema admits as an integer, becomes
        an int in an ``int`` field."""
        _validate_config(data)
        data = {key: int(value) if cls.__annotations__[key] == "int" else value
                for key, value in data.items()}
        return cls(**{**data, "systems": tuple(data.get("systems", ()))})

    def system_specs(self) -> list[SystemSpec]:
        return [_read(SystemSpec.from_json, s, f"systems/{i}") for i, s in enumerate(self.systems)]


@record
class ExperimentReport:
    """The full evidence chain of one run.

    Every verdict carries its evidence object inline, so the verdict list
    is self-contained; ``results`` holds the step-by-step records the
    verdicts reference.  The scenario and seed are the config's, and the
    version is this package's.
    """

    config: ExperimentConfig
    results: dict
    verdicts: list[dict]

    def to_json(self) -> dict:
        # the echo drops emission-only keys (out, format) so the same
        # experiment is byte-identical wherever it is written
        echo = {
            key: value
            for key, value in self.config.to_json().items()
            if key not in ("out", "format")
        }
        return {
            "scenario": self.config.scenario,
            "version": __version__,
            "seed": self.config.seed,
            "config": echo,
            "results": self.results,
            "verdicts": self.verdicts,
        }

    def validate(self) -> None:
        validate("report.schema.json", "report", self.to_json())


def _verdict(statement: str, evidence: dict, provenance: str = "exact") -> dict:
    return {"statement": statement, "provenance": provenance, "evidence": evidence}


# ---------------------------------------------------------------------------
# default configurations
# ---------------------------------------------------------------------------


_GAMMA = SQRT2_MINUS_1.to_json()
_COIN = BernoulliSpec.fair_coin().to_json()
#: Each scenario's defaults as config JSON, on top of the field defaults
#: of ``ExperimentConfig``; a ``--config`` file patches them.
DEFAULTS = {
    "reproduce-letter": {"systems": [{"kind": "skew", "gamma": _GAMMA},
                                     {"kind": "product", "gamma": _GAMMA, **_COIN}]},
    "reproduce-kolmogorov": {"truncation": 8, "systems": [
        {"kind": "bernoulli", **_COIN},
        {"kind": "bernoulli", "probs": [0.25] * 4, "symbols": [0, 1, 2, 3]}]},
    "theorem1": {"systems": [{"kind": "rotation", "gamma": _GAMMA},
                             {"kind": "rotation", "gamma": SQRT2_MINUS_1.one_minus().to_json()}]},
    "compute": {},
}


def _default_data(scenario: str) -> dict:
    """The config JSON of a run of ``scenario`` with no file and no flags."""
    return {"scenario": scenario, "seed": DEFAULT_SEED, **DEFAULTS[scenario]}


def default_config(scenario: str) -> ExperimentConfig:
    return ExperimentConfig.from_json(_default_data(scenario))


# ---------------------------------------------------------------------------
# scenario: reproduce-letter
# ---------------------------------------------------------------------------


def _check_sampling_cost(config: ExperimentConfig, systems: int) -> None:
    """Refuse a sample whose symbol count exceeds the sampling budget."""
    symbols = config.samples * config.block_length * systems
    if symbols > MAX_SAMPLED_SYMBOLS:
        raise ValueError(
            f"{config.samples} samples x block length {config.block_length} x "
            f"{systems} systems need {symbols} sampled symbols, over the budget of "
            f"{MAX_SAMPLED_SYMBOLS} symbols: sampling would take about {3.2e-9 * symbols:.1f} s"
        )


def run_reproduce_letter(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    """The two-system comparison, as ``(results, verdicts)``: same
    spectrum, different towers.

    Steps: spectra match, decided once per system and once for the
    pair's point groups; the intertwiner built from those decisions has a
    certificate that holds on every identity, for the whole space at any
    truncation; the skew tower grows past the proper functions while the
    product tower does not, both decided exactly; the combination yields
    "spectrally isomorphic" and "not spacially isomorphic".  A pair of
    identical skew systems instead reaches "not distinguished by tower",
    and a pair whose spectra differ "not spectrally isomorphic", with the
    spectra as evidence and no intertwiner.
    """
    from .koopman import (
        build_intertwiner,
        point_spectrum_groups_equal,
        spectrum_of,
        verify_intertwiner,
    )
    from .tower import towers_distinguish

    specs = config.system_specs()
    if len(specs) != 2:
        raise ValueError("the letter scenario compares exactly two systems")
    spec_a, spec_b = specs
    if spec_a.gamma is None or spec_b.gamma is None:
        raise ValueError("the letter scenario needs systems with a rotation factor")
    results: dict = {}
    verdicts: list[dict] = []

    desc_a = spectrum_of(spec_a)
    desc_b = spectrum_of(spec_b)
    group_cmp = point_spectrum_groups_equal(spec_a.gamma, spec_b.gamma)
    spectra_match = (
        group_cmp.equal
        and desc_a.lebesgue_multiplicity == desc_b.lebesgue_multiplicity
    )
    results["spectra"] = {
        "system_a": desc_a.to_json(),
        "system_b": desc_b.to_json(),
        "point_groups_equal": group_cmp.equal,
        "match": spectra_match,
    }

    if spectra_match:
        pairing = build_intertwiner(spec_a, spec_b, config.truncation, (desc_a, desc_b), group_cmp)
        check = verify_intertwiner(pairing)
        results["intertwiner"] = {
            "truncation": config.truncation,
            "mismatches": check.mismatches,
            "checked": check.checked,
        }
        if check.mismatches == 0:
            verdicts.append(_verdict("spectrally isomorphic", {
                "spectra": results["spectra"], "intertwiner": results["intertwiner"],
            }))
    else:
        verdicts.append(_verdict("not spectrally isomorphic", results["spectra"]))

    comparison = towers_distinguish(
        spec_a, spec_b, truncation=config.residual_truncation
    )
    results["towers"] = {
        "gap_a": comparison.gap_a,
        "gap_b": comparison.gap_b,
        "verdict": comparison.verdict,
        "evidence": comparison.evidence,
    }
    statement = ("not spacially isomorphic" if comparison.distinguished
                 else "not distinguished by tower")
    verdicts.append(_verdict(statement, results["towers"]))
    return results, verdicts


# ---------------------------------------------------------------------------
# scenario: reproduce-kolmogorov
# ---------------------------------------------------------------------------


def run_reproduce_kolmogorov(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    """Pairwise comparison of product-measure shifts, as ``(results,
    verdicts)``: spectra pair up exactly, entropies separate, plus one
    sampled cross-check per system.

    Each system's entry (exact entropy, the block-entropy rate at the
    block length, which is the same closed form, and the sampled
    estimate) is built in turn, the i-th system sampling from the i-th
    generator :func:`spawn_rngs` derives from the seed, so an entry does
    not depend on the systems after it.  Each system's spectrum is
    decided once, and each pair's intertwiner is built from the two
    descriptors and checked; its counts go on that pair, and the
    spectral verdict only if it holds.
    """
    from .entropy import (
        PartitionSpec,
        UndersampledError,
        bernoulli_entropy,
        entropy_classifier,
        exact_block_entropy_rate,
        partition_refine_entropy,
    )
    from .koopman import build_intertwiner, spectrum_of, verify_intertwiner
    from .systems import spawn_rngs

    specs = config.system_specs()
    if len(specs) < 2 or any(s.kind != "bernoulli" for s in specs):
        raise ValueError("the kolmogorov scenario needs at least two shift systems")
    _check_sampling_cost(config, len(specs))
    results: dict = {"systems": [s.to_json() for s in specs], "entropies": []}
    verdicts: list[dict] = []

    for spec, rng in zip(specs, spawn_rngs(config.seed, len(specs))):
        exact = bernoulli_entropy(spec.bernoulli)
        analytic = exact_block_entropy_rate(spec.bernoulli, config.block_length)
        entry = {
            "system": spec.label(),
            "exact_entropy": exact,
            "analytic_rate": analytic.to_json(),
        }
        try:
            sampled = partition_refine_entropy(
                spec, PartitionSpec.time_zero(spec.bernoulli), config.block_length,
                config.samples, rng,
            )
            entry["sampled"] = sampled.to_json()
            entry["relative_error"] = abs(sampled.value - exact) / exact
        except UndersampledError as exc:
            entry["sampled"] = None
            entry["undersampled"] = str(exc)
        if config.bits:
            entry["exact_entropy_bits"] = exact / math.log(2)
        results["entropies"].append(entry)

    spectra = [spectrum_of(spec) for spec in specs]
    pairs = []
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            a, b = specs[i], specs[j]
            pairing = build_intertwiner(a, b, config.truncation, (spectra[i], spectra[j]), None)
            check = verify_intertwiner(pairing)
            verdict = entropy_classifier(a.bernoulli, b.bernoulli)
            pair = {
                "system_a": a.label(),
                "system_b": b.label(),
                "intertwiner_mismatches": check.mismatches,
                "intertwiner_checked": check.checked,
                "classifier": verdict.to_json(),
            }
            pairs.append(pair)
            spectral = [verdict.spectral] if check.mismatches == 0 else []
            verdicts.extend(_verdict(f"{a.label()} vs {b.label()}: {statement}", pair)
                            for statement in [verdict.spacial, *spectral])
    results["pairs"] = pairs
    return results, verdicts


# ---------------------------------------------------------------------------
# scenario: theorem1
# ---------------------------------------------------------------------------


def run_theorem1_check(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    """Classify two circle rotations, as ``(results, verdicts)``: equal
    proper-value groups mean isomorphic, with the witnessing conjugacy,
    unequal groups mean not even spectrally isomorphic.

    The groups are compared exactly, and they are equal only when
    ``gamma_b = a*gamma_a (mod 1)`` with a = 1 or -1.  That relation,
    decided exactly, is the conjugacy's evidence: c(u) = a*u carries
    u + gamma_a to c(u) + gamma_b, so c is the identity or the reflection.
    """
    from .koopman import point_spectrum_groups_equal

    specs = config.system_specs()
    if len(specs) != 2 or any(s.kind != "rotation" for s in specs):
        raise ValueError("theorem1 compares exactly two rotations")
    spec_a, spec_b = specs
    results: dict = {}

    cmp = point_spectrum_groups_equal(spec_a.gamma, spec_b.gamma)
    results["groups"] = {
        "gamma_a": str(spec_a.gamma),
        "gamma_b": str(spec_b.gamma),
        "verdict": cmp.verdict,
        "relation": list(cmp.relation) if cmp.relation else None,
        "detail": cmp.detail,
    }

    if cmp.equal:
        conjugacy = "identity" if cmp.relation[0] == 1 else "reflection c(u) = -u mod 1"
        results["conjugacy"] = {"map": conjugacy}
        return results, [_verdict(
            "spacially isomorphic (equal proper-value groups, conjugacy verified)",
            {**results["groups"], **results["conjugacy"]},
        )]
    return results, [_verdict("not spectrally isomorphic (hence not spacially isomorphic)",
                              results["groups"])]


# ---------------------------------------------------------------------------
# compute mode
# ---------------------------------------------------------------------------


def _param(config: ExperimentConfig, key: str, reader, default):
    """``params[key]`` read by ``reader``, or ``default`` when it is absent."""
    if key not in config.params:
        return default
    return _read(reader, config.params[key], f"params/{key}")


def _compute_tower(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    from .tower import compute_tower, stabilization_depth

    spec = _param(config, "system", SystemSpec.from_json, SystemSpec.skew(SQRT2_MINUS_1))
    levels = compute_tower(spec)
    results = {
        "levels": [lvl.to_json() for lvl in levels],
        "stabilization_depth": stabilization_depth(levels),
    }
    return results, [_verdict(f"tower stabilizes at depth {results['stabilization_depth']}",
                              results)]


def _compute_residual(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    from .tower import CENSUS_KS, residual_census, residual_reference

    spec = _param(config, "system", SystemSpec.from_json,
                  SystemSpec.product(SQRT2_MINUS_1, BernoulliSpec.fair_coin()))
    ks = [int(k) for k in config.params.get("ks", CENSUS_KS)]
    reports = list(residual_census(spec, ks, config.residual_truncation))
    results = {"reports": [r.to_json() for r in reports]}
    if spec.kind == "product":
        results["r0"] = residual_reference()
    return results, [_verdict("residual search complete", results, "residual-certified")]


def _compute_spectrum(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    from .koopman import spectral_weak_mixing_check, spectrum_of

    spec = _param(config, "system", SystemSpec.from_json, SystemSpec.skew(SQRT2_MINUS_1))
    desc = spectrum_of(spec)
    results = {"descriptor": desc.to_json(), "weak_mixing": spectral_weak_mixing_check(desc)}
    return results, [_verdict(f"spectrum tag: {desc.tag}", results)]


def _compute_entropy(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    from .entropy import bernoulli_entropy

    bern = _param(config, "bernoulli", BernoulliSpec.from_json, BernoulliSpec.fair_coin())
    value = bernoulli_entropy(bern)
    results = {"entropy_nats": value}
    if config.bits:
        results["entropy_bits"] = value / math.log(2)
    return results, [_verdict(f"entropy {value:.12f} nats", results)]


def _compute_weak_mixing(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    from .mixing import TestSet, weak_mixing_statistic, weak_mixing_verdict

    spec = _param(config, "system", SystemSpec.from_json, SystemSpec.skew(SQRT2_MINUS_1))
    if MAPS[spec.kind][1]:  # a torus part: half the circle
        A = TestSet.u_interval(0, "1/2")
    else:  # the cylinder of symbol 0 at position 0
        A = TestSet.from_cylinder(CylinderSet(((0, spec.bernoulli.symbols[0]),)))
    A = _param(config, "A", TestSet.from_json, A)
    B = _param(config, "B", TestSet.from_json, A)
    t = int(config.params.get("t", 10_000))
    statistic = weak_mixing_statistic(spec, A, B, t)
    results = {
        "t": t,
        "statistic": statistic,
        "verdict": weak_mixing_verdict(statistic),
        "A": A.to_json(),
        "B": B.to_json(),
    }
    return results, [_verdict(results["verdict"], results)]


#: Each op's runner; its params are checked against the config schema's
#: ``$defs`` entry ``<op>-params``.
COMPUTE_OPS = {
    "tower": _compute_tower,
    "residual-search": _compute_residual,
    "spectrum": _compute_spectrum,
    "entropy": _compute_entropy,
    "weak-mixing": _compute_weak_mixing,
}


def run_compute(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    """Free-form mode: run one named operation with config parameters,
    which its params schema has checked, as ``(results, verdicts)``; the
    results lead with the op's name."""
    if config.op not in COMPUTE_OPS:
        raise ValueError(
            f"unknown op {config.op!r}; available: {', '.join(sorted(COMPUTE_OPS))}"
        )
    validate("config.schema.json", "configuration", config.params,
             f"#/$defs/{config.op}-params", ("params",))
    results, verdicts = COMPUTE_OPS[config.op](config)
    return {"op": config.op, **results}, verdicts


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def _tower_evidence(report: ExperimentReport) -> list[tuple[str, dict]]:
    evidence = report.results.get("towers", {}).get("evidence", {})
    return [(side, evidence.get(side, {})) for side in ("system_a", "system_b")]


def _tower_rows(report: ExperimentReport) -> list[list]:
    return [[side, lvl["depth"],
             ";".join(f"({g[0]},{g[1]})" for g in lvl["characters"]["generators"]) or "trivial"]
            for side, ev in _tower_evidence(report) for lvl in ev.get("levels", [])]


def _residual_rows(report: ExperimentReport) -> list[list]:
    return [[side, rep["k"], rep["truncation"], repr(rep["residual"]), rep["cycles"],
             max((n for n, _ in rep["path_lengths"]), default=0), repr(ev["certificate"]["r0"])]
            for side, ev in _tower_evidence(report) if ev.get("certificate")
            for rep in ev["certificate"]["reports"]]


def _entropy_rows(report: ExperimentReport) -> list[list]:
    """Two rows per system: the sampled estimate at the block length (the
    exact entropy when undersampled), then the exact entropy at n = 1."""
    rows = []
    for entry in report.results.get("entropies", []):
        system, exact, sampled = entry["system"], repr(entry["exact_entropy"]), entry.get("sampled")
        if sampled:
            rows.append([system, "time-zero", report.config.block_length, sampled["sample_count"],
                         repr(sampled["value"]), repr(sampled["stderr"]), "false"])
        else:
            rows.append([system, "time-zero", report.config.block_length, 0, exact, "0.0", "true"])
        rows.append([system, "time-zero", 1, 0, exact, "0.0", "true"])
    return rows


def _pair_rows(report: ExperimentReport) -> list[list]:
    return [[p["system_a"], p["system_b"], repr(p["classifier"]["entropy_a"]),
             repr(p["classifier"]["entropy_b"]), p["classifier"]["spacial"],
             p["classifier"]["spectral"], p["intertwiner_mismatches"]]
            for p in report.results.get("pairs", [])]


def _comparison_rows(report: ExperimentReport) -> list[list]:
    groups = report.results.get("groups", {})
    return [[groups.get("gamma_a"), groups.get("gamma_b"), groups.get("verdict"),
             report.results.get("conjugacy", {}).get("map", "")]]


#: The files ``format="csv"`` adds beside report.json, in the order they
#: are written: (scenario, file name, CSV header, rows of the report).  A
#: file with no rows is not written; a header of None marks a JSON file,
#: which holds its data as it is.
EXTRA_FILES = (
    ("reproduce-letter", "tower.csv", ("system", "depth", "generators"), _tower_rows),
    ("reproduce-letter", "residuals.csv",
     ("system", "k", "truncation", "residual", "cycles", "longest_path", "r0"), _residual_rows),
    ("reproduce-letter", "spectrum.json", None, lambda report: report.results.get("spectra")),
    ("reproduce-kolmogorov", "entropies.csv",
     ("system", "partition", "n", "samples", "estimate_nats", "stderr", "exact"), _entropy_rows),
    ("reproduce-kolmogorov", "pairs.csv",
     ("system_a", "system_b", "entropy_a", "entropy_b", "spacial", "spectral",
      "intertwiner_mismatches"), _pair_rows),
    ("theorem1", "comparison.csv", ("gamma_a", "gamma_b", "verdict", "conjugacy"),
     _comparison_rows),
)


def emit_report(report: ExperimentReport) -> list[Path]:
    """Validate the report, then write the report files into the config's
    ``out`` directory and return their paths.

    Format ``json`` writes report.json only; ``csv`` adds the scenario's
    plot-ready files from ``EXTRA_FILES``.  Identical reports produce
    byte-identical files: keys are sorted, floats keep their shortest
    round-trip repr, and nothing time-dependent is recorded.
    """
    report.validate()
    out = Path(report.config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, NotADirectoryError) as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = [out / "report.json"]
    _write_json(written[0], report.to_json())
    for scenario, name, header, rows_of in EXTRA_FILES:
        rows = (rows_of(report) if report.config.format == "csv"
                and scenario == report.config.scenario else None)
        if rows:
            written.append(out / name)
            if header is None:
                _write_json(written[-1], rows)
            else:
                _write_csv(written[-1], header, rows)
    return written


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


#: Each scenario's runner: config -> (results, verdicts).
RUNNERS = {
    "reproduce-letter": run_reproduce_letter,
    "reproduce-kolmogorov": run_reproduce_kolmogorov,
    "theorem1": run_theorem1_check,
    "compute": run_compute,
}
SCENARIOS = tuple(RUNNERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Desk-scale experiments separating spectral and spacial isomorphism.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        if name == "compute":
            p.add_argument("op", help="operation name (e.g. tower, entropy)")
        p.add_argument("--config", type=Path, help="config JSON path")
        p.add_argument("--seed", type=int, help="root seed (u64)")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--bits", action="store_true", default=None,
                       help="also report entropies in bits")
    return parser


def _merged_config(args: argparse.Namespace) -> ExperimentConfig:
    """The scenario's defaults, patched by the ``--config`` file and then
    by the flags given, read as one config."""
    data = _default_data(args.scenario)
    if args.config is not None:
        patch = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(patch, dict):
            raise ValueError(f"a config must be a JSON object, got a {type(patch).__name__}")
        if patch.get("scenario", args.scenario) != args.scenario:
            raise ValueError(
                f"config scenario {patch.get('scenario')!r} does not match "
                f"the {args.scenario!r} subcommand"
            )
        data.update(patch)
    flags = {"seed": args.seed, "out": None if args.out is None else str(args.out),
             "format": args.format, "bits": args.bits, "op": getattr(args, "op", None) or None}
    data.update((key, value) for key, value in flags.items() if value is not None)
    return ExperimentConfig.from_json(data)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS starts a thread per core when numpy loads, and they
        # spin on CPU; no scenario calls BLAS.  A value already set stays.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    try:
        config = _merged_config(args)
        results, verdicts = RUNNERS[args.scenario](config)
        paths = emit_report(ExperimentReport(config, results, verdicts))
    except InconclusiveEvidenceError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    # IncompatibleSpectraError and UndersampledError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for verdict in verdicts:
        print(f"[{verdict['provenance']}] {verdict['statement']}")
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
