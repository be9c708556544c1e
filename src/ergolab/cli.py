"""Experiment orchestration: named scenarios, deterministic seeding, and
machine-readable reports.

Three built-in scenarios reproduce the headline comparisons (the
skew-vs-product letter argument, the entropy separation of shifts, the
rotation classification), and a free-form ``compute`` mode exposes the
individual operations.  Reports are deterministic byte for byte under a
fixed seed: one root seed is split into named substreams, no timestamps
are recorded, and JSON keys are sorted.  Exit codes are a stable
contract: 0 success, 2 inconclusive evidence, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import jsonschema
import numpy as np

from . import __version__
from .entropy import (
    PartitionSpec,
    UndersampledError,
    bernoulli_entropy,
    entropy_classifier,
    exact_block_entropy_rate,
    partition_refine_entropy,
)
from .koopman import (
    IncompatibleSpectraError,
    build_intertwiner,
    point_spectrum_groups_equal,
    spectrum_of,
    verify_intertwiner,
)
from .mixing import (
    TestSet,
    spectral_weak_mixing_check,
    weak_mixing_statistic,
    weak_mixing_verdict,
)
from .quadratic import ExactnessError, SQRT2_MINUS_1
from .systems import BernoulliSpec, SystemSpec, spawn_rngs
from .tower import (
    InconclusiveEvidenceError,
    compute_tower,
    quasi_eigen_residual_search,
    residual_reference,
    stabilization_depth,
    towers_distinguish,
)

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

SCENARIOS = ("reproduce-letter", "reproduce-kolmogorov", "theorem1", "compute")
DEFAULT_SEED = 1
#: Most lags ``compute weak-mixing`` accepts.  The exact statistic costs
#: about 25 microseconds per lag, so one run stays within a few minutes.
MAX_WEAK_MIXING_LAGS = 10**7
#: Most basis pairs the intertwiner of ``reproduce-letter`` and
#: ``reproduce-kolmogorov`` may build.  At truncation B a pairing holds
#: (2B+1)^2 pairs, or (2B+1)^3 between two products.  Building and
#: checking them takes about 0.4 microseconds per pair; building peaks
#: near 46 bytes per pair (46.1 MB traced for the 1,002,001 skew-product
#: pairs at B = 500, 38.1 MB of it kept) and checking adds a fixed
#: ~12 MB (it runs in slices of ``koopman.VERIFY_SLICE`` pairs), so the
#: budget caps one pairing near 4 s and 0.5 GB.
MAX_INTERTWINER_PAIRS = 10**7
#: Most symbols the sampled entropy cross-checks of
#: ``reproduce-kolmogorov`` may draw: samples x block length, summed over
#: the systems.  Sampling streams in fixed-size chunks and the scenario
#: scores single-position cells, so memory stays flat and the budget
#: bounds time: at about 60 ns per symbol it caps sampling near 25 s,
#: twice the 10^7-sample run (n = 10, two shifts) and 20 times the
#: default 10^6.
MAX_SAMPLED_SYMBOLS = 4 * 10**8


@lru_cache(maxsize=4)
def _load_schema(name: str) -> dict:
    ref = importlib.resources.files("ergolab.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _validate_config(data: dict) -> None:
    """Schema-check a configuration, reporting failures as ValueError
    so the command line can turn them into a clean exit."""
    try:
        jsonschema.validate(data, _load_schema("config.schema.json"))
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValueError(f"invalid configuration at {path}: {exc.message}") from exc


@dataclass(frozen=True)
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

    def to_json(self) -> dict:
        """Every field, leaving out ``systems``, ``op`` and ``params`` when
        they are empty."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(systems=[dict(s) for s in self.systems], params=dict(self.params))
        return {k: v for k, v in data.items() if v or k not in ("systems", "op", "params")}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """The config a validated JSON object names; the schema admits
        only field names, and absent fields keep their defaults."""
        _validate_config(data)
        return cls(**{**data, "systems": tuple(data.get("systems", ()))})

    def system_specs(self) -> list[SystemSpec]:
        return [SystemSpec.from_json(s) for s in self.systems]


@dataclass
class ExperimentReport:
    """The full evidence chain of one run.

    Every verdict carries its evidence object inline, so the verdict list
    is self-contained; ``results`` holds the step-by-step records the
    verdicts reference.
    """

    scenario: str
    config: ExperimentConfig
    results: dict
    verdicts: list[dict]
    seed: int
    version: str = __version__

    def to_json(self) -> dict:
        # the echo drops emission-only keys (out, format) so the same
        # experiment is byte-identical wherever it is written
        echo = {
            key: value
            for key, value in self.config.to_json().items()
            if key not in ("out", "format")
        }
        return {
            "scenario": self.scenario,
            "version": self.version,
            "seed": self.seed,
            "config": echo,
            "results": self.results,
            "verdicts": self.verdicts,
        }

    def validate(self) -> None:
        jsonschema.validate(self.to_json(), _load_schema("report.schema.json"))


# ---------------------------------------------------------------------------
# default configurations
# ---------------------------------------------------------------------------


def default_config(scenario: str) -> ExperimentConfig:
    gamma, coin = SQRT2_MINUS_1, BernoulliSpec.fair_coin()
    if scenario == "reproduce-letter":
        systems = (SystemSpec.skew(gamma), SystemSpec.product(gamma, coin))
        return ExperimentConfig(
            scenario=scenario, systems=tuple(s.to_json() for s in systems),
            truncation=16, residual_truncation=8,
        )
    if scenario == "reproduce-kolmogorov":
        uniform4 = BernoulliSpec((0.25, 0.25, 0.25, 0.25), (0, 1, 2, 3))
        systems = (SystemSpec.shift(coin), SystemSpec.shift(uniform4))
        return ExperimentConfig(
            scenario=scenario, systems=tuple(s.to_json() for s in systems),
            truncation=8, samples=1_000_000, block_length=10,
        )
    if scenario == "theorem1":
        systems = (SystemSpec.rotation(gamma), SystemSpec.rotation(gamma.one_minus()))
        return ExperimentConfig(
            scenario=scenario, systems=tuple(s.to_json() for s in systems), truncation=64
        )
    return ExperimentConfig(scenario="compute")


# ---------------------------------------------------------------------------
# scenario: reproduce-letter
# ---------------------------------------------------------------------------


def _check_intertwiner_cost(specs: Sequence[SystemSpec], truncation: int) -> None:
    """Refuse a truncation whose intertwiner exceeds the pair budget."""
    side = 2 * truncation + 1
    pairs = side**3 if all(s.kind == "product" for s in specs) else side**2
    if pairs > MAX_INTERTWINER_PAIRS:
        raise ValueError(
            f"truncation {truncation} needs {pairs} intertwiner pairs, over the "
            f"budget of {MAX_INTERTWINER_PAIRS} pairs"
        )


def _check_sampling_cost(config: ExperimentConfig, systems: int) -> None:
    """Refuse a sample whose symbol count exceeds the sampling budget."""
    symbols = config.samples * config.block_length * systems
    if symbols > MAX_SAMPLED_SYMBOLS:
        raise ValueError(
            f"{config.samples} samples x block length {config.block_length} x "
            f"{systems} systems need {symbols} sampled symbols, over the "
            f"budget of {MAX_SAMPLED_SYMBOLS} symbols"
        )


def run_reproduce_letter(config: ExperimentConfig) -> ExperimentReport:
    """The two-system comparison: same spectrum, different towers.

    Steps: spectra match; explicit intertwiner verifies with zero
    mismatches; the skew tower grows past the proper functions while the
    product tower does not, both decided exactly; the combination yields
    "spectrally isomorphic" and "not spacially isomorphic".  A pair of
    identical skew systems instead reaches "not distinguished by tower".
    """
    specs = config.system_specs()
    if len(specs) != 2:
        raise ValueError("the letter scenario compares exactly two systems")
    spec_a, spec_b = specs
    if spec_a.gamma is None or spec_b.gamma is None:
        raise ValueError("the letter scenario needs systems with a rotation factor")
    _check_intertwiner_cost(specs, config.truncation)
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

    pairing = build_intertwiner(spec_a, spec_b, config.truncation)
    check = verify_intertwiner(pairing)
    results["intertwiner"] = {
        "truncation": config.truncation,
        "mismatches": check.mismatches,
        "checked": check.checked,
        "max_phase_residual": check.max_phase_residual,
    }
    if spectra_match and check.mismatches == 0:
        verdicts.append(
            {
                "statement": "spectrally isomorphic",
                "provenance": "exact",
                "evidence": {
                    "spectra": results["spectra"],
                    "intertwiner": results["intertwiner"],
                },
            }
        )

    comparison = towers_distinguish(
        spec_a, spec_b, truncation=config.residual_truncation
    )
    results["towers"] = {
        "gap_a": comparison.gap_a,
        "gap_b": comparison.gap_b,
        "verdict": comparison.verdict,
        "evidence": comparison.evidence,
    }
    if comparison.distinguished:
        verdicts.append(
            {
                "statement": "not spacially isomorphic",
                "provenance": "exact",
                "evidence": results["towers"],
            }
        )
    else:
        verdicts.append(
            {
                "statement": "not distinguished by tower",
                "provenance": "exact",
                "evidence": results["towers"],
            }
        )

    report = ExperimentReport(
        scenario=config.scenario,
        config=config,
        results=results,
        verdicts=verdicts,
        seed=config.seed,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# scenario: reproduce-kolmogorov
# ---------------------------------------------------------------------------


def run_reproduce_kolmogorov(config: ExperimentConfig) -> ExperimentReport:
    """Pairwise comparison of product-measure shifts: spectra pair up
    exactly, entropies separate, plus one sampled cross-check per system.
    """
    specs = config.system_specs()
    if len(specs) < 2 or any(s.kind != "bernoulli" for s in specs):
        raise ValueError("the kolmogorov scenario needs at least two shift systems")
    _check_intertwiner_cost(specs, config.truncation)
    _check_sampling_cost(config, len(specs))
    results: dict = {"systems": [s.to_json() for s in specs]}
    verdicts: list[dict] = []

    estimates = []
    rngs = spawn_rngs(config.seed, len(specs))
    for index, (spec, rng) in enumerate(zip(specs, rngs)):
        exact = bernoulli_entropy(spec.bernoulli)
        analytic = exact_block_entropy_rate(spec.bernoulli, config.block_length)
        entry = {
            "system": spec.label(),
            "exact_entropy": exact,
            "analytic_rate": analytic.to_json(),
        }
        try:
            sampled = partition_refine_entropy(
                spec,
                PartitionSpec.time_zero(spec.bernoulli),
                config.block_length,
                config.samples,
                rng,
            )
            entry["sampled"] = sampled.to_json()
            entry["relative_error"] = abs(sampled.value - exact) / exact
        except UndersampledError as exc:
            entry["sampled"] = None
            entry["undersampled"] = str(exc)
        if config.bits:
            entry["exact_entropy_bits"] = exact / math.log(2)
        estimates.append(entry)
    results["entropies"] = estimates

    pairs = []
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            a, b = specs[i], specs[j]
            pairing = build_intertwiner(a, b, config.truncation)
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
            verdicts.append(
                {
                    "statement": f"{a.label()} vs {b.label()}: {verdict.spacial}",
                    "provenance": "exact",
                    "evidence": pair,
                }
            )
            verdicts.append(
                {
                    "statement": f"{a.label()} vs {b.label()}: {verdict.spectral}",
                    "provenance": "exact",
                    "evidence": pair,
                }
            )
    results["pairs"] = pairs

    report = ExperimentReport(
        scenario=config.scenario,
        config=config,
        results=results,
        verdicts=verdicts,
        seed=config.seed,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# scenario: theorem1
# ---------------------------------------------------------------------------


def _mod1_distance(x: np.ndarray) -> np.ndarray:
    d = np.abs(x) % 1.0
    return np.minimum(d, 1.0 - d)


def run_theorem1_check(config: ExperimentConfig) -> ExperimentReport:
    """Classify two circle rotations: equal proper-value groups mean
    isomorphic (with the witnessing conjugacy verified pointwise),
    unequal groups mean not even spectrally isomorphic.

    Only exact rotation numbers are accepted: the group comparison is an
    exact search and refuses approximations.
    """
    specs = config.system_specs()
    if len(specs) != 2 or any(s.kind != "rotation" for s in specs):
        raise ValueError("theorem1 compares exactly two rotations")
    spec_a, spec_b = specs
    if not (spec_a.gamma.is_exact and spec_b.gamma.is_exact):
        raise ExactnessError("theorem1 requires exact rotation numbers")
    bound = config.truncation
    results: dict = {}
    verdicts: list[dict] = []

    cmp = point_spectrum_groups_equal(spec_a.gamma, spec_b.gamma, bound=bound)
    results["groups"] = {
        "gamma_a": str(spec_a.gamma),
        "gamma_b": str(spec_b.gamma),
        "bound": bound,
        "verdict": cmp.verdict,
        "relation": list(cmp.relation) if cmp.relation else None,
        "detail": cmp.detail,
    }

    if cmp.equal:
        # the groups coincide only for gamma_b = gamma_a or 1 - gamma_a;
        # the witnessing map is the identity or the reflection c(u) = -u
        identity = spec_a.gamma == spec_b.gamma
        rng = spawn_rngs(config.seed, 1)[0]
        u = rng.random(10_000)
        ga = spec_a.gamma.to_float()
        gb = spec_b.gamma.to_float()
        if identity:
            lhs = (u + ga) % 1.0
            rhs = (u + gb) % 1.0
            conjugacy = "identity"
        else:
            lhs = (-((u + ga) % 1.0)) % 1.0
            rhs = (((-u) % 1.0) + gb) % 1.0
            conjugacy = "reflection c(u) = -u mod 1"
        residual = float(np.max(_mod1_distance(lhs - rhs)))
        results["conjugacy"] = {
            "map": conjugacy,
            "points": len(u),
            "max_residual": residual,
        }
        statement = (
            "spacially isomorphic (equal proper-value groups, conjugacy verified)"
        )
        if residual > 1e-12:
            raise InconclusiveEvidenceError(
                f"conjugacy residual {residual:.3e} exceeds 1e-12", partial=results
            )
        verdicts.append(
            {
                "statement": statement,
                "provenance": "exact",
                "evidence": {**results["groups"], **results["conjugacy"]},
            }
        )
    else:
        verdicts.append(
            {
                "statement": (
                    "not spectrally isomorphic within the search bound "
                    "(hence not spacially isomorphic)"
                ),
                "provenance": "exact",
                "evidence": results["groups"],
            }
        )

    report = ExperimentReport(
        scenario=config.scenario,
        config=config,
        results=results,
        verdicts=verdicts,
        seed=config.seed,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# compute mode
# ---------------------------------------------------------------------------


def _param_system(config: ExperimentConfig, default: SystemSpec) -> SystemSpec:
    data = config.params.get("system")
    return default if data is None else SystemSpec.from_json(data)


def _compute_tower(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    spec = _param_system(config, SystemSpec.skew(SQRT2_MINUS_1))
    depth = config.params.get("max_depth", 4)
    levels = compute_tower(spec, depth)
    results = {
        "levels": [lvl.to_json() for lvl in levels],
        "stabilization_depth": stabilization_depth(levels),
    }
    return results, [
        {
            "statement": f"tower stabilizes at depth {stabilization_depth(levels)}",
            "provenance": "exact",
            "evidence": results,
        }
    ]


def _compute_residual(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    spec = _param_system(
        config, SystemSpec.product(SQRT2_MINUS_1, BernoulliSpec.fair_coin())
    )
    ks = config.params.get("ks", [0, 1, -1, 2, -2])
    reports = [
        quasi_eigen_residual_search(spec, k, config.residual_truncation) for k in ks
    ]
    results = {"reports": [r.to_json() for r in reports]}
    if spec.kind == "product":
        results["r0"] = residual_reference(spec)
    return results, [
        {
            "statement": "residual search complete",
            "provenance": "residual-certified",
            "evidence": results,
        }
    ]


def _compute_spectrum(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    spec = _param_system(config, SystemSpec.skew(SQRT2_MINUS_1))
    desc = spectrum_of(spec)
    results = {"descriptor": desc.to_json(), "weak_mixing": spectral_weak_mixing_check(desc)}
    return results, [
        {
            "statement": f"spectrum tag: {desc.tag}",
            "provenance": "exact",
            "evidence": results,
        }
    ]


def _compute_entropy(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    data = config.params.get("bernoulli")
    bern = BernoulliSpec.fair_coin() if data is None else BernoulliSpec.from_json(data)
    value = bernoulli_entropy(bern)
    results = {"entropy_nats": value}
    if config.bits:
        results["entropy_bits"] = value / math.log(2)
    return results, [
        {
            "statement": f"entropy {value:.12f} nats",
            "provenance": "exact",
            "evidence": results,
        }
    ]


def _compute_weak_mixing(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    spec = _param_system(config, SystemSpec.skew(SQRT2_MINUS_1))
    if "A" in config.params:
        A = _test_set_from(config.params["A"])
    elif spec.kind == "bernoulli":
        from .systems import CylinderSet

        A = TestSet.from_cylinder(CylinderSet(((0, spec.bernoulli.symbols[0]),)))
    else:
        A = TestSet.u_interval(0, "1/2")
    B = A if "B" not in config.params else _test_set_from(config.params["B"])
    t = config.params.get("t", 10_000)
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValueError(f"weak-mixing t must be an integer lag count, got {t!r}")
    if t > MAX_WEAK_MIXING_LAGS:
        raise ValueError(
            f"weak-mixing t = {t} lags exceeds the budget of "
            f"{MAX_WEAK_MIXING_LAGS} lags"
        )
    statistic = weak_mixing_statistic(spec, A, B, t, mode="exact")
    results = {
        "t": t,
        "statistic": statistic,
        "verdict": weak_mixing_verdict(statistic),
        "A": A.to_json(),
        "B": B.to_json(),
    }
    return results, [
        {
            "statement": results["verdict"],
            "provenance": "exact",
            "evidence": results,
        }
    ]


def _test_set_from(data: dict) -> TestSet:
    from fractions import Fraction

    kind = data["kind"]
    if kind == "u-interval":
        return TestSet.u_interval(Fraction(data["a"]), Fraction(data["b"]))
    if kind == "cylinder":
        from .systems import CylinderSet

        return TestSet.from_cylinder(CylinderSet.from_json(data["cylinder"]))
    raise ValueError(f"unsupported test-set kind {kind!r} in config")


COMPUTE_OPS = {
    "tower": _compute_tower,
    "residual-search": _compute_residual,
    "spectrum": _compute_spectrum,
    "entropy": _compute_entropy,
    "weak-mixing": _compute_weak_mixing,
}


def run_compute(config: ExperimentConfig) -> ExperimentReport:
    """Free-form mode: run one named operation with config parameters."""
    if config.op not in COMPUTE_OPS:
        raise ValueError(
            f"unknown op {config.op!r}; available: {', '.join(sorted(COMPUTE_OPS))}"
        )
    results, verdicts = COMPUTE_OPS[config.op](config)
    report = ExperimentReport(
        scenario="compute",
        config=config,
        results={"op": config.op, **results},
        verdicts=verdicts,
        seed=config.seed,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def _letter_csvs(report: ExperimentReport, out: Path) -> list[Path]:
    written = []
    towers = report.results.get("towers", {})
    rows = []
    for side in ("system_a", "system_b"):
        ev = towers.get("evidence", {}).get(side, {})
        for lvl in ev.get("levels", []):
            gens = ";".join(
                f"({g[0]},{g[1]})" for g in lvl["characters"]["generators"]
            )
            rows.append([side, lvl["depth"], gens or "trivial"])
    if rows:
        path = out / "tower.csv"
        _write_csv(path, ["system", "depth", "generators"], rows)
        written.append(path)
    rows = []
    for side in ("system_a", "system_b"):
        ev = towers.get("evidence", {}).get(side, {})
        cert = ev.get("certificate")
        if not cert:
            continue
        for rep in cert["reports"]:
            rows.append(
                [
                    side,
                    rep["k"],
                    rep["truncation"],
                    repr(rep["residual"]),
                    repr(rep["grid_residual"]),
                    repr(rep["delta"][0]),
                    repr(rep["delta"][1]),
                    repr(cert["r0"]),
                ]
            )
    if rows:
        path = out / "residuals.csv"
        _write_csv(
            path,
            ["system", "k", "truncation", "residual", "grid_residual",
             "delta_re", "delta_im", "r0"],
            rows,
        )
        written.append(path)
    spectra = report.results.get("spectra")
    if spectra:
        path = out / "spectrum.json"
        path.write_text(
            json.dumps(spectra, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        written.append(path)
    return written


def _kolmogorov_csvs(report: ExperimentReport, out: Path) -> list[Path]:
    written = []
    rows = []
    for entry in report.results.get("entropies", []):
        sampled = entry.get("sampled")
        rows.append(
            [
                entry["system"],
                "time-zero",
                report.config.block_length,
                sampled["sample_count"] if sampled else 0,
                repr(sampled["value"]) if sampled else repr(entry["exact_entropy"]),
                repr(sampled["stderr"]) if sampled else "0.0",
                "false" if sampled else "true",
            ]
        )
        rows.append(
            [
                entry["system"],
                "time-zero",
                1,
                0,
                repr(entry["exact_entropy"]),
                "0.0",
                "true",
            ]
        )
    if rows:
        path = out / "entropies.csv"
        _write_csv(
            path,
            ["system", "partition", "n", "samples", "estimate_nats", "stderr", "exact"],
            rows,
        )
        written.append(path)
    rows = [
        [
            p["system_a"],
            p["system_b"],
            repr(p["classifier"]["entropy_a"]),
            repr(p["classifier"]["entropy_b"]),
            p["classifier"]["spacial"],
            p["classifier"]["spectral"],
            p["intertwiner_mismatches"],
        ]
        for p in report.results.get("pairs", [])
    ]
    if rows:
        path = out / "pairs.csv"
        _write_csv(
            path,
            ["system_a", "system_b", "entropy_a", "entropy_b",
             "spacial", "spectral", "intertwiner_mismatches"],
            rows,
        )
        written.append(path)
    return written


def _theorem1_csvs(report: ExperimentReport, out: Path) -> list[Path]:
    groups = report.results.get("groups", {})
    conj = report.results.get("conjugacy", {})
    row = [
        groups.get("gamma_a"),
        groups.get("gamma_b"),
        groups.get("bound"),
        groups.get("verdict"),
        conj.get("map", ""),
        repr(conj["max_residual"]) if conj else "",
    ]
    path = out / "comparison.csv"
    _write_csv(
        path,
        ["gamma_a", "gamma_b", "bound", "verdict", "conjugacy", "max_residual"],
        [row],
    )
    return [path]


def emit_report(report: ExperimentReport, out_dir=None, format: Optional[str] = None) -> list[Path]:
    """Write the report files and return their paths.

    ``format="json"`` writes report.json only; ``format="csv"`` adds the
    scenario's plot-ready CSV families.  Identical reports produce
    byte-identical files: keys are sorted, floats keep their shortest
    round-trip repr, and nothing time-dependent is recorded.
    """
    report.validate()
    out = Path(out_dir if out_dir is not None else report.config.out)
    fmt = format or report.config.format
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, NotADirectoryError) as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    written.append(report_path)
    if fmt == "csv":
        if report.scenario == "reproduce-letter":
            written.extend(_letter_csvs(report, out))
        elif report.scenario == "reproduce-kolmogorov":
            written.extend(_kolmogorov_csvs(report, out))
        elif report.scenario == "theorem1":
            written.extend(_theorem1_csvs(report, out))
    return written


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


RUNNERS = {
    "reproduce-letter": run_reproduce_letter,
    "reproduce-kolmogorov": run_reproduce_kolmogorov,
    "theorem1": run_theorem1_check,
    "compute": run_compute,
}


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
    if args.config is not None:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if data.get("scenario", args.scenario) != args.scenario:
            raise ValueError(
                f"config scenario {data.get('scenario')!r} does not match "
                f"the {args.scenario!r} subcommand"
            )
        # a config file patches the scenario defaults, so omitting
        # `systems` (or anything else) keeps the default value
        base = default_config(args.scenario).to_json()
        base.update(data)
        base["scenario"] = args.scenario
        config = ExperimentConfig.from_json(base)
    else:
        config = default_config(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = str(args.out)
    if args.format is not None:
        overrides["format"] = args.format
    if args.bits is not None:
        overrides["bits"] = args.bits
    if getattr(args, "op", None):
        overrides["op"] = args.op
    return replace(config, **overrides) if overrides else config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merged_config(args)
        report = RUNNERS[args.scenario](config)
        paths = emit_report(report)
    except InconclusiveEvidenceError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (
        IncompatibleSpectraError,
        ExactnessError,
        UndersampledError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for verdict in report.verdicts:
        print(f"[{verdict['provenance']}] {verdict['statement']}")
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
