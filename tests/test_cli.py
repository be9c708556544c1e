"""Command line: config validation, scenarios, reports, determinism.

Every run goes through ``main(argv)`` in-process, apart from the
import-graph checks: subprocess runs that refuse every import of scipy,
mpmath, jsonschema, numpy, dataclasses or inspect, and fresh interpreters
that only import the package.
Reports are checked against the bundled JSON schema and for byte-level
reproducibility at a fixed seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import ergolab
from ergolab import InconclusiveEvidenceError, SystemSpec, cli, quadratic, tower
from ergolab._record import replace
from ergolab.cli import (
    DEFAULT_SEED,
    MAX_SAMPLED_SYMBOLS,
    ExperimentConfig,
    ExperimentReport,
    RUNNERS,
    default_config,
    main,
)
from ergolab.mixing import MAX_WEAK_MIXING_DIGITS
from ergolab.tower import CENSUS_K_CHARGE, CENSUS_KS, MAX_CENSUS_WORK


def run(tmp_path: Path, *argv: str) -> tuple[int, Path]:
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_default_configs_validate():
    for scenario in ("reproduce-letter", "reproduce-kolmogorov", "theorem1"):
        config = default_config(scenario)
        assert config.scenario == scenario
        assert config.seed == DEFAULT_SEED
        assert ExperimentConfig.from_json(config.to_json()) == config


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="scenario"):
        ExperimentConfig(scenario="nope", seed=1)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(scenario="compute", seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="compute", seed=1, format="xml")
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"scenario": "compute", "seed": 1, "extra": True})


def test_config_with_precision_bits_is_refused(tmp_path, capsys):
    """The precision_bits knob is gone: a config that still sets it fails
    the schema and the command exits 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "theorem1", "seed": 1, "precision_bits": 128}))
    code, out = run(tmp_path, "theorem1", "--config", str(cfg))
    assert code == 1 and "precision_bits" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_config_replace_revalidates():
    config = default_config("theorem1")
    with pytest.raises(ValueError):
        replace(config, samples=-5)


def test_report_echo_strips_volatile_fields():
    config = default_config("theorem1")
    report = ExperimentReport(
        config=config,
        results={},
        verdicts=[
            {"statement": "x", "provenance": "exact", "evidence": {}},
        ],
    )
    data = report.to_json()
    assert (data["scenario"], data["seed"], data["version"]) == (
        config.scenario, config.seed, ergolab.__version__)
    echo = data["config"]
    assert "out" not in echo and "format" not in echo
    report.validate()
    bad = replace(
        report, verdicts=[{"statement": "x", "provenance": "guesswork", "evidence": {}}]
    )
    with pytest.raises(ValueError, match=r"^invalid report at verdicts/0/provenance: "
                       r"'guesswork' is not one of \['exact', "):
        bad.validate()


def test_a_report_breaking_its_schema_exits_one(tmp_path, monkeypatch, capsys):
    """A runner whose verdicts break the report schema ends the run with
    exit 1 and the schema's message, and writes no report."""
    honest = RUNNERS["theorem1"]

    def guesses(config):
        results, verdicts = honest(config)
        verdicts[0]["provenance"] = "guesswork"
        return results, verdicts

    monkeypatch.setitem(RUNNERS, "theorem1", guesses)
    code, out = run(tmp_path, "theorem1", "--seed", "1")
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: invalid report at verdicts/0/provenance: 'guesswork' is not one of ["
    )
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv", [["theorem1"], ["compute", "entropy"]], ids=" ".join)
def test_a_run_validates_its_report_once_before_writing(argv, tmp_path, monkeypatch):
    """The report is checked against its schema once per run, before the
    output directory is made."""
    out, seen = tmp_path / "out", []
    validate = ExperimentReport.validate

    def counted(report):
        seen.append(out.exists())
        validate(report)

    monkeypatch.setattr(ExperimentReport, "validate", counted)
    assert run(tmp_path, *argv) == (0, out)
    assert seen == [False]


# ---------------------------------------------------------------------------
# scenarios end to end
# ---------------------------------------------------------------------------


def test_letter_scenario(tmp_path):
    code, out = run(tmp_path, "reproduce-letter", "--seed", "1")
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, json.loads(
        Path("src/ergolab/schemas/report.schema.json").read_text()
    ))
    statements = [v["statement"] for v in report["verdicts"]]
    assert "spectrally isomorphic" in statements
    assert "not spacially isomorphic" in statements
    provenance = {v["statement"]: v["provenance"] for v in report["verdicts"]}
    assert provenance["spectrally isomorphic"] == "exact"
    assert provenance["not spacially isomorphic"] == "exact"
    # csv artifacts
    with open(out / "residuals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "system", "k", "truncation", "residual", "cycles", "longest_path", "r0",
    ]
    assert len(rows) > 1
    with open(out / "tower.csv", newline="") as fh:
        tower_rows = list(csv.reader(fh))
    assert tower_rows[0] == ["system", "depth", "generators"]


# Runs the CLI (arguments from the second on) with a ``sys.meta_path``
# finder that refuses the modules named, comma-separated, in the first
# argument, and every submodule of theirs.
REFUSING = """
import sys

REFUSED = sys.argv[1].split(",")

def refused(name):
    return any(name == r or name.startswith(r + ".") for r in REFUSED)

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if refused(name):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, Refuse())
from ergolab.cli import main
code = main(sys.argv[2:])
assert not any(refused(name) for name in sys.modules)
sys.exit(code)
"""


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's ergolab."""
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _assert_same_bytes_without(tmp_path: Path, refused: str, *argv: str) -> None:
    """With every import of ``refused`` refused, the CLI exits 0 and writes
    the report bytes an in-process run writes."""
    without = tmp_path / "refused"
    proc = _fresh_python("-c", REFUSING, refused, *argv, "--out", str(without))
    assert proc.returncode == 0, proc.stderr
    code, out = run(tmp_path, *argv)
    assert code == 0
    assert (without / "report.json").read_bytes() == (out / "report.json").read_bytes()


def test_letter_runs_without_scipy(tmp_path):
    """scipy is a test dependency only, and the census counts without
    compact arrays: with every scipy and array import refused,
    reproduce-letter exits 0 and writes the same report bytes."""
    _assert_same_bytes_without(tmp_path, "scipy,array", "reproduce-letter", "--seed", "1")


@pytest.mark.parametrize("argv", [("reproduce-kolmogorov", "--seed", "1"), ("compute", "spectrum")])
def test_spectra_run_without_the_tower_and_mixing_toolkits(argv, tmp_path):
    """The spectrum's chain counts share the census's count, which lives
    in ``koopman``: with the tower and mixing toolkits refused, the
    kolmogorov run and the spectrum op write the same report bytes."""
    _assert_same_bytes_without(tmp_path, "ergolab.tower,ergolab.mixing", *argv)


def _bench_mixing_config(tmp_path: Path) -> str:
    """The benchmark's ``mixing`` workload at its first angle."""
    cfg = tmp_path / "mixing.json"
    cfg.write_text(json.dumps({"op": "weak-mixing", "params": {
        "system": {"kind": "skew", "gamma": {"quadratic": [-1, 1, 2, 1]}},
        "A": {"kind": "u-interval", "a": "0", "b": "1/2"},
        "t": 10_000,
    }}))
    return str(cfg)


def test_weak_mixing_runs_without_numpy_or_mpmath(tmp_path):
    """The exact weak-mixing statistic is integer and rational arithmetic:
    with numpy and mpmath refused, and dataclasses and inspect, which the
    record types do without, it exits 0 with the same report bytes."""
    _assert_same_bytes_without(tmp_path, "numpy,mpmath,dataclasses,inspect", "compute",
                               "weak-mixing", "--config", _bench_mixing_config(tmp_path))


def test_kolmogorov_runs_without_dataclasses(tmp_path):
    """The sampled run loads numpy, which imports inspect itself, but
    nothing loads dataclasses; the systems are sampled on one thread, so
    no thread pool (``concurrent``) loads, and the partition cells are
    cylinders, so the mixing toolkit does not load either.  With all
    three refused, reproduce-kolmogorov exits 0 with the same report
    bytes."""
    _assert_same_bytes_without(tmp_path, "dataclasses,concurrent,ergolab.mixing",
                               "reproduce-kolmogorov", "--seed", "1")


#: Runs that compute only with integers, fractions and quadratic numbers,
#: each as (CLI arguments, config or None); ``letter-wide`` is the
#: benchmark workload's sizes.
EXACT_RUNS = {
    "reproduce-letter": (("reproduce-letter", "--seed", "1"), None),
    "letter-wide": (("reproduce-letter",), {"truncation": 192, "residual_truncation": 16}),
    "theorem1": (("theorem1",), None),
    "spectrum": (("compute", "spectrum"), None),
    "tower": (("compute", "tower"), None),
    "residual-search": (("compute", "residual-search"), None),
    "entropy": (("compute", "entropy", "--bits"), None),
}


@pytest.mark.parametrize("name", list(EXACT_RUNS))
def test_exact_runs_load_no_numpy(name, tmp_path):
    """numpy serves the Monte Carlo sampler only, and the record types
    need neither dataclasses nor inspect: with all three refused, each
    exact run exits 0 with the same report bytes."""
    argv, config = EXACT_RUNS[name]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = (*argv, "--config", str(cfg))
    _assert_same_bytes_without(tmp_path, "numpy,dataclasses,inspect", *argv)


def test_the_exact_toolkits_import_no_numpy():
    """Importing the koopman, tower and entropy modules loads no numpy;
    the sampler and the sampled estimate import it when they run."""
    proc = _fresh_python("-c", "import sys, ergolab.koopman, ergolab.tower, ergolab.entropy; "
                         "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_entropy_imports_no_mixing_toolkit():
    """The entropy partitions are built from cylinders, so importing the
    entropy module leaves the mixing toolkit unloaded."""
    proc = _fresh_python("-c", "import sys, ergolab.entropy; "
                         "print('ergolab.mixing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "scenario", ["reproduce-letter", "reproduce-kolmogorov", "theorem1", "weak-mixing"]
)
def test_scenarios_run_without_mpmath(scenario, tmp_path):
    """Neither mpmath nor jsonschema is a runtime dependency of any
    scenario: with both refused, each writes the same report bytes."""
    if scenario == "weak-mixing":
        argv = ("compute", "weak-mixing", "--config", _bench_mixing_config(tmp_path))
    else:
        argv = (scenario, "--seed", "1")
    _assert_same_bytes_without(tmp_path, "mpmath,jsonschema", *argv)


def test_importing_the_package_loads_no_toolkit():
    """``import ergolab`` and ``import ergolab.cli`` load none of numpy,
    mpmath, jsonschema, dataclasses and inspect, nor the koopman, tower
    and entropy toolkits."""
    heavy = ("numpy", "mpmath", "jsonschema", "dataclasses", "inspect",
             "ergolab.koopman", "ergolab.tower", "ergolab.entropy")
    for statement in ("import ergolab", "import ergolab.cli"):
        proc = _fresh_python("-c", f"import json, sys; {statement}; print(json.dumps(list(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = {m for m in json.loads(proc.stdout) if m.startswith(heavy)}
        assert not loaded, (statement, loaded)


def test_every_public_name_resolves():
    """Each name of ``ergolab.__all__`` resolves on first access to its
    defining submodule's object, star-import binds them all, and an
    unknown name raises AttributeError."""
    proc = _fresh_python("-c", "from ergolab import *; import ergolab; "
                         "assert all(name in globals() for name in ergolab.__all__)")
    assert proc.returncode == 0, proc.stderr
    for name in ergolab.__all__:
        assert getattr(ergolab, name) is not None
        assert name in dir(ergolab)
    from ergolab import tower

    assert tower.InconclusiveEvidenceError is ergolab.InconclusiveEvidenceError
    with pytest.raises(AttributeError):
        ergolab.no_such_name


def test_letter_identical_skews_are_not_distinguished(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "reproduce-letter",
        "seed": 1,
        "systems": [
            {"kind": "skew", "gamma": {"quadratic": [-1, 1, 2, 1]}},
            {"kind": "skew", "gamma": {"quadratic": [-1, 1, 2, 1]}},
        ],
    }))
    code, out = run(tmp_path, "reproduce-letter", "--config", str(cfg))
    assert code == 0
    statements = [v["statement"] for v in read_report(out)["verdicts"]]
    assert "not distinguished by tower" in statements


def test_letter_skews_are_not_refused_for_a_census_they_never_run(tmp_path):
    """Only a product system runs a residual census, so two skews at a
    residual truncation whose census of the default ks would pass the
    work budget (N = 55,556) run, with the towers of the default
    truncation."""
    truncation = 55_556
    assert len(CENSUS_KS) * (2 * truncation + 1 + CENSUS_K_CHARGE) > MAX_CENSUS_WORK
    skew = {"kind": "skew", "gamma": {"quadratic": [-1, 1, 2, 1]}}
    reports = []
    for n in (truncation, 8):
        cfg = tmp_path / f"cfg{n}.json"
        cfg.write_text(json.dumps({"systems": [skew, skew], "residual_truncation": n}))
        code, out = run(tmp_path / str(n), "reproduce-letter", "--config", str(cfg))
        assert code == 0
        reports.append(read_report(out))
    assert reports[0]["results"]["towers"] == reports[1]["results"]["towers"]
    assert reports[0]["verdicts"][-1]["statement"] == "not distinguished by tower"


def test_a_flag_overrides_the_config_file_before_validation(tmp_path, monkeypatch):
    """Defaults, file and flags merge into one config, validated once by
    ``from_json`` and once by the constructor it calls: ``--format json``
    over a file that holds ``"format": "xml"`` runs and writes
    report.json alone."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml", "seed": 3}))
    checked = []
    honest = cli._validate_config
    monkeypatch.setattr(cli, "_validate_config", lambda data: checked.append(data) or honest(data))
    code, out = run(tmp_path, "theorem1", "--config", str(cfg), "--format", "json")
    assert code == 0 and [path.name for path in out.iterdir()] == ["report.json"]
    assert len(checked) == 2 and checked[0]["format"] == "json"
    assert read_report(out)["seed"] == 3


def test_letter_mismatched_angles_are_not_spectrally_isomorphic(tmp_path):
    """Different point-spectrum groups are a verdict, not an error: the
    report says "not spectrally isomorphic" with the spectra as evidence,
    builds no intertwiner, and still reads the towers."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "reproduce-letter",
        "seed": 1,
        "systems": [
            {"kind": "skew", "gamma": {"quadratic": [-1, 1, 2, 1]}},
            {"kind": "product", "gamma": {"quadratic": [-1, 1, 3, 1]},
             "probs": [0.5, 0.5], "symbols": [1, -1]},
        ],
    }))
    code, out = run(tmp_path, "reproduce-letter", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    spectra = report["results"]["spectra"]
    assert not spectra["match"] and not spectra["point_groups_equal"]
    assert "intertwiner" not in report["results"]
    assert [v["statement"] for v in report["verdicts"]] == [
        "not spectrally isomorphic", "not spacially isomorphic",
    ]
    assert report["verdicts"][0]["evidence"] == spectra


@pytest.mark.parametrize("scenario", ["reproduce-letter", "reproduce-kolmogorov"])
def test_large_truncations_are_admitted(scenario, tmp_path):
    """The intertwiner's certificate does not depend on the truncation, so
    truncation 10^5 runs in well under a second of intertwiner work, with
    the verdicts and counts of the defaults; only the echoed truncation
    changes in the report."""
    config = {"truncation": 10**5}
    if scenario == "reproduce-kolmogorov":
        config["samples"] = 1000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    code, out = run(tmp_path, scenario, "--config", str(cfg))
    assert code == 0 and time.perf_counter() - start < 5
    cfg.write_text(json.dumps({k: v for k, v in config.items() if k != "truncation"}))
    code, default = run(tmp_path / "default", scenario, "--config", str(cfg))
    assert code == 0
    wide, usual = read_report(out), read_report(default)
    assert wide["verdicts"] == [
        {**v, "evidence": _retruncated(v["evidence"], 10**5)} for v in usual["verdicts"]
    ]
    if scenario == "reproduce-letter":
        intertwiner = wide["results"]["intertwiner"]
        assert intertwiner == {"truncation": 10**5, "mismatches": 0, "checked": 9}


def _retruncated(evidence, truncation: int):
    """``evidence`` with the intertwiner's echoed truncation replaced."""
    if isinstance(evidence, dict):
        return {k: truncation if k == "truncation" and "checked" in evidence
                else _retruncated(v, truncation) for k, v in evidence.items()}
    return evidence


@pytest.mark.parametrize("argv", [("reproduce-letter",), ("compute", "residual-search")])
def test_residual_truncation_above_the_work_budget_is_refused(argv, tmp_path, capsys, monkeypatch):
    """The default five ks are charged 2N + 1 + ``CENSUS_K_CHARGE`` window
    positions each, so N = 29,995 is the smallest truncation refused."""
    truncation = 29_995
    charge = 2 * truncation + 1 + CENSUS_K_CHARGE
    assert 5 * charge > MAX_CENSUS_WORK >= 5 * (charge - 2)

    def counted(*args):
        raise AssertionError("the census counted its labels")

    monkeypatch.setattr(tower, "_segment_census", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"residual_truncation": truncation}))
    code, out = run(tmp_path, *argv, "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert (
        f"error: 5 ks at residual truncation {truncation} are charged {charge} census "
        f"positions each, {5 * charge} in all, over the budget of {MAX_CENSUS_WORK}: "
        f"the census would take about 2 s" in err
    )
    assert not out.exists()


class CensusStarted(Exception):
    """Raised where a census would start counting its labels; main does
    not catch it."""


def _census_starts(*args):
    raise CensusStarted


@pytest.mark.parametrize("count", [5, 6, 10**4])
def test_residual_search_ks_above_the_census_budget_are_refused(count, tmp_path, capsys, monkeypatch):
    """Each k is charged its 2N + 1 window positions and
    ``CENSUS_K_CHARGE``: at N = 29,994, the largest truncation five ks
    fit, six ks are refused, as are 10^4 ks (about 4,800 s at 8
    microseconds a position), before any table entry is read."""
    truncation = 29_994
    charge = 2 * truncation + 1 + CENSUS_K_CHARGE
    assert 5 * charge <= MAX_CENSUS_WORK < 6 * charge
    monkeypatch.setattr(tower, "_line_step", _census_starts)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "residual_truncation": truncation, "params": {"ks": list(range(count))},
    }))
    argv = ("compute", "residual-search", "--config", str(cfg))
    if count == 5:
        with pytest.raises(CensusStarted):
            run(tmp_path, *argv)
        return
    code, out = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    seconds = {6: "3", 10**4: "4800"}[count]
    assert err == (
        f"error: {count} ks at residual truncation {truncation} are charged {charge} census "
        f"positions each, {count * charge} in all, over the budget of {MAX_CENSUS_WORK}: "
        f"the census would take about {seconds} s\n"
    )


def test_residual_search_refuses_no_ks(tmp_path, capsys, monkeypatch):
    """An empty ks would report a complete search over zero reports: it is
    refused by name before any table entry is read."""
    monkeypatch.setattr(tower, "_line_step", _census_starts)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"ks": []}}))
    code, out = run(tmp_path, "compute", "residual-search", "--config", str(cfg))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "error: the residual census needs at least one k: ks is empty\n"
    )


@pytest.mark.parametrize("count", [20_000, 20_001])
def test_residual_search_charges_each_k_its_fixed_cost(count, tmp_path, capsys, monkeypatch):
    """A k costs about ``CENSUS_K_CHARGE`` positions' time beyond its
    window, so at N = 2 (five positions) 20,000 ks run and 20,001 are
    refused before any table entry is read.  The 20,000 take about 1.7 s
    on a 2-core x86-64 host, on either kind."""
    truncation = 2
    monkeypatch.setattr(tower, "_line_step", _census_starts)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "residual_truncation": truncation, "params": {"ks": list(range(count))},
    }))
    argv = ("compute", "residual-search", "--config", str(cfg))
    if count == 20_000:
        with pytest.raises(CensusStarted):
            run(tmp_path, *argv)
        return
    code, out = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err == (
        "error: 20001 ks at residual truncation 2 are charged 15 census positions each, "
        "300015 in all, over the budget of 300000: the census would take about 2 s\n"
    )


#: The refusal of a ``max_depth``, which the tower no longer takes: it
#: lists its levels to the first repeat.
NO_DEPTH = ("error: invalid configuration at params: "
            "Additional properties are not allowed ('max_depth' was unexpected)\n")


@pytest.mark.parametrize("depth", ["a", 2.5, True, None])
def test_tower_depth_that_is_not_an_integer_is_refused(depth, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"max_depth": depth}}))
    code, out = run(tmp_path, "compute", "tower", "--config", str(cfg))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == NO_DEPTH


def test_tower_depth_above_the_level_budget_is_refused(tmp_path, capsys, monkeypatch):
    """Any depth is refused by name, before any level is built: 30,001,
    once over the level budget, and 2 and 3, which once printed
    "depth None"."""
    def built(*args):
        raise AssertionError("the tower built its levels")

    monkeypatch.setattr(tower, "_integer_solutions", built)
    for depth in (30_001, 2, 3):
        cfg = tmp_path / f"{depth}.json"
        cfg.write_text(json.dumps({"params": {"max_depth": depth}}))
        code, out = run(tmp_path / str(depth), "compute", "tower", "--config", str(cfg))
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == NO_DEPTH


@pytest.mark.parametrize("ks", [5, ["a"], [1.5], [True], None])
def test_residual_search_ks_that_are_not_integers_are_refused(ks, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"ks": ks}}))
    code, out = run(tmp_path, "compute", "residual-search", "--config", str(cfg))
    assert code == 1 and not out.exists()
    where, value, kind = ("params/ks/0", ks[0], "integer") if isinstance(ks, list) \
        else ("params/ks", ks, "array")
    assert capsys.readouterr().err == (
        f"error: invalid configuration at {where}: {value!r} is not of type '{kind}'\n"
    )


#: Each system's band edge at N = 8: on the product, K_k moves every
#: image out of the u-band once |k| > 2 U_BAND; on the skew, P also moves
#: the label by m, |m| <= N, so the edge is 2 U_BAND + N + 1.
BAND_EDGES = {
    "product": ({"kind": "product", "gamma": {"quadratic": [-1, 1, 2, 1]},
                 "probs": [0.5, 0.5], "symbols": [1, -1]}, 2 * tower.U_BAND + 1),
    "skew": ({"kind": "skew", "gamma": {"quadratic": [-1, 1, 2, 1]}}, 2 * tower.U_BAND + 8 + 1),
}


def test_residual_search_k_far_outside_the_band_is_its_edge(tmp_path):
    """A k past the band edge has the edge's census, however large: no k
    is refused for its size, 2^62 and 10^30 included."""
    for kind, (system, edge) in BAND_EDGES.items():
        far = [edge + 1, 10**12, -(10**12), 2**62 - 1, 2**62, -(2**62), 10**30, -(10**30)]
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({"params": {"system": system, "ks": [edge - 1, edge, *far]}}))
        code, out = run(tmp_path / kind, "compute", "residual-search", "--config", str(cfg))
        assert code == 0
        reports = read_report(out)["results"]["reports"]
        assert [r["k"] for r in reports] == [edge - 1, edge, *far]
        censuses = [(r["cycles"], r["path_lengths"]) for r in reports]
        assert censuses[0] != censuses[1] and censuses[1:] == [censuses[1]] * (1 + len(far)), kind


#: Config shapes and values the parsers refuse, each as (scenario argv,
#: config); each ended in a traceback before the parsers checked them.
MALFORMED = {
    "decimal gamma as a string in systems": (
        ["reproduce-letter"],
        {"systems": [{"kind": "skew", "gamma": {"decimal": "0.4142"}},
                     {"kind": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]}}]},
    ),
    "decimal gamma as a string in params.system": (
        ["compute", "weak-mixing"],
        {"params": {"system": {"kind": "rotation", "gamma": {"decimal": "0.4142"}}}},
    ),
    "list symbols": (
        ["reproduce-kolmogorov"],
        {"systems": [{"kind": "bernoulli", "probs": [0.5, 0.5], "symbols": [[1], [2]]}]},
    ),
    "system as a string": (["compute", "weak-mixing"], {"params": {"system": "skew"}}),
    "bernoulli as a list": (["compute", "entropy"], {"params": {"bernoulli": [0.5, 0.5]}}),
    "A as a string": (["compute", "weak-mixing"], {"params": {"A": "foo"}}),
    "u-interval without ends": (
        ["compute", "weak-mixing"], {"params": {"A": {"kind": "u-interval"}}}
    ),
    "A without a kind": (["compute", "weak-mixing"], {"params": {"A": {"a": "0", "b": "1/2"}}}),
    "u-interval end 1/0": (
        ["compute", "weak-mixing"], {"params": {"A": {"kind": "u-interval", "a": 0, "b": "1/0"}}}
    ),
    "decimal digits 1/0": (
        ["compute", "weak-mixing"],
        {"params": {"system": {"kind": "rotation", "gamma": {"decimal": {"digits": "1/0"}}}}},
    ),
    "cylinder as a number": (
        ["compute", "weak-mixing"],
        {"params": {"system": {"kind": "bernoulli", "probs": [0.5, 0.5]},
                    "A": {"kind": "cylinder", "cylinder": 5}}},
    ),
    "config as a list": (["reproduce-letter"], [1]),
    "config as a string": (["compute", "weak-mixing"], "x"),
    "op and params outside compute": (
        ["theorem1"], {"op": "weak-mixing", "params": {"t": 9, "zzz": 1}}
    ),
    "params outside compute": (["reproduce-letter"], {"params": {"t": 9}}),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_config_shapes_exit_with_an_error(name, tmp_path, capsys):
    argv, config = MALFORMED[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run(tmp_path, *argv, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["theorem1"], {"op": "weak-mixing", "params": {"t": 9, "zzz": 1}}, "op"),
        (["theorem1"], {"params": {"t": 9}}, "params"),
        (["reproduce-letter"], {"params": {"t": 9}}, "params"),
        (["reproduce-kolmogorov"], {"op": "entropy"}, "op"),
    ],
)
def test_op_and_params_outside_compute_are_refused_by_name(argv, config, key, tmp_path, capsys):
    """Only compute reads ``op`` and ``params``; another scenario ran
    with them ignored and echoed them into its report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run(tmp_path, *argv, "--config", str(cfg))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: invalid configuration at {key}: "
        f"{argv[0]} takes no {key!r}; only compute reads it\n"
    )


@pytest.mark.parametrize(
    "system, message",
    [
        ({"kind": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]}, "symbols": [1, 2]},
         "rotation system takes no Bernoulli spec"),
        ({"kind": "bernoulli", "symbols": [1, 2]}, "'probs' is required with 'symbols'"),
    ],
    ids=["rotation", "bernoulli"],
)
def test_symbols_without_probs_name_the_fault(system, message, tmp_path, capsys):
    """A system with symbols but no probs was refused for a law whose
    probs and symbols differ in length; a rotation takes no law at all,
    and a shift's law needs its probs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"system": system}}))
    code, out = run(tmp_path, "compute", "spectrum", "--config", str(cfg))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: invalid configuration at params/system: {message}\n"
    )


#: One misspelt ``params`` key per compute op; each was ignored, and the
#: op ran with its default.
MISSPELT_PARAMS = {
    "tower": "max_dept",
    "residual-search": "k",
    "spectrum": "systems",
    "entropy": "bernouli",
    "weak-mixing": "tt",
}


@pytest.mark.parametrize("op", list(MISSPELT_PARAMS))
def test_params_an_op_does_not_read_are_refused(op, tmp_path, capsys):
    key = MISSPELT_PARAMS[op]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {key: 50}}))
    code, out = run(tmp_path, "compute", op, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err == (
        "error: invalid configuration at params: "
        f"Additional properties are not allowed ({key!r} was unexpected)\n"
    )


@pytest.mark.parametrize("systems", [1, 2])
def test_the_symbol_budget_admits_exactly_its_cap(systems):
    """A run that samples exactly ``MAX_SAMPLED_SYMBOLS`` symbols is
    admitted and one more is refused, checked without sampling."""
    config = replace(default_config("reproduce-kolmogorov"),
                     samples=MAX_SAMPLED_SYMBOLS // (10 * systems), block_length=10)
    cli._check_sampling_cost(config, systems)
    with pytest.raises(ValueError, match="over the budget"):
        cli._check_sampling_cost(replace(config, samples=config.samples + 1), systems)


def test_samples_above_the_symbol_budget_are_refused(tmp_path, capsys):
    samples = MAX_SAMPLED_SYMBOLS // 20 + 1  # the smallest refused at n = 10
    symbols = samples * 10 * 2
    assert symbols > MAX_SAMPLED_SYMBOLS >= (samples - 1) * 10 * 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "reproduce-kolmogorov", "samples": samples}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {samples} samples x block length 10 x 2 systems need {symbols} "
        f"sampled symbols, over the budget of {MAX_SAMPLED_SYMBOLS} symbols: sampling "
        "would take about 1.3 s\n"
    )
    assert not out.exists()


COIN_LAW = {"kind": "bernoulli", "probs": [0.5, 0.5], "symbols": [1, -1]}


def test_a_letter_run_decides_each_spectrum_and_the_groups_once(tmp_path, monkeypatch):
    """A default letter run calls ``spectrum_of`` once per system and
    ``point_spectrum_groups_equal`` twice: the runner's comparison, which
    the intertwiner reads, and the certificate's own sign check."""
    from ergolab import koopman

    calls = {"spectrum_of": 0, "point_spectrum_groups_equal": 0}
    for name in calls:
        original = getattr(koopman, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(koopman, name, counted)
    code, out = run(tmp_path, "reproduce-letter")
    assert code == 0 and read_report(out)["results"]["spectra"]["match"]
    assert calls == {"spectrum_of": 2, "point_spectrum_groups_equal": 2}


def test_each_pair_of_shifts_gets_its_own_intertwiner(tmp_path, monkeypatch):
    """A six-shift run decides each shift's spectrum once and builds and
    checks one intertwiner per pair, from that pair's two descriptors, so
    each of the fifteen pairs reports the evidence computed for it."""
    from ergolab import koopman

    builds, spectra = [], []

    def build(*args):
        builds.append(args)
        return original_build(*args)

    def spectrum(spec):
        spectra.append(original_spectrum(spec))
        return spectra[-1]

    original_build, original_spectrum = koopman.build_intertwiner, koopman.spectrum_of
    monkeypatch.setattr(koopman, "build_intertwiner", build)
    monkeypatch.setattr(koopman, "spectrum_of", spectrum)
    laws = [COIN_LAW, {"kind": "bernoulli", "probs": [0.1, 0.9], "symbols": [0, 1]}] * 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": laws, "samples": 100}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0 and len(spectra) == 6 and len(builds) == 15
    pairs = read_report(out)["results"]["pairs"]
    assert len(pairs) == 15
    indices = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for (a, b, _, (da, db), groups), (i, j), pair in zip(builds, indices, pairs):
        assert (a.label(), b.label()) == (pair["system_a"], pair["system_b"])
        assert da is spectra[i] and db is spectra[j] and groups is None
        assert pair["intertwiner_checked"] > 0 and pair["intertwiner_mismatches"] == 0


def test_long_blocks_are_admitted(tmp_path):
    """The exact block-entropy rate is a closed form, so block length
    10,000 is bounded only by the sampling budget, and the analytic rate
    is the one-step entropy."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 100, "block_length": 10_000}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    for entry in read_report(out)["results"]["entropies"]:
        assert entry["analytic_rate"]["value"] == entry["exact_entropy"]
        assert entry["analytic_rate"]["block_length"] == 10_000


def test_kolmogorov_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "reproduce-kolmogorov",
        "seed": 2,
        "samples": 20_000,
        "block_length": 6,
    }))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    ents = report["results"]["entropies"]
    values = {e["system"]: e for e in ents}
    assert len(values) == 2
    exact = [e["exact_entropy"] for e in ents]
    assert math.log(2) in exact and math.log(4) in exact
    for e in ents:
        assert e["relative_error"] <= 0.01
    with open(out / "entropies.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "system"
    statements = [v["statement"] for v in report["verdicts"]]
    assert any("not spacially isomorphic" in s for s in statements)
    assert any("spectrally isomorphic" in s for s in statements)


def test_kolmogorov_sampled_estimates_are_pinned(tmp_path):
    """The sampled estimates of two non-uniform shifts at 10^5 samples,
    seed 3, as computed when every chunk was drawn into fresh arrays; the
    streamed sampler and scorer reuse their arrays and must not move a bit."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "reproduce-kolmogorov",
        "samples": 100_000,
        "systems": [
            {"kind": "bernoulli", "probs": [0.1, 0.9]},
            {"kind": "bernoulli", "probs": [0.2, 0.3, 0.5], "symbols": [0, 1, 2]},
        ],
    }))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg), "--seed", "3")
    assert code == 0
    sampled = [e["sampled"] for e in read_report(out)["results"]["entropies"]]
    assert [(s["value"], s["stderr"], s["sample_count"]) for s in sampled] == [
        (0.3252543569084804, 0.0006600341267229457, 100_000),
        (1.0293080647236248, 0.0003634608066474201, 100_000),
    ]


def test_kolmogorov_grid_of_coins(tmp_path):
    # a grid of (p, 1-p) shifts: binary entropy is strictly monotone on
    # (0, 1/2], so every system lands on a different value, and the
    # scenario compares all pairs
    grid = [
        {"kind": "bernoulli", "probs": [p / 100, 1 - p / 100], "symbols": [0, 1]}
        for p in range(5, 55, 5)
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": grid, "samples": 10_000}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    exact = [e["exact_entropy"] for e in report["results"]["entropies"]]
    assert len(exact) == 10 and len(set(exact)) == 10
    assert exact == sorted(exact)  # monotone in p on this half-interval
    assert len(report["results"]["pairs"]) == 45


def test_kolmogorov_reads_laws_written_as_fractions(tmp_path):
    """A law may be written as "p/q" strings and is read exactly:
    (1/3)^3 runs, and against (1/2, 1/6, 1/6, 1/6) its entropy is
    unequal; Meshalkin's pair (1/4)^4 and (1/2, 1/8, 1/8, 1/8, 1/8) is
    equal.  The report writes each non-dyadic weight back as "p/q"."""
    laws = [["1/3"] * 3, ["1/2", "1/6", "1/6", "1/6"], ["1/4"] * 4, ["1/2"] + ["1/8"] * 4]
    systems = [{"kind": "bernoulli", "probs": law, "symbols": list(range(len(law)))}
               for law in laws]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": systems, "samples": 1_000, "block_length": 2}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    assert report["results"]["systems"][0]["probs"] == ["1/3"] * 3
    assert report["results"]["systems"][2]["probs"] == [0.25] * 4
    spacial = {(p["system_a"], p["system_b"]): p["classifier"]["spacial"]
               for p in report["results"]["pairs"]}
    assert spacial["bernoulli p=1/3,1/3,1/3", "bernoulli p=0.5,1/6,1/6,1/6"] == \
        "not spacially isomorphic (entropy invariant)"
    assert spacial["bernoulli p=0.25,0.25,0.25,0.25", "bernoulli p=0.5,0.125,0.125,0.125,0.125"] \
        == "spacially isomorphic (Ornstein)"


def test_kolmogorov_estimates_equal_calls_on_spawned_streams(tmp_path):
    """Each system's sampled check draws from its own generator: each
    estimate equals a ``partition_refine_entropy`` call on that system's
    ``spawn_rngs`` stream.  The laws are chosen so that the draws show in
    the estimates (a uniform law scores a constant whatever is drawn)."""
    from ergolab.entropy import PartitionSpec, partition_refine_entropy
    from ergolab.systems import spawn_rngs

    laws = [
        {"kind": "bernoulli", "probs": [0.1, 0.9], "symbols": [0, 1]},
        {"kind": "bernoulli", "probs": [0.3, 0.2, 0.5], "symbols": [0, 1, 2]},
        {"kind": "bernoulli", "probs": [0.25] * 4, "symbols": [0, 1, 2, 3]},
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "systems": laws, "samples": 123_457, "block_length": 7, "seed": 5,
    }))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    specs = [SystemSpec.from_json(law) for law in laws]
    for entry, spec, rng in zip(read_report(out)["results"]["entropies"], specs,
                                spawn_rngs(5, len(laws))):
        serial = partition_refine_entropy(
            spec, PartitionSpec.time_zero(spec.bernoulli), 7, 123_457, rng
        )
        assert entry["sampled"] == serial.to_json()


def test_main_caps_the_openblas_pool_before_numpy_loads(tmp_path, monkeypatch):
    """A fresh CLI run starts numpy with one OpenBLAS thread unless the
    user chose a count, and a run made once numpy is loaded sets nothing."""
    script = (
        "import os, sys\n"
        "from ergolab import cli\n"
        "cli.main(sys.argv[1:])\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    argv = ("reproduce-kolmogorov", "--out", str(tmp_path / "fresh"))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    proc = _fresh_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    proc = _fresh_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    import numpy  # noqa: F401

    before = dict(os.environ)
    code, _ = run(tmp_path, "reproduce-kolmogorov")
    assert code == 0
    assert dict(os.environ) == before


def test_kolmogorov_same_spec_twice(tmp_path):
    spec = {"kind": "bernoulli", "probs": [0.5, 0.5], "symbols": [1, -1]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [spec, spec], "samples": 10_000}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    pair = report["results"]["pairs"][0]
    assert pair["classifier"]["spacial"] == "spacially isomorphic (Ornstein)"


def test_kolmogorov_spectral_verdict_needs_the_certificate(tmp_path, monkeypatch):
    """A shift table whose supports step the wrong way fails the
    intertwiner's certificate, so no pair is called spectrally isomorphic;
    the entropy verdict stands."""
    from ergolab.koopman import KOOPMAN_TABLE

    support = KOOPMAN_TABLE["bernoulli"]["support"]
    monkeypatch.setitem(KOOPMAN_TABLE["bernoulli"], "support", support._replace(b=(-1, 0)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1_000}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    assert [p["intertwiner_mismatches"] for p in report["results"]["pairs"]] == [2]
    assert [v["statement"].split(": ")[1] for v in report["verdicts"]] == [
        "not spacially isomorphic (entropy invariant)"
    ]


def test_kolmogorov_names_laws_that_differ_past_six_digits_apart(tmp_path):
    laws = [{"kind": "bernoulli", "probs": probs}
            for probs in ([0.1234561, 0.8765439], [0.1234564, 0.8765436])]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": laws, "samples": 1_000}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    assert read_report(out)["verdicts"][0]["statement"] == (
        "bernoulli p=0.1234561,0.8765439 vs bernoulli p=0.1234564,0.8765436:"
        " not spacially isomorphic (entropy invariant)"
    )


def test_theorem1_scenario_equal_angles(tmp_path):
    code, out = run(tmp_path, "theorem1", "--seed", "5")
    assert code == 0
    report = read_report(out)
    assert report["seed"] == 5
    assert report["version"] == ergolab.__version__
    statements = [v["statement"] for v in report["verdicts"]]
    assert any("conjugacy" in s or "isomorphic" in s for s in statements)
    assert (out / "comparison.csv").exists()


def test_theorem1_scenario_unequal_angles(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "theorem1",
        "seed": 5,
        "systems": [
            {"kind": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]}},
            {"kind": "rotation", "gamma": {"quadratic": [-2, 2, 2, 1]}},
        ],
    }))
    code, out = run(tmp_path, "theorem1", "--config", str(cfg))
    assert code == 0
    statements = [v["statement"] for v in read_report(out)["verdicts"]]
    assert any("not spectrally isomorphic" in s for s in statements)


def test_theorem1_requires_exact_angles(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "theorem1",
        "seed": 5,
        "systems": [
            {"kind": "rotation", "gamma": {"decimal": {"digits": "0.41421", "bits": 64}}},
            {"kind": "rotation", "gamma": {"decimal": {"digits": "0.58579", "bits": 64}}},
        ],
    }))
    code, _ = run(tmp_path, "theorem1", "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_theorem1_one_angle_written_two_ways_is_the_identity(tmp_path):
    """sqrt(2) - 1 over r = 1 and over r = 2: the exact relation, not
    field equality, picks the conjugacy."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [
        {"kind": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]}},
        {"kind": "rotation", "gamma": {"quadratic": [-2, 2, 2, 2]}},
    ]}))
    code, out = run(tmp_path, "theorem1", "--config", str(cfg))
    assert code == 0
    assert read_report(out)["results"]["conjugacy"]["map"] == "identity"


DECIMAL_HALF = {"decimal": {"digits": "0.5"}}
#: Every run that takes a rotation angle, handed the rational angle 1/2
#: as a decimal: (argv, config).
DECIMAL_ANGLE_RUNS = {
    "reproduce-letter": (["reproduce-letter"], {"systems": [
        {"kind": "skew", "gamma": DECIMAL_HALF},
        {"kind": "product", "gamma": DECIMAL_HALF, "probs": [0.5, 0.5]},
    ]}),
    "theorem1": (["theorem1"], {"systems": [
        {"kind": "rotation", "gamma": DECIMAL_HALF},
        {"kind": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]}},
    ]}),
    "tower": (["compute", "tower"], {"params": {"system": {"kind": "skew", "gamma": DECIMAL_HALF}}}),
    "spectrum": (
        ["compute", "spectrum"], {"params": {"system": {"kind": "rotation", "gamma": DECIMAL_HALF}}}
    ),
    "residual-search": (["compute", "residual-search"], {"params": {"system": {
        "kind": "product", "gamma": DECIMAL_HALF, "probs": [0.5, 0.5]}}}),
    "weak-mixing": (
        ["compute", "weak-mixing"], {"params": {"system": {"kind": "rotation", "gamma": DECIMAL_HALF}}}
    ),
}


@pytest.mark.parametrize("name", list(DECIMAL_ANGLE_RUNS))
def test_decimal_angles_are_refused_by_every_run(name, tmp_path, capsys):
    """A decimal literal is rational, and no run may decide anything
    about it as if it were irrational."""
    argv, config = DECIMAL_ANGLE_RUNS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run(tmp_path, *argv, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 1 and not (out / "report.json").exists()
    assert err.startswith("error:") and "Traceback" not in err


BERNOULLI = {"kind": "bernoulli", "probs": [0.5, 0.5]}
#: Objects with a key their kind or schema does not take: (argv, config,
#: key, the path of the object holding it).
UNKNOWN_KEYS = {
    "misspelt probs in a rotation": (
        ["compute", "weak-mixing"],
        {"params": {"system": {"kind": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]},
                               "symbols": [1, 2], "probz": [0.5]}}},
        "probz", "params/system",
    ),
    "misspelt kind in a system": (
        ["compute", "spectrum"],
        {"params": {"system": {"knd": "rotation", "gamma": {"quadratic": [-1, 1, 2, 1]}}}},
        "knd", "params/system",
    ),
    "decimal beside quadratic": (
        ["compute", "spectrum"],
        {"params": {"system": {"kind": "rotation", "gamma": {
            "quadratic": [-1, 1, 2, 1], "decimal": {"digits": "0.5"}}}}},
        "decimal", "params/system/gamma",
    ),
    "unknown key in a scenario system": (
        ["reproduce-kolmogorov"],
        {"systems": [{"kind": "bernoulli", "probs": [0.5, 0.5], "seed": 3},
                     {"kind": "bernoulli", "probs": [0.25, 0.25, 0.25, 0.25]}]},
        "seed", "systems/0",
    ),
    "misspelt symbols in an entropy law": (
        ["compute", "entropy"],
        {"params": {"bernoulli": {"probs": [0.5, 0.5], "symbolz": [3, 4]}}},
        "symbolz", "params/bernoulli",
    ),
    "c in a u-interval": (
        ["compute", "weak-mixing"],
        {"params": {"A": {"kind": "u-interval", "a": 0, "b": "1/2", "c": 7}}},
        "c", "params/A",
    ),
    "a in a cylinder test set": (
        ["compute", "weak-mixing"],
        {"params": {"system": BERNOULLI, "A": {"kind": "cylinder", "cylinder": [[0, 1]], "a": 0}}},
        "a", "params/A",
    ),
    "cylinder in a u-interval": (
        ["compute", "weak-mixing"],
        {"params": {"system": BERNOULLI,
                    "B": {"kind": "u-interval", "a": 0, "b": "1/2", "cylinder": [[0, 1]]}}},
        "cylinder", "params/B",
    ),
}


@pytest.mark.parametrize("name", list(UNKNOWN_KEYS))
def test_unknown_keys_in_systems_and_angles_are_refused(name, tmp_path, capsys):
    argv, config, key, where = UNKNOWN_KEYS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run(tmp_path, *argv, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith(f"error: invalid configuration at {where}: ") and repr(key) in err
    assert "Traceback" not in err


#: Cylinder entries that are not [position, symbol] pairs: (entry, the
#: path below the cylinder, message).
MALFORMED_CYLINDER_ENTRIES = {
    "one field": ([0], "0", "[0] is too short"),
    "three fields": ([0, 1, 2], "0", "[0, 1, 2] is too long"),
    "a string position": (["a", 1], "0/0", "'a' is not of type 'integer'"),
    "a fractional symbol": ([0, 1.5], "0/1", "1.5 is not of type 'integer', 'string'"),
}


@pytest.mark.parametrize("name", list(MALFORMED_CYLINDER_ENTRIES))
def test_malformed_cylinder_entries_are_refused_with_their_path(name, tmp_path, capsys):
    entry, below, message = MALFORMED_CYLINDER_ENTRIES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"params": {"system": BERNOULLI, "A": {"kind": "cylinder", "cylinder": [entry]}}}
    ))
    code, out = run(tmp_path, "compute", "weak-mixing", "--config", str(cfg))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: invalid configuration at params/A/cylinder/{below}: {message}\n"
    )


@pytest.mark.parametrize("op, key, value", [("residual-search", "ks", [0, 2]),
                                            ("weak-mixing", "t", 50)])
def test_integral_float_params_run_as_integers(op, key, value, tmp_path):
    """An integral float means its integer in params as at the top level."""
    reports = []
    floated = [float(v) for v in value] if isinstance(value, list) else float(value)
    for given in (value, floated):
        cfg = tmp_path / f"{given!r}.json"
        cfg.write_text(json.dumps({"params": {key: given}}))
        code, out = run(tmp_path / repr(given), "compute", op, "--config", str(cfg))
        assert code == 0
        reports.append(read_report(out))
    assert [(r["results"], r["verdicts"]) for r in reports] == [
        (reports[0]["results"], reports[0]["verdicts"])
    ] * 2


def test_radicands_over_the_budget_are_refused_with_the_cost(tmp_path, capsys, monkeypatch):
    """A d of 1,001 digits is refused before any arithmetic on it."""
    d = 10**1000 + 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"params": {"system": {"kind": "rotation", "gamma": {"quadratic": [0, 1, d, 10**501]}}}}
    ))
    monkeypatch.setattr(quadratic, "math", None)
    code, out = run(tmp_path, "compute", "spectrum", "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err == ("error: invalid configuration at params/system: radicand d has 1001 digits, "
                   "over the budget of 1000: weak mixing at the largest t would take about 2 s\n")


#: sqrt(10^12 + 39) - 10^6, whose radicand is over 10^12.
WIDE_ANGLE = [-10**6, 1, 10**12 + 39, 1]


def test_a_radicand_over_a_trillion_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [
        {"kind": "rotation", "gamma": {"quadratic": WIDE_ANGLE}},
        {"kind": "rotation", "gamma": {"quadratic": [10**6 + 1, -1, 10**12 + 39, 1]}},
    ]}))
    code, out = run(tmp_path / "theorem1", "theorem1", "--config", str(cfg))
    assert code == 0
    assert read_report(out)["results"]["conjugacy"]["map"] == "reflection c(u) = -u mod 1"
    cfg.write_text(json.dumps({"params": {"system": {"kind": "skew", "gamma": {"quadratic": WIDE_ANGLE}}}}))
    code, out = run(tmp_path / "weak-mixing", "compute", "weak-mixing", "--config", str(cfg))
    assert code == 0
    assert read_report(out)["results"]["t"] == 10_000


@pytest.mark.parametrize("pair, conjugacy", [
    (([-1, 1, 2, 1], [-2, 1, 8, 2]), "identity"),
    (([-10**6, 1, 10**12 + 39, 1], [2 * 10**6 + 2, -1, 4 * (10**12 + 39), 2]),
     "reflection c(u) = -u mod 1"),
], ids=["sqrt2-sqrt8", "D-4D"])
def test_theorem1_one_field_written_with_two_radicands(pair, conjugacy, tmp_path):
    """sqrt(8)/2 is sqrt(2), and sqrt(4D)/2 is sqrt(D): each pair is one
    angle or its reflection, though no radicand is put in squarefree form."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [
        {"kind": "rotation", "gamma": {"quadratic": gamma}} for gamma in pair
    ]}))
    code, out = run(tmp_path, "theorem1", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    assert report["verdicts"][0]["statement"] == (
        "spacially isomorphic (equal proper-value groups, conjugacy verified)"
    )
    assert report["results"]["conjugacy"]["map"] == conjugacy


# ---------------------------------------------------------------------------
# compute mode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "op", ["tower", "spectrum", "entropy", "weak-mixing", "residual-search"]
)
def test_compute_ops_run_with_defaults(op, tmp_path):
    code, out = run(tmp_path, "compute", op, "--seed", "3")
    assert code == 0
    report = read_report(out)
    assert report["scenario"] == "compute"
    assert report["config"]["op"] == op
    assert report["verdicts"]


def test_compute_unknown_op(tmp_path, capsys):
    code, _ = run(tmp_path, "compute", "frobnicate")
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown op" in err and "entropy" in err


def test_compute_entropy_honors_params(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "compute",
        "seed": 3,
        "op": "entropy",
        "params": {"bernoulli": {"probs": [0.25, 0.25, 0.25, 0.25],
                                 "symbols": [0, 1, 2, 3]}},
    }))
    code, out = run(tmp_path, "compute", "entropy", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    assert report["results"]["entropy_nats"] == math.log(4)


def _weak_mixing_config(tmp_path: Path, t) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "compute", "op": "weak-mixing",
                               "params": {"t": t}}))
    return str(cfg)


@pytest.mark.parametrize("t", ["abc", 2.5, True])
def test_weak_mixing_refuses_a_non_integer_t(t, tmp_path, capsys):
    code, out = run(tmp_path, "compute", "weak-mixing",
                    "--config", _weak_mixing_config(tmp_path, t))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: invalid configuration at params/t: {t!r} is not of type 'integer'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("kind", ["skew", "rotation"])
def test_weak_mixing_refuses_a_cylinder_without_a_sequence(kind, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "compute", "op": "weak-mixing",
        "params": {"system": {"kind": kind, "gamma": {"quadratic": [-1, 1, 2, 1]}},
                   "A": {"kind": "cylinder", "cylinder": [[0, 1]]}, "t": 10},
    }))
    code, out = run(tmp_path, "compute", "weak-mixing", "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: a cylinder test set constrains sequence symbols, which a {kind}" in err
    assert not out.exists()


SQRT2 = {"quadratic": [-1, 1, 2, 1]}


@pytest.mark.parametrize("system, default", [
    ({"kind": "rotation", "gamma": SQRT2}, {"kind": "u-interval", "a": "0", "b": "1/2"}),
    ({"kind": "product", "gamma": SQRT2, "probs": [0.5, 0.5]},
     {"kind": "u-interval", "a": "0", "b": "1/2"}),
    ({"kind": "bernoulli", "probs": [0.25] * 4, "symbols": [3, 1, 2, 0]},
     {"kind": "cylinder", "cylinder": [[0, 3]]}),
])
def test_weak_mixing_default_set_follows_the_map_record(system, default, tmp_path):
    """A kind with a torus part gets half the circle, one without the
    cylinder of its first symbol; a u-interval against a cylinder on the
    product is independent, so its statistic is exactly 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"system": system, "t": 50}}))
    code, out = run(tmp_path, "compute", "weak-mixing", "--config", str(cfg))
    assert code == 0
    results = read_report(out)["results"]
    assert results["A"] == results["B"] == default
    if system["kind"] == "product":
        cfg.write_text(json.dumps({"params": {"system": system, "B": {
            "kind": "cylinder", "cylinder": [[0, 1], [2, -1]]}}}))
        code, out = run(tmp_path, "compute", "weak-mixing", "--config", str(cfg))
        assert code == 0
        assert read_report(out)["results"]["statistic"] == 0.0


def test_weak_mixing_refuses_t_above_the_lag_budget(tmp_path, capsys):
    """The budget is on the digits of t, and the refusal states the cost."""
    t = 10**MAX_WEAK_MIXING_DIGITS
    code, out = run(tmp_path, "compute", "weak-mixing",
                    "--config", _weak_mixing_config(tmp_path, t))
    assert code == 1
    err = capsys.readouterr().err
    assert (f"error: weak-mixing t has {MAX_WEAK_MIXING_DIGITS + 1} digits, over the "
            f"budget of {MAX_WEAK_MIXING_DIGITS}: its floor sums would take about 3 s") in err
    assert not out.exists()


def test_weak_mixing_accepts_a_trillion_lags(tmp_path):
    code, out = run(tmp_path, "compute", "weak-mixing",
                    "--config", _weak_mixing_config(tmp_path, 10**12))
    assert code == 0
    results = read_report(out)["results"]
    assert results["t"] == 10**12
    assert 0.124 < results["statistic"] < 0.126


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------


def test_inconclusive_evidence_exits_two(tmp_path, monkeypatch, capsys):
    def refuses(config):
        raise InconclusiveEvidenceError("between thresholds")

    monkeypatch.setitem(RUNNERS, "theorem1", refuses)
    code, _ = run(tmp_path, "theorem1", "--seed", "1")
    assert code == 2
    assert "inconclusive" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code, _ = run(tmp_path, "theorem1", "--config", str(tmp_path / "absent.json"))
    assert code == 1


def test_reports_are_byte_identical_across_runs(tmp_path):
    code_a, out_a = run(tmp_path / "a", "theorem1", "--seed", "9")
    code_b, out_b = run(tmp_path / "b", "theorem1", "--seed", "9")
    assert code_a == code_b == 0
    for name in ("report.json", "comparison.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


#: sha256 of every file each run writes at ``--seed 0``: each scenario at
#: its default config, ``reproduce-letter`` also at B = 192, N = 16, and
#: each compute op at its default params.  An intentional change of these
#: bytes updates the digests and names the change in CHANGES.md.
OUTPUT_DIGESTS = {
    "reproduce-letter": (["reproduce-letter"], {}, {
        "report.json": "25eab456105794610d56d3bbeb154727d69200bb5b863338ad06e69c5744a800",
        "residuals.csv": "5d603e4c4bef39f40b35aefb752d9aa64e15103f3abee505cb9b93a5054a6ac4",
        "spectrum.json": "fff386cfaa93f1a2d03e01314b7f22d19a67624a723f47473fb73c0593590c33",
        "tower.csv": "031b0b2d9d4d14360edd6c3b0b54c80168766500dc26ed794f00e1346d0b629a",
    }),
    "reproduce-letter B=192, N=16": (
        ["reproduce-letter"], {"truncation": 192, "residual_truncation": 16}, {
            "report.json": "beb082b6057fdad55455e722cbbbbe2b0606c95eb9fe02acfab203d72e680260",
            "residuals.csv": "8574ba10dfc67d968e733dc407cce925dd93313c84425367e17d00fe76b41cb3",
            "spectrum.json": "fff386cfaa93f1a2d03e01314b7f22d19a67624a723f47473fb73c0593590c33",
            "tower.csv": "031b0b2d9d4d14360edd6c3b0b54c80168766500dc26ed794f00e1346d0b629a",
        },
    ),
    "reproduce-kolmogorov": (["reproduce-kolmogorov"], {}, {
        "entropies.csv": "101089e1bc193b45403a45533ffbba7b24808bb2697c91fad8ed918761b79b63",
        "pairs.csv": "431dcdc3da6081e39a81529a6632843e3fb4345fc90aeb556c3c7de1c23dc8da",
        "report.json": "934b1b685cc7366f0b9ffe603f0e078bc5e10fd5e65e44538a7c81abd05dc667",
    }),
    "theorem1": (["theorem1"], {}, {
        "comparison.csv": "445b027afd566733b376323780d9e5dcd1b2cc6ddf6dbe3ac86cbda9b6967edc",
        "report.json": "cd28c00aa2e5c55f3cbc5210e562bf48367f78d1eb56677aa1f4d0b18538d7aa",
    }),
    **{f"compute {op}": (["compute", op], {}, {"report.json": digest}) for op, digest in (
        ("tower", "aedab90d76e3172cb4af8cc88c1521cbc1fa1d77cf3ddb6b87b2b178e7f3c306"),
        ("residual-search", "4ceb2a02b5d4fa04744a15a2218dc1f00a7f9f74e834faa2cd1d674d06f0c512"),
        ("spectrum", "2e14f40c958eb3a2d265bd8c9836eb75877f67eee615c9bdc08d5dec110b0067"),
        ("entropy", "d121ac31a38f60dd089ffaad585a69242e3fd3a16f848815c88085b1e3789067"),
        ("weak-mixing", "b6468fe0ce278ed563af873998424807b37077925146f40dad6bebfd7d84ad4b"),
    )},
}


@pytest.mark.parametrize("name", list(OUTPUT_DIGESTS))
def test_output_bytes_are_pinned(name, tmp_path):
    argv, config, digests = OUTPUT_DIGESTS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run(tmp_path, *argv, "--config", str(cfg), "--seed", "0")
    assert code == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == digests


def test_seed_changes_the_report(tmp_path):
    _, out_a = run(tmp_path / "a", "theorem1", "--seed", "9")
    _, out_b = run(tmp_path / "b", "theorem1", "--seed", "10")
    assert read_report(out_a) != read_report(out_b)


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "theorem1", "seed": 1}))
    code, out = run(tmp_path, "theorem1", "--config", str(cfg), "--seed", "77")
    assert code == 0
    assert read_report(out)["seed"] == 77


@pytest.mark.parametrize(
    "scenario, field, value",
    [("theorem1", "seed", 2.0),
     ("reproduce-letter", "residual_truncation", 8.0),
     ("reproduce-letter", "truncation", 16.0)],
)
def test_integral_floats_run_as_integers(tmp_path, scenario, field, value):
    """The schema admits 2.0 as an integer, so the run must take it as 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "seed": 0, field: value}))
    code, out = run(tmp_path, scenario, "--config", str(cfg), "--format", "json")
    assert code == 0
    echoed = read_report(out)["config"][field]
    assert type(echoed) is int and echoed == value


def test_json_format_skips_csv(tmp_path):
    code, out = run(tmp_path, "theorem1", "--seed", "1", "--format", "json")
    assert code == 0
    assert (out / "report.json").exists()
    assert not (out / "comparison.csv").exists()
