"""Command line: config validation, scenarios, reports, determinism.

Every run goes through ``main(argv)`` in-process, apart from the
import-graph checks: subprocess runs that refuse every import of scipy,
mpmath or numpy, and fresh interpreters that only import the package.
Reports are checked against the bundled JSON schema and for byte-level
reproducibility at a fixed seed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import ergolab
from ergolab import InconclusiveEvidenceError
from ergolab.cli import (
    DEFAULT_SEED,
    MAX_INTERTWINER_PAIRS,
    MAX_SAMPLED_SYMBOLS,
    MAX_WEAK_MIXING_DIGITS,
    ExperimentConfig,
    ExperimentReport,
    RUNNERS,
    default_config,
    main,
)


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
        dataclasses.replace(config, samples=-5)


def test_report_echo_strips_volatile_fields():
    config = default_config("theorem1")
    report = ExperimentReport(
        scenario=config.scenario,
        config=config,
        results={},
        verdicts=[
            {"statement": "x", "provenance": "exact", "evidence": {}},
        ],
        seed=config.seed,
        version=ergolab.__version__,
    )
    echo = report.to_json()["config"]
    assert "out" not in echo and "format" not in echo
    report.validate()
    bad = dataclasses.replace(
        report, verdicts=[{"statement": "x", "provenance": "guesswork", "evidence": {}}]
    )
    with pytest.raises(jsonschema.ValidationError):
        bad.validate()


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
        "system", "k", "truncation", "residual", "grid_residual",
        "delta_re", "delta_im", "r0",
    ]
    assert len(rows) > 1
    with open(out / "tower.csv", newline="") as fh:
        tower_rows = list(csv.reader(fh))
    assert tower_rows[0] == ["system", "depth", "generators"]


# Runs the CLI (arguments from the second on) with a ``sys.meta_path``
# finder that refuses the top-level packages named, comma-separated, in
# the first argument.
REFUSING = """
import sys

REFUSED = set(sys.argv[1].split(","))

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in REFUSED:
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, Refuse())
from ergolab.cli import main
code = main(sys.argv[2:])
assert not any(name.split(".")[0] in REFUSED for name in sys.modules)
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
    """scipy is a test dependency only: with every scipy import refused,
    reproduce-letter exits 0 and writes the same report bytes."""
    _assert_same_bytes_without(tmp_path, "scipy", "reproduce-letter", "--seed", "1")


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
    with numpy and mpmath refused it exits 0 with the same report bytes."""
    _assert_same_bytes_without(tmp_path, "numpy,mpmath", "compute", "weak-mixing",
                               "--config", _bench_mixing_config(tmp_path))


@pytest.mark.parametrize(
    "scenario", ["reproduce-letter", "reproduce-kolmogorov", "theorem1", "weak-mixing"]
)
def test_scenarios_run_without_mpmath(scenario, tmp_path):
    """mpmath is no runtime dependency of any scenario."""
    if scenario == "weak-mixing":
        argv = ("compute", "weak-mixing", "--config", _bench_mixing_config(tmp_path))
    else:
        argv = (scenario, "--seed", "1")
    _assert_same_bytes_without(tmp_path, "mpmath", *argv)


def test_importing_the_package_loads_no_toolkit():
    """``import ergolab`` and ``import ergolab.cli`` load neither numpy nor
    mpmath, nor the koopman, tower and entropy toolkits."""
    heavy = ("numpy", "mpmath", "ergolab.koopman", "ergolab.tower", "ergolab.entropy")
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


def test_letter_mismatched_angles_fail_cleanly(tmp_path, capsys):
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
    code, _ = run(tmp_path, "reproduce-letter", "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["reproduce-letter", "reproduce-kolmogorov"])
def test_truncation_above_the_pair_budget_is_refused(scenario, tmp_path, capsys):
    truncation = 1581  # the smallest refused: (2B+1)^2 = 10,004,569 pairs
    pairs = (2 * truncation + 1) ** 2
    assert pairs > MAX_INTERTWINER_PAIRS > (2 * truncation - 1) ** 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "truncation": truncation}))
    code, out = run(tmp_path, scenario, "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: truncation {truncation} needs {pairs} intertwiner pairs" in err
    assert not out.exists()


def test_samples_above_the_symbol_budget_are_refused(tmp_path, capsys):
    samples = MAX_SAMPLED_SYMBOLS // 20 + 1  # the smallest refused at n = 10
    symbols = samples * 10 * 2
    assert symbols > MAX_SAMPLED_SYMBOLS >= (samples - 1) * 10 * 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "reproduce-kolmogorov", "samples": samples}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert (
        f"error: {samples} samples x block length 10 x 2 systems need {symbols} "
        f"sampled symbols" in err
    )
    assert not out.exists()


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


def test_kolmogorov_same_spec_twice(tmp_path):
    spec = {"kind": "bernoulli", "probs": [0.5, 0.5], "symbols": [1, -1]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [spec, spec], "samples": 10_000}))
    code, out = run(tmp_path, "reproduce-kolmogorov", "--config", str(cfg))
    assert code == 0
    report = read_report(out)
    pair = report["results"]["pairs"][0]
    assert pair["classifier"]["spacial"] == "spacially isomorphic (Ornstein)"


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
    assert "error: weak-mixing t must be an integer" in capsys.readouterr().err
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


def test_json_format_skips_csv(tmp_path):
    code, out = run(tmp_path, "theorem1", "--seed", "1", "--format", "json")
    assert code == 0
    assert (out / "report.json").exists()
    assert not (out / "comparison.csv").exists()
