"""Driving the command line: three scenarios, reproducible reports.

Each subcommand writes a JSON report (and CSV tables when asked) into
an output directory.  Reports carry the full resolved configuration, so
a report is re-runnable evidence: same config, same seed, same bytes.

Run:  python demos/05_reports.py
(the reports go to a temporary directory that is removed at the end)
"""

import json
import pathlib
import tempfile

from ergolab.cli import main


def main_demo() -> None:
    # the reports live only as long as the demo runs
    with tempfile.TemporaryDirectory(prefix="ergolab-reports-") as tmp:
        show_reports(pathlib.Path(tmp))


def show_reports(out: pathlib.Path) -> None:
    print(f"writing reports under {out}\n")

    letter_dir = out / "letter"
    rc = main(["reproduce-letter", "--out", str(letter_dir), "--seed", "7"])
    print(f"reproduce-letter exited {rc}")
    report = json.loads((letter_dir / "report.json").read_text())
    results = report["results"]
    print("--- reproduce-letter ---")
    print(f"  spectra match: {results['spectra']['match']} "
          f"(point groups equal: {results['spectra']['point_groups_equal']})")
    print(f"  intertwiner: {results['intertwiner']['mismatches']} mismatches "
          f"of {results['intertwiner']['checked']} identities")
    towers = results["towers"]
    print(f"  towers: gap_a={towers['gap_a']} gap_b={towers['gap_b']} "
          f"-> {towers['verdict']}")
    print("  csv tables:", sorted(p.name for p in letter_dir.glob("*.csv")))
    print()

    kolmo_dir = out / "kolmogorov"
    rc = main(["reproduce-kolmogorov", "--out", str(kolmo_dir), "--seed", "7"])
    print(f"reproduce-kolmogorov exited {rc}")
    report = json.loads((kolmo_dir / "report.json").read_text())
    print("--- reproduce-kolmogorov ---")
    for item in report["results"]["entropies"]:
        print(f"  {item['system']}: exact {item['exact_entropy']:.6f}, "
              f"sampled {item['sampled']['value']:.6f}, "
              f"rel. err {item['relative_error']:.2e}")
    for pair in report["results"]["pairs"]:
        verdicts = pair["classifier"]
        print(f"  {pair['system_a']} vs {pair['system_b']}:")
        print(f"    spacial:  {verdicts['spacial']}")
        print(f"    spectral: {verdicts['spectral']}")
    print()

    thm_dir = out / "theorem1"
    rc = main(["theorem1", "--out", str(thm_dir), "--seed", "7"])
    print(f"theorem1 exited {rc}")
    report = json.loads((thm_dir / "report.json").read_text())
    groups = report["results"]["groups"]
    conj = report["results"]["conjugacy"]
    print("--- theorem1 ---")
    print(f"  {groups['gamma_a']}  vs  {groups['gamma_b']}")
    print(f"  verdict: {groups['verdict']} ({groups['detail']})")
    print(f"  conjugacy: {conj['map']}, from the exact relation {groups['relation']}")
    print()

    # determinism: the same invocation produces byte-identical reports
    rerun = out / "letter-rerun"
    main(["reproduce-letter", "--out", str(rerun), "--seed", "7"])
    same = (rerun / "report.json").read_bytes() == \
        (letter_dir / "report.json").read_bytes()
    print(f"re-run with the same seed is byte-identical: {same}")


if __name__ == "__main__":
    main_demo()
