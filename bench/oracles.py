"""Correctness checks on the program's outputs that do not call the program.

Each ``check_*`` function takes a parsed ``report.json`` and returns a
list of problems; an empty list means the report passed.  The expected
values come from closed forms and from mpmath, never from ergolab.
"""

from __future__ import annotations

import math
from typing import Optional

import mpmath

from workloads import Workload

# The closed-form residual of a free path of n nodes is
# sqrt(2 - 2 cos(pi / (n + 1))).  With the search's u-band of 4, the
# k = +-1 operator splits into paths of 9 nodes (this is also r0) and
# the k = +-2 operator into paths of 5 nodes.
R_PATH_9 = math.sqrt(2.0 - 2.0 * math.cos(math.pi / 10))
R_PATH_5 = math.sqrt(2.0 - 2.0 * math.cos(math.pi / 6))
RESIDUAL_TOL = 1e-9
PROPER_TOL = 1e-6
MIXING_TOL = 1e-9
ENTROPY_FLOOR = 1e-12
ENTROPY_STDERRS = 5.0

LETTER_VERDICTS = ["spectrally isomorphic", "not spacially isomorphic"]
KOLMOGOROV_PAIR = "bernoulli p=0.5,0.5 vs bernoulli p=0.25,0.25,0.25,0.25"
KOLMOGOROV_VERDICTS = [
    f"{KOLMOGOROV_PAIR}: not spacially isomorphic (entropy invariant)",
    f"{KOLMOGOROV_PAIR}: spectrally isomorphic (both Lebesgue systems)",
]
KOLMOGOROV_ENTROPIES = [math.log(2.0), math.log(4.0)]
# The statistic averages to about 1/8 for every angle in the family, far
# above the 0.05 threshold of the "inconsistent" verdict.
MIXING_VERDICTS = ["inconsistent with weak mixing"]


def _statements(report: dict) -> list:
    return [verdict["statement"] for verdict in report["verdicts"]]


def _close(problems: list, what: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, expected {want!r} within {tol:g}")


def check_letter(report: dict) -> list[str]:
    problems: list[str] = []
    if _statements(report) != LETTER_VERDICTS:
        problems.append(f"verdicts {_statements(report)!r} != {LETTER_VERDICTS!r}")
    mismatches = report["results"]["intertwiner"]["mismatches"]
    if mismatches != 0:
        problems.append(f"intertwiner mismatches = {mismatches!r}, expected 0")
    certificate = report["results"]["towers"]["evidence"]["system_b"]["certificate"]
    _close(problems, "r0", certificate["r0"], R_PATH_9, RESIDUAL_TOL)
    residuals = {entry["k"]: entry["residual"] for entry in certificate["reports"]}
    if sorted(residuals) != [-2, -1, 0, 1, 2]:
        problems.append(f"residual search ran for k in {sorted(residuals)}, expected -2..2")
    for k, residual in residuals.items():
        if k == 0:
            if not (isinstance(residual, (int, float)) and residual <= PROPER_TOL):
                problems.append(f"k=0 residual {residual!r} exceeds {PROPER_TOL:g}")
        elif abs(k) in (1, 2):
            want = R_PATH_9 if abs(k) == 1 else R_PATH_5
            _close(problems, f"k={k} residual", residual, want, RESIDUAL_TOL)
    return problems


def check_kolmogorov(report: dict) -> list[str]:
    problems: list[str] = []
    if _statements(report) != KOLMOGOROV_VERDICTS:
        problems.append(f"verdicts {_statements(report)!r} != {KOLMOGOROV_VERDICTS!r}")
    entries = report["results"]["entropies"]
    if len(entries) != len(KOLMOGOROV_ENTROPIES):
        problems.append(f"{len(entries)} entropy entries, expected {len(KOLMOGOROV_ENTROPIES)}")
    for entry, exact in zip(entries, KOLMOGOROV_ENTROPIES):
        sampled = entry["sampled"]
        if sampled is None:
            problems.append(f"{entry['system']}: no sampled entropy")
            continue
        tol = max(ENTROPY_FLOOR, ENTROPY_STDERRS * sampled["stderr"])
        _close(problems, f"{entry['system']} sampled entropy", sampled["value"], exact, tol)
    for pair in report["results"]["pairs"]:
        if pair["intertwiner_mismatches"] != 0:
            problems.append(f"intertwiner mismatches = {pair['intertwiner_mismatches']!r}")
    return problems


def weak_mixing_oracle(angle: tuple[int, int, int, int], t: int) -> float:
    """(1/t) sum_{i<t} |1/4 - min(x_i, 1 - x_i)| with x_i = frac(i gamma):
    the weak-mixing statistic of the skew map for A = B = [0, 1/2) x T,
    evaluated at 40 significant digits."""
    p, q, d, r = angle
    with mpmath.workdps(40):
        gamma = (p + q * mpmath.sqrt(d)) / r
        quarter = mpmath.mpf(1) / 4
        total = mpmath.mpf(0)
        for i in range(t):
            x = mpmath.frac(i * gamma)
            total += abs(quarter - min(x, 1 - x))
        return float(total / t)


def check_mixing(report: dict, expected_statistic: float, t: int) -> list[str]:
    problems: list[str] = []
    if _statements(report) != MIXING_VERDICTS:
        problems.append(f"verdicts {_statements(report)!r} != {MIXING_VERDICTS!r}")
    if report["results"]["t"] != t:
        problems.append(f"t = {report['results']['t']!r}, expected {t}")
    _close(problems, "weak-mixing statistic", report["results"]["statistic"],
           expected_statistic, MIXING_TOL)
    return problems


class Checker:
    """Checks every report of one workload; the mpmath oracle runs once."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._mixing: Optional[float] = None
        if workload.name == "mixing":
            t = workload.config["params"]["t"]
            self._mixing = weak_mixing_oracle(workload.angle, t)

    def __call__(self, report: dict) -> list[str]:
        try:
            if self.workload.name in ("letter", "letter-wide"):
                return check_letter(report)
            if self.workload.name == "kolmogorov":
                return check_kolmogorov(report)
            return check_mixing(report, self._mixing, self.workload.config["params"]["t"])
        except (KeyError, TypeError, IndexError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]


def differing_repeats(reports: list[Optional[bytes]]) -> list[int]:
    """Indices of repeats whose report bytes differ from the first one's.
    A missing report (``None``) never matches."""
    if not reports:
        return []
    first = reports[0]
    return [
        i for i, data in enumerate(reports)
        if data is None or first is None or data != first
    ]
