"""The benchmark's workloads and the inputs each one generates from a seed.

The program receives only the generated inputs: for ``letter``,
``letter-wide`` and ``mixing`` the seed picks the rotation angle from
``ANGLES``; for ``kolmogorov`` it is passed on as the CLI's ``--seed``.
Why each workload is here is written down in ``README.md`` beside this
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Quadratic irrationals (p + q*sqrt(d)) / r.  Each one reaches both letter
# verdicts with the same calibration residual r0 = 0.3128689300804.
ANGLES = (
    (-1, 1, 2, 1),  # sqrt(2) - 1, the CLI default
    (-1, 1, 5, 2),  # (sqrt(5) - 1) / 2
    (-1, 1, 3, 1),  # sqrt(3) - 1
    (2, -1, 2, 1),  # 2 - sqrt(2)
    (-2, 1, 7, 1),  # sqrt(7) - 2
    (-3, 1, 13, 2),  # (sqrt(13) - 3) / 2
    (3, -1, 5, 2),  # (3 - sqrt(5)) / 2
    (-3, 1, 10, 1),  # sqrt(10) - 3
    (-2, 1, 6, 1),  # sqrt(6) - 2
)

MIXING_LAGS = 10_000
FAIR_COIN = {"probs": [0.5, 0.5], "symbols": [1, -1]}
NAMES = ("letter", "letter-wide", "kolmogorov", "mixing")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: ``ergolab <scenario...> --config <file> [--seed n]``."""

    name: str
    seed: int
    scenario: tuple[str, ...]
    config: dict
    angle: Optional[tuple[int, int, int, int]] = None
    cli_seed: Optional[int] = None

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        args = [*self.scenario, "--config", config_path, "--out", out_dir]
        if self.cli_seed is not None:
            args += ["--seed", str(self.cli_seed)]
        return args


def angle_for(seed: int) -> tuple[int, int, int, int]:
    return ANGLES[seed % len(ANGLES)]


def _letter_config(angle) -> dict:
    gamma = {"quadratic": list(angle)}
    return {
        "systems": [
            {"kind": "skew", "gamma": gamma},
            {"kind": "product", "gamma": gamma, **FAIR_COIN},
        ]
    }


def make(name: str, seed: int) -> Workload:
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    if name == "letter":
        angle = angle_for(seed)
        return Workload(name, seed, ("reproduce-letter",), _letter_config(angle), angle)
    if name == "letter-wide":
        angle = angle_for(seed)
        config = {**_letter_config(angle), "truncation": 192, "residual_truncation": 16}
        return Workload(name, seed, ("reproduce-letter",), config, angle)
    if name == "kolmogorov":
        return Workload(name, seed, ("reproduce-kolmogorov",), {}, cli_seed=seed)
    if name == "mixing":
        angle = angle_for(seed)
        config = {
            "op": "weak-mixing",
            "params": {
                "system": {"kind": "skew", "gamma": {"quadratic": list(angle)}},
                "A": {"kind": "u-interval", "a": "0", "b": "1/2"},
                "t": MIXING_LAGS,
            },
        }
        return Workload(name, seed, ("compute", "weak-mixing"), config, angle)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
