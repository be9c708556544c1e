"""Set-up probe: import ``ergolab.cli``, then parse one workload's command
line and build and schema-validate its configuration through the CLI's
own code, and exit without running the scenario.

    python3 bench/setup_probe.py SCENARIO... --config CONFIG_JSON --out DIR [--seed N]

The arguments are those the benchmark passes to ``ergolab.cli``.  The
benchmark times this process from start to exit as ``setup_s``.  It
exits with code 3 if ``ergolab`` was imported from anywhere but the
``src`` directory of the checkout this file sits in.
"""

import sys
from pathlib import Path

import ergolab
from ergolab import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    if SRC not in Path(ergolab.__file__).resolve().parents:
        print(f"ergolab was imported from {ergolab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    cli._merged_config(cli._build_parser().parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
