"""``repro-race``: ownership & lifecycle verification for the parallel layer.

Examples::

    repro-race src/
    repro-race src/repro/parallel --json
    repro-race src/ --update-baseline   # park current findings
    repro-race --list-rules

Runs the REPRO3xx concurrency family (:mod:`repro.checks.concurrency`)
— pool-boundary channel audit, fork-inheritance safety, the knob
registry — through the same engine as ``repro-lint``:
inline ``# repro: allow[RULE]`` suppressions, a committed baseline
(``repro-race.baseline.json``) and byte-stable text/JSON reports.

Exit status: 0 when no *new* findings (baselined ones are reported as a
summary line but do not fail), 1 otherwise.

All shared plumbing (baseline handling, ``--select``, exit codes) lives
in :mod:`repro.checks.runner`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.checks.concurrency import concurrency_rules
from repro.checks.runner import add_front_args, run_engine_front

DEFAULT_BASELINE = "repro-race.baseline.json"

REPORT_FORMAT = "repro-race/v1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-race",
        description=(
            "Ownership and lifecycle verifier for the process-parallel "
            "layer: pool-boundary channels, fork-inherited state, "
            "knob registry."
        ),
    )
    return add_front_args(parser, DEFAULT_BASELINE)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_engine_front(
        "repro-race",
        list(concurrency_rules()),
        args,
        report_format=REPORT_FORMAT,
    )


if __name__ == "__main__":
    sys.exit(main())
