#!/usr/bin/env python3
"""Write the committed goldens out/verdicts.csv, out/verdicts.txt and
out/verdicts-discrepancies.txt by running `srpt-lab verify-theorems` over the
default range once per table format. Each run writes the discrepancy report
beside its table, so both write out/verdicts-discrepancies.txt, with the same
bytes.

Exits with the larger of the two runs' codes: 2 signals that at least one
measurement disagrees with a claimed formula (the expected outcome for the
default range, see README)."""

import sys
from pathlib import Path

from srptlab.cli import main as srpt_lab

OUT = Path(__file__).resolve().parent.parent / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    codes = [
        srpt_lab(
            [
                "verify-theorems",
                "--format", fmt,
                "--out", str(OUT / f"verdicts.{ext}"),
            ]
        )
        for fmt, ext in (("csv", "csv"), ("text", "txt"))
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
