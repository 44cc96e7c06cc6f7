#!/usr/bin/env python3
"""Run the full default claim-verification suite and write the artifacts.

Produces out/verdicts.csv, out/verdicts.txt and out/discrepancies.txt, then
prints the per-claim summaries. Exit code 2 signals that at least one
measurement disagrees with a claimed formula (the expected outcome for the
default range, see README)."""

import sys
from pathlib import Path

from srptlab import discrepancy_report, verify_all
from srptlab.reports import emit_report

N_RANGE = range(2, 65)


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "out"
    out_dir.mkdir(exist_ok=True)
    sweep = verify_all(N_RANGE)
    (out_dir / "verdicts.csv").write_bytes(emit_report(sweep, "csv"))
    (out_dir / "verdicts.txt").write_bytes(emit_report(sweep, "text"))
    (out_dir / "discrepancies.txt").write_text(
        discrepancy_report(sweep), encoding="utf-8"
    )
    for report in sweep.reports:
        print(f"{report.theorem_id}: {report.summary}")
    print(f"S5 (no claim): {len(sweep.extra_rows)} measured instances")
    print(f"artifacts in {out_dir}")
    return 2 if sweep.mismatch_rows else 0


if __name__ == "__main__":
    sys.exit(main())
