#!/usr/bin/env python3
"""Print the hierarchy parameter table for a base gap bound and report the
feasibility horizon (the last level at which all stepping facts still hold).

At desk-scale m the additive slope correction is gigantic, so the horizon is
typically 1; it grows only for very large m.  The exact exponent-space values
stay meaningful at every level even where floats overflow or underflow.
"""

import argparse
import sys

from gapembed import base_params, level_table
from gapembed.errors import GapembedError
from gapembed.params import report_float


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--levels", type=int, default=8)
    args = ap.parse_args()

    try:
        levels = level_table(base_params(args.m), args.levels)
    except GapembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("level  R            log_Delta    sigma_x        q_tri     q_inv     facts")
    horizon = 0
    for p in levels:
        notes = p.stepping_violations()
        if not notes and horizon == p.level - 1:  # this level and all before it hold
            horizon = p.level
        print(
            f"{p.level:<6d} {report_float(p.R):<12.4f} {report_float(p.log_Delta):<12.4f} "
            f"{p.sigma_x:<14.6g} {p.q_tri:<9.4f} {p.q_inv:<9.4f} "
            f"{'ok' if not notes else ';'.join(notes)}"
        )
    print(f"feasibility horizon: level {horizon}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
