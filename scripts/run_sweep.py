#!/usr/bin/env python3
"""Sweep estimated embedding probabilities over (m, L) grids.

Produces the standard CSV on stdout or into --out.  Ranges are `A..B` or a
bare integer, as in `gapembed simulate`.  Typical run:

    python scripts/run_sweep.py --m-range 1..8 --L-range 32..256 --step 32 \
        --trials 2000 --seed 7 --out sweep.csv
"""

import argparse
import sys

from gapembed.cli import _parse_range, _positive_int
from gapembed.errors import GapembedError
from gapembed.experiments import rows_to_csv, sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-range", default="1..8")
    ap.add_argument("--L-range", default="16..256")
    ap.add_argument("--step", type=_positive_int, default=16, help="stride through the L range")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=_positive_int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    try:
        rows = sweep(
            _parse_range(args.m_range),
            _parse_range(args.L_range)[:: args.step],
            args.trials,
            args.seed,
            jobs=args.jobs,
        )
    except GapembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
