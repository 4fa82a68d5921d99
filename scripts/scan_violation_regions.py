#!/usr/bin/env python3
"""Export the xy-plane Bell-violation regions for a ladder of entanglement degrees.

Writes one CSV per concurrence value (columns angle1, angle2, bell_lhs,
violated) that external plotting tools can render as the usual black-region
figures, and prints the violating fraction next to the analytic band measure.
"""
import argparse
import math
import pathlib

from belllab import Plane, canonical_coefficients, scan_region, write_grid_csv
from belllab.regions import MAX_GRID_N


def band_fraction(conc: float) -> float:
    scaled = conc * math.sqrt(2.0)  # no band for C*sqrt(2) <= 1, the separable C = 0 included
    return 0.0 if scaled <= 1.0 else math.acos(1.0 / scaled) / math.pi


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=512)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("region_scans"))
    parser.add_argument(
        "--concurrences", type=float, nargs="+", default=[1.0, 0.8, 8.0 / 11.0, 0.6]
    )
    args = parser.parse_args()
    # Checked before any file is written, and reported like belllab's usage errors (exit 2).
    try:
        coefficients = [canonical_coefficients(conc) for conc in args.concurrences]
    except ValueError as exc:
        parser.error(str(exc))
    if not 2 <= args.grid <= MAX_GRID_N:
        parser.error(f"--grid must be in [2, {MAX_GRID_N}], got {args.grid}")
    paths = [args.out_dir / f"xy_C{conc:.4f}_grid{args.grid}.csv" for conc in args.concurrences]
    shared = sorted({str(path) for path in paths if paths.count(path) > 1})
    if shared:
        parser.error(f"concurrences that agree to 4 decimals would share a file: {', '.join(shared)}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'C':>8} {'fraction':>10} {'analytic':>10}  file")
    for conc, (c1, c2), path in zip(args.concurrences, coefficients, paths):
        grid = scan_region(Plane.XY, c1, c2, args.grid)
        write_grid_csv(grid, path)
        print(f"{conc:8.4f} {grid.violating_fraction:10.6f} {band_fraction(conc):10.6f}  {path}")


if __name__ == "__main__":
    main()
