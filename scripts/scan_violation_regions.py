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


def band_fraction(conc: float) -> float:
    edge = 1.0 / (conc * math.sqrt(2.0))
    return 0.0 if edge >= 1.0 else math.acos(edge) / math.pi


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=512)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("region_scans"))
    parser.add_argument(
        "--concurrences", type=float, nargs="+", default=[1.0, 0.8, 8.0 / 11.0, 0.6]
    )
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'C':>8} {'fraction':>10} {'analytic':>10}  file")
    for conc in args.concurrences:
        grid = scan_region(Plane.XY, *canonical_coefficients(conc), args.grid)
        path = args.out_dir / f"xy_C{conc:.4f}_grid{args.grid}.csv"
        write_grid_csv(grid, path)
        print(f"{conc:8.4f} {grid.violating_fraction:10.6f} {band_fraction(conc):10.6f}  {path}")


if __name__ == "__main__":
    main()
