"""Coplanar analyzer scenarios and two-dimensional Bell-violation region scans.

Three two-parameter analyzer families are supported, one per coordinate
plane; all satisfy a . a' = 0 = b . b' by construction.  A scan evaluates
the exact Bell combination |P(a,b) - P(a,b')| + P(a',b) + P(a',b') on every
grid cell, each correlation being a.T.b over the canonical state's tensor
T = diag(2*c1*c2, 2*c1*c2, -1) (chsh.correlation_closed on component arrays),
and marks strict violations (> 2).
"""
from __future__ import annotations

import enum
import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra import UnitVector3, check_normalized
from .chsh import MeasurementSettings, chsh_combination, correlation_closed

VIOLATION_THRESHOLD = 2.0
# Largest grid_n scan_region accepts.  ``belllab scan`` at this size peaks near
# 415 MB resident, all of it scan_region's (~25 B per cell); the exports stream.
MAX_GRID_N = 4096
# An orientation whose components may be numpy arrays, one entry per grid cell.
_Vector = namedtuple("_Vector", "x y z")


class Plane(enum.Enum):
    """Coordinate plane containing all four analyzer orientations."""

    XZ = "xz"
    XY = "xy"
    YZ = "yz"


def _components(plane: Plane, t1, t2):
    """Orientations (a, b, a', b') of the given plane as _Vector triples.

    Works elementwise on numpy arrays as well as on scalars.  In the xz and
    yz planes the angles are polar angles and the primed vectors are rotated
    by +pi/2; in the xy plane they are azimuths with the same offset.
    """
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    zero1, zero2 = np.zeros_like(c1), np.zeros_like(c2)
    if plane is Plane.XZ:
        a, b = (s1, zero1, c1), (s2, zero2, c2)
        ap, bp = (c1, zero1, -s1), (c2, zero2, -s2)
    elif plane is Plane.XY:
        a, b = (c1, s1, zero1), (c2, s2, zero2)
        ap, bp = (-s1, c1, zero1), (-s2, c2, zero2)
    else:
        a, b = (zero1, s1, c1), (zero2, s2, c2)
        ap, bp = (zero1, c1, -s1), (zero2, c2, -s2)
    return tuple(_Vector(*v) for v in (a, b, ap, bp))


def scenario_settings(plane: Plane, angle1: float, angle2: float) -> MeasurementSettings:
    """Analyzer quadruple of the given coplanar scenario at (angle1, angle2)."""
    vectors = _components(plane, float(angle1), float(angle2))
    return MeasurementSettings(*(UnitVector3(*(float(c) for c in v)) for v in vectors))


def scenario_closed_form(plane: Plane, sign_case: int, angle1, angle2):
    """Single-variable closed form of the Bell combination at 2*c1*c2 = +-1.

    For the xy plane with sign_case +1 this is |cos x - sin x| + cos x - sin x
    at x = angle1 - angle2; the xz and yz planes share their closed forms.
    Accepts scalars or numpy arrays.
    """
    if sign_case not in (-1, 1):
        raise ValueError(f"sign_case must be +-1, got {sign_case}")
    if plane is Plane.XY or sign_case == -1:
        x = np.asarray(angle1) - np.asarray(angle2)
        cs = np.cos(x) - np.sin(x)
        out = np.abs(cs) + sign_case * cs
    else:
        u = np.asarray(angle1) + np.asarray(angle2)
        cs = np.cos(u) + np.sin(u)
        out = np.abs(cs) + cs
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ViolationGrid:
    """Bell values over a uniform angle grid with the violating fraction.

    ``values[i, j]`` is the exact Bell combination at (axis1[i], axis2[j]).
    """

    plane: Plane
    c1: float
    c2: float
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    threshold: float
    violating_fraction: float


def scan_region(plane: Plane, c1: float, c2: float, grid_n: int) -> ViolationGrid:
    """Scan the (angle1, angle2) cell-center grid over [0, 2*pi)^2.

    Marks strict violations (value > 2) and reports their fraction of the
    grid_n x grid_n cells.
    """
    check_normalized(c1, c2)
    if not (2 <= grid_n <= MAX_GRID_N):
        raise ValueError(f"grid_n must be in [2, {MAX_GRID_N}]")
    centers = (np.arange(grid_n) + 0.5) * (2.0 * math.pi / grid_n)
    s = MeasurementSettings(*_components(plane, centers[:, None], centers[None, :]))
    values = chsh_combination((correlation_closed(c1, c2, u, v) for u, v in s.pairs()), "bell")
    fraction = float(np.count_nonzero(values > VIOLATION_THRESHOLD)) / values.size
    return ViolationGrid(
        plane=plane,
        c1=c1,
        c2=c2,
        axis1=centers,
        axis2=centers.copy(),
        values=values,
        threshold=VIOLATION_THRESHOLD,
        violating_fraction=fraction,
    )


def write_grid_csv(grid: ViolationGrid, path) -> None:
    """Row-major CSV: angle1, angle2, bell_lhs, violated; one metadata header line.

    The metadata line ends in LF; the column header and the rows, written one
    grid row at a time, end in CRLF (the csv module's dialect).
    """
    threshold = grid.threshold
    axis2 = [f"{t2:.12g}" for t2 in grid.axis2.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# plane={grid.plane.value} c1={grid.c1:.12g} c2={grid.c2:.12g} "
            f"grid_n={len(grid.axis1)} threshold={threshold:.12g} "
            f"violating_fraction={grid.violating_fraction:.12g}\n"
            "angle1,angle2,bell_lhs,violated\r\n"
        )
        for t1, row in zip(grid.axis1.tolist(), grid.values):
            t1 = f"{t1:.12g}"
            fh.write("".join([f"{t1},{t2},{v:.12g},{1 if v > threshold else 0}\r\n"
                              for t2, v in zip(axis2, row.tolist())]))


def write_grid_json(grid: ViolationGrid, path) -> None:
    """JSON export: axes plus the row-major value matrix and scan metadata.

    Writes the layout of ``json.dump(..., indent=2, sort_keys=True)`` by hand,
    one value row at a time, so no whole-grid list is built.
    """
    def array(values: np.ndarray, indent: int) -> str:
        sep = ",\n" + " " * (indent + 2)
        return f"[{sep[1:]}{sep.join(map(repr, values.tolist()))}\n{' ' * indent}]"

    with open(path, "w") as fh:
        fh.write(
            f'{{\n  "axis1": {array(grid.axis1, 2)},\n  "axis2": {array(grid.axis2, 2)},\n'
            f'  "c1": {json.dumps(grid.c1)},\n  "c2": {json.dumps(grid.c2)},\n'
            f'  "plane": {json.dumps(grid.plane.value)},\n'
            f'  "threshold": {json.dumps(grid.threshold)},\n  "values": ['
        )
        for i, row in enumerate(grid.values):
            fh.write(("," if i else "") + "\n    " + array(row, 4))
        fh.write(f'\n  ],\n  "violating_fraction": {json.dumps(grid.violating_fraction)}\n}}\n')
