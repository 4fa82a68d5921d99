"""Coplanar analyzer scenarios and two-dimensional Bell-violation region scans.

Three two-parameter analyzer families are supported, one per coordinate
plane; all satisfy a . a' = 0 = b . b' by construction.  A scan evaluates
the exact Bell combination |P(a,b) - P(a,b')| + P(a',b) + P(a',b') on every
grid cell, each correlation being a.T.b over the canonical state's tensor
T = diag(2*c1*c2, 2*c1*c2, -1) (chsh.correlation_closed on component arrays),
and marks strict violations (> 2).

The scan computes the column orientations once and fills one preallocated
grid in row blocks of about _BLOCK_CELLS cells, each block evaluated and
counted before the next, so its memory is the grid's 8 B per cell plus one
block of temporaries.  Every step is elementwise, so the values do not depend
on the block shape.

The CSV and JSON writers stream the grid in row blocks and format each
distinct value once per export, so their memory is one row block plus one
string per distinct value.  The distinct values of an n x n cell-centre grid
grow like n, not n*n: under 2 % of the cells at n = 1024.
"""
from __future__ import annotations

import enum
import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra import check_integer, check_normalized
from .chsh import MeasurementSettings, chsh_combination, correlation_closed

VIOLATION_THRESHOLD = 2.0
# Largest grid_n scan_region accepts.  ``belllab scan`` at this size peaks at
# 162 MB resident in either format (median of 7 runs): the 128 MB grid, one row
# block and the interpreter with numpy.  The exports hold one row block plus one
# string per distinct value (see _cell_rows).
MAX_GRID_N = 4096
# scan_region evaluates, and the writers deduplicate, row blocks of about
# _BLOCK_CELLS cells (see _row_blocks).  The writers' cache of formatted values
# (about 150 B each) is dropped once it holds more than _CACHE_LIMIT: scan grids
# stay under it (at most 76k distinct values measured at grid 4096), while an
# all-distinct grid would otherwise cache every cell.
_BLOCK_CELLS = 1 << 13
_CACHE_LIMIT = 1 << 17
# An orientation whose components may be numpy arrays, one entry per grid row or column.
_Vector = namedtuple("_Vector", "x y z")


class Plane(enum.Enum):
    """Coordinate plane containing all four analyzer orientations."""

    XZ = "xz"
    XY = "xy"
    YZ = "yz"


def _axis_vectors(plane: Plane, t):
    """Orientation v(t) and its +pi/2 rotation v'(t) in the given plane, as _Vector triples.

    Works elementwise on numpy arrays.  In the xz and yz planes t is a polar
    angle from z; in the xy plane it is an azimuth from x.
    """
    c, s = np.cos(t), np.sin(t)
    zero = np.zeros_like(c)
    if plane is Plane.XZ:
        return _Vector(s, zero, c), _Vector(c, zero, -s)
    if plane is Plane.XY:
        return _Vector(c, s, zero), _Vector(-s, c, zero)
    return _Vector(zero, s, c), _Vector(zero, c, -s)


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
    violating_fraction: float


def scan_region(plane: Plane | str, c1: float, c2: float, grid_n: int) -> ViolationGrid:
    """Scan the (angle1, angle2) cell-center grid over [0, 2*pi)^2.

    ``plane`` is a Plane or its value ("xy", "xz", "yz"); anything else raises
    ValueError.  Marks strict violations (value > 2) and reports their fraction
    of the grid_n x grid_n cells.
    """
    plane = Plane(plane)
    check_normalized(c1, c2)
    check_integer("grid_n", grid_n)
    if not (2 <= grid_n <= MAX_GRID_N):
        raise ValueError(f"grid_n must be in [2, {MAX_GRID_N}]")
    centers = (np.arange(grid_n) + 0.5) * (2.0 * math.pi / grid_n)
    values = np.empty((grid_n, grid_n))
    violating = 0
    b, b_prime = _axis_vectors(plane, centers[None, :])
    for rows in _row_blocks(values.shape):
        a, a_prime = _axis_vectors(plane, centers[rows, None])
        s = MeasurementSettings(a, b, a_prime, b_prime)
        block = values[rows]
        block[...] = chsh_combination((correlation_closed(c1, c2, u, v) for u, v in s.pairs()), "bell")
        violating += np.count_nonzero(block > VIOLATION_THRESHOLD)
    return ViolationGrid(
        plane=plane,
        c1=c1,
        c2=c2,
        axis1=centers,
        axis2=centers.copy(),
        values=values,
        violating_fraction=float(violating) / values.size,
    )


def _row_blocks(shape):
    """Slices of whole rows, about _BLOCK_CELLS cells each, covering a 2-D ``shape``."""
    n_rows, n_cols = shape
    rows_per_block = max(1, _BLOCK_CELLS // max(1, n_cols))
    return (slice(start, start + rows_per_block) for start in range(0, n_rows, rows_per_block))


def _cell_rows(values: np.ndarray, fmt):
    """Yield each row of ``values`` as a list of ``fmt(v)`` strings.

    A cell-centre scan grid holds few distinct values, so the rows are
    walked in blocks of about _BLOCK_CELLS cells and ``fmt`` runs once per
    distinct value of the export.  The cache is keyed by bit pattern, not by
    float: -0.0 and 0.0 format differently and NaN equals nothing.
    """
    values = np.asarray(values, dtype=np.float64)
    cache: dict[int, str] = {}
    for rows in _row_blocks(values.shape):
        block = np.ascontiguousarray(values[rows])
        keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        if len(cache) > _CACHE_LIMIT:
            cache.clear()
        strings = [cache[k] if k in cache else cache.setdefault(k, fmt(v))
                   for k, v in zip(keys.tolist(), keys.view(np.float64).tolist())]
        yield from np.array(strings, dtype=object)[inverse].reshape(block.shape).tolist()


def _json_number(v: float) -> str:
    """The json module's spelling of a float: repr, or NaN / Infinity / -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def write_grid_csv(grid: ViolationGrid, path) -> None:
    """Row-major CSV: angle1, angle2, bell_lhs, violated; one metadata header line.

    The metadata line ends in LF; the column header and the rows, written one
    grid row at a time, end in CRLF (the csv module's dialect).  Each distinct
    value's ``bell_lhs,violated`` tail is formatted once (see _cell_rows).
    """
    axis2 = [f"{t2:.12g}," for t2 in grid.axis2.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# plane={grid.plane.value} c1={grid.c1:.12g} c2={grid.c2:.12g} "
            f"grid_n={len(grid.axis1)} threshold={VIOLATION_THRESHOLD:.12g} "
            f"violating_fraction={grid.violating_fraction:.12g}\n"
            "angle1,angle2,bell_lhs,violated\r\n"
        )
        # A row is "".join of [angle1, angle2_j, tail_j] repeated: no per-cell string.
        n = len(axis2)
        row = [""] * (3 * n)
        row[1::3] = axis2
        tails = _cell_rows(grid.values,
                           lambda v: f"{v:.12g},{1 if v > VIOLATION_THRESHOLD else 0}\r\n")
        for t1, cells in zip(grid.axis1.tolist(), tails):
            row[0::3] = [f"{t1:.12g},"] * n
            row[2::3] = cells
            fh.write("".join(row))


def write_grid_json(grid: ViolationGrid, path) -> None:
    """JSON export: axes plus the row-major value matrix and scan metadata.

    Writes the layout of ``json.dump(..., indent=2, sort_keys=True)`` by hand,
    one value row at a time, so no whole-grid list is built.  Numbers are the
    json module's (``NaN``, ``Infinity``), each distinct value formatted once
    (see _cell_rows).
    """
    def array(cells, indent: int) -> str:
        sep = ",\n" + " " * (indent + 2)
        return f"[{sep[1:]}{sep.join(cells)}\n{' ' * indent}]"

    with open(path, "w") as fh:
        fh.write(
            f'{{\n  "axis1": {array(map(_json_number, grid.axis1.tolist()), 2)},\n'
            f'  "axis2": {array(map(_json_number, grid.axis2.tolist()), 2)},\n'
            f'  "c1": {json.dumps(grid.c1)},\n  "c2": {json.dumps(grid.c2)},\n'
            f'  "plane": {json.dumps(grid.plane.value)},\n'
            f'  "threshold": {json.dumps(VIOLATION_THRESHOLD)},\n  "values": ['
        )
        for i, cells in enumerate(_cell_rows(grid.values, _json_number)):
            fh.write(("," if i else "") + "\n    " + array(cells, 4))
        fh.write(f'\n  ],\n  "violating_fraction": {json.dumps(grid.violating_fraction)}\n}}\n')
