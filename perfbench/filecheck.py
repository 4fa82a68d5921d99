"""Read one exported violation grid and report what it holds, as one JSON line.

    python3 filecheck.py PATH csv|json

The benchmark runs this in its own process, so that parsing a large export
does not raise the peak memory of the process being measured.  Reports the
header metadata, the number of grid rows and cells, the number of violating
cells, and any structural problems.
"""
from __future__ import annotations

import json
import math
import sys

CSV_COLUMNS = b"angle1,angle2,bell_lhs,violated"
JSON_KEYS = {"plane", "c1", "c2", "threshold", "violating_fraction", "axis1", "axis2", "values"}


def check_csv(path: str) -> dict:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    problems = []
    head = lines[0].decode() if lines else ""
    if not head.startswith("#"):
        problems.append(f"missing metadata line: {head[:80]!r}")
    metadata = dict(word.split("=", 1) for word in head.lstrip("# ").split() if "=" in word)
    if len(lines) < 2 or lines[1] != CSV_COLUMNS:
        problems.append("missing column header")
    rows = lines[2:]
    if any(row.count(b",") != 3 for row in rows):
        problems.append("row without four fields")
    violated = sum(row.endswith(b",1") for row in rows)
    grid = math.isqrt(len(rows))
    return {"metadata": metadata, "rows": grid if grid * grid == len(rows) else -1,
            "cells": len(rows), "violated": violated, "problems": problems}


def check_json(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    problems = []
    missing = JSON_KEYS - payload.keys()
    if missing:
        problems.append(f"missing keys {sorted(missing)}")
    values = payload.get("values", [])
    n = len(values)
    if len(payload.get("axis1", ())) != n or len(payload.get("axis2", ())) != n:
        problems.append("axis lengths differ from the value rows")
    if any(len(row) != n for row in values):
        problems.append("value matrix is not square")
    threshold = payload.get("threshold", 2.0)
    violated = sum(v > threshold for row in values for v in row)
    metadata = {k: payload[k] for k in ("plane", "c1", "c2", "threshold", "violating_fraction") if k in payload}
    metadata["grid_n"] = n
    return {"metadata": metadata, "rows": n, "cells": sum(len(row) for row in values),
            "violated": violated, "problems": problems}


if __name__ == "__main__":
    path, fmt = sys.argv[1:3]
    print(json.dumps(check_csv(path) if fmt == "csv" else check_json(path)))
