"""CSV ingestion and serialization for raw multi-sample and regression data.

Two dataset layouts are supported. A multi-sample file holds one
observation per row with a leading group label::

    group,x1,x2,x3
    1,0.5,-0.2,1.1
    1,0.7,0.0,0.9
    2,2.1,2.2,1.8

A regression dataset is one file per group, response first::

    y,z1,z2
    1.25,1.0,0.3

Numeric cells are parsed as floats; a first row whose value cells are not
all numeric is treated as a header and skipped. All writers emit floats at
17 significant digits so a write/read cycle is lossless, and quote text
cells (quote_cell) as the csv module does.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Sequence

import numpy as np


class ParseError(ValueError):
    """A dataset file could not be parsed; message carries file and line."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def quote_cell(text: str) -> str:
    """text as one CSV cell, quoted where the csv module's minimal quoting would quote it."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_row(cells: list[str], path: str, lineno: int, start: int) -> list[float]:
    out = []
    for j, cell in enumerate(cells[start:], start=start + 1):
        try:
            out.append(float(cell))
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: column {j} is not numeric: {cell!r}"
            ) from None
    return out


def _is_header(cells: list[str], start: int) -> bool:
    for cell in cells[start:]:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = [
                (lineno, cells)
                for lineno, cells in enumerate(csv.reader(fh), start=1)
                if cells and any(c.strip() for c in cells)
            ]
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    return rows


def read_ksample_csv(path: str) -> tuple[list[np.ndarray], list[str]]:
    """Read a multi-sample CSV: group label column, then p value columns.

    Returns (groups, labels) with groups ordered by first appearance; each
    group is an (n_i, p) array. Raises ParseError with a 1-based line
    number on ragged rows or non-numeric cells.
    """
    rows = _read_rows(path)
    lineno0, first = rows[0]
    if len(first) < 2:
        raise ParseError(f"{path}:{lineno0}: need a group column plus value columns")
    if _is_header(first, 1):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header only, no data rows")
    width = len(rows[0][1])
    buckets: dict[str, list[list[float]]] = {}
    for lineno, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} columns, got {len(cells)}"
            )
        label = cells[0].strip()
        if not label:
            raise ParseError(f"{path}:{lineno}: empty group label")
        buckets.setdefault(label, []).append(_parse_row(cells, path, lineno, 1))
    labels = list(buckets)
    groups = [np.asarray(buckets[lab], dtype=float) for lab in labels]
    return groups, labels


def write_ksample_csv(
    path: str,
    groups: Sequence[np.ndarray],
    labels: Sequence[str] | None = None,
) -> None:
    """Write groups of raw observations in the multi-sample layout."""
    arrays = [np.atleast_2d(np.asarray(g, dtype=float)) for g in groups]
    p = arrays[0].shape[1]
    if labels is None:
        labels = [str(i + 1) for i in range(len(arrays))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + [f"x{j + 1}" for j in range(p)])
        for label, arr in zip(labels, arrays):
            for row in arr:
                writer.writerow([label] + [_fmt(v) for v in row])


def read_regression_csv(
    paths: Sequence[str],
) -> tuple[list[np.ndarray], list[np.ndarray], list[str]]:
    """Read per-group regression files: response column, then p covariates.

    Returns (designs, responses, labels); labels are the file basenames
    without extension. All files must agree on the covariate count.
    """
    designs: list[np.ndarray] = []
    responses: list[np.ndarray] = []
    labels: list[str] = []
    p = None
    for path in paths:
        rows = _read_rows(path)
        lineno0, first = rows[0]
        if len(first) < 2:
            raise ParseError(f"{path}:{lineno0}: need a response column plus covariates")
        if _is_header(first, 0):
            rows = rows[1:]
            if not rows:
                raise ParseError(f"{path}: header only, no data rows")
        width = len(rows[0][1])
        if p is None:
            p = width - 1
        elif width - 1 != p:
            raise ParseError(
                f"{path}: {width - 1} covariate columns, other files have {p}"
            )
        ys = []
        zs = []
        for lineno, cells in rows:
            if len(cells) != width:
                raise ParseError(
                    f"{path}:{lineno}: expected {width} columns, got {len(cells)}"
                )
            vals = _parse_row(cells, path, lineno, 0)
            ys.append(vals[0])
            zs.append(vals[1:])
        designs.append(np.asarray(zs, dtype=float))
        responses.append(np.asarray(ys, dtype=float))
        labels.append(os.path.splitext(os.path.basename(path))[0])
    if len(designs) < 2:
        raise ParseError("regression datasets need at least 2 group files")
    return designs, responses, labels

