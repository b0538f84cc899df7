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

Numeric cells are parsed as floats. A first row none of whose value cells
is numeric is treated as a header and skipped; a first row with any numeric
value cell is data, so a mistyped cell in it is an error rather than a
dropped row. All writers emit floats at 17 significant digits
(number_cell) so a write/read cycle is lossless, and quote text cells
(quote_cell) as the csv module does.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Sequence

import numpy as np


class ParseError(ValueError):
    """A dataset file could not be parsed; message carries file and line."""


def number_cell(value: float | bool) -> str:
    """value as one CSV cell: 17 significant digits, or true/false for a bool."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{float(value):.17g}"


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
    """True when none of the value cells, cells[start:], is a number."""
    for cell in cells[start:]:
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def _read_table(path: str, start: int, need: str) -> list[tuple[int, list[str], list[float]]]:
    """(line number, cells, floats of the cells from column start on) of each data row.

    A row's line number is that of the file line it ends on, which a quoted
    cell holding a line break pushes past the row count. Blank lines are
    skipped; the first row is a header only when none of its value cells is
    numeric. need names what a one-cell first row lacks.
    A file that is not UTF-8, or a cell past the csv module's field size
    limit, raises ParseError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [
                (reader.line_num, cells)
                for cells in reader
                if cells and any(c.strip() for c in cells)
            ]
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    lineno0, first = rows[0]
    if len(first) < 2:
        raise ParseError(f"{path}:{lineno0}: need {need}")
    if _is_header(first, start):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header only, no data rows")
    width = len(rows[0][1])
    table = []
    for lineno, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} columns, got {len(cells)}"
            )
        table.append((lineno, cells, _parse_row(cells, path, lineno, start)))
    return table


def read_ksample_csv(path: str) -> tuple[list[np.ndarray], list[str]]:
    """Read a multi-sample CSV: group label column, then p value columns.

    Returns (groups, labels) with groups ordered by first appearance; each
    group is an (n_i, p) array. Raises ParseError with a 1-based line
    number on ragged rows or non-numeric cells.
    """
    buckets: dict[str, list[list[float]]] = {}
    for lineno, cells, values in _read_table(path, 1, "a group column plus value columns"):
        label = cells[0].strip()
        if not label:
            raise ParseError(f"{path}:{lineno}: empty group label")
        buckets.setdefault(label, []).append(values)
    return [np.asarray(rows, dtype=float) for rows in buckets.values()], list(buckets)


def write_ksample_csv(
    path: str,
    groups: Sequence[np.ndarray],
    labels: Sequence[str] | None = None,
) -> None:
    """Write groups of raw observations in the multi-sample layout.

    Each group is a vector (one row) or an (n_i, p) array, with at least one
    row and all of one width p >= 1. labels default to "1", "2", ...; given,
    there is one per group, each non-empty, without leading or trailing
    whitespace, and all distinct, as read_ksample_csv strips them. Anything
    else would read back as other data or not at all, so it raises
    ValueError before the file is opened. The file is written as UTF-8, as
    the readers read it.
    """
    arrays = [np.atleast_2d(np.asarray(g, dtype=float)) for g in groups]
    if not arrays:
        raise ValueError("no groups to write")
    labels = [str(i + 1) for i in range(len(arrays))] if labels is None else list(labels)
    if len(labels) != len(arrays):
        raise ValueError(f"{len(labels)} labels for {len(arrays)} groups")
    p = arrays[0].shape[-1]
    for i, arr in enumerate(arrays, start=1):
        if arr.ndim != 2 or arr.size == 0 or arr.shape[1] != p:
            raise ValueError(
                f"group {i} has shape {arr.shape}; groups need at least one row "
                f"and one column, all of one width"
            )
    stripped = [str(label).strip() for label in labels]
    if not all(stripped) or len(set(stripped)) < len(stripped):
        raise ValueError(f"group labels must be non-empty and distinct once stripped: {labels!r}")
    padded = [label for label, bare in zip(labels, stripped) if str(label) != bare]
    if padded:
        raise ValueError(f"group labels would read back stripped of their whitespace: {padded!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + [f"x{j + 1}" for j in range(p)])
        for label, arr in zip(labels, arrays):
            for row in arr:
                writer.writerow([label] + [number_cell(v) for v in row])


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
        table = _read_table(path, 0, "a response column plus covariates")
        values = np.asarray([row for _, _, row in table], dtype=float)
        covariates = values.shape[1] - 1
        if p is None:
            p = covariates
        elif covariates != p:
            raise ParseError(f"{path}: {covariates} covariate columns, other files have {p}")
        # Column slices of the table are strided; copy each to a C-contiguous array.
        designs.append(values[:, 1:].copy())
        responses.append(values[:, 0].copy())
        labels.append(os.path.splitext(os.path.basename(path))[0])
    if len(designs) < 2:
        raise ParseError("regression datasets need at least 2 group files")
    return designs, responses, labels

