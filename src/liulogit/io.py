"""Dataset file ingestion and report/table rendering.

CSV dialect: comma-delimited numeric text, '.' decimal separator, optional
single header line.  Study tables render with four decimals for eyeballing;
JSON carries full precision (shortest round-trip floats) and a fixed key
order so identical studies serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError
from .estimators import EstimatorKind
from .model import Dataset
from .simulation import CellResult

__all__ = [
    "parse_dataset",
    "write_dataset",
    "StudyTable",
    "build_study_tables",
    "render_table_text",
    "render_table_delimited",
    "study_to_json",
    "canonical_json",
]


def parse_dataset(path, has_header: bool = False, response_column: int = 0) -> Dataset:
    """Read a comma-delimited numeric file into a Dataset.

    The response column must contain only 0/1 values; remaining columns
    become covariates in file order.  The header, when there is one, sets
    the field count every data line must match; otherwise the first data
    line sets it.  The file is read once.  A clean file is converted in one
    vectorised ``np.loadtxt`` call; anything that call or its checks refuse
    goes through the line loop, which checks each line in order, so a file
    with several faults is reported at the first one in line order: a byte
    that is not UTF-8, a wrong field count, a non-numeric, non-binary or
    non-finite cell.  Each message names that 1-based line; a file that
    cannot be opened or read names the OS reason.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetFormatError(f"no such file: {path}")
    # one read, so a pipe such as <(zcat data.csv.gz) is never reopened;
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            text = handle.read()
    except OSError as exc:
        reason = exc.strerror or exc
        raise DatasetFormatError(f"cannot read dataset file {path}: {reason}") from None
    lines = text.split("\n")
    data = _fast_table(text, lines, has_header, response_column)
    if data is None:
        data = _checked_table(path, lines, has_header, response_column)
    y = data[:, response_column]
    X = np.delete(data, response_column, axis=1)
    return Dataset(X=X, y=y)


def _fast_table(text: str, lines: list, has_header: bool, response_column: int):
    """The data as one (n, p + 1) array, or None for ``_checked_table`` to read.

    It only ever accepts: any doubt, from a surrogate-escaped byte to a
    cell that ``float()`` reads but ``loadtxt`` does not (``1_000``) or a
    failed check, returns None so that every message comes from the line
    loop.
    """
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError:
            return None
    # the line loop skips blank lines, and loadtxt would refuse "  " as a row
    rows = list(filter(str.strip, lines))
    # loadtxt warns on input without rows; the line loop reports it
    if len(rows) <= has_header:
        return None
    try:
        data = np.loadtxt(
            rows, delimiter=",", comments=None, skiprows=int(has_header), ndmin=2
        )
    except ValueError:
        return None
    n, fields = data.shape
    # a blank line 1 is one field, never the two or more the data needs
    if has_header and len(lines[0].split(",")) != fields:
        return None
    if fields < 2 or not (0 <= response_column < fields) or n < fields - 1:
        return None
    response = data[:, response_column]
    if not (np.isfinite(data).all() and ((response == 0.0) | (response == 1.0)).all()):
        return None
    return data


def _checked_table(path: Path, lines: list, has_header: bool, response_column: int):
    """The line loop: the data as an array, or the first fault in line order."""
    rows = []
    expected_fields = None
    for lineno, line in _data_lines(lines):
        fields = line.split(",")
        if expected_fields is None:
            expected_fields = len(fields)
            if has_header and lineno == 1:
                continue
        if len(fields) != expected_fields:
            raise DatasetFormatError(
                f"line {lineno}: expected {expected_fields} fields, "
                f"got {len(fields)}",
                line=lineno,
            )
        if not rows:
            if expected_fields < 2:
                raise DatasetFormatError(
                    f"line {lineno}: need at least 2 columns, got {expected_fields}",
                    line=lineno,
                )
            if not (0 <= response_column < expected_fields):
                raise DatasetFormatError(
                    f"response column {response_column} out of range "
                    f"for {expected_fields} columns",
                    line=lineno,
                )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: non-numeric cell", line=lineno
            ) from None
        response = values[response_column]
        if response not in (0.0, 1.0) and math.isfinite(response):
            raise DatasetFormatError(
                f"line {lineno}: response value {fields[response_column].strip()} "
                "is not 0 or 1",
                line=lineno,
            )
        if not all(map(math.isfinite, values)):
            raise DatasetFormatError(f"line {lineno}: non-finite cell", line=lineno)
        rows.append(values)
    if not rows:
        raise DatasetFormatError(f"no data rows in {path}")
    data = np.asarray(rows, dtype=float)
    n, p = data.shape[0], data.shape[1] - 1
    if n < p:
        raise DatasetFormatError(
            f"{n} data rows for {p} covariates: need at least one row per covariate"
        )
    return data


def _data_lines(lines: list):
    """Yield (1-based line number, stripped text) for each non-blank line.

    ``lines`` is the file's text split on newlines, as ``_fast_table``
    saw it.  A byte that is not UTF-8 was decoded to a lone surrogate
    U+DC80..U+DCFF, which valid UTF-8 never yields, and is reported on its
    line.
    """
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii():
            try:
                raw.encode()
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise DatasetFormatError(
                    f"line {lineno}: byte 0x{byte:02x} is not UTF-8 text",
                    line=lineno,
                ) from None
        line = raw.strip()
        if line:
            yield lineno, line


def write_dataset(dataset: Dataset, path, header: bool = True) -> None:
    """Write a Dataset as CSV with the response in the first column.

    Floats use shortest round-trip rendering, so parse(write(d)) == d.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            names = ["y"] + [f"x{j + 1}" for j in range(dataset.p)]
            handle.write(",".join(names) + "\n")
        for i in range(dataset.n):
            row = [repr(float(dataset.y[i]))]
            row += [repr(float(v)) for v in dataset.X[i]]
            handle.write(",".join(row) + "\n")


@dataclass(frozen=True)
class StudyTable:
    """One reference-style MSE table: rows are estimators, columns (n, rho)."""

    p: int
    columns: tuple
    values: dict

    @property
    def row_order(self) -> tuple:
        return tuple(EstimatorKind)


def build_study_tables(results: list[CellResult]) -> list[StudyTable]:
    """Group cell results by p into fixed-row-order tables."""
    by_p: dict[int, list[CellResult]] = {}
    for result in results:
        by_p.setdefault(result.config.p, []).append(result)
    tables = []
    for p, cells in by_p.items():
        columns = tuple((c.config.n, c.config.rho) for c in cells)
        values = {
            kind: tuple(c.mse[kind] for c in cells) for kind in EstimatorKind
        }
        tables.append(StudyTable(p=p, columns=columns, values=values))
    return tables


def render_table_text(table: StudyTable) -> str:
    """Human-readable table with four decimals."""
    name_width = 6
    cell_width = 12
    lines = [f"Simulated MSE, p = {table.p}"]
    n_row = " " * name_width + "".join(
        f"{n:>{cell_width}}" for n, _ in table.columns
    )
    rho_row = "rho".ljust(name_width) + "".join(
        f"{rho:>{cell_width}}" for _, rho in table.columns
    )
    lines.append(n_row)
    lines.append(rho_row)
    for kind in table.row_order:
        row = kind.display_name.ljust(name_width)
        row += "".join(
            f"{value:>{cell_width}.4f}" for value in table.values[kind]
        )
        lines.append(row)
    return "\n".join(lines) + "\n"


def render_table_delimited(table: StudyTable) -> str:
    """Tab-separated table with full-precision values."""
    header = ["estimator"] + [f"n={n};rho={rho}" for n, rho in table.columns]
    lines = ["\t".join(header)]
    for kind in table.row_order:
        row = [kind.display_name] + [repr(v) for v in table.values[kind]]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def canonical_json(payload) -> str:
    """Deterministic JSON rendering: sorted keys, minimal separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def study_to_json(
    results: list[CellResult],
    master_seed: int,
    version: str,
    failures: list[dict] | None = None,
) -> str:
    """Full-precision study dump with seed and version stamps."""
    payload = {
        "master_seed": master_seed,
        "version": version,
        "cells": [result.to_dict() for result in results],
        "failures": failures or [],
    }
    return canonical_json(payload) + "\n"
