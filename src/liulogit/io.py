"""Dataset file ingestion and report/table rendering.

CSV dialect: comma-delimited numeric text, '.' decimal separator, optional
single header line.  Study tables render with four decimals for eyeballing;
JSON carries full precision (shortest round-trip floats) and a fixed key
order so identical studies serialize to identical bytes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError
from .model import Dataset
from .simulation import ESTIMATOR_ORDER, CellResult

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


def parse_dataset(
    path,
    has_header: bool = False,
    response_column: int = 0,
    delimiter: str = ",",
) -> Dataset:
    """Read a delimited numeric file into a Dataset.

    The response column must contain only 0/1 values; remaining columns
    become covariates in file order.  Parse failures, including NaN or
    infinite cells, name the 1-based offending line.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"no such file: {path}")
    rows = []
    expected_fields = None
    for lineno, line in _data_lines(path, has_header):
        fields = [f.strip() for f in line.split(delimiter)]
        if expected_fields is None:
            expected_fields = len(fields)
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
        elif len(fields) != expected_fields:
            raise DatasetFormatError(
                f"line {lineno}: expected {expected_fields} fields, "
                f"got {len(fields)}",
                line=lineno,
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: non-numeric cell", line=lineno
            ) from None
        if values[response_column] not in (0.0, 1.0):
            if not math.isfinite(values[response_column]):
                raise _non_finite(lineno)
            raise DatasetFormatError(
                f"line {lineno}: response value {fields[response_column]} "
                "is not 0 or 1",
                line=lineno,
            )
        rows.append(values)
    if not rows:
        raise DatasetFormatError(f"no data rows in {path}")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # rare path: a second pass finds the line of the first bad row
        bad_row = int(np.argmin(finite))
        lineno, _ = next(itertools.islice(_data_lines(path, has_header), bad_row, None))
        raise _non_finite(lineno)
    y = data[:, response_column]
    X = np.delete(data, response_column, axis=1)
    return Dataset(X=X, y=y)


def _data_lines(path: Path, has_header: bool):
    """Yield (1-based line number, stripped text) for each non-blank data line."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if lineno == 1 and has_header:
                continue
            line = raw.strip()
            if line:
                yield lineno, line


def _non_finite(lineno: int) -> DatasetFormatError:
    return DatasetFormatError(f"line {lineno}: non-finite cell", line=lineno)


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
        return ESTIMATOR_ORDER


def build_study_tables(results: list[CellResult]) -> list[StudyTable]:
    """Group cell results by p into fixed-row-order tables."""
    by_p: dict[int, list[CellResult]] = {}
    for result in results:
        by_p.setdefault(result.config.p, []).append(result)
    tables = []
    for p, cells in by_p.items():
        columns = tuple((c.config.n, c.config.rho) for c in cells)
        values = {
            kind: tuple(c.mse[kind] for c in cells) for kind in ESTIMATOR_ORDER
        }
        tables.append(StudyTable(p=p, columns=columns, values=values))
    return tables


def render_table_text(table: StudyTable, decimals: int = 4) -> str:
    """Human-readable table, four decimals by default."""
    name_width = 6
    cell_width = max(12, decimals + 8)
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
            f"{value:>{cell_width}.{decimals}f}" for value in table.values[kind]
        )
        lines.append(row)
    return "\n".join(lines) + "\n"


def render_table_delimited(table: StudyTable, delimiter: str = "\t") -> str:
    """Machine-readable table with full-precision values."""
    header = ["estimator"] + [f"n={n};rho={rho}" for n, rho in table.columns]
    lines = [delimiter.join(header)]
    for kind in table.row_order:
        row = [kind.display_name] + [repr(v) for v in table.values[kind]]
        lines.append(delimiter.join(row))
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
