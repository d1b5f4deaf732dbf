"""Property tests for the dataset reader.

Generated CSV files get one to three injected faults on data lines, laid
out with and without a header, a byte-order mark, CRLF endings and blank
lines; the error must name the first faulty line.  Datasets of extreme,
subnormal and signed-zero floats must survive a write and a read exactly,
through the vectorised read alone.  That read and the line loop must agree
on every file: the same Dataset, bit for bit, or the same error.
"""

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liulogit.io
from liulogit import Dataset, DatasetFormatError, parse_dataset, write_dataset

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])


def _at_random_cell(make):
    """A fault that rewrites one drawn cell of a row with ``make(cell, draw)``."""

    def inject(cells, draw):
        i = draw(st.integers(0, len(cells) - 1))
        return cells[:i] + [make(cells[i], draw)] + cells[i + 1 :]

    return inject


FAULTS = {
    "short": lambda cells, draw: cells[:-1],
    "long": lambda cells, draw: cells + ["0.5"],
    "non-numeric": _at_random_cell(lambda cell, draw: "abc"),
    "non-binary": lambda cells, draw: [draw(st.sampled_from(["2", "0.5", "-1"]))]
    + cells[1:],
    "non-finite": _at_random_cell(lambda cell, draw: draw(NON_FINITE)),
    # a lone surrogate is written back as one byte from 0x80 up: followed
    # by ASCII, such a byte is never UTF-8
    "not-utf8": _at_random_cell(
        lambda cell, draw: cell + chr(draw(st.integers(0xDC80, 0xDCFF)))
    ),
}


@st.composite
def faulty_files(draw):
    """(file bytes, has_header, 1-based line of the first fault)."""
    width = draw(st.integers(2, 4))
    rows = [
        [draw(st.sampled_from(["0", "1", "0.0", "1.0"]))]
        + [repr(draw(FINITE)) for _ in range(width - 1)]
        for _ in range(draw(st.integers(2, 6)))
    ]
    has_header = draw(st.booleans())
    faulty = draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True)
    )
    for i in faulty:
        kinds = sorted(FAULTS)
        if i == 0 and not has_header:
            # the first data row sets the field count, so it cannot break it
            kinds = [kind for kind in kinds if kind not in ("short", "long")]
        rows[i] = FAULTS[draw(st.sampled_from(kinds))](rows[i], draw)

    lines = [",".join(row) for row in rows]
    blanks = st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2)
    text_lines, fault_lines = [], []
    if has_header:
        text_lines.append(",".join(["y"] + [f"x{j}" for j in range(1, width)]))
    for i, line in enumerate(lines):
        # blank lines never come before a header: line 1 is the header
        if text_lines or not has_header:
            text_lines += draw(blanks)
        text_lines.append(line)
        if i in faulty:
            fault_lines.append(len(text_lines))
    text_lines += draw(blanks)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    content = "".join(line + newline for line in text_lines)
    data = content.encode("utf-8", "surrogateescape")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, has_header, min(fault_lines)


@PROPERTY_SETTINGS
@given(faulty_files())
def test_error_names_first_faulty_line(case):
    data, has_header, line = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "faulty.csv"
        path.write_bytes(data)
        try:
            parse_dataset(path, has_header=has_header)
        except DatasetFormatError as exc:
            assert exc.line == line, (str(exc), data)
            assert str(exc).startswith(f"line {line}: "), (str(exc), data)
        else:
            raise AssertionError(f"no error for {data!r}")


EDGE_FLOATS = st.sampled_from(
    [
        1.7976931348623157e308,
        -1.7976931348623157e308,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        -2.225073858507201e-308,
        -0.0,
        0.0,
    ]
)


@st.composite
def datasets(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p, 8))
    cells = st.one_of(EDGE_FLOATS, FINITE)
    X = np.array([[draw(cells) for _ in range(p)] for _ in range(n)], dtype=float)
    y = np.array([draw(st.sampled_from([0.0, 1.0])) for _ in range(n)])
    return Dataset(X=X.reshape(n, p), y=y)


def _line_loop_only():
    return mock.patch.object(liulogit.io, "_fast_table", return_value=None)


def _vectorised_read_only():
    return mock.patch.object(
        liulogit.io, "_checked_table", side_effect=AssertionError("line loop ran")
    )


def assert_same_outcome(got, want, data):
    """The same Dataset bit for bit (-0.0 stays -0.0), or the same error."""
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset), (got, data)
        assert got.X.shape == want.X.shape, data
        assert np.ascontiguousarray(got.X).tobytes() == want.X.tobytes(), data
        assert got.y.tobytes() == want.y.tobytes(), data
    else:
        assert got == want, data


@PROPERTY_SETTINGS
@given(datasets(), st.booleans())
def test_write_then_parse_is_exact(dataset, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        write_dataset(dataset, path, header=header)
        # a clean file never falls back to the line loop
        with _vectorised_read_only():
            parsed = parse_dataset(path, has_header=header)
    assert_same_outcome(parsed, dataset, header)


def _outcome(path, has_header, response_column):
    """parse_dataset's Dataset, or its error as (message, line)."""
    try:
        return parse_dataset(
            path, has_header=has_header, response_column=response_column
        )
    except DatasetFormatError as exc:
        return str(exc), exc.line


# cells that float() reads and np.loadtxt refuses, or that only a strip of
# Unicode whitespace makes numeric
ODD_CELLS = st.sampled_from(
    ["1_000", "\u0661\u0662", "\uff11", "\xa02.5\xa0", " 3 ", "\t-0.0", "1e1_0"]
)


def _in_random_row(change):
    """An oddity that rewrites one drawn row's cells with ``change(cells, draw)``."""

    def inject(header, rows, draw):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = change(rows[i], draw)

    return inject


def _blank_line(header, rows, draw):
    blank = draw(st.sampled_from(["  ", "\t", "\xa0"]))
    rows.insert(draw(st.integers(0, len(rows))), [blank])


def _header_width(header, rows, draw):
    """One name more than the data has columns, or one fewer."""
    if len(header) > 1 and draw(st.booleans()):
        header.pop()
    else:
        header.append("extra")


ODDITIES = {
    "odd-cell": _in_random_row(_at_random_cell(lambda cell, draw: draw(ODD_CELLS))),
    "trailing-comma": _in_random_row(lambda cells, draw: cells + [""]),
    "whitespace-line": _blank_line,
    "header-width": _header_width,
    # a lone surrogate is written back as a byte that is not UTF-8
    "header-not-utf8": lambda header, rows, draw: header.append("x\udce9"),
}


@st.composite
def odd_files(draw):
    """(file bytes, has_header) of clean text with up to two odd corners.

    Clean text is what the vectorised read accepts; each corner is one it
    may refuse, for the line loop to read or report.
    """
    width = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    header = ["y"] + [f"x{j}" for j in range(1, width)]
    # the header is a row too: a blank line may come before it
    rows = [header] if has_header else []
    rows += [
        [draw(st.sampled_from(["0", "1", "0.0", "1.0", "-0"]))]
        + [repr(draw(FINITE)) for _ in range(width - 1)]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for kind in draw(st.lists(st.sampled_from(sorted(ODDITIES)), max_size=2)):
        ODDITIES[kind](header, rows, draw)
    text_lines = [",".join(row) for row in rows]
    # "\r" alone ends a line in text mode, as "\r\n" and "\n" do
    newlines = st.sampled_from(["\n", "\r\n", "\r"])
    content = "".join(line + draw(newlines) for line in text_lines)
    data = content.encode("utf-8", "surrogateescape")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, has_header


@PROPERTY_SETTINGS
@given(
    st.one_of(faulty_files().map(lambda case: case[:2]), odd_files()),
    st.sampled_from([0, 0, 0, 1, 3, -1]),
)
def test_vectorised_read_agrees_with_line_loop(case, response_column):
    data, has_header = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "both.csv"
        path.write_bytes(data)
        got = _outcome(path, has_header, response_column)
        with _line_loop_only():
            want = _outcome(path, has_header, response_column)
    assert_same_outcome(got, want, data)


@pytest.mark.parametrize(
    "text",
    [
        "y,x1\n1,1_000\n0,2\n",
        "y,x1\n1,\u0661\u0662\n0,2\n",
        "y,x1\n1,\uff11\n0,2\n",
        "y,x1\n1,\xa02.5\xa0\n0,2\n",
        "y,x1\n1,0.5\n  \n0,2\n",
        "y,x1\n1,0.5,\n0,2,\n",
        "y,x1\r1,0.5\r0,2\r",
        "\ufeffy,x1\r\n1,0.5\r\n0,2\r\n",
        "y,x1,x2\n1,0.5\n0,2\n",
        "y,x\udce9\n1,0.5\n0,2\n",
        "\ny,x1\n1,0.5\n0,2\n",
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "nbsp", "whitespace-line",
         "trailing-comma", "lone-cr", "bom-crlf", "wide-header", "header-not-utf8",
         "blank-line-1"],
)
def test_vectorised_read_agrees_on_odd_corners(tmp_path, text):
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    got = _outcome(path, True, 0)
    with _line_loop_only():
        want = _outcome(path, True, 0)
    assert_same_outcome(got, want, text)


def test_blank_lines_keep_the_vectorised_read(tmp_path):
    path = tmp_path / "blank.csv"
    text = "\ufeffy,x1\r\n1,0.5\r\n  \r\n\t\r\n0,2\r\n\r\n\xa0\r\n"
    path.write_text(text, encoding="utf-8")
    with _vectorised_read_only():
        parsed = parse_dataset(path, has_header=True)
    want = Dataset(X=np.array([[0.5], [2.0]]), y=np.array([1.0, 0.0]))
    assert_same_outcome(parsed, want, text)


@pytest.mark.parametrize(
    "text, has_header, message",
    [
        ("y,x1\n", True, "no data rows in {path}"),
        ("y,x1\n\n  \n", True, "no data rows in {path}"),
        ("", False, "no data rows in {path}"),
        ("\n \n\t\n", False, "no data rows in {path}"),
        ("1\n0\n1\n", False, "line 1: need at least 2 columns, got 1"),
        ("y\n1\n0\n", True, "line 2: need at least 2 columns, got 1"),
        ("1,0.5,0.2\n", False,
         "1 data rows for 2 covariates: need at least one row per covariate"),
    ],
    ids=["header-only", "header-then-blank", "empty", "blank-only", "one-column",
         "one-column-header", "fewer-rows-than-covariates"],
)
def test_layout_errors_warn_nothing(tmp_path, text, has_header, message):
    path = tmp_path / "layout.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        # np.loadtxt warns on input without rows: that must never reach stderr
        warnings.simplefilter("error")
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path, has_header=has_header)
    assert str(err.value) == message.format(path=path)
