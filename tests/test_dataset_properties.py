"""Property tests for the dataset reader.

Generated CSV files get one to three injected faults on data lines, laid
out with and without a header, a byte-order mark, CRLF endings and blank
lines; the error must name the first faulty line.  Datasets of extreme,
subnormal and signed-zero floats must survive a write and a read exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


@PROPERTY_SETTINGS
@given(datasets(), st.booleans())
def test_write_then_parse_is_exact(dataset, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        write_dataset(dataset, path, header=header)
        parsed = parse_dataset(path, has_header=header)
    # bytes, not values: -0.0 must come back as -0.0
    assert parsed.X.shape == dataset.X.shape
    assert np.ascontiguousarray(parsed.X).tobytes() == dataset.X.tobytes()
    assert parsed.y.tobytes() == dataset.y.tobytes()
