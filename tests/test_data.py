import csv
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbench import data
from trialbench import (
    ColumnSchema,
    Dataset,
    DomainError,
    ParseError,
    SchemaError,
    load_dataset,
    save_dataset,
    validate,
)


def test_roundtrip_is_bit_exact(small_dataset, tmp_path):
    path = tmp_path / "out.csv"
    save_dataset(small_dataset, str(path))
    back = load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))
    assert np.array_equal(back.x, small_dataset.x)
    assert np.array_equal(back.s, small_dataset.s)
    assert np.array_equal(back.a, small_dataset.a)
    assert np.array_equal(back.y, small_dataset.y)
    assert back.covariate_names == small_dataset.covariate_names


def test_loader_respects_column_order_of_schema(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("Y,S,X1,A\n3.5,1,0,1\n1.0,0,1,0\n2.0,1,1,0\n4.0,0,0,1\n")
    d = load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))
    assert d.n == 4
    assert d.y[0] == 3.5 and d.s[0] == 1 and d.a[0] == 1 and d.x[0, 0] == 0.0


def test_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("S,A,Y\n1,1,2.0\n")
    with pytest.raises(SchemaError, match="missing column 'X1'"):
        load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))


def test_duplicate_header_is_schema_error(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("S,A,Y,X1,X1\n1,1,2.0,0,5\n0,1,1.0,1,6\n")
    with pytest.raises(SchemaError, match="duplicate column.*'X1'"):
        load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))


def test_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("S,A,Y,X1\n1,1,2.0,0\n0,1,oops,1\n")
    with pytest.raises(ParseError, match="row 2.*'Y'"):
        load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))


def test_nonbinary_indicator_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("S,A,Y,X1\n1,1,2.0,0\n0,2,1.0,1\n")
    with pytest.raises(DomainError, match="row 2.*'A' must be 0 or 1"):
        load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))


def test_ragged_row_is_parse_error(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("S,A,Y,X1\n1,1,2.0,0\n0,1,1.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))


def test_dataset_requires_both_studies():
    with pytest.raises(DomainError, match="no emulation rows"):
        Dataset(
            x=np.zeros((3, 1)),
            s=np.ones(3, dtype=int),
            a=np.array([0, 1, 0]),
            y=np.zeros(3),
            covariate_names=("X1",),
        )


def test_dataset_arrays_are_read_only(small_dataset):
    with pytest.raises(ValueError):
        small_dataset.y[0] = 99.0


def test_subset_preserves_order_and_allows_repeats(small_dataset):
    idx = np.array([5, 5, 0, 2017])
    sub = small_dataset.subset(idx)
    assert sub.n == 4
    assert sub.y[0] == sub.y[1] == small_dataset.y[5]
    assert sub.y[2] == small_dataset.y[0]
    assert sub.s[3] == 0


def test_validate_passes_clean_data(small_dataset):
    report = validate(small_dataset)
    assert report.ok
    assert not report.failures
    names = [c.name for c in report.checks]
    assert "shape" in names and "study_by_treatment_cells" in names


def test_validate_fails_on_empty_cell():
    # no treated rows in the trial
    x = np.array([[0.0], [1.0], [0.0], [1.0]])
    d = Dataset(
        x=x,
        s=np.array([1, 1, 0, 0]),
        a=np.array([0, 0, 0, 1]),
        y=np.array([1.0, 2.0, 3.0, 4.0]),
        covariate_names=("X1",),
    )
    report = validate(d)
    assert not report.ok
    [failure] = report.failures
    assert failure.name == "study_by_treatment_cells"
    assert "(s=1, a=1)" in failure.message


def test_validate_warns_on_constant_covariate():
    x = np.array([[1.0], [1.0], [0.0], [1.0]])
    d = Dataset(
        x=x,
        s=np.array([1, 1, 0, 0]),
        a=np.array([0, 1, 0, 1]),
        y=np.array([1.0, 2.0, 3.0, 4.0]),
        covariate_names=("X1",),
    )
    report = validate(d)
    assert report.ok
    assert any(c.name == "constant_covariate" for c in report.warnings)


HEADER = "S,A,Y,X1\n"
LAST_ROW = "0,1,1.0,0\n"


@pytest.mark.parametrize(
    "first_row, expected",
    [
        (" 1 , 0 , 2.5 , 1 \n", (1, 0, 2.5, 1.0)),
        ('"1","0","2.5","1"\n', (1, 0, 2.5, 1.0)),
        ("1.0,1.0,2.5,1\n", (1, 1, 2.5, 1.0)),
        ("1,0,1e3,1e3\n", (1, 0, 1000.0, 1000.0)),
        ("1,0,2.5,1\n\n", (ParseError, "row 2: expected 4 fields, got 0")),
        ("1,0,2.5,1,9\n", (ParseError, "row 1: expected 4 fields, got 5")),
        ("1,0,nan,1\n", (DomainError, "outcome contains non-finite values")),
        ("1,0,2.5,inf\n", (DomainError, "covariates contain non-finite values")),
        ("1,0,1e400,1\n", (DomainError, "outcome contains non-finite values")),
    ],
    ids=["padded", "quoted", "indicator-1.0", "exponent", "blank-line", "extra-field",
         "nan", "inf", "overflow"],
)
def test_loader_accepts_numerals_and_rejects_bad_rows(tmp_path, first_row, expected):
    path = tmp_path / "cells.csv"
    path.write_text(HEADER + first_row + LAST_ROW)
    schema = ColumnSchema(s="S", a="A", y="Y", x=("X1",))
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error, match=f"^{message}$"):
            load_dataset(str(path), schema)
        return
    d = load_dataset(str(path), schema)
    s, a, y, x = expected
    assert (d.s[0], d.a[0], d.y[0], d.x[0, 0]) == (s, a, y, x)
    assert (d.s[1], d.a[1], d.y[1], d.x[1, 0]) == (0, 1, 1.0, 0.0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("S,A,Y,X1\n1,0,2.5,1,7,7,7\n\n0,1,1.0,0\n", "row 1: expected 4 fields, got 7"),
        ("S,A,Y,X1,Z\n1,0,2.5,1\n0,1,1.0,0,5,6\n", "row 1: expected 5 fields, got 4"),
    ],
    ids=["blank-line-beside-a-long-row", "short-row-beside-a-long-row"],
)
def test_bad_rows_whose_field_counts_cancel_out_are_refused(tmp_path, text, message):
    # Each pair of rows holds as many delimiters as two good rows.
    path = tmp_path / "cells.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=("X1",)))


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 200))
    k = draw(st.integers(1, 3))
    value = st.floats(allow_nan=False, allow_infinity=False)
    indicator = st.integers(0, 1)
    s = draw(st.lists(indicator, min_size=n, max_size=n))
    s[:2] = [1, 0]  # both studies present
    return Dataset(
        x=np.array(draw(st.lists(value, min_size=n * k, max_size=n * k))).reshape(n, k),
        s=np.array(s),
        a=np.array(draw(st.lists(indicator, min_size=n, max_size=n))),
        y=np.array(draw(st.lists(value, min_size=n, max_size=n))),
        covariate_names=tuple(f"X{j + 1}" for j in range(k)),
    )


@settings(max_examples=25, database=None, deadline=None)
@given(datasets())
def test_save_then_load_gives_the_same_bits(tmp_path_factory, d):
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    save_dataset(d, str(path))
    back = load_dataset(str(path), ColumnSchema(s="S", a="A", y="Y", x=d.covariate_names))
    for name in ("x", "s", "a", "y"):
        ours, theirs = getattr(back, name), getattr(d, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), name


# The grouping and the CSV parse that data._group_rows and data.load_dataset
# replaced, kept as oracles: the new passes must give the same bits.


def group_rows_by_unique(columns, limit):
    """Two np.unique sorts per key column."""
    codes = np.zeros(columns[0].shape[0], dtype=np.int64)
    for col in columns:
        values, col_codes = np.unique(col, return_inverse=True)
        if values.size > limit:
            return None
        _, first, codes = np.unique(
            codes * values.size + col_codes, return_index=True, return_inverse=True
        )
        if first.size > limit:
            return None
    return first, codes


def load_by_records(path, schema):
    """csv.reader records, converted a column at a time by float()."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise SchemaError(f"{path}: duplicate column name(s) {repeated} in header")
        names = (schema.s, schema.a, schema.y, *schema.x)
        for name in names:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
        records = list(reader)
    if not records:
        raise SchemaError(f"{path}: no data rows")
    n, width = len(records), len(header)
    positions = [header.index(name) for name in names]
    values = None
    if set(map(len, records)) == {width}:
        try:
            values = np.array(
                [np.fromiter(map(float, map(itemgetter(p), records)), float, n) for p in positions]
            )
        except ValueError:
            pass
    if values is None or not np.all((values[:2] == 0.0) | (values[:2] == 1.0)):
        for row_number, record in enumerate(records, start=1):
            if len(record) != width:
                raise ParseError(f"row {row_number}: expected {width} fields, got {len(record)}")
            for j, (name, position) in enumerate(zip(names, positions)):
                parse = data._parse_indicator if j < 2 else data._parse_cell
                parse(record[position], name, row_number)
        raise AssertionError("the bulk parse failed on records that parse one by one")
    return Dataset(
        x=np.ascontiguousarray(values[3:].T),
        s=values[0].astype(np.int64),
        a=values[1].astype(np.int64),
        y=values[2],
        covariate_names=schema.x,
    )


POOL = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0, 7.0, 1e15, -1e15, 2.0**53, 1e300, -1e300)


@st.composite
def key_columns(draw):
    """Key columns of integer or float type over few or many values, with
    rows repeated, and a limit that may be hit after any column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    # Rows repeat a few distinct patterns, or all differ.
    patterns = draw(st.sampled_from((1, 2, 5, n)))
    rows = rng.integers(0, patterns, n)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("binary", "pool", "integers", "normal", "indicator")))
        if kind == "binary":
            base = rng.integers(0, 2, patterns).astype(float)
        elif kind == "pool":
            pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=5))
            base = rng.choice(np.array(pool), patterns)
        elif kind == "integers":
            low = draw(st.sampled_from((-(10**6), -3, 0, 2**60)))
            span = draw(st.sampled_from((1, 3, n, 4 * n + 7, 10**9)))
            base = (low + rng.integers(0, span, patterns)).astype(float)
        elif kind == "normal":
            base = rng.normal(size=patterns)
        else:
            base = rng.integers(0, 2, patterns)
        columns.append(base[rows])
    # A limit of n lets columns of many values through, so that their joint
    # key space outgrows a bincount and is ranked by a sort.
    return columns, draw(st.just(n) | st.integers(0, n))


# At 0 keys per row every key space is ranked by a sort, not a bincount.
@pytest.mark.parametrize("keys_per_row", [data._KEYS_PER_ROW, 0])
@settings(max_examples=300, database=None, deadline=None)
@given(case=key_columns())
def test_grouping_gives_the_bits_of_two_sorts_per_column(keys_per_row, case):
    columns, limit = case
    expected = group_rows_by_unique(columns, limit)
    with mock.patch.object(data, "_KEYS_PER_ROW", keys_per_row):
        got = data._group_rows(columns, limit)
    if expected is None:
        assert got is None
        return
    assert got is not None
    for ours, theirs in zip(got, expected):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


def test_a_column_over_the_limit_ends_the_grouping_at_once(monkeypatch):
    seen = []
    codes = data._column_codes

    def counted(col, limit):
        seen.append(col)
        return codes(col, limit)

    monkeypatch.setattr(data, "_column_codes", counted)
    n = 400
    columns = [np.random.default_rng(0).normal(size=n), np.zeros(n), np.ones(n)]
    assert data._group_rows(columns, n // 4) is None
    assert len(seen) == 1


FIELD_TEXTS = (
    "0", "1", "1.0", "2", "-0.0", "0.5", "2.5e3", "1_0", "nan", "inf", "1e400",
    "", " ", "x", "#1", "0x10", "\u0661", "\xa01",
)


@st.composite
def csv_texts(draw):
    """CSV text for S, A, Y and X1, maybe with one more numeric or string
    column, in varied forms: line endings, byte-order mark, padding, quotes,
    blank lines, ragged rows and odd numerals."""
    names = ["S", "A", "Y", "X1"]
    extra = draw(st.sampled_from((None, "number", "string")))
    if extra:
        names.insert(draw(st.integers(0, 4)), "Z")
    odd = draw(st.booleans())  # odd field texts and ragged rows, now and then
    rows = []
    for i in range(draw(st.integers(2, 8))):
        row = []
        for name in names:
            if name in ("S", "A"):
                value = str(i % 2) if name == "S" and i < 2 else draw(st.sampled_from(("0", "1", "1.0")))
            elif name == "Z" and extra == "string":
                value = draw(st.sampled_from(("a", "b c", "a,b", "")))
            else:
                value = repr(draw(st.floats(-1e6, 1e6)))
            if odd and draw(st.integers(0, 15)) == 0:
                value = draw(st.sampled_from(FIELD_TEXTS))
            row.append(value)
        if odd and draw(st.integers(0, 15)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["9"]
        rows.append(row)
    quote = draw(st.sampled_from(("never",) * 4 + ("some", "all")))
    pad = draw(st.sampled_from(("", "", " ", "\t")))

    def field(value, k):
        value = f"{pad}{value}{pad}"
        if quote == "all" or (quote == "some" and k % 2) or "," in value:
            value = f'"{value}"'
        return value

    lines = [",".join(names)] + [",".join(field(v, k) for k, v in enumerate(r)) for r in rows]
    if odd and draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ending = draw(st.sampled_from(("\n", "\n", "\r\n", "\r\n", "\r")))
    tail = draw(st.sampled_from(("", ending, ending, ending * 2)))
    return ("\ufeff" if draw(st.booleans()) else "") + ending.join(lines) + tail


def _outcome(load, path):
    try:
        return load(path, ColumnSchema(s="S", a="A", y="Y", x=("X1",)))
    except (SchemaError, ParseError, DomainError) as exc:
        return exc


@settings(max_examples=400, database=None, deadline=None)
@given(text=csv_texts())
def test_bulk_parse_reads_what_csv_records_read(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parse") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _outcome(load_by_records, str(path))
    got = _outcome(load_dataset, str(path))
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, Dataset), got
    for name in ("x", "s", "a", "y"):
        ours, theirs = getattr(got, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), name
