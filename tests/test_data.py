import numpy as np
import pytest

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
