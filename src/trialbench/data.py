"""Composite-sample container, CSV loading, and structural validation.

A dataset holds one row per subject from the pooled sample: trial rows
(s == 1) and emulation rows (s == 0) share the covariate layout, a binary
treatment, and a single outcome column. Everything downstream assumes the
composite sample was formed by drawing the two studies separately, so the
trial fraction n1 / n is a design quantity, not an estimate of anything.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NoReturn, Sequence

import numpy as np

from .errors import DomainError, ParseError, SchemaError


@dataclass(frozen=True)
class ColumnSchema:
    """Maps dataset roles to CSV column names."""

    s: str
    a: str
    y: str
    x: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        names = [self.s, self.a, self.y, *self.x]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema maps two roles to the same column: {names}")
        if not self.x:
            raise SchemaError("schema needs at least one covariate column")


@dataclass(frozen=True)
class Dataset:
    """Immutable composite sample.

    Arrays are row-aligned: ``x`` is (n, k) float, ``s`` and ``a`` are (n,)
    integer arrays with values in {0, 1}, ``y`` is (n,) float. Both studies
    must be represented. Instances are safe to share; the arrays are marked
    read-only at construction.
    """

    x: np.ndarray
    s: np.ndarray
    a: np.ndarray
    y: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        s = np.asarray(self.s, dtype=np.int64)
        a = np.asarray(self.a, dtype=np.int64)
        y = np.asarray(self.y, dtype=float)
        names = tuple(str(c) for c in self.covariate_names)
        n, k = x.shape
        if len(names) != k:
            raise DomainError(
                f"{k} covariate columns but {len(names)} covariate names"
            )
        if s.shape != (n,) or a.shape != (n,) or y.shape != (n,):
            raise DomainError("column lengths disagree")
        if n == 0:
            raise DomainError("dataset is empty")
        if not np.all(np.isfinite(x)):
            raise DomainError("covariates contain non-finite values")
        if not np.all(np.isfinite(y)):
            raise DomainError("outcome contains non-finite values")
        for label, col in (("study", s), ("treatment", a)):
            bad = np.flatnonzero((col != 0) & (col != 1))
            if bad.size:
                raise DomainError(
                    f"{label} indicator outside {{0,1}} in row {bad[0] + 1}"
                )
        if not np.any(s == 1):
            raise DomainError("no trial rows (s == 1)")
        if not np.any(s == 0):
            raise DomainError("no emulation rows (s == 0)")
        for arr in (x, s, a, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "covariate_names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def n_trial(self) -> int:
        return int(np.sum(self.s == 1))

    @property
    def n_emulation(self) -> int:
        return int(np.sum(self.s == 0))

    def subset(self, idx: np.ndarray) -> "Dataset":
        """New dataset from a row-index array (order preserved, repeats allowed)."""
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(
            x=self.x[idx],
            s=self.s[idx],
            a=self.a[idx],
            y=self.y[idx],
            covariate_names=self.covariate_names,
        )

    def cells(self, split_outcome: bool) -> "CellTable":
        """The rows grouped into cells (see CellTable), built once per dataset.

        ``split_outcome`` adds the outcome to the cell key (see cell_table).
        """
        cache = self.__dict__.setdefault("_cells", {})
        if split_outcome not in cache:
            keys = [*self.x.T, self.s, self.a] + ([self.y] if split_outcome else [])
            groups = _group_rows(keys, int(self.n * _MAX_CELL_SHARE))
            first, inverse = groups if groups else (slice(None), np.arange(self.n))
            cache[split_outcome] = CellTable(
                x=self.x[first],
                s=self.s[first],
                a=self.a[first],
                covariate_names=self.covariate_names,
                inverse=inverse,
                y_rows=self.y,
            )
        return cache[split_outcome]


# Rows are grouped into cells only when the cells number at most this share
# of the rows; otherwise a fit on the cells saves too little to pay for them.
_MAX_CELL_SHARE = 0.25


def _group_rows(columns: list[np.ndarray], limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(first row of each group, group of each row) over the distinct value
    combinations of ``columns``, or None as soon as they number more than ``limit``.

    Columns are added one at a time, so a column with many distinct values
    ends the search after one ``np.unique`` of that column alone.
    """
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


@dataclass(frozen=True, eq=False)
class CellTable:
    """Rows of a dataset grouped by covariate pattern, study and treatment.

    Cell ``j`` holds the rows ``i`` with ``inverse[i] == j``; they share
    ``x[j]``, ``s[j]`` and ``a[j]`` (and, when the outcome is part of the
    key, their outcome). Per cell the table keeps the total weight of its
    rows (``count``), the weighted sum of their outcomes (``y_sum``), their
    mean (``y_mean``, 0 in a cell of zero weight) and their weighted sum of
    squares about that mean (``y_ss``). When rows take too many distinct
    patterns, every row is a cell of its own.

    Each row weighs 1, unless ``reweight`` gave the table a sequence of
    row-weight vectors, such as the number of times each bootstrap replicate
    drew each row: the four per-cell arrays then gain a leading axis, one
    entry per weight vector.
    """

    x: np.ndarray
    s: np.ndarray
    a: np.ndarray
    covariate_names: tuple[str, ...]
    inverse: np.ndarray
    y_rows: np.ndarray
    row_weights: Sequence[np.ndarray] | None = None
    count: np.ndarray = field(init=False)
    y_sum: np.ndarray = field(init=False)
    y_mean: np.ndarray = field(init=False)
    y_ss: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        m = self.s.shape[0]
        if self.row_weights is None:
            sums = _cell_sums(self.inverse, self.y_rows, np.ones(self.y_rows.size), m)
        else:
            stack = [_cell_sums(self.inverse, self.y_rows, w, m) for w in self.row_weights]
            sums = tuple(np.array(column) for column in zip(*stack))
        for name, value in zip(("count", "y_sum", "y_mean", "y_ss"), sums):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def reweighted(self) -> bool:
        return self.row_weights is not None

    def reweight(self, row_weights: Sequence[np.ndarray]) -> "CellTable":
        """The same cells, once per vector of row frequency weights."""
        return dataclasses.replace(self, row_weights=row_weights)

    def stacked(self) -> "CellTable":
        """The table with a leading axis on its four per-cell arrays: itself
        when reweighted, else the same cells as a stack of one weight vector
        (every row still weighing 1)."""
        if self.reweighted:
            return self
        out = copy.copy(self)
        for name in ("count", "y_sum", "y_mean", "y_ss"):
            object.__setattr__(out, name, getattr(self, name)[None])
        return out

    def rows_of(self, cells: np.ndarray, r: int = 0) -> np.ndarray:
        """Indices of the dataset rows in the given cells that have positive
        weight (in weight vector ``r``, when the table is reweighted)."""
        rows = np.isin(self.inverse, cells)
        if self.reweighted:
            rows &= self.row_weights[r] > 0
        return np.flatnonzero(rows)


def _cell_sums(
    inverse: np.ndarray, y: np.ndarray, w: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """count, y_sum, y_mean and y_ss over ``m`` cells of rows with cells
    ``inverse``, outcomes ``y`` and weights ``w``."""
    count = np.bincount(inverse, weights=w, minlength=m)
    y_sum = np.bincount(inverse, weights=w * y, minlength=m)
    mean = np.divide(y_sum, count, out=np.zeros(m), where=count > 0)
    # Centred on the cell mean, not sum(y^2) - sum(y)^2 / count, which loses
    # digits. Squares that overflow leave y_ss infinite; nuisance.fit_cells
    # rejects the residual variance that takes it in.
    dev = y - mean[inverse]
    with np.errstate(over="ignore"):
        y_ss = np.bincount(inverse, weights=w * dev * dev, minlength=m)
    return count, y_sum, mean, y_ss


def cell_table(d: Dataset | CellTable, outcome_kind: str) -> CellTable:
    """The cells an analysis runs on: a binary outcome is part of the key, as
    its logistic fits need one 0/1 label per cell. A table, such as a
    table reweighted for a chunk of bootstrap replicates, is returned as it is."""
    if isinstance(d, CellTable):
        return d
    return d.cells(outcome_kind == "binary")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "warn" | "fail"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks; ``ok`` means no hard failure."""

    checks: tuple[CheckResult, ...] = field(default_factory=tuple)
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ok", all(c.status != "fail" for c in self.checks))

    @property
    def warnings(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "warn")

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")


def _parse_cell(raw: str, column: str, row_number: int) -> float:
    text = raw.strip()
    if not text:
        raise ParseError(f"row {row_number}: empty value in column {column!r}")
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"row {row_number}: could not parse {raw!r} in column {column!r}"
        ) from None


def _parse_indicator(raw: str, column: str, row_number: int) -> int:
    value = _parse_cell(raw, column, row_number)
    if value not in (0.0, 1.0):
        raise DomainError(
            f"row {row_number}: column {column!r} must be 0 or 1, got {raw.strip()!r}"
        )
    return int(value)


def _locate_error(
    records: list[list[str]], width: int, names: tuple[str, ...], positions: list[int]
) -> NoReturn:
    """Raise the error that a parse of one row at a time meets first.

    Called once the bulk parse has failed, so that the message and row
    number name the first bad record and, within it, the first bad column
    (study, treatment, outcome, then the covariates).
    """
    for row_number, record in enumerate(records, start=1):
        if len(record) != width:
            raise ParseError(f"row {row_number}: expected {width} fields, got {len(record)}")
        for j, (name, position) in enumerate(zip(names, positions)):
            parse = _parse_indicator if j < 2 else _parse_cell
            parse(record[position], name, row_number)
    raise AssertionError("the bulk parse failed on records that parse one by one")


def load_dataset(path: str, schema: ColumnSchema) -> Dataset:
    """Read a headered CSV into a Dataset, preserving file row order.

    Row numbers in error messages count data rows from 1 (the header is
    row 0). Cells must be decimal numerals; categorical covariates have to
    be encoded to numeric columns before loading. A UTF-8 byte-order mark
    is skipped.
    """
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
    # Each column in one pass at C level: float() strips the padding that
    # _parse_cell strips. A record of the wrong width, a non-numeral or an
    # indicator outside {0, 1} sends the parse to _locate_error. (Transposing
    # with zip(*records) would allocate an iterator per record and set off
    # the cyclic garbage collector.)
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
        _locate_error(records, width, names, positions)
    return Dataset(
        x=np.ascontiguousarray(values[3:].T),
        s=values[0].astype(np.int64),
        a=values[1].astype(np.int64),
        y=values[2],
        covariate_names=schema.x,
    )


def save_dataset(d: Dataset, path: str, schema: ColumnSchema | None = None) -> None:
    """Write a Dataset back to CSV. Values round-trip through load_dataset."""
    if schema is None:
        schema = ColumnSchema(s="S", a="A", y="Y", x=d.covariate_names)
    if len(schema.x) != d.k:
        raise SchemaError("schema covariate count does not match dataset")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.s, schema.a, schema.y, *schema.x])
        for i in range(d.n):
            writer.writerow(
                [
                    int(d.s[i]),
                    int(d.a[i]),
                    repr(float(d.y[i])),
                    *[repr(float(v)) for v in d.x[i]],
                ]
            )


def validate(d: Dataset) -> ValidationReport:
    """Structural checks. Pure function of the dataset; does not raise."""
    checks: list[CheckResult] = []

    checks.append(
        CheckResult(
            "shape",
            "pass",
            f"{d.n} rows ({d.n_trial} trial, {d.n_emulation} emulation), "
            f"{d.k} covariates",
        )
    )
    checks.append(
        CheckResult("value_ranges", "pass", "study and treatment are binary, outcome finite")
    )

    empty = [
        (s, a)
        for s in (0, 1)
        for a in (0, 1)
        if not np.any((d.s == s) & (d.a == a))
    ]
    if empty:
        cells = ", ".join(f"(s={s}, a={a})" for s, a in empty)
        checks.append(
            CheckResult("study_by_treatment_cells", "fail", f"empty cells: {cells}")
        )
    else:
        checks.append(
            CheckResult(
                "study_by_treatment_cells", "pass", "all four study-by-treatment cells occupied"
            )
        )

    for s in (0, 1):
        mask = d.s == s
        for j, name in enumerate(d.covariate_names):
            col = d.x[mask, j]
            if col.size and np.all(col == col[0]):
                checks.append(
                    CheckResult(
                        "constant_covariate",
                        "warn",
                        f"covariate {name!r} is constant within study s={s}",
                    )
                )

    if np.all(d.y == d.y[0]):
        checks.append(
            CheckResult("outcome_variation", "warn", "outcome is constant across all rows")
        )

    return ValidationReport(checks=tuple(checks))
