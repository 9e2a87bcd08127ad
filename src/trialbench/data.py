"""Composite-sample container, CSV loading, and structural validation.

A dataset holds one row per subject from the pooled sample: trial rows
(s == 1) and emulation rows (s == 0) share the covariate layout, a binary
treatment, and a single outcome column. Everything downstream assumes the
composite sample was formed by drawing the two studies separately, so the
trial fraction n1 / n is a design quantity, not an estimate of anything.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, DomainError, ParseError, SchemaError, require_member

OUTCOME_KINDS = ("continuous", "binary")


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
            s = self.s[first]
            count, y_sum, y_ss = (sums[None] for sums in _cell_sums(inverse, self.y, s.size))
            cache[split_outcome] = CellTable(
                x=self.x[first],
                s=s,
                a=self.a[first],
                covariate_names=self.covariate_names,
                inverse=inverse,
                y_rows=self.y,
                count=count,
                y_sum=y_sum,
                y_ss=y_ss,
            )
        return cache[split_outcome]


# Rows are grouped into cells only when the cells number at most this share
# of the rows; otherwise a fit on the cells saves too little to pay for them.
_MAX_CELL_SHARE = 0.25

# A key is counted by np.bincount while it takes at most this many values
# per row; a larger key space is ranked by a sort.
_KEYS_PER_ROW = 4


def _group_rows(columns: list[np.ndarray], limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(first row of each group, group of each row) over the distinct value
    combinations of ``columns``, or None when they number more than ``limit``.

    Groups are numbered in the lexicographic order of their values. Each
    column is coded once (see _column_codes), and a column with more than
    ``limit`` distinct values ends the search at once. The codes are joined
    into one mixed-radix key, ranked whenever its key space would outgrow
    ``_KEYS_PER_ROW`` values per row, and once at the end. A ranked key
    and a column each take at most ``limit`` values, so the key stays
    below limit**2, inside int64 for any table that fits in memory.
    """
    n = columns[0].shape[0]
    key, size = np.zeros(n, dtype=np.int64), 1
    for col in columns:
        coded = _column_codes(col, limit)
        if coded is None:
            return None
        codes, radix = coded
        if size * radix > _KEYS_PER_ROW * n:
            key, size = _rank(key, size)
            if size > limit:
                return None
        key, size = key * radix + codes, size * radix
    key, size = _rank(key, size)
    if size > limit:
        return None
    first = np.full(size, n, dtype=np.int64)
    np.minimum.at(first, key, np.arange(n))
    return first, key


def _column_codes(col: np.ndarray, limit: int) -> tuple[np.ndarray, int] | None:
    """Codes that order the values of ``col`` as the values order, and the
    number of codes, or None when ``col`` has more than ``limit`` distinct values.

    Integers spanning fewer than ``limit`` values are coded ``col - min``
    (exact: every difference is an integer below 2**53); any other column
    by the rank of each value among its distinct values, from one sort.
    """
    low, high = col.min(), col.max()
    if high - low < limit and (col.dtype.kind in "iu" or np.array_equal(col, np.trunc(col))):
        return (col - low).astype(np.int64), int(high - low) + 1
    ordered = np.sort(col)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if values.size > limit:
        return None
    return np.searchsorted(values, col), values.size


def _rank(key: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Each key's rank among the distinct keys of ``key`` (all below
    ``size``), and the number of distinct keys."""
    if size > _KEYS_PER_ROW * key.size:
        values, rank = np.unique(key, return_inverse=True)
        return rank, values.size
    rank = np.cumsum(np.bincount(key, minlength=size) > 0) - 1
    return rank[key], int(rank[-1]) + 1


@dataclass(frozen=True, eq=False)
class CellTable:
    """Rows of a dataset grouped by covariate pattern, study and treatment.

    Cell ``j`` holds the rows ``i`` with ``inverse[i] == j``; they share
    ``x[j]``, ``s[j]`` and ``a[j]`` (and, when the outcome is part of the
    key, their outcome). Per cell the table keeps the number of its rows
    (``count``), the sum of their outcomes (``y_sum``), their mean
    (``y_mean``, 0 in an empty cell) and their sum of squares about that
    mean (``y_ss``). When rows take too many distinct patterns, every row
    is a cell of its own.

    The four per-cell arrays have a leading axis, one entry per resample of
    the rows. A dataset's own table is a stack of one resample that draws
    every row once. ``resample`` gives the table of a sequence of resamples,
    such as a chunk of bootstrap replicates: ``draws[r]`` lists the rows
    resample r drew, repeats included.
    """

    x: np.ndarray
    s: np.ndarray
    a: np.ndarray
    covariate_names: tuple[str, ...]
    inverse: np.ndarray
    y_rows: np.ndarray
    count: np.ndarray
    y_sum: np.ndarray
    y_ss: np.ndarray
    draws: Sequence[np.ndarray] | None = None
    y_mean: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_mean", _mean(self.y_sum, self.count))

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def reweighted(self) -> bool:
        return self.draws is not None

    def resample(self, draws: Sequence[np.ndarray]) -> "CellTable":
        """The same cells, once per resample of the rows: each resample's
        sums run over the cells of the rows it drew, in the order drawn."""
        m = self.s.size
        sums = [_cell_sums(self.inverse[rows], self.y_rows[rows], m) for rows in draws]
        count, y_sum, y_ss = (np.array(column) for column in zip(*sums))
        return dataclasses.replace(self, count=count, y_sum=y_sum, y_ss=y_ss, draws=draws)

    def rows_of(self, cells: np.ndarray, r: int = 0) -> np.ndarray:
        """Indices, in row order, of the dataset rows in the cells the mask
        ``cells`` marks (that resample ``r`` drew, when the table is resampled)."""
        rows = cells[self.inverse]
        if self.reweighted:
            rows &= np.bincount(self.draws[r], minlength=rows.size) > 0
        return np.flatnonzero(rows)


def _mean(y_sum: np.ndarray, count: np.ndarray) -> np.ndarray:
    return np.divide(y_sum, count, out=np.zeros(count.shape), where=count > 0)


def _cell_sums(
    cells: np.ndarray, y: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count, y_sum and y_ss over ``m`` cells of rows in cells ``cells``
    with outcomes ``y``, each summed in row order."""
    count = np.bincount(cells, minlength=m).astype(float)
    y_sum = np.bincount(cells, weights=y, minlength=m)
    # Centred on the cell mean, not sum(y^2) - sum(y)^2 / count, which loses
    # digits. Squares that overflow leave y_ss infinite; nuisance.fit_cells
    # rejects the residual variance that takes it in.
    dev = y - _mean(y_sum, count)[cells]
    with np.errstate(over="ignore"):
        y_ss = np.bincount(cells, weights=dev * dev, minlength=m)
    return count, y_sum, y_ss


def cell_table(d: Dataset | CellTable, outcome_kind: str) -> CellTable:
    """The cells an analysis runs on: a binary outcome is part of the key, as
    its logistic fits need one 0/1 label per cell. A table, such as a
    table reweighted for a chunk of bootstrap replicates, is returned as it is.
    Raises ConfigError for an unknown ``outcome_kind``, and DomainError when
    it is binary and an occupied cell's outcome is not 0 or 1."""
    require_member(outcome_kind, "outcome_kind", OUTCOME_KINDS)
    t = d if isinstance(d, CellTable) else d.cells(outcome_kind == "binary")
    y = t.y_mean
    if outcome_kind == "binary" and np.any((t.count > 0) & (y != 0.0) & (y != 1.0)):
        raise DomainError("outcome_kind is 'binary' but the outcome has values outside {0,1}")
    return t


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


def _parse_records(
    path: str, width: int, names: tuple[str, ...], positions: list[int]
) -> np.ndarray:
    """The used columns of every record, parsed one record at a time.

    Reads what the bulk parse refuses or leaves to this path, and names
    the first bad record and, within it, the first bad column (study,
    treatment, outcome, then the covariates).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        records = list(reader)
    values = np.empty((len(names), len(records)))
    for row_number, record in enumerate(records, start=1):
        if len(record) != width:
            raise ParseError(f"row {row_number}: expected {width} fields, got {len(record)}")
        for j, (name, position) in enumerate(zip(names, positions)):
            parse = _parse_indicator if j < 2 else _parse_cell
            values[j, row_number - 1] = parse(record[position], name, row_number)
    return values


def _bulk_values(body: str, width: int, positions: list[int]) -> np.ndarray | None:
    """The used columns of every record of ``body``, parsed by one np.loadtxt
    pass, or None where np.loadtxt refuses the text or could read it
    otherwise than csv.reader and float() do.

    np.loadtxt strips the padding that _parse_cell strips, and refuses
    underscores, empty fields and lone carriage returns. Quotes are kept
    from it, as a quoted delimiter would shift its fields. It skips blank
    lines, which csv.reader reads as records of no fields, so every line
    must come back as a row (and a blank first line, which could leave it
    no data to warn about, is left to the record path). Asking for the
    last column makes every row hold at least ``width`` fields, and the
    delimiter count then makes it exactly ``width``.
    """
    lines = body.split("\n")
    if '"' in body or lines[0] in ("", "\r"):
        return None
    try:
        values = np.loadtxt(
            lines, delimiter=",", comments=None, usecols=[*positions, width - 1], ndmin=2
        )
    except ValueError:
        return None
    rows = len(lines) - (lines[-1] == "")
    if values.shape[0] != rows or body.count(",") != (width - 1) * rows:
        return None
    return np.ascontiguousarray(values[:, :-1].T)


def load_dataset(path: str, schema: ColumnSchema) -> Dataset:
    """Read a headered CSV into a Dataset, preserving file row order.

    Row numbers in error messages count data rows from 1 (the header is
    row 0). Cells must be decimal numerals; categorical covariates have to
    be encoded to numeric columns before loading. A UTF-8 byte-order mark
    is skipped.
    """
    try:
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
            body = fh.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None

    if not body:
        raise SchemaError(f"{path}: no data rows")
    # A record of the wrong width, a non-numeral or an indicator outside
    # {0, 1} sends the parse to _parse_records.
    positions = [header.index(name) for name in names]
    values = _bulk_values(body, len(header), positions)
    if values is None or not np.all((values[:2] == 0.0) | (values[:2] == 1.0)):
        values = _parse_records(path, len(header), names, positions)
    return Dataset(
        x=np.ascontiguousarray(values[3:].T),
        s=values[0].astype(np.int64),
        a=values[1].astype(np.int64),
        y=values[2],
        covariate_names=schema.x,
    )


def _not_utf8(path: str) -> DataError:
    """The error for a file that is not UTF-8 text: it names the offset, from
    the start of the file, of the first byte that cannot be decoded."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return DataError(
            f"{path}: not UTF-8 text: byte 0x{raw[exc.start]:02x} at byte offset "
            f"{exc.start} cannot be decoded"
        )
    return DataError(f"{path}: not UTF-8 text")


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
