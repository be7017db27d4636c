"""Dataset file formats and bundled fixtures.

Two CSV schemas, both plain comma-separated UTF-8 with no quoting (fields
must not contain commas), LF or CRLF line endings, blank lines ignored:

Pair datasets -- header ``gold,u_0,...,u_{d-1},v_0,...,v_{d-1}`` for some
dimension d >= 1, one scored vector pair per row.  ``gold`` is the reference
similarity score for the pair; all values are decimal literals.
``load_pairs`` parses the rows straight into a ``PairDataset``'s columns,
``gold``, ``U`` and ``V``; ``PairRecord`` objects are made only when
``PairDataset.records`` is read.  When every data row holds nothing but
ASCII digits, ``.``, ``e``, ``E``, ``+``, ``-`` and commas, as the rows
``save_pairs`` writes do, numpy's C reader (``np.loadtxt``) parses the
rows in one call.  Any other file, and any file that reader rejects or
reads as a table of the wrong shape or with a value that is not finite,
is parsed line by line with ``float()``.  The values and the errors are
the same either way: over those characters both accept the same literals
and give them the same bits, and every error is raised by the per-line
parse.

Results tables -- header ``model,method,dataset,score``, one benchmark cell
per row.  Scores carry at most two fraction digits and are stored internally
as integer hundredths, so equal published scores compare exactly equal and a
cell difference of zero is exactly zero.  A (model, method, dataset) triple
may appear only once.

Errors name the file and 1-based line number of the offending record.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DatasetFormatError, DegenerateInputError, InvalidVectorError
from .metrics import DenseVector

__all__ = [
    "PairRecord",
    "PairDataset",
    "ResultsRow",
    "ResultsTable",
    "parse_vector",
    "format_vector",
    "load_pairs",
    "save_pairs",
    "load_results",
    "save_results",
    "load_experts",
    "fixture_path",
]

PathLike = Union[str, Path]

# ASCII digits only: ``\d`` would also match other scripts' digits, which
# ``int`` accepts but ``save_results`` would write back as ASCII.
_SCORE_RE = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]{1,2}))?")


def parse_vector(text: str) -> DenseVector:
    """Parse a comma-separated list of decimal literals into a vector."""
    tokens = text.split(",")
    values = []
    for i, token in enumerate(tokens, start=1):
        stripped = token.strip()
        if not stripped:
            raise InvalidVectorError(f"empty component at position {i}")
        try:
            values.append(float(stripped))
        except ValueError:
            raise InvalidVectorError(
                f"component {i} is not a decimal literal: {stripped!r}"
            ) from None
    return DenseVector(values)


def format_vector(v: DenseVector) -> str:
    """Inverse of parse_vector; components in shortest round-trip form."""
    return _format_components(v.components)


def _format_components(components: np.ndarray) -> str:
    return ",".join(repr(c) for c in components.tolist())


@dataclass(frozen=True)
class PairRecord:
    """One scored pair: a gold similarity and two vectors of equal dimension."""

    gold: float
    u: DenseVector
    v: DenseVector

    def __post_init__(self) -> None:
        gold = float(self.gold)
        if not math.isfinite(gold):
            raise DegenerateInputError("gold score must be finite")
        object.__setattr__(self, "gold", gold)
        if self.u.dim != self.v.dim:
            raise DegenerateInputError(
                f"pair dimensions differ: {self.u.dim} vs {self.v.dim}"
            )


@dataclass(frozen=True, eq=False, init=False)
class PairDataset:
    """A named set of scored vector pairs sharing one dimension, n >= 2.

    Stored as read-only float64 columns: ``gold`` of shape (n,) and ``U``,
    ``V`` of shape (n, dim), whose row i holds pair i.  The constructor
    stacks ``PairRecord``s, which are validated already; ``load_pairs``
    fills the columns straight from the file.  ``records`` is rebuilt from
    the columns the first time it is read.
    """

    name: str
    dim: int
    gold: np.ndarray
    U: np.ndarray
    V: np.ndarray

    def __init__(self, name: str, dim: int, records: Sequence[PairRecord]) -> None:
        records = tuple(records)
        if len(records) < 2:
            raise DegenerateInputError("a pair dataset needs at least 2 records")
        for i, rec in enumerate(records):
            if rec.u.dim != dim:
                raise DegenerateInputError(
                    f"record {i} has dimension {rec.u.dim}, dataset declares {dim}"
                )
        self._set_columns(
            name,
            np.array([rec.gold for rec in records], dtype=np.float64),
            np.stack([rec.u.components for rec in records]),
            np.stack([rec.v.components for rec in records]),
        )

    @classmethod
    def _from_columns(
        cls, name: str, gold: np.ndarray, U: np.ndarray, V: np.ndarray
    ) -> PairDataset:
        # For columns already checked to be finite, with n >= 2 rows.
        dataset = cls.__new__(cls)
        dataset._set_columns(name, gold, U, V)
        return dataset

    def _set_columns(self, name: str, gold: np.ndarray, U: np.ndarray, V: np.ndarray) -> None:
        for column in (gold, U, V):
            column.setflags(write=False)
        fields = {"name": name, "dim": U.shape[1], "gold": gold, "U": U, "V": V}
        for attr, value in fields.items():
            object.__setattr__(self, attr, value)

    @property
    def n(self) -> int:
        return int(self.gold.size)

    @cached_property
    def records(self) -> tuple[PairRecord, ...]:
        """The pairs as records, in row order."""
        return tuple(
            PairRecord(g, DenseVector(u), DenseVector(v))
            for g, u, v in zip(self.gold.tolist(), self.U, self.V)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairDataset):
            return NotImplemented
        return (self.name, self.dim) == (other.name, other.dim) and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(
                (self.gold, self.U, self.V), (other.gold, other.U, other.V)
            )
        )

    def __hash__(self) -> int:
        return hash((self.name, self.dim, tuple(self.gold.tolist())))


def _pair_header(dim: int) -> str:
    u_cols = ",".join(f"u_{i}" for i in range(dim))
    v_cols = ",".join(f"v_{i}" for i in range(dim))
    return f"gold,{u_cols},{v_cols}"


def _content_lines(path: Path) -> list[tuple[int, str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object[: exc.start].count(b"\n") + 1
        raise DatasetFormatError(
            f"{path}:{lineno}: not valid UTF-8: {exc.reason}", line=lineno
        ) from exc
    # isspace() is True for the lines strip() empties, without copying them.
    return [
        (i, line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line and not line.isspace()
    ]


def load_pairs(path: PathLike, name: str | None = None) -> PairDataset:
    """Load a pair dataset, validating the header and every row."""
    path = Path(path)
    lines = _content_lines(path)
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header_no, header = lines[0]
    columns = header.split(",")
    if len(columns) < 3 or len(columns) % 2 == 0:
        raise DatasetFormatError(
            f"{path}:{header_no}: header must be gold,u_0..u_d-1,v_0..v_d-1",
            line=header_no,
        )
    dim = (len(columns) - 1) // 2
    if header != _pair_header(dim):
        raise DatasetFormatError(
            f"{path}:{header_no}: malformed header for dimension {dim}",
            line=header_no,
        )
    rows = lines[1:]
    table = _plain_table([line for _, line in rows], 1 + 2 * dim)
    if table is None:
        table = _table_by_line(path, rows, dim)
    return PairDataset._from_columns(
        name or path.stem, table[:, 0], table[:, 1 : 1 + dim], table[:, 1 + dim :]
    )


# The characters of a plain numeric row.  On decimal literals made of them,
# numpy's C reader and float() accept the same ones and give them the same
# bits; tests/test_io.py checks every literal of up to 3 characters.  The
# literals where the two differ (surrounding whitespace, "_", "inf", "nan",
# non-ASCII digits) all need other characters.
_PLAIN_ROW_CHARS = b"0123456789.eE+-,"


def _plain_table(rows: list[str], width: int) -> np.ndarray | None:
    """The rows of a pair file, parsed by numpy's C reader, if they are plain.

    Only rows made of ``_PLAIN_ROW_CHARS`` are parsed here, and only a finite
    table of at least 2 rows and ``width`` columns is returned.  Anything
    else gives None, so that ``_table_by_line`` parses the rows and raises
    its usual error.  The rows are the lines that ``_table_by_line`` would
    read, so both split the file into the same rows.
    """
    if len(rows) < 2:
        return None  # and loadtxt would warn about a file without rows
    text = ",".join(rows)
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_ROW_CHARS):
        return None
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(rows), width) or not np.isfinite(table).all():
        return None
    return table


def _table_by_line(path: Path, rows: list[tuple[int, str]], dim: int) -> np.ndarray:
    """Parse the rows one by one with float(); errors name the first bad line."""
    width = 1 + 2 * dim
    table = np.empty((len(rows), width))
    for values, (lineno, line) in zip(table, rows):
        fields = line.split(",")
        if len(fields) != width:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {width} fields, got {len(fields)}",
                line=lineno,
            )
        try:
            values[:] = [float(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(
                f"{path}:{lineno}: non-numeric field", line=lineno
            ) from None
        if not np.isfinite(values).all():
            # Let the record types raise, so the message says which part is not finite.
            try:
                PairRecord(
                    values[0], DenseVector(values[1 : 1 + dim]), DenseVector(values[1 + dim :])
                )
            except (InvalidVectorError, DegenerateInputError) as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}", line=lineno) from exc
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: need at least 2 data rows")
    return table


def save_pairs(dataset: PairDataset, path: PathLike) -> None:
    """Write a pair dataset in the documented schema (lossless round-trip)."""
    path = Path(path)
    rows = [_pair_header(dataset.dim)]
    for gold, u, v in zip(dataset.gold.tolist(), dataset.U, dataset.V):
        rows.append(f"{gold!r},{_format_components(u)},{_format_components(v)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _parse_score_cents(text: str) -> int:
    match = _SCORE_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"score must be a decimal with at most 2 fraction digits: {text!r}")
    signed_integer, fraction = match.groups()
    cents = int(signed_integer + (fraction or "").ljust(2, "0"))
    try:
        cents / 100.0  # ResultsRow.score
    except OverflowError:
        raise ValueError(f"score is too large for a float64: {text!r}") from None
    return cents


def _format_score_cents(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    mag = abs(cents)
    return f"{sign}{mag // 100}.{mag % 100:02d}"


def _check_results_field(fname: str, value: str) -> None:
    """Reject a results-table name that ``load_results`` would not read back:
    empty, holding a comma, or with surrounding whitespace or a line break."""
    if not value or "," in value:
        raise DegenerateInputError(
            f"{fname} must be non-empty and comma-free, got {value!r}"
        )
    if value != value.strip() or len(value.splitlines()) != 1:
        raise DegenerateInputError(
            f"{fname} must be one line without surrounding whitespace, got {value!r}"
        )


@dataclass(frozen=True)
class ResultsRow:
    """One benchmark cell; the score is held exactly as integer hundredths."""

    model: str
    method: str
    dataset: str
    score_cents: int

    def __post_init__(self) -> None:
        _check_results_field("model", self.model)
        _check_results_field("method", self.method)
        _check_results_field("dataset", self.dataset)
        try:
            self.score
        except OverflowError:
            raise DegenerateInputError(
                "score_cents is too large: score_cents / 100.0 overflows a float64"
            ) from None

    @property
    def score(self) -> float:
        return self.score_cents / 100.0


_CellIndex = dict[str, dict[tuple[str, str], ResultsRow]]


@dataclass(frozen=True)
class ResultsTable:
    """Benchmark cells with unique (model, method, dataset) triples.

    The constructor indexes the rows by method and (model, dataset) once.
    From that index it builds each method's score column: the method's
    (model, dataset) cells in file order and a read-only float64 array of
    their scores, ``score_cents / 100.0`` bit for bit (see ``scores``).  The
    index and the columns are not fields, so they take no part in ``==``,
    ``hash`` or ``repr``.
    """

    rows: tuple[ResultsRow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        by_method: _CellIndex = {}
        for row in self.rows:
            cells = by_method.setdefault(row.method, {})
            cell = (row.model, row.dataset)
            if cell in cells:
                raise DegenerateInputError(
                    f"duplicate cell {(row.model, row.method, row.dataset)!r}"
                )
            cells[cell] = row
        self._set_index(by_method)

    @classmethod
    def _from_index(cls, rows: tuple[ResultsRow, ...], by_method: _CellIndex) -> ResultsTable:
        # For rows that ``load_results`` has checked and indexed already.
        table = cls.__new__(cls)
        object.__setattr__(table, "rows", rows)
        table._set_index(by_method)
        return table

    def _set_index(self, by_method: _CellIndex) -> None:
        columns = {}
        for method, cells in by_method.items():
            # fromiter converts each int as float() does, so the division
            # gives the bits of ResultsRow.score.
            scores = np.fromiter(
                (row.score_cents for row in cells.values()), np.float64, len(cells)
            ) / 100.0
            scores.setflags(write=False)
            columns[method] = (tuple(cells), scores)
        object.__setattr__(self, "_by_method", by_method)
        object.__setattr__(self, "_columns", columns)

    def methods(self) -> tuple[str, ...]:
        return self._distinct("method")

    def models(self) -> tuple[str, ...]:
        return self._distinct("model")

    def datasets(self) -> tuple[str, ...]:
        return self._distinct("dataset")

    def _distinct(self, attr: str) -> tuple[str, ...]:
        return tuple(dict.fromkeys(getattr(row, attr) for row in self.rows))

    def cells(self, method: str) -> Mapping[tuple[str, str], ResultsRow]:
        """(model, dataset) -> row for one method, in file order.

        The mapping is a new dict on every call, empty for an unknown method.
        """
        return dict(self._by_method.get(method, ()))

    def scores(self, method: str) -> tuple[tuple[tuple[str, str], ...], np.ndarray]:
        """One method's score column: its (model, dataset) cells in file order
        and a read-only float64 array of their scores, in the same order.

        Both are empty for an unknown method.
        """
        return self._columns.get(method, ((), _NO_SCORES))


_NO_SCORES = np.empty(0)
_NO_SCORES.setflags(write=False)


_RESULTS_HEADER = "model,method,dataset,score"


def load_results(path: PathLike) -> ResultsTable:
    """Load a results table, enforcing the schema and triple uniqueness."""
    path = Path(path)
    lines = _content_lines(path)
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header_no, header = lines[0]
    if header != _RESULTS_HEADER:
        raise DatasetFormatError(
            f"{path}:{header_no}: header must be {_RESULTS_HEADER!r}, got {header!r}",
            line=header_no,
        )
    rows: list[ResultsRow] = []
    by_method: _CellIndex = {}
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected 4 fields, got {len(fields)}", line=lineno
            )
        model, method, dataset, score_text = [f.strip() for f in fields]
        try:
            cents = _parse_score_cents(score_text)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}", line=lineno) from exc
        key = (model, method, dataset)
        cells = by_method.setdefault(method, {})
        first = cells.get((model, dataset))
        if first is not None:
            # Row i was read from lines[1 + i].
            first_no = lines[1 + rows.index(first)][0]
            raise DatasetFormatError(
                f"{path}:{lineno}: duplicate cell {key!r} (first on line {first_no})",
                line=lineno,
            )
        # After split(",") and strip(), emptiness is the one ResultsRow check
        # a name can fail, and _parse_score_cents has checked the score, so
        # the row is built without rerunning the checks, its fields set in
        # the order the dataclass __init__ sets them.
        if "" in key:
            try:
                ResultsRow(model, method, dataset, cents)
            except DegenerateInputError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}", line=lineno) from exc
        row = object.__new__(ResultsRow)
        vars(row).update(model=model, method=method, dataset=dataset, score_cents=cents)
        cells[model, dataset] = row
        rows.append(row)
    return ResultsTable._from_index(tuple(rows), by_method)


def save_results(table: ResultsTable, path: PathLike) -> None:
    """Write a results table; scores are rendered with 2 fraction digits."""
    path = Path(path)
    rows = [_RESULTS_HEADER]
    for row in table.rows:
        rows.append(
            f"{row.model},{row.method},{row.dataset},{_format_score_cents(row.score_cents)}"
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def fixture_path(name: str) -> Path:
    """Absolute path of a bundled fixture CSV."""
    from importlib.resources import files

    resource = files(__package__) / "fixtures" / name
    path = Path(str(resource))
    if not path.is_file():
        raise DatasetFormatError(f"no bundled fixture named {name!r}")
    return path


def load_experts(path: PathLike | None = None) -> dict[str, DenseVector]:
    """Load a named-vector CSV (header ``name,c1,...,cK``); default fixture.

    The bundled ``experts.csv`` holds the six 4-component worked-example
    vectors used by the golden tests and the CLI examples.
    """
    if path is None:
        path = fixture_path("experts.csv")
    path = Path(path)
    lines = _content_lines(path)
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header_no, header = lines[0]
    columns = header.split(",")
    dim = len(columns) - 1
    if dim < 1 or columns != ["name"] + [f"c{i}" for i in range(1, dim + 1)]:
        raise DatasetFormatError(
            f"{path}:{header_no}: header must be name,c1,...,cK", line=header_no
        )
    out: dict[str, DenseVector] = {}
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields)}",
                line=lineno,
            )
        name = fields[0].strip()
        if not name or name in out:
            raise DatasetFormatError(
                f"{path}:{lineno}: vector name must be non-empty and unique",
                line=lineno,
            )
        try:
            out[name] = parse_vector(",".join(fields[1:]))
        except InvalidVectorError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}", line=lineno) from exc
    return out
