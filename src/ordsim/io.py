"""Dataset file formats and bundled fixtures.

Two CSV schemas, both plain comma-separated UTF-8 with no quoting (fields
must not contain commas), LF, CRLF or CR line endings, blank lines ignored:

Pair datasets -- header ``gold,u_0,...,u_{d-1},v_0,...,v_{d-1}`` for some
dimension d >= 1, one scored vector pair per row.  ``gold`` is the reference
similarity score for the pair; all values are decimal literals.
``load_pairs`` reads the file's bytes once and parses the rows straight
into a ``PairDataset``'s columns, ``gold``, ``U`` and ``V``, the dataset's
one representation.  When the header is exact and every data row holds
nothing but ASCII digits, ``.``, ``e``, ``E``, ``+``, ``-`` and commas, as
the rows ``save_pairs`` writes do, numpy parses the rows from the bytes
(``_plain_table``).  Any other file, and one of which numpy's reader
rejects or warns about any part, is decoded and parsed line by line with
``float()``.  The values and the errors are the same either way: over those
characters the readers accept the same literals as ``float()`` and give
them the same bits, and every error is raised by the per-line parse.

Results tables -- header ``model,method,dataset,score``, one benchmark cell
per row.  Scores carry at most two fraction digits and are stored internally
as integer hundredths, so equal published scores compare exactly equal and a
cell difference of zero is exactly zero.  A (model, method, dataset) triple
may appear only once.  ``load_results`` checks the rows a column at a time
and reads a file that fails any check again line by line, which raises the
error.  A ``ResultsTable`` is kept as columns, with per-method columns built
once, which ``compare`` reads; its ``rows`` are built on first access.

Errors name the file and 1-based line number of the offending record.
"""

from __future__ import annotations

import math
import os
import re
import sys
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DatasetFormatError, DegenerateInputError, InvalidVectorError
from .metrics import DenseVector, _RowValues
from .ranks import _centered_ranks
from .stats import _encode, _LodoIndex, _micro_average

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
# The same scores, each followed by a line feed, for a whole column at once.
_SCORE_COLUMN_RE = re.compile(r"(?:[+-]?[0-9]+(?:\.[0-9]{1,2})?\n)*")


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
    fills the columns straight from the file.

    ``evaluate`` reads values computed from the columns on first use by a
    kind that needs them and then kept, 5n floats in all: the row values
    in ``_rows`` (u.v, |u|^2 and |v|^2, recos' sorted dot) and the
    centered ranks of ``gold``.  ``==``, ``hash`` and ``repr`` ignore them.
    They never go stale because the columns cannot change: each is a view
    of an array made read-only, so its writes cannot be enabled again.
    Writing through a column's ``.base`` is unsupported.
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
        gold, U, V = map(_frozen_view, (gold, U, V))
        fields = {"name": name, "dim": U.shape[1], "gold": gold, "U": U, "V": V}
        for attr, value in fields.items():
            object.__setattr__(self, attr, value)

    @property
    def n(self) -> int:
        return int(self.gold.size)

    @cached_property
    def _rows(self) -> _RowValues:
        """The row values ``evaluate`` reads, each computed on first use."""
        return _RowValues(self.U, self.V)

    @cached_property
    def _gold_ranks(self) -> tuple[np.ndarray, float]:
        """``ranks._centered_ranks`` of ``gold``, the array read-only."""
        ranks, sum_sq = _centered_ranks(self.gold)
        ranks.setflags(write=False)
        return ranks, sum_sq

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


def _frozen_view(column: np.ndarray) -> np.ndarray:
    """A read-only view of ``column`` whose writes cannot be enabled again.

    The array that owns the data is made read-only too: numpy lets a view
    become writable only while an array it is a view of is writable.  A
    column over memory that no array owns (``np.frombuffer`` of a
    ``bytearray``, say) is copied first, since that memory cannot be frozen.
    """
    owner = column
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if owner.base is not None:
        column = owner = column.copy()
    owner.setflags(write=False)
    column.setflags(write=False)
    return column.view()


def _pair_header(dim: int) -> str:
    u_cols = ",".join(f"u_{i}" for i in range(dim))
    v_cols = ",".join(f"v_{i}" for i in range(dim))
    return f"gold,{u_cols},{v_cols}"


def _bad_line(path: Path, lineno: int, message: object) -> DatasetFormatError:
    """The error for a bad line: its message starts with ``{path}:{lineno}: ``."""
    return DatasetFormatError(f"{path}:{lineno}: {message}", line=lineno)


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read: {exc}") from exc


def _read_lines(path: Path, data: bytes) -> tuple[int, str, list[tuple[int, str]]]:
    """The header line number and text of a CSV file's bytes ``data``, and its
    later rows as (line number, text), blank lines dropped; none is an error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "_" stands in for the bad byte; lines are numbered as splitlines() does.
        lineno = len((exc.object[: exc.start].decode("utf-8") + "_").splitlines())
        raise _bad_line(path, lineno, f"not valid UTF-8: {exc.reason}") from exc
    # isspace() is True for the lines strip() empties, without copying them.
    numbered = enumerate(text.splitlines(), start=1)
    lines = [(i, line) for i, line in numbered if line and not line.isspace()]
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header_no, header = lines[0]
    return header_no, header, lines[1:]


# Lines of spaces and tabs, then a line that starts ``gold,`` and its end.
_PAIR_HEAD_RE = re.compile(rb"[ \t\r\n]*(?<![ \t])(gold,[^\r\n]*)(?:\r\n?|\n)")


def load_pairs(path: PathLike, name: str | None = None) -> PairDataset:
    """Load a pair dataset, validating the header and every row."""
    path = Path(path)
    data = _read_bytes(path)
    head = _PAIR_HEAD_RE.match(data)
    dim = head[1].count(b",") // 2 if head else 0
    plain = head is not None and head[1] == _pair_header(dim).encode("ascii")
    table = _plain_table(data, head.end(), 1 + 2 * dim) if plain else None
    if table is None:
        header_no, header, rows = _read_lines(path, data)
        columns = header.split(",")
        if len(columns) < 3 or len(columns) % 2 == 0:
            raise _bad_line(path, header_no, "header must be gold,u_0..u_d-1,v_0..v_d-1")
        dim = (len(columns) - 1) // 2
        if header != _pair_header(dim):
            raise _bad_line(path, header_no, f"malformed header for dimension {dim}")
        table = _table_by_line(path, rows, dim)
    return PairDataset._from_columns(
        name or path.stem, table[:, 0], table[:, 1 : 1 + dim], table[:, 1 + dim :]
    )


# The characters of a plain literal.  On literals made of them, both plain
# readers (strtold with the midpoint re-read, and np.loadtxt) accept the same
# ones as float(), with the same bits; tests/test_io.py checks every literal
# of up to 3 characters.  Where they differ (whitespace, "_", "inf", "nan",
# hexadecimal, non-ASCII digits), a literal needs other characters.
_PLAIN_LITERAL_CHARS = b"0123456789.eE+-"

# x87 extended precision stored little-endian in 16 bytes, the long double
# of x86-64 Linux and macOS, which ``np.fromstring`` reads with libc's
# strtold.  Its layout: a 64-bit significand with an explicit integer bit,
# then the sign and a 15-bit exponent biased by 16383.
_X87_LONG_DOUBLE = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
# The biased x87 exponent of the smallest normal double, 2**-1022.
_X87_MIN_NORMAL_EXPONENT = 16383 - 1022


# The fewest bytes of rows worth a thread of their own.  On a 2-core x86-64
# VM, two parts of a 53 kB file took 1.26 times as long as one call, of a
# 107 kB file 0.95 times and of a 214 kB file 0.85 times.
_PART_MIN_CHARS = 2**16


def _plain_table(data: bytes, start: int, width: int) -> np.ndarray | None:
    """The rows of a pair file's bytes ``data`` from byte ``start`` on,
    parsed by numpy, if they are plain: at least 2 rows of ``width`` fields
    of ``_PLAIN_LITERAL_CHARS``, and a finite table.  Anything else, and any
    warning, gives None, and ``_table_by_line`` raises the error.  The
    strtold reader cuts the rows at line feeds into parts of about equal
    size, one per CPU the process may run on but at most one per
    ``_PART_MIN_CHARS`` bytes (``_read_parts``).
    """
    if data.find(b"\r", start) >= 0:  # CR and CRLF line ends, as splitlines() sees them
        data, start = data[start:].replace(b"\r\n", b"\n").replace(b"\r", b"\n"), 0
    end = len(data)
    while end > start and data[end - 1] == ord("\n"):  # blank lines at the end
        end -= 1
    count = min(_available_cpus(), (end - start) // _PART_MIN_CHARS) if _X87_LONG_DOUBLE else 1
    edges = [start - 1]  # the line feed before each part
    for k in range(1, count):
        cut = data.find(b"\n", start + (end - start) * k // count, end)
        if cut > edges[-1]:
            edges.append(cut)
    parts = [data[lo + 1 : hi] for lo, hi in zip(edges, [*edges[1:], end])]
    # The filter is global to the process, so it is set here, around every
    # worker's whole lifetime, and a warning in any worker raises there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = _read_parts(parts, width)
    if any(table is None for table in tables) or sum(map(len, tables)) < 2:
        return None  # and loadtxt would warn about a file without rows
    return tables[0] if len(tables) == 1 else np.concatenate(tables)


def _available_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot say (``os.sched_getaffinity`` is missing on macOS and Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_parts(parts: list[bytes], width: int) -> list[np.ndarray | None]:
    """``_plain_part`` of each part, in part order: the first in the calling
    thread, checked and then parsed, and each other part in a thread of its
    own, started before that, parsed and then checked.  A part's checks hold
    the GIL and its parse does not, so one part's checks run during another
    part's parse.  Every started thread is joined before this returns or
    raises.  An exception that ``_plain_part`` does not turn into None (a
    MemoryError, say) is raised here; where several parts raise, the first
    part's is.
    """
    outcomes: list[np.ndarray | BaseException | None] = [None] * len(parts)

    def parse(i: int) -> None:
        try:
            outcomes[i] = _plain_part(parts[i], width, parse_first=True)
        except BaseException as exc:  # raised again in the calling thread
            outcomes[i] = exc

    threads = []
    try:
        for i in range(1, len(parts)):
            thread = threading.Thread(target=parse, args=(i,))
            thread.start()
            threads.append(thread)
        outcomes[0] = _plain_part(parts[0], width)
    finally:
        for thread in threads:
            thread.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def _plain_part(part: bytes, width: int, parse_first: bool = False) -> np.ndarray | None:
    """The finite table of ``part``'s rows, ``width`` fields each, or None,
    parsed before it is checked with ``parse_first``.  Called with warnings
    turned into errors; the reader's ValueError or warning gives None."""
    wide = _long_doubles(part) if parse_first else None
    # Deleting the literals leaves the commas and line feeds, and any byte
    # that has no place in a plain part; rows of width fields leave this.
    separators = part.translate(None, _PLAIN_LITERAL_CHARS) + b"\n"
    rows = len(separators) // width
    if separators != (b"," * (width - 1) + b"\n") * rows:
        # Drop blank lines, as ``_read_lines`` does, and check the rest again.
        plain = b"\n".join(filter(None, part.split(b"\n")))
        if plain == part:
            return None
        return _plain_part(plain, width) if plain else np.empty((0, width))
    try:
        if _X87_LONG_DOUBLE:
            wide = wide if parse_first else _long_doubles(part)
            if wide is None or wide.size != rows * width:
                return None
            table = _strtold_table(part, wide, rows, width)
        else:
            lines = part.decode("ascii").split("\n")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):  # loadtxt's, or a value beyond float64
        return None
    if table.shape != (rows, width) or not np.isfinite(table).all():
        return None
    return table


def _long_doubles(part: bytes) -> np.ndarray | None:
    """``part``'s fields as x87 long doubles, or None where ``np.fromstring``
    rejects them or warns; it needs ``bytes``, which end in a NUL, to stop."""
    try:
        return np.fromstring(part.replace(b"\n", b","), dtype=np.longdouble, sep=",")
    except (ValueError, Warning):
        return None


def _strtold_table(part: bytes, wide: np.ndarray, rows: int, width: int) -> np.ndarray:
    """``part``'s fields, read as the long doubles ``wide``, as a float64
    table of ``rows`` by ``width``, with the bits of ``float()`` of each.

    Rounded first to 64 significand bits and then to 53, a value can differ
    from its one rounding to 53 bits only where the first rounding lands
    exactly on a midpoint between two doubles (the 11 bits the second drops
    are 0x400), or below the smallest normal double, where the second drops
    more bits.  Those fields are read again with ``float()``.
    """
    table = wide.astype(np.float64).reshape(rows, width)
    words = wide.view(np.uint64)
    significand, exponent = words[0::2], words[1::2] & 0x7FFF
    subnormal = (exponent < _X87_MIN_NORMAL_EXPONENT) & (significand != 0)
    twice = ((significand & 0x7FF) == 0x400) | subnormal
    start, at = 0, 0  # the first byte of row ``at``
    for r, fields in groupby(np.flatnonzero(twice).tolist(), lambda k: k // width):
        while at < r:
            start, at = part.index(b"\n", start) + 1, at + 1
        end = len(part) if r == rows - 1 else part.index(b"\n", start)
        row = np.frombuffer(part, np.uint8, end - start, start)
        edges = start + np.concatenate(([-1], np.flatnonzero(row == ord(",")), [end - start]))
        for j in (k % width for k in fields):
            table[r, j] = float(part[edges[j] + 1 : edges[j + 1]])
    return table


def _table_by_line(path: Path, rows: list[tuple[int, str]], dim: int) -> np.ndarray:
    """Parse the rows one by one with float(); errors name the first bad line."""
    width = 1 + 2 * dim
    table = np.empty((len(rows), width))
    for values, (lineno, line) in zip(table, rows):
        fields = line.split(",")
        if len(fields) != width:
            raise _bad_line(path, lineno, f"expected {width} fields, got {len(fields)}")
        try:
            values[:] = [float(f) for f in fields]
        except ValueError:
            raise _bad_line(path, lineno, "non-numeric field") from None
        if not np.isfinite(values).all():
            # A non-finite u or v is named before a non-finite gold score.
            if np.isfinite(values[1:]).all():
                raise _bad_line(path, lineno, "gold score must be finite")
            raise _bad_line(path, lineno, "vector components must be finite")
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
        _cents_to_score(cents)
    except OverflowError:
        raise ValueError(f"score is too large for a float64: {text!r}") from None
    return cents


def _cents_to_score(cents: int) -> float:
    """``cents / 100.0``, the score of a cell.  Where ``float(cents)`` overflows
    but the score does not (scores above about 1.8e306), the correctly rounded
    ``cents / 100``.  Raises OverflowError for a score beyond float64."""
    try:
        return cents / 100.0
    except OverflowError:
        return cents / 100


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
        return _cents_to_score(self.score_cents)


def _unchecked_row(model: str, method: str, dataset: str, score_cents: int) -> ResultsRow:
    """A row of fields checked already, set in the order the dataclass
    ``__init__`` sets them, without rerunning its checks."""
    row = object.__new__(ResultsRow)
    vars(row).update(model=model, method=method, dataset=dataset, score_cents=score_cents)
    return row


class _MethodColumns(NamedTuple):
    """One method's cells, in file order, as columns."""

    rows: list[int]  # the cells' row numbers in the table
    cells: tuple[tuple[str, str], ...]  # (model, dataset)
    cell_codes: np.ndarray  # one code per (model, dataset) of the table
    scores: np.ndarray  # read-only float64, ResultsRow.score bit for bit
    datasets: _LodoIndex  # dataset codes, numbered in this method's first-appearance order
    micro_average: float


@dataclass(frozen=True)
class ResultsTable:
    """Benchmark cells with unique (model, method, dataset) triples.

    A table is kept as columns.  Once, when it is made, it builds each
    method's columns: the method's (model, dataset) cells in file order, a
    read-only float64 array of their scores (``ResultsRow.score`` bit for
    bit, see ``scores``), dataset codes numbered in the method's own order of
    first appearance, and the micro-average of the scores.  ``compare``
    reads only these.  A method's first leave-one-dataset-out test builds
    its blocks over the dataset codes, and the table keeps them, read-only,
    while they hold at most ``stats._LODO_BLOCK_CELLS`` entries.

    ``rows`` is the table's value, kept as a tuple whatever sequence made
    it: ``==``, ``hash`` and ``repr`` read it and nothing else.  A table
    that ``load_results`` made builds its rows on first access and keeps
    them.
    """

    rows: tuple[ResultsRow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        self._set_columns(
            [row.model for row in rows],
            [row.method for row in rows],
            [row.dataset for row in rows],
            [row.score_cents for row in rows],
        )

    @classmethod
    def _from_columns(
        cls, models: list[str], methods: list[str], datasets: list[str], cents: list[int]
    ) -> ResultsTable:
        # For columns whose values ``load_results`` has checked.
        table = cls.__new__(cls)
        table._set_columns(models, methods, datasets, cents)
        return table

    def __getattr__(self, name: str) -> tuple[ResultsRow, ...]:
        # Python calls this only for an attribute the instance lacks: the
        # rows of a loaded table, before their first use.
        if name != "rows":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = tuple(map(_unchecked_row, *self._row_columns))
        object.__setattr__(self, "rows", rows)
        return rows

    def _set_columns(
        self, models: list[str], methods: list[str], datasets: list[str], cents: list[int]
    ) -> None:
        """Build each method's columns from the row columns.

        Raises DegenerateInputError naming the first row whose (model,
        method, dataset) an earlier row has.
        """
        model_names, model_codes = _encode(models)
        method_names, method_codes = _encode(methods)
        dataset_names, dataset_codes = _encode(datasets)
        # Every code is below the row count n, so no product here reaches n**2.
        _, cell_codes = np.unique(
            model_codes * len(dataset_names) + dataset_codes, return_inverse=True
        )
        triples, first = np.unique(
            cell_codes * len(method_names) + method_codes, return_index=True
        )
        if triples.size < len(cents):
            repeated = np.ones(len(cents), dtype=bool)
            repeated[first] = False
            i = int(np.argmax(repeated))
            raise DegenerateInputError(f"duplicate cell {(models[i], methods[i], datasets[i])!r}")
        # fromiter converts each int as float() does, so the division gives
        # the bits of ResultsRow.score; it overflows only on a score above
        # about 1.8e306, and then each score is converted on its own.
        try:
            scores = np.fromiter(cents, np.float64, len(cents)) / 100.0
        except OverflowError:
            scores = np.fromiter(map(_cents_to_score, cents), np.float64, len(cents))
        columns = {}
        for code, method in enumerate(method_names):
            rows = np.flatnonzero(method_codes == code)
            row_list = rows.tolist()
            method_scores = scores[rows]
            method_scores.setflags(write=False)
            columns[method] = _MethodColumns(
                rows=row_list,
                cells=tuple(
                    zip(map(models.__getitem__, row_list), map(datasets.__getitem__, row_list))
                ),
                cell_codes=cell_codes[rows],
                scores=method_scores,
                datasets=_LodoIndex(dataset_codes[rows].tolist()),
                micro_average=_micro_average(method_scores),
            )
        object.__setattr__(self, "_names", (model_names, method_names, dataset_names))
        object.__setattr__(self, "_row_columns", (models, methods, datasets, cents))
        object.__setattr__(self, "_columns", columns)

    def methods(self) -> tuple[str, ...]:
        return self._names[1]

    def models(self) -> tuple[str, ...]:
        return self._names[0]

    def datasets(self) -> tuple[str, ...]:
        return self._names[2]

    def cells(self, method: str) -> Mapping[tuple[str, str], ResultsRow]:
        """(model, dataset) -> row for one method, in file order.

        The mapping is a new dict on every call, empty for an unknown method.
        """
        column = self._columns.get(method)
        if column is None:
            return {}
        return dict(zip(column.cells, map(self.rows.__getitem__, column.rows)))

    def scores(self, method: str) -> tuple[tuple[tuple[str, str], ...], np.ndarray]:
        """One method's score column: its (model, dataset) cells in file order
        and a read-only float64 array of their scores, in the same order.

        Both are empty for an unknown method.
        """
        column = self._columns.get(method)
        if column is None:
            return (), _NO_SCORES
        return column.cells, column.scores

    def _method_columns(self, method: str) -> _MethodColumns | None:
        return self._columns.get(method)


_NO_SCORES = np.empty(0)
_NO_SCORES.setflags(write=False)


_RESULTS_HEADER = "model,method,dataset,score"


def load_results(path: PathLike) -> ResultsTable:
    """Load a results table, enforcing the schema and triple uniqueness.

    The rows are checked a column at a time.  A file that fails one of those
    checks is read again line by line, which raises the error of its first
    bad line.
    """
    path = Path(path)
    header_no, header, lines = _read_lines(path, _read_bytes(path))
    if header != _RESULTS_HEADER:
        raise _bad_line(path, header_no, f"header must be {_RESULTS_HEADER!r}, got {header!r}")
    table = _table_by_column([line for _, line in lines])
    if table is None:
        table = ResultsTable._from_columns(*_results_by_line(path, lines))
    return table


def _table_by_column(lines: list[str]) -> ResultsTable | None:
    """The table of a results file's rows, or None unless there is at least
    one row, every row has 4 fields, no field is empty after ``strip()``,
    every score is a ``_SCORE_RE`` decimal of magnitude below 1e13, and no
    cell is repeated."""
    if set(map(str.count, lines, repeat(","))) != {3}:
        return None
    joined = ",".join(lines)
    fields = joined.split(",")
    if joined.split(None, 1) != [joined]:  # the rows hold whitespace to strip
        fields = list(map(str.strip, fields))
    scores = fields[3::4]
    if not _SCORE_COLUMN_RE.fullmatch("\n".join(scores) + "\n"):
        return None
    values = np.fromiter(map(float, scores), np.float64, len(scores))
    # Below 1e13, float() is within 2**-53 relative of the exact score, so a
    # hundred times it is within 0.25 of the exact cents, which rint returns.
    if not np.abs(values).max() < 1e13:
        return None
    cents = np.rint(values * 100.0).astype(np.int64).tolist()
    try:
        table = ResultsTable._from_columns(fields[0::4], fields[1::4], fields[2::4], cents)
    except DegenerateInputError:
        return None  # a repeated cell
    if "" in table.models() + table.methods() + table.datasets():
        return None
    return table


def _results_by_line(
    path: Path, lines: list[tuple[int, str]]
) -> tuple[list[str], list[str], list[str], list[int]]:
    """The model, method, dataset and score-cents columns of a results
    file's rows, each field stripped, read one line at a time; errors name
    the first bad line."""
    columns: tuple[list, list, list, list] = ([], [], [], [])
    first_line: dict[tuple[str, str, str], int] = {}
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != 4:
            raise _bad_line(path, lineno, f"expected 4 fields, got {len(fields)}")
        model, method, dataset, score_text = [f.strip() for f in fields]
        try:
            cents = _parse_score_cents(score_text)
        except ValueError as exc:
            raise _bad_line(path, lineno, exc) from exc
        key = (model, method, dataset)
        if key in first_line:
            raise _bad_line(
                path, lineno, f"duplicate cell {key!r} (first on line {first_line[key]})"
            )
        try:
            ResultsRow(model, method, dataset, cents)
        except DegenerateInputError as exc:
            raise _bad_line(path, lineno, exc) from exc
        first_line[key] = lineno
        for column, value in zip(columns, (model, method, dataset, cents)):
            column.append(value)
    return columns


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
    """Absolute path of a bundled fixture CSV, given its bare file name."""
    from importlib.resources import files

    fixtures = files(__package__) / "fixtures"
    if name not in {entry.name for entry in fixtures.iterdir() if entry.is_file()}:
        raise DatasetFormatError(f"no bundled fixture named {name!r}")
    return Path(str(fixtures / name))


def load_experts(path: PathLike | None = None) -> dict[str, DenseVector]:
    """Load a named-vector CSV (header ``name,c1,...,cK``); default fixture.

    The bundled ``experts.csv`` holds the six 4-component worked-example
    vectors used by the golden tests and the CLI examples.
    """
    if path is None:
        path = fixture_path("experts.csv")
    path = Path(path)
    header_no, header, lines = _read_lines(path, _read_bytes(path))
    columns = header.split(",")
    dim = len(columns) - 1
    if dim < 1 or columns != ["name"] + [f"c{i}" for i in range(1, dim + 1)]:
        raise _bad_line(path, header_no, "header must be name,c1,...,cK")
    out: dict[str, DenseVector] = {}
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise _bad_line(path, lineno, f"expected {dim + 1} fields, got {len(fields)}")
        name = fields[0].strip()
        if not name or name in out:
            raise _bad_line(path, lineno, "vector name must be non-empty and unique")
        try:
            out[name] = parse_vector(",".join(fields[1:]))
        except InvalidVectorError as exc:
            raise _bad_line(path, lineno, exc) from exc
    return out
