"""Dataset file formats and bundled fixtures.

Two CSV schemas, both plain comma-separated UTF-8 with no quoting (fields
must not contain commas), LF, CRLF or CR line endings, blank lines ignored.
Errors name the file and 1-based line number of the offending record.

Both loaders read a file's bytes once and share one rule.  A file is plain
when its first line is the exact header and every line, the last one
included, ends in the header line's own line end, LF or CRLF; no line may
be blank, and every row must hold the header's number of fields of the
loader's bytes.  A plain file is read in whole-buffer passes; any other
file, and a plain one that fails a later check, is read line by line, which
gives the same columns or raises the same error.

Pair datasets -- header ``gold,u_0,...,u_{d-1},v_0,...,v_{d-1}``, d >= 1,
one pair of decimal literals per row, ``gold`` its reference similarity.
``load_pairs`` parses the rows straight into a ``PairDataset``'s columns.
A plain pair file's fields hold ASCII digits, ``.``, ``e``, ``E``, ``+``
and ``-``, and numpy parses it (``_plain_table``) to ``float()``'s bits.

Results tables -- header ``model,method,dataset,score``, one benchmark cell
per row, each (model, method, dataset) once.  Scores carry at most two
fraction digits and are kept as integer hundredths, so equal published
scores compare exactly equal.  A plain results file's fields hold printable
ASCII and tabs (``_plain_results``).  A ``ResultsTable`` is kept as columns,
which ``compare`` reads; its ``rows`` are built on first access.
"""

from __future__ import annotations

import math
import operator
import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DatasetFormatError, DegenerateInputError, InvalidVectorError
from .metrics import DenseVector, VectorLike, _RowValues, _vector
from .ranks import _Ranked
from .stats import _encode, _mean_var, _micro_average

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
_SCORE = r"[+-]?[0-9]+(?:\.[0-9]{1,2})?"
_SCORE_RE = re.compile(_SCORE)
# The same scores, each followed by a line feed, for a whole column at once.
_SCORE_COLUMN_RE = re.compile(f"(?:{_SCORE}\n)*")


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


def format_vector(v: VectorLike) -> str:
    """Inverse of parse_vector; components in shortest round-trip form.
    Takes what the metrics take, checked as they check it."""
    return _format_components(_vector(v))


def _format_components(components: np.ndarray) -> str:
    return ",".join(repr(c) for c in components.tolist())


@dataclass(frozen=True)
class PairRecord:
    """One scored pair: a gold similarity and two vectors of equal dimension."""

    gold: float
    u: DenseVector
    v: DenseVector

    def __post_init__(self) -> None:
        try:
            gold = float(self.gold)
        except (TypeError, ValueError, OverflowError):
            raise DegenerateInputError(f"gold score is not a real number: {self.gold!r}") from None
        if not math.isfinite(gold):
            raise DegenerateInputError("gold score must be finite")
        object.__setattr__(self, "gold", gold)
        for name, value in (("u", self.u), ("v", self.v)):
            if not isinstance(value, DenseVector):
                raise DegenerateInputError(f"{name} must be a DenseVector, got {type(value).__name__}")
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
    kind that needs them and then kept, 6n floats and one flag in all: the
    row values in ``_rows`` (u.v and whether one is zero, |u|^2 and |v|^2,
    recos' sorted dot), and in ``_ranked`` the centered ranks of ``gold``
    and of n scores without ties.  ``==``, ``hash`` and ``repr`` ignore
    them.  They never go stale because the columns cannot change: each is
    a view of an array made read-only, so its writes cannot be enabled
    again.  Writing through a column's ``.base`` is unsupported.
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
    def _ranked(self) -> _Ranked:
        """``gold``'s side of the Spearman correlation ``evaluate`` reports."""
        return _Ranked(self.gold)

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


def _plain_head(data: bytes) -> tuple[bytes, bytes]:
    """The first line of a file's bytes and its line end, LF or CRLF; two
    empty strings if the file has no LF or does not end in that line end."""
    head_end = data.find(b"\n")
    header = data[:head_end].removesuffix(b"\r")
    eol = data[len(header) : head_end + 1]
    return (header, eol) if head_end >= 0 and data.endswith(eol) else (b"", b"")


def _plain_rows(rows: bytes, alphabet: bytes, width: int, eol: bytes) -> int:
    """How many rows ``rows`` holds if each is ``width`` comma-separated
    fields of ``alphabet`` bytes ending in ``eol``, the last row's final LF
    dropped; else 0.  Deleting the alphabet leaves only commas and line ends."""
    separators = rows.translate(None, alphabet) + b"\n"
    row = b"," * (width - 1) + eol
    count = len(separators) // len(row)
    return count if separators == row * count else 0


def load_pairs(path: PathLike, name: str | None = None) -> PairDataset:
    """Load a pair dataset, validating the header and every row: a plain
    file by numpy (``_plain_table``), any other file line by line."""
    path = Path(path)
    data = _read_bytes(path)
    header, eol = _plain_head(data)
    dim = header.count(b",") // 2
    plain = header == _pair_header(dim).encode("ascii")
    table = _plain_table(data, len(header) + len(eol), 1 + 2 * dim) if plain else None
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


# The fewest bytes of rows worth a worker of their own.  On a 2-core x86-64
# VM, two parts of a 53 kB file took 1.26 times as long as one call, of a
# 107 kB file 0.95 times and of a 214 kB file 0.85 times.
_PART_MIN_CHARS = 2**16


def _plain_table(data: bytes, start: int, width: int) -> np.ndarray | None:
    """The rows of a pair file's bytes from byte ``start`` to the end, one
    final LF dropped, parsed by numpy if they are plain (the line end is
    that of the line before ``start``, else LF), 2 at least and finite; else
    None.  The strtold reader cuts the rows at line feeds into parts of about
    equal size, one per CPU the process may run on but at most one per
    ``_PART_MIN_CHARS`` bytes (``_read_parts``)."""
    eol = b"\r\n" if data.endswith(b"\r\n", 0, start) else b"\n"
    end = len(data) - 1 if data.endswith(b"\n") else len(data)
    count = min(_available_cpus(), (end - start) // _PART_MIN_CHARS) if _X87_LONG_DOUBLE else 1
    edges = [start - 1]  # the line feed before each part
    for k in range(1, count):
        cut = data.find(b"\n", start + (end - start) * k // count, end)
        if cut > edges[-1]:
            edges.append(cut)
    parts = [data[lo + 1 : hi] for lo, hi in zip(edges, [*edges[1:], end])]
    tables = _read_parts(parts, width, eol)
    if any(table is None for table in tables) or sum(map(len, tables)) < 2:
        return None
    return tables[0] if len(tables) == 1 else np.concatenate(tables)


def _available_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot say (``os.sched_getaffinity`` is missing on macOS and Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_parts(parts: list[bytes], width: int, eol: bytes) -> list[np.ndarray | None]:
    """``_plain_part`` of each part, in part order: the first in the calling
    thread, checked and then parsed, and each other part on a thread pool's
    worker, submitted before that, parsed and then checked.  A part's checks
    hold the GIL and its parse does not, so they run during another part's
    parse.  One part imports no pool.  Every worker has ended before this
    returns or raises; of the exceptions that ``_plain_part`` does not turn
    into None (a MemoryError, say), the first part's is raised.
    """
    if len(parts) == 1:
        return [_plain_part(parts[0], width, eol)]
    from concurrent.futures import ThreadPoolExecutor  # imports logging, about 6 ms

    with ThreadPoolExecutor(len(parts) - 1) as pool:
        rest = [pool.submit(_plain_part, part, width, eol, True) for part in parts[1:]]
        first = _plain_part(parts[0], width, eol)
    return [first, *(future.result() for future in rest)]


def _plain_part(
    part: bytes, width: int, eol: bytes, parse_first: bool = False
) -> np.ndarray | None:
    """The finite table of ``part``'s rows, or None, parsed before it is
    checked with ``parse_first``.  The reader's ValueError, or a warning
    that the caller's filters raise, gives None.  ``float()`` strips the CR
    of a CRLF row from a field that it reads again."""
    wide = _long_doubles(part) if parse_first else None
    rows = _plain_rows(part, _PLAIN_LITERAL_CHARS, width, eol)
    if not rows:
        return None
    try:
        if _X87_LONG_DOUBLE:
            wide = wide if parse_first else _long_doubles(part)
            if wide is None or wide.size != rows * width:
                return None
            # Older numpy warns at unmatched text rather than raise, keeping
            # what strtold read of a last field such as "1e", which counts.
            float(part[part.rfind(b",") + 1 :])
            table = _strtold_table(part, wide, rows, width)
        else:
            lines = part.decode("ascii").splitlines()
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape != (rows, width) or not np.isfinite(table).all():
        return None
    return table


def _long_doubles(part: bytes) -> np.ndarray | None:
    """``part``'s fields as x87 long doubles, or None where ``np.fromstring``
    rejects them; it needs ``bytes``, which end in a NUL, to stop.  CRs are
    deleted first: it would read the empty field in ``,\\r,`` as 0."""
    try:
        text = part.replace(b"\r", b"").replace(b"\n", b",")
        return np.fromstring(text, dtype=np.longdouble, sep=",")
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
    with np.errstate(all="ignore"):  # a value beyond float64 casts to inf
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
    if _SCORE_RE.fullmatch(text) is None:
        raise ValueError(f"score must be a decimal with at most 2 fraction digits: {text!r}")
    signed_integer, _, fraction = text.partition(".")
    cents = int(signed_integer + fraction.ljust(2, "0"))
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
    not a ``str``, empty, holding a comma, or with surrounding whitespace or
    a line break."""
    if not isinstance(value, str):
        raise DegenerateInputError(f"{fname} must be a str, got {value!r}")
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
    """One benchmark cell; the score is held exactly as integer hundredths,
    an ``int`` made by ``operator.index``, so a float is rejected."""

    model: str
    method: str
    dataset: str
    score_cents: int

    def __post_init__(self) -> None:
        _check_results_field("model", self.model)
        _check_results_field("method", self.method)
        _check_results_field("dataset", self.dataset)
        try:
            object.__setattr__(self, "score_cents", operator.index(self.score_cents))
        except TypeError:
            raise DegenerateInputError(
                f"score_cents must be an integer, got {self.score_cents!r}"
            ) from None
        try:
            self.score
        except OverflowError:
            raise DegenerateInputError(
                "score_cents is too large: score_cents / 100.0 overflows a float64"
            ) from None

    @property
    def score(self) -> float:
        return _cents_to_score(self.score_cents)


class _MethodColumns:
    """One method's rows of a table, in file order, as columns: read-only
    cell codes, scores, dataset codes and dataset counts, the scores' peak
    (their largest magnitude), which decides the scale of every sum of
    them (see ``ordsim.stats``), and their micro-average.  ``cells`` and
    ``mean_var`` are made on first use and kept.

    Methods of one table whose cell codes are equal share one cell codes
    array, and with it one dataset codes and one counts array: the same
    cells in the same order have the same datasets.  So two methods list
    their cells in one order exactly when their ``cell_codes`` are the same
    object.
    """

    def __init__(
        self,
        rows: np.ndarray,
        models: list[str],
        datasets: list[str],
        cell_codes: np.ndarray,
        scores: np.ndarray,
        dataset_codes: np.ndarray,
        layouts: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        # rows: the method's row numbers; layouts: the cell, dataset and
        # count arrays of the table's methods so far, by their cell codes'
        # bytes; the other arguments are the table's columns.
        self._rows = rows
        self._models_and_datasets = (models, datasets)
        cells = cell_codes[rows]  # one code per (model, dataset) of the table
        key = cells.tobytes()
        layout = layouts.get(key)
        if layout is None:
            # Dataset codes numbered in the method's order of first appearance.
            _, codes = _encode(dataset_codes[rows].tolist())
            layout = layouts[key] = (cells, codes, np.bincount(codes))
            for column in layout:
                column.setflags(write=False)
        self.cell_codes, self.datasets, self.dataset_counts = layout
        self.scores = scores[rows]  # read-only float64, ResultsRow.score bit for bit
        self.scores.setflags(write=False)
        self.peak = float(np.abs(self.scores).max())
        self.micro_average = _micro_average(self.scores, self.peak)

    @cached_property
    def cells(self) -> tuple[tuple[str, str], ...]:
        """(model, dataset) per score."""
        models, datasets = self._models_and_datasets
        rows = self._rows.tolist()
        return tuple(zip(map(models.__getitem__, rows), map(datasets.__getitem__, rows)))

    @cached_property
    def mean_var(self) -> tuple[float, float]:
        """``stats._mean_var`` of the scores, at scale 1.0: for a peak below
        ``stats._PEAK_LIMIT``, where no sum of them overflows."""
        return _mean_var(self.scores)


@dataclass(frozen=True)
class ResultsTable:
    """Benchmark cells with unique (model, method, dataset) triples.

    A table is kept as columns.  Once, when it is made, it builds each
    method's columns: a read-only float64 array of its scores in file order
    (``ResultsRow.score`` bit for bit, see ``scores``), their cell codes,
    dataset codes numbered in the method's own order of first appearance
    and their counts, and the micro-average of the scores.  Methods whose
    cells come in one order share one array of each kind of code (see
    ``_MethodColumns``).  The method's (model, dataset) cells and the mean
    and variance of its scores are made on first use and kept.  ``compare``
    reads only these; its leave-one-dataset-out test sums the differences
    per dataset code.

    ``rows`` is the table's value, kept as a tuple whatever sequence made
    it: ``==``, ``hash`` and ``repr`` read it and nothing else.  A table
    that ``load_results`` made builds its rows with ``ResultsRow`` on first
    access and keeps them.
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
        cls,
        models: list[str],
        methods: list[str],
        datasets: list[str],
        cents: list[int] | np.ndarray,
    ) -> ResultsTable:
        # For columns whose values ``load_results`` has checked; the cents
        # are a list of int, or an int64 array of magnitudes below 2**53.
        table = cls.__new__(cls)
        table._set_columns(models, methods, datasets, cents)
        return table

    def __getattr__(self, name: str) -> tuple[ResultsRow, ...]:
        # Python calls this only for an attribute the instance lacks: the
        # rows of a loaded table, before their first use.
        if name != "rows":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = tuple(map(ResultsRow, *self._row_columns))
        object.__setattr__(self, "rows", rows)
        return rows

    def _set_columns(
        self,
        models: list[str],
        methods: list[str],
        datasets: list[str],
        cents: list[int] | np.ndarray,
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
        # An int64 below 2**53, and fromiter's conversion of an int, give
        # float()'s value, so the division gives the bits of ResultsRow.score;
        # fromiter overflows only on a score above about 1.8e306, and then
        # each score is converted on its own.
        if isinstance(cents, np.ndarray):
            scores = cents / 100.0
            cents = cents.tolist()
        else:
            try:
                scores = np.fromiter(cents, np.float64, len(cents)) / 100.0
            except OverflowError:
                scores = np.fromiter(map(_cents_to_score, cents), np.float64, len(cents))
        columns = {}
        layouts: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for code, method in enumerate(method_names):
            rows = np.flatnonzero(method_codes == code)
            columns[method] = _MethodColumns(
                rows, models, datasets, cell_codes, scores, dataset_codes, layouts
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
        return {(row.model, row.dataset): row for row in self.rows if row.method == method}

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

# The bytes a plain results file's fields may hold: printable ASCII and
# tab, but not the comma.  None is a line break to str.splitlines().
_PLAIN_RESULTS_BYTES = bytes(range(0x20, 0x7F)).replace(b",", b"") + b"\t"


def load_results(path: PathLike) -> ResultsTable:
    """Load a results table, enforcing the schema and triple uniqueness: a
    plain file a column at a time (``_plain_results``), any other file, and a
    plain one that fails a check, line by line (``_results_by_line``)."""
    path = Path(path)
    data = _read_bytes(path)
    table = _plain_results(data)
    if table is None:
        header_no, header, lines = _read_lines(path, data)
        if header != _RESULTS_HEADER:
            raise _bad_line(
                path, header_no, f"header must be {_RESULTS_HEADER!r}, got {header!r}"
            )
        table = ResultsTable._from_columns(*_results_by_line(path, lines))
    return table


def _plain_results(data: bytes) -> ResultsTable | None:
    """The table of a plain results file's bytes, or None.

    A plain file's rows, one at least, hold four fields of
    ``_PLAIN_RESULTS_BYTES`` each (the module's rule), so they are the lines
    ``_read_lines`` gives, and each name that ``strip()`` leaves non-empty
    passes ``_check_results_field``.  The rows are checked a column at a
    time: no field may be empty after ``strip()``, every score must be a
    ``_SCORE_RE`` decimal of magnitude below 1e13, and no cell may repeat.
    A file that is not plain or fails a check gives None.
    """
    header, eol = _plain_head(data)
    start = len(header) + len(eol)
    rows = _plain_rows(data[start:-1], _PLAIN_RESULTS_BYTES, 4, eol)
    if header != _RESULTS_HEADER.encode() or not rows:
        return None
    joined = data[start : len(data) - len(eol)].decode("ascii").replace(eol.decode(), ",")
    fields = joined.split(",")
    # Of the bytes a plain file's fields hold, strip() removes space and tab.
    if b" " in data or b"\t" in data:
        fields = list(map(str.strip, fields))
    scores = fields[3::4]
    if not _SCORE_COLUMN_RE.fullmatch("\n".join(scores) + "\n"):
        return None
    values = np.fromiter(map(float, scores), np.float64, len(scores))
    # Below 1e13, float() is within 2**-53 relative of the exact score, so a
    # hundred times it is within 0.25 of the exact cents, which rint returns.
    if not np.abs(values).max() < 1e13:
        return None
    cents = np.rint(values * 100.0).astype(np.int64)
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
    """Write a results table from its row columns, in row order; scores are
    rendered with 2 fraction digits."""
    lines = [_RESULTS_HEADER]
    for model, method, dataset, cents in zip(*table._row_columns):
        lines.append(f"{model},{method},{dataset},{_format_score_cents(cents)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
