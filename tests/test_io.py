"""Dataset IO: round-trips, error reporting with line numbers, fixture integrity."""

import decimal
import gzip
import itertools
import math
import os
import platform
import re
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsim.io
from ordsim import (
    DatasetFormatError,
    DegenerateInputError,
    DenseVector,
    InvalidVectorError,
    PairDataset,
    PairRecord,
    ResultsRow,
    ResultsTable,
    fixture_path,
    format_vector,
    load_experts,
    load_pairs,
    load_results,
    parse_vector,
    save_pairs,
    save_results,
)
from ordsim.io import _format_score_cents, _pair_header, _parse_score_cents

component = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestParseVector:
    def test_basic(self):
        assert parse_vector("1,5.5,2,4") == DenseVector([1, 5.5, 2, 4])

    def test_whitespace_tolerated(self):
        assert parse_vector(" 1 , 2.5 ") == DenseVector([1, 2.5])

    def test_scientific_notation(self):
        assert parse_vector("1e-3,2E4") == DenseVector([0.001, 20000.0])

    def test_empty_component_named_by_position(self):
        with pytest.raises(InvalidVectorError, match="position 2"):
            parse_vector("1,,2")

    def test_non_numeric_named_by_position(self):
        with pytest.raises(InvalidVectorError, match="component 2"):
            parse_vector("1,abc")

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidVectorError):
            parse_vector("1,nan")
        with pytest.raises(InvalidVectorError):
            parse_vector("inf")

    def test_format_vector_takes_what_the_metrics_take(self):
        assert format_vector([1.0, 2.5]) == "1.0,2.5"
        assert format_vector((3, 4)) == "3.0,4.0"
        assert format_vector(np.array([0.1, -0.0, 1e300])) == "0.1,-0.0,1e+300"
        for junk in ("1,2", [], [[1.0]], [1.0, math.nan], None, [1.0, "x"]):
            with pytest.raises(InvalidVectorError):
                format_vector(junk)

    @given(st.lists(component, min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_format_parse_round_trip_is_exact(self, comps):
        v = DenseVector(comps)
        assert parse_vector(format_vector(v)) == v


def _random_dataset(rng, name="synth", n=6, dim=3):
    records = []
    for _ in range(n):
        records.append(
            PairRecord(
                gold=float(rng.uniform(0, 5)),
                u=DenseVector(rng.standard_normal(dim)),
                v=DenseVector(rng.standard_normal(dim)),
            )
        )
    return PairDataset(name=name, dim=dim, records=tuple(records))


def _records_of(ds):
    """The dataset's pairs as records, read from its columns in row order."""
    return [
        PairRecord(gold, DenseVector(u), DenseVector(v)) for gold, u, v in zip(ds.gold, ds.U, ds.V)
    ]


class TestPairRecordAndDataset:
    def test_record_validation(self):
        with pytest.raises(DegenerateInputError):
            PairRecord(float("nan"), DenseVector([1]), DenseVector([1]))
        with pytest.raises(DegenerateInputError):
            PairRecord(1.0, DenseVector([1, 2]), DenseVector([1]))
        u = DenseVector([1.0, 2.0])
        for gold in ("x", None, 1j, 10**400):
            with pytest.raises(DegenerateInputError, match="^gold score is not a real number: "):
                PairRecord(gold, u, u)
        with pytest.raises(DegenerateInputError, match="^u must be a DenseVector, got list$"):
            PairRecord(1.0, [1.0, 2.0], u)
        with pytest.raises(DegenerateInputError, match="^v must be a DenseVector, got ndarray$"):
            PairRecord(1.0, u, np.array([1.0, 2.0]))

    def test_dataset_needs_two_records(self):
        rec = PairRecord(1.0, DenseVector([1]), DenseVector([2]))
        with pytest.raises(DegenerateInputError, match="^a pair dataset needs at least 2 records$"):
            PairDataset("x", 1, (rec,))

    def test_dataset_dimension_consistency(self):
        rec1 = PairRecord(1.0, DenseVector([1]), DenseVector([2]))
        rec2 = PairRecord(1.0, DenseVector([1, 2]), DenseVector([2, 1]))
        with pytest.raises(
            DegenerateInputError, match="^record 1 has dimension 2, dataset declares 1$"
        ):
            PairDataset("x", 1, (rec1, rec2))

    def test_value_equality(self):
        rng = np.random.default_rng(149)
        ds = _random_dataset(rng)
        same = PairDataset(name=ds.name, dim=ds.dim, records=_records_of(ds))
        assert same == ds and hash(same) == hash(ds)
        flipped = PairDataset(
            ds.name, ds.dim, [PairRecord(-r.gold, r.u, r.v) for r in _records_of(ds)]
        )
        assert flipped != ds


class TestColumns:
    def _records(self, n=5, dim=3):
        rng = np.random.default_rng(139)
        return [
            PairRecord(
                float(rng.uniform(0, 5)),
                DenseVector(rng.standard_normal(dim)),
                DenseVector(rng.standard_normal(dim)),
            )
            for _ in range(n)
        ]

    def _assert_columns_of(self, ds, records):
        assert ds.n == len(records)
        assert np.array_equal(ds.gold, [r.gold for r in records])
        assert np.array_equal(ds.U, np.stack([r.u.components for r in records]))
        assert np.array_equal(ds.V, np.stack([r.v.components for r in records]))
        for column in (ds.gold, ds.U, ds.V):
            assert column.dtype == np.float64
            assert not column.flags.writeable
        assert ds.gold.shape == (ds.n,)
        assert ds.U.shape == ds.V.shape == (ds.n, ds.dim)

    def test_built_from_records(self):
        records = self._records()
        ds = PairDataset("synth", 3, records)
        self._assert_columns_of(ds, records)
        assert _records_of(ds) == records

    def test_loaded_from_file(self, tmp_path):
        records = self._records()
        path = tmp_path / "pairs.csv"
        save_pairs(PairDataset("synth", 3, records), path)
        ds = load_pairs(path)
        self._assert_columns_of(ds, records)
        assert _records_of(ds) == records

    @pytest.mark.parametrize("source", ["records", "file"])
    def test_columns_cannot_be_made_writable(self, source, tmp_path):
        # The values a dataset keeps are computed from its columns, so a
        # column that could be written again would leave them stale.
        records = self._records()
        ds = PairDataset("synth", 3, records)
        if source == "file":
            save_pairs(ds, tmp_path / "pairs.csv")
            ds = load_pairs(tmp_path / "pairs.csv", name="synth")
        for column in (ds.gold, ds.U, ds.V):
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                column.setflags(write=True)
        self._assert_columns_of(ds, records)
        same = PairDataset("synth", 3, records)
        assert ds == same and hash(ds) == hash(same)

    def test_columns_over_memory_numpy_does_not_own_are_copied(self):
        # A bytearray's memory cannot be frozen through numpy, so a view of
        # it could be made writable again; the dataset keeps a copy instead.
        buffers = [bytearray(np.arange(k, dtype=np.float64).tobytes()) for k in (2, 6, 6)]
        gold, U, V = (np.frombuffer(b, np.float64) for b in buffers)
        ds = PairDataset._from_columns("buffered", gold, U.reshape(2, 3), V.reshape(2, 3))
        for column, buffer in zip((ds.gold, ds.U, ds.V), buffers):
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                column.setflags(write=True)
            assert not np.shares_memory(column, np.frombuffer(buffer, np.float64))
        before = ds._rows.dots.copy()
        buffers[1][:8] = np.float64(100.0).tobytes()
        assert ds.U[0, 0] == 0.0 and np.array_equal(ds._rows.dots, before)

    @pytest.mark.parametrize("source", ["records", "file"])
    def test_columns_are_frozen_without_a_copy(self, source, tmp_path):
        # Both constructors build columns over arrays that own their memory,
        # which _frozen_view freezes in place.
        ds = PairDataset("synth", 3, self._records())
        if source == "file":
            save_pairs(ds, tmp_path / "pairs.csv")
            ds = load_pairs(tmp_path / "pairs.csv")
        for column in (ds.gold, ds.U, ds.V):
            owner = column
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert owner.base is None and owner.flags.owndata

class TestPairsRoundTrip:
    def test_save_load_exact(self, tmp_path):
        rng = np.random.default_rng(151)
        ds = _random_dataset(rng)
        path = tmp_path / "pairs.csv"
        save_pairs(ds, path)
        loaded = load_pairs(path, name=ds.name)
        assert loaded.name == ds.name
        assert loaded.dim == ds.dim
        for mine, theirs in zip((loaded.gold, loaded.U, loaded.V), (ds.gold, ds.U, ds.V)):
            assert mine.tobytes() == theirs.tobytes()

    def test_file_text_is_shortest_repr(self, tmp_path):
        ds = PairDataset(
            "x",
            2,
            (
                PairRecord(0.1, DenseVector([1 / 3, -2.5]), DenseVector([1e-300, 7.0])),
                PairRecord(4.0, DenseVector([0.0, -0.0]), DenseVector([1e300, 2.0**-1074])),
            ),
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_pairs(ds, first)
        assert first.read_text() == (
            "gold,u_0,u_1,v_0,v_1\n"
            "0.1,0.3333333333333333,-2.5,1e-300,7.0\n"
            "4.0,0.0,-0.0,1e+300,5e-324\n"
        )
        save_pairs(load_pairs(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_name_defaults_to_stem(self, tmp_path):
        rng = np.random.default_rng(157)
        path = tmp_path / "sts_demo.csv"
        save_pairs(_random_dataset(rng), path)
        assert load_pairs(path).name == "sts_demo"

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        text = "gold,u_0,v_0\r\n1.0,2.0,3.0\r\n2.0,4.0,5.0\r\n"
        path.write_bytes(text.encode())
        ds = load_pairs(path)
        assert ds.n == 2 and ds.dim == 1

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("gold,u_0,v_0\n1.0,2.0,3.0\n2.0,4.0,5.0\n\n\n")
        assert load_pairs(path).n == 2

    def test_whitespace_only_lines_ignored(self, tmp_path):
        # Lines of Unicode whitespace count as blank, as str.strip() sees them.
        path = tmp_path / "blank.csv"
        path.write_text("gold,u_0,v_0\n \t\n1.0,2.0,3.0\n\u3000\u00a0\n2.0,4.0,5.0\n\u2003\n")
        assert load_pairs(path).n == 2
        path.write_text("gold,u_0,v_0\n1.0,2.0,3.0\n\u200b\n2.0,4.0,5.0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_pairs(path)  # a zero-width space is not whitespace
        assert err.value.line == 3

    def test_isspace_agrees_with_strip_on_every_code_point(self):
        # The loaders drop a line when isspace() holds, which stands for
        # strip() emptying it; the two must agree on every character.
        chars = map(chr, range(0x110000))
        assert [c for c in chars if c.isspace() != (c.strip() == "")] == []

    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "min.csv"
        path.write_text("gold,u_0,u_1,v_0,v_1\n5,1,2,1,2\n0,1,2,-1,-2\n")
        ds = load_pairs(path)
        assert ds.dim == 2
        assert DenseVector(ds.U[0]) == DenseVector([1, 2])
        assert DenseVector(ds.V[1]) == DenseVector([-1, -2])


class TestPairsErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_pairs(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_pairs(path)

    def test_bad_header_token(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("gold,a_0,v_0\n1,2,3\n2,3,4\n")
        with pytest.raises(DatasetFormatError) as err:
            load_pairs(path)
        assert err.value.line == 1

    def test_even_header_width(self, tmp_path):
        path = tmp_path / "hdr2.csv"
        path.write_text("gold,u_0,u_1,v_0\n1,2,3,4\n1,2,3,4\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_pairs(path)

    def test_row_width_error_names_line(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("gold,u_0,v_0\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="3:") as err:
            load_pairs(path)
        assert err.value.line == 3

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("gold,u_0,v_0\n1.0,x,3.0\n1.0,2.0,3.0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_pairs(path)
        assert err.value.line == 2

    def test_non_finite_component_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("gold,u_0,v_0\n1.0,inf,3.0\n1.0,2.0,3.0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_pairs(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "row,message",
        [
            ("1.0,inf,3.0", "vector components must be finite"),
            ("1.0,2.0,-inf", "vector components must be finite"),
            ("nan,2.0,3.0", "gold score must be finite"),
            ("1e999,1e999,3.0", "vector components must be finite"),
        ],
    )
    def test_non_finite_error_names_the_part(self, tmp_path, row, message):
        path = tmp_path / "inf.csv"
        path.write_text(f"gold,u_0,v_0\n1.0,2.0,3.0\n{row}\n1.0,x,3.0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_pairs(path)
        assert str(err.value) == f"{path}:3: {message}"
        assert err.value.line == 3

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("gold,u_0,v_0\n1.0,2.0,3.0\n")
        with pytest.raises(DatasetFormatError, match="at least 2"):
            load_pairs(path)


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "load, header, row",
        [
            (load_pairs, "gold,u_0,v_0", "1,2,3"),
            (load_results, "model,method,dataset,score", "m,cos,D,1.25"),
            (load_experts, "name,c1", "a,1"),
        ],
    )
    def test_bad_byte_names_path_and_line(self, tmp_path, load, header, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{header}\r\n{row}\r\n\xff{row}\n".encode("latin-1"))
        with pytest.raises(DatasetFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:3: not valid UTF-8: invalid start byte"
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "load, header, row",
        [
            (load_pairs, b"gold,u_0,v_0", b"1,2,3"),
            (load_results, b"model,method,dataset,score", b"m,cos,D,1.25"),
            (load_experts, b"name,c1", b"a,1"),
        ],
    )
    @pytest.mark.parametrize("newline", [b"\r", b"\xe2\x80\xa8"], ids=["cr", "u2028"])
    def test_bad_byte_after_line_ends_only_splitlines_sees(
        self, tmp_path, load, header, row, newline
    ):
        # The lines are numbered as the rows are, by str.splitlines().
        path = tmp_path / "bad.csv"
        path.write_bytes(newline.join([header, row, row[:-1] + b"\xff" + row[-1:]]) + newline)
        with pytest.raises(DatasetFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:3: not valid UTF-8: invalid start byte"
        assert err.value.line == 3

    def test_bad_byte_on_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"gold\xff,u_0,v_0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_pairs(path)
        assert err.value.line == 1


def _reference_load_pairs(path, name=None):
    """load_pairs as it was before plain files went to numpy's reader: every
    row split on commas and parsed by float(), one line at a time."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = len((exc.object[: exc.start].decode("utf-8") + "_").splitlines())
        raise DatasetFormatError(
            f"{path}:{lineno}: not valid UTF-8: {exc.reason}", line=lineno
        ) from exc
    lines = [
        (i, line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line and not line.isspace()
    ]
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
    width = 1 + 2 * dim
    rows = lines[1:]
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
            try:
                PairRecord(
                    values[0], DenseVector(values[1 : 1 + dim]), DenseVector(values[1 + dim :])
                )
            except (InvalidVectorError, DegenerateInputError) as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}", line=lineno) from exc
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: need at least 2 data rows")
    return PairDataset._from_columns(
        name or path.stem, table[:, 0], table[:, 1 : 1 + dim], table[:, 1 + dim :]
    )


def _load_outcome(load, path, action="error", **errstate):
    """The columns' bits and the name, or the error's type, message and line,
    of a load under the warnings filter ``action`` and ``np.errstate(**errstate)``.

    By default any warning is raised as an error, so a warning changes the
    outcome.
    """
    try:
        with warnings.catch_warnings(), np.errstate(**errstate):
            warnings.simplefilter(action)
            ds = load(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    columns = (ds.gold, ds.U, ds.V)
    return ds.name, ds.dim, [(c.shape, c.tobytes()) for c in columns]


_PLAIN_CHARS = "0123456789.eE+-"
_repr_literals = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_plain_literals = st.one_of(
    _repr_literals,
    st.integers(-(10**30), 10**30).map(str),
    st.text(_PLAIN_CHARS, min_size=1, max_size=5),
    st.sampled_from(["-0.0", "-0", "5e-324", "2e-324", "1e999", "-1e999", "1E5", "+.5", "1.", ""]),
)
_other_literals = st.one_of(
    _repr_literals,
    st.sampled_from(
        [" 1", "1 ", "\t2", "1_0", "inf", "-inf", "nan", "Infinity", "\u0661", "\uff11",
         "0x10", "\u00a01", "1,", "\x0c1", "1\u2028", "\x1c"]
    ),
)
_blank_lines = st.sampled_from(["", " ", "\t", "\x0c", "\u2028", "\u3000"])


@st.composite
def _pair_file_texts(draw):
    """Pair-file texts, mostly well formed, some of plain literals only."""
    dim = draw(st.integers(1, 3))
    width = 1 + 2 * dim
    literal = draw(st.sampled_from([_repr_literals] * 2 + [_plain_literals, _other_literals]))
    lines = draw(st.lists(_blank_lines, max_size=2)) + [_pair_header(dim)]
    for _ in range(draw(st.integers(0, 5))):
        n_fields = draw(st.sampled_from([width] * 18 + [width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(literal, min_size=n_fields, max_size=n_fields))))
        lines += draw(st.lists(_blank_lines, max_size=1))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _short_pair_file(rows, newline="\n"):
    return newline.join(["gold,u_0,v_0", *rows]) + newline


def _plain_rows_table(rows, width):
    """``io._plain_table`` of the rows of a file, as text lines."""
    return ordsim.io._plain_table("\n".join(rows).encode("utf-8"), 0, width)


def _midpoint_literals(x):
    """Exact decimals of the midpoints between the double ``x`` and its two
    neighbours, and of the decimals 1e-30 of an ulp to either side of each:
    where a reader rounds twice, these are the literals it can round wrong."""
    literals = []
    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        if not math.isfinite(y):
            continue
        half_gap = (Fraction(y) - Fraction(x)) / 2
        midpoint = Fraction(x) + half_gap
        for offset in (0, Fraction(1, 10**30), -Fraction(1, 10**30)):
            literals.append(_exact_decimal(midpoint + offset * abs(half_gap)))
    return literals


def _exact_decimal(q):
    """A decimal literal of the rational ``q`` whose denominator is
    2**a * 5**b, digit for digit."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        return format(decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator), "e")


# Small pair files at the edges of the plain readers' checks.
_EDGE_CASE_FILES = [
    _short_pair_file(["-0.0,0.0,-0", "1,-0.0,2"]),
    _short_pair_file(["5e-324,2.2250738585072014e-308,-4e-320", "1e-310,0,1"]),
    _short_pair_file(["1e999,1,2", "1,2,3"]),
    _short_pair_file(["1,2,3", "-1e999,1,2"]),
    _short_pair_file(["1,2,3", "4,5,6"], "\r\n"),
    _short_pair_file(["1,2,3", "4,5,6"], "\r"),
    # Subnormals, read again with float(), at the ends of CRLF rows.
    _short_pair_file(["5e-324,2.2250738585072014e-308,-4e-320", "1e-310,0,1e-320"], "\r\n"),
    # An empty last field before a CRLF, in the first row and in the last.
    _short_pair_file(["1,2,", "4,5,6"], "\r\n"),
    _short_pair_file(["1,2,3", "4,5,"], "\r\n"),
    "gold,u_0,v_0\n\n1,2,3\r\n\r\n\n4,5,6\n\n",
    "\n \n\r\ngold,u_0,v_0\n1,2,3\n4,5,6\n",
    "\n  gold,u_0,v_0\n1,2,3\n4,5,6\n",
    "gold,u_0,v_0\x0c\n1,2,3\n4,5,6\n",
    "gold,u_0,v_0\n\n\n",
    "gold,u_0,v_0\n\r\n",
    _short_pair_file(["1,2,3\x0c4,5,6"]),
    _short_pair_file(["1,2,3\x1c4,5,6", "7,8,9"]),
    _short_pair_file(["1,2,3\u20284,5,6"]),
    _short_pair_file(["1,2\x0c,3", "4,5,6"]),
    _short_pair_file(["1,,3", "4,5,6"]),
    _short_pair_file(["1,2,3,", "4,5,6,"]),
    _short_pair_file(["1,2,3", "4,5,6,"]),
    _short_pair_file(["1,2", "4,5"]),
    _short_pair_file(["1,2,3"]),
    _short_pair_file(["1e5,1E-5,+.5", "1.,-0e0,00"]),
    # Below float64's smallest subnormal, in the first part and the last.
    _short_pair_file(["1e-400,1,2", "3,4,-1e-400"]),
]


# Bytes of pair files that the UTF-8 texts above never hold: invalid UTF-8,
# NUL, lone CR, line breaks that only str.splitlines() sees, and blanks.
_odd_bytes = st.sampled_from(
    [b"\xff", b"\xc3", b"\x00", b"\r", b"\x0c", b"\x1c", b"\xc2\x85", b"\xe2\x80\xa8",
     b" ", b"\t", b"\xc2\xa0", b"inf", b"0x1"]
)
_line_ends = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"\r\n\r\n", b"\n \n"])


@st.composite
def _pair_file_bytes(draw):
    """Pair files as raw bytes: plain rows with odd bytes and line ends."""
    dim = draw(st.integers(1, 2))
    # One field in 16 is odd: more would leave few files that load.
    plain, odd = _repr_literals.map(str.encode), st.one_of(_odd_bytes, st.binary(max_size=2))
    field = st.sampled_from([plain] * 15 + [odd])
    header = _pair_header(dim).encode()
    lines = [draw(st.sampled_from([header] * 6 + [header + b"\r", header + b" "]))]
    for _ in range(draw(st.integers(1, 5))):
        n_fields = draw(st.sampled_from([1 + 2 * dim] * 8 + [2 * dim]))
        lines.append(b",".join(draw(draw(field)) for _ in range(n_fields)))
    # Some files end every line in CRLF, so that plain CRLF files are drawn.
    if draw(st.integers(0, 3)) == 0:
        ends = [b"\r\n"] * len(lines)
    else:
        ends = [draw(_line_ends) for _ in lines]
    data = b"".join(line + end for line, end in zip(lines, ends))
    prefixes = [b""] * 4 + [b"\n", b" \r\n", b"\x0c\n", b"\n\t", b"\xef\xbb\xbf"]
    prefix = draw(st.sampled_from(prefixes))
    return prefix + data[: len(data) - draw(st.sampled_from([0] * 4 + [1, 2]))]


def _same_columns_or_error_test():
    # One Hypothesis test per class: Hypothesis fails a test function that
    # two classes run (its differing_executors health check).
    @given(_pair_file_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_columns_or_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _load_outcome(load_pairs, path) == _load_outcome(_reference_load_pairs, path)

    return test_same_columns_or_error


def _raw_bytes_test():
    @given(_pair_file_bytes(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_raw_bytes_give_the_reference_outcome(self, tmp_path_factory, data, cpus):
        # Files split into parts at any size: on every file, the columns or
        # the typed error and line of the reference, and no thread left.
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        path.write_bytes(data)
        want = _load_outcome(_reference_load_pairs, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ordsim.io, "_PART_MIN_CHARS", 1)
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            before = threading.active_count()
            outcome = _load_outcome(load_pairs, path)
            assert threading.active_count() == before
        assert outcome == want
        assert outcome[0] in ("pairs", DatasetFormatError)

    return test_raw_bytes_give_the_reference_outcome


class TestNumpyReaderMatchesFloat:
    """Plain files are parsed by numpy in one call; every file must load to
    the same columns, or fail with the same error, as the per-line reference.

    This class tests the reader this platform picks (strtold on x86-64);
    ``TestLoadtxtReaderMatchesFloat`` runs the same tests on np.loadtxt.
    """

    loadtxt_only = False

    @pytest.fixture(autouse=True, scope="class")
    def _plain_reader(self, request):
        with pytest.MonkeyPatch.context() as mp:
            if request.cls.loadtxt_only:
                mp.setattr(ordsim.io, "_X87_LONG_DOUBLE", False)
            yield

    test_same_columns_or_error = _same_columns_or_error_test()
    test_raw_bytes_give_the_reference_outcome = _raw_bytes_test()

    @pytest.mark.parametrize("text", _EDGE_CASE_FILES)
    def test_edge_case_files(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _load_outcome(load_pairs, path) == _load_outcome(_reference_load_pairs, path)

    @pytest.mark.parametrize("action", ["ignore", "always", "error"])
    @pytest.mark.parametrize("errstate", ["ignore", "warn", "raise"])
    def test_edge_case_files_whatever_the_callers_state(
        self, tmp_path, monkeypatch, action, errstate
    ):
        # Neither the caller's warnings filter nor its numpy error state,
        # which numpy keeps per thread, changes a load in one part or more.
        monkeypatch.setattr(ordsim.io, "_PART_MIN_CHARS", 1)
        path = tmp_path / "pairs.csv"
        for text in _EDGE_CASE_FILES:
            path.write_bytes(text.encode("utf-8"))
            outcomes, _ = _outcomes_in_parts(path, [1, 2, 3], action, all=errstate)
            assert outcomes == [_load_outcome(_reference_load_pairs, path)] * 3

    @pytest.mark.parametrize("suffix", [".csv.gz", ".csv.bz2", ".csv.xz"])
    def test_plain_text_named_as_compressed(self, tmp_path, suffix):
        path = tmp_path / f"pairs{suffix}"
        path.write_text(_short_pair_file(["1,2,3", "4,5,6"]))
        outcome = _load_outcome(load_pairs, path)
        assert outcome == _load_outcome(_reference_load_pairs, path)
        assert outcome[0] == "pairs.csv"

    def test_gzip_file_is_not_decompressed(self, tmp_path):
        path = tmp_path / "pairs.csv.gz"
        path.write_bytes(gzip.compress(_short_pair_file(["1,2,3", "4,5,6"]).encode()))
        outcome = _load_outcome(load_pairs, path)
        assert outcome == _load_outcome(_reference_load_pairs, path)
        assert outcome[0] is DatasetFormatError and "not valid UTF-8" in outcome[1]

    def test_every_short_plain_literal_parses_as_float_does(self):
        # Every literal of 1 to 3 characters over the plain alphabet: numpy's
        # reader must accept exactly the ones float() accepts, with its bits.
        mismatches = []
        for k in (1, 2, 3):
            for chars in itertools.product(_PLAIN_CHARS, repeat=k):
                token = "".join(chars)
                try:
                    want = np.float64(float(token)).tobytes()
                except ValueError:
                    want = None
                table = _plain_rows_table([f"{token},0,0", "0,0,0"], 3)
                got = None if table is None else table[0, 0].tobytes()
                if got != want:
                    mismatches.append(token)
        assert mismatches == []

    def test_long_literals_round_as_float_does(self, tmp_path):
        # 17 to 40 significant digits, values from the subnormal range up
        # to 1e300: the digits past the 17th decide the rounding.
        rng = np.random.default_rng(2718)
        tokens = []
        for _ in range(5000):
            digits = "".join(map(str, rng.integers(0, 10, rng.integers(17, 41))))
            point = int(rng.integers(0, len(digits) + 1))
            sign = str(rng.choice(["", "-", "+"]))
            tokens.append(f"{sign}{digits[:point]}.{digits[point:]}e{rng.integers(-345, 261)}")
        # Exactly at and 1e-30 ulp beside double midpoints, where rounding
        # first to 64 bits and then to 53 can differ from float(): around 1
        # and 1.5, the smallest normal double and the largest subnormal, the
        # two smallest subnormals, and below the largest double.
        for x in (1.0, 1.5, 2.2250738585072014e-308, 2.225073858507201e-308, 5e-324, 1e-323,
                  1.7976931348623157e308):
            tokens += _midpoint_literals(x)
        table = _plain_rows_table([f"{token},1,1" for token in tokens], 3)
        assert table is not None
        assert table[:, 0].tobytes() == np.array([float(t) for t in tokens]).tobytes()
        # 2**1024 - 2**970 lies halfway between the largest double and
        # 2**1024: float() rounds it, and anything above it, to inf, so such
        # a file falls back to the per-line parse and its error.  Just below
        # it the gold is the largest double, whichever parse reads it.
        overflow = Fraction(2**1024 - 2**970)
        path = tmp_path / "pairs.csv"
        for q in (overflow, overflow * (1 + Fraction(1, 10**30)), overflow * (1 - Fraction(1, 10**30))):
            rows = [f"{_exact_decimal(q)},1,1", "1,1,1"]
            path.write_text(_short_pair_file(rows))
            outcome = _load_outcome(load_pairs, path)
            assert outcome == _load_outcome(_reference_load_pairs, path)
            if q < overflow:
                assert load_pairs(path).gold[0] == sys.float_info.max
            else:
                assert _plain_rows_table(rows, 3) is None
                assert outcome[:2] == (DatasetFormatError, f"{path}:2: gold score must be finite")

    def test_saved_files_take_numpys_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "pairs.csv"
        ds = _random_dataset(np.random.default_rng(163), n=8, dim=5)
        save_pairs(ds, path)
        reader = "fromstring" if ordsim.io._X87_LONG_DOUBLE else "loadtxt"
        if platform.machine() == "x86_64" and not self.loadtxt_only:
            assert reader == "fromstring"  # x86-64's long double is x87's

        def per_line(*args):
            raise AssertionError("a plain file went to the per-line loop")

        calls = []

        def counting(name, parse):
            def counted(*args, **kwargs):
                calls.append(name)
                return parse(*args, **kwargs)

            return counted

        monkeypatch.setattr(ordsim.io, "_table_by_line", per_line)
        for name in ("fromstring", "loadtxt"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        assert load_pairs(path, name=ds.name) == ds
        assert calls == [reader]

    @pytest.mark.parametrize(
        "text",
        [
            _short_pair_file(["1,2,3", "4.5,-5e-324,6", "7,8e300,9"], "\r\n"),
            _short_pair_file(["0.5,-1,2e-3", "1.5,-2,4e-3", "2.5,-3,6e-3", "3.5,-4,8e-3",
                              "4.5,-5,1e-2", "5.5,-6,1.2e-2"], "\r\n"),
        ],
        ids=["crlf", "crlf-six-rows"],
    )
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_common_files_take_numpys_reader(self, tmp_path, monkeypatch, text, cpus):
        # With parts of any size, so that a cut meets a CRLF.
        path = tmp_path / "pairs.csv"
        path.write_bytes(text.encode())
        want = _load_outcome(_reference_load_pairs, path)

        def per_line(*args):
            raise AssertionError("a common file went to the per-line loop")

        monkeypatch.setattr(ordsim.io, "_table_by_line", per_line)
        monkeypatch.setattr(ordsim.io, "_PART_MIN_CHARS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _load_outcome(load_pairs, path) == want
        assert want[:2] == ("pairs", 1)

    @pytest.mark.parametrize(
        "text",
        [
            _short_pair_file(["1,2,3", "4.5,-5e-324,6", "7,8e300,9"], "\r"),
            "gold,u_0,v_0\n1,2,3\n\n4.5,-5e-324,6\n\n\n7,8e300,9\n\n\n",
            "gold,u_0,v_0\n1,2,3\n4.5,-5e-324,6\n7,8e300,9",
            "\n\r\n \t\ngold,u_0,v_0\n1,2,3\n4.5,-5e-324,6\n7,8e300,9\n",
            "gold,u_0,v_0\r\n\r1,2,3\r\r\n4.5,-5e-324,6\n\r\n\r7,8e300,9\r\n\r",
        ],
        ids=["cr", "blank-lines", "no-final-newline", "header-after-blank-lines",
             "mixed-line-ends"],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_files_take_the_line_reader(self, tmp_path, monkeypatch, text, cpus):
        # Files that are not plain load by the per-line loop alone.
        path = tmp_path / "pairs.csv"
        path.write_bytes(text.encode())
        want = _load_outcome(_reference_load_pairs, path)
        table_by_line = ordsim.io._table_by_line
        per_line = []

        def counted_per_line(*args):
            per_line.append(args)
            return table_by_line(*args)

        monkeypatch.setattr(ordsim.io, "_table_by_line", counted_per_line)
        monkeypatch.setattr(ordsim.io, "_PART_MIN_CHARS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _load_outcome(load_pairs, path) == want
        assert want[:2] == ("pairs", 1) and len(per_line) == 1

    def test_parses_the_text_it_read(self, tmp_path, monkeypatch):
        # The file is read once: a writer that replaces it right after the
        # read does not change what is loaded, by numpy's reader or, for a
        # row with a space, by the per-line parse.
        read_bytes = Path.read_bytes

        def read_then_replace(self):
            data = read_bytes(self)
            self.write_text(_short_pair_file(["7,8,9", "1,2,x"]))
            return data

        monkeypatch.setattr(Path, "read_bytes", read_then_replace)
        monkeypatch.setattr(Path, "read_text", None)
        for first_row in ("1,2,3", " 1,2,3"):
            path = tmp_path / "pairs.csv"
            path.write_text(_short_pair_file([first_row, "4,5,6"]))
            ds = load_pairs(path)
            assert ds.gold.tolist() == [1.0, 4.0] and ds.V.tolist() == [[3.0], [6.0]]


class TestLoadtxtReaderMatchesFloat(TestNumpyReaderMatchesFloat):
    """The same tests on np.loadtxt, the plain reader where long double is
    not x87's, reached by setting the platform constant."""

    loadtxt_only = True
    test_same_columns_or_error = _same_columns_or_error_test()
    test_raw_bytes_give_the_reference_outcome = _raw_bytes_test()


@pytest.mark.skipif(not ordsim.io._X87_LONG_DOUBLE, reason="long double is not x87's")
def test_zeros_and_subnormals_reread_only_subnormals(tmp_path, monkeypatch):
    # Zeros are exact in both roundings; only the subnormals, whose second
    # rounding drops more than 11 bits, are read again with float().
    subnormals = ["5e-324", "-1e-323", "2.2250738585072009e-308", "4.9406564584124654e-324",
                  "1e-310", "-3.3e-320"]
    rows = ["0,-0.0,5e-324,0,-0.0", "-0.0,0,-1e-323,-0.0,0", "2.2250738585072009e-308,0,0,-0.0,0",
            "0,4.9406564584124654e-324,1e-310,-3.3e-320,0", "-0.0,-0.0,0,0,-0.0"]
    path = tmp_path / "pairs.csv"
    path.write_text(_pair_header(2) + "\n" + "\n".join(rows) + "\n")
    rereads = []

    def counting_float(text):
        rereads.append(text)
        return float(text)

    monkeypatch.setattr(ordsim.io, "float", counting_float, raising=False)
    assert _load_outcome(load_pairs, path) == _load_outcome(_reference_load_pairs, path)
    # And the last field of the file's one part, which is checked with float().
    assert sorted(rereads) == sorted(literal.encode() for literal in [*subnormals, "-0.0"])


def _outcomes_in_parts(path, cpu_counts, action="error", **errstate):
    """The load outcome of ``path`` with each CPU count, under the warnings
    filter ``action`` and ``np.errstate(**errstate)``, and the parts that
    each load checked, each as the list of its rows, in sorted order."""
    plain_part = ordsim.io._plain_part
    cut = []

    def counted(part, *args):
        cut.append(part.decode().split("\n"))
        return plain_part(part, *args)

    outcomes, parts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ordsim.io, "_plain_part", counted)
        for count in cpu_counts:
            mp.setattr(os, "sched_getaffinity", lambda pid, k=count: set(range(k)), raising=False)
            cut.clear()
            outcomes.append(_load_outcome(load_pairs, path, action, **errstate))
            parts.append(sorted(cut))
    return outcomes, parts


_MIDPOINT_ROW = f"{_midpoint_literals(1.0)[0]},{_midpoint_literals(1.5)[3]},-1"


@pytest.mark.skipif(not ordsim.io._X87_LONG_DOUBLE, reason="only the strtold reader splits a file")
class TestPartsMatchOnePart:
    """The strtold reader splits a large file into one part per available
    CPU.  Here the size threshold is lowered so that small files split: in
    any number of parts a file must load to the same bits, or fail with the
    same error and line, as in one part and as the per-line reference."""

    _ROWS = ["0.5,-1,2e-3", "1.5,-2,4e-3", "2.5,-3,6e-3", "3.5,-4,8e-3", "4.5,-5,1e-2",
             "5.5,-6,1.2e-2"]

    @staticmethod
    def _equal_length(rows):
        """The rows, each padded with leading zeros to the longest one's
        length, so that parts of equal size hold equal row counts: two
        parts of six rows take rows 0-2 and 3-5, three parts 0-1, 2-3, 4-5."""
        width = max(map(len, rows))
        return [row.rjust(width, "0") for row in rows]

    @pytest.fixture(autouse=True, scope="class")
    def _small_parts(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ordsim.io, "_PART_MIN_CHARS", 1)
            yield

    @given(_pair_file_texts(), st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_same_columns_or_error(self, tmp_path_factory, text, cpus):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes, _ = _outcomes_in_parts(path, [1, cpus])
        assert outcomes == [_load_outcome(_reference_load_pairs, path)] * 2

    @pytest.mark.parametrize("text", _EDGE_CASE_FILES)
    def test_edge_case_files(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes, _ = _outcomes_in_parts(path, [1, 2, 3])
        assert outcomes == [_load_outcome(_reference_load_pairs, path)] * 3

    @pytest.mark.parametrize(
        "row",
        ["1,1.2.3,3", "1,e,3", "1,x,3", "1,2,", "1,2,3,", "1,2", "1,2,3,4", _MIDPOINT_ROW,
         "1,5e-324,-1e-310", "1e999,1,2", "1,2,-1e999"],
    )
    @pytest.mark.parametrize("at", [0, 2, 3, 5])
    def test_a_row_in_any_part(self, tmp_path, row, at):
        # Row 0 starts the first part, row 5 ends the last; row 2 ends the
        # first of two parts and row 3 the middle one of three.
        rows = list(self._ROWS)
        rows[at] = row
        rows = self._equal_length(rows)
        path = tmp_path / "pairs.csv"
        path.write_text(_short_pair_file(rows))
        outcomes, parts = _outcomes_in_parts(path, [1, 2, 3])
        assert outcomes == [_load_outcome(_reference_load_pairs, path)] * 3
        cuts = [[rows], [rows[:3], rows[3:]], [rows[:2], rows[2:4], rows[4:]]]
        assert parts == list(map(sorted, cuts))

    def test_more_cpus_than_rows(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(_short_pair_file(self._ROWS[:3]))
        outcomes, parts = _outcomes_in_parts(path, [1, 3, 8])
        assert outcomes == [_load_outcome(_reference_load_pairs, path)] * 3
        assert outcomes[0][0] == "pairs"
        assert parts == [[self._ROWS[:3]], *[sorted([row] for row in self._ROWS[:3])] * 2]

    @pytest.mark.parametrize("row", ["1,2,1e", "1,2,1.5.3", "1,1.2.3,3", "1,e,3", "1e,2,3"])
    @pytest.mark.parametrize("at", [0, 2, 3, 5])
    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_a_reader_that_warns_at_junk_gives_the_reference_outcome(
        self, tmp_path, monkeypatch, row, at, action
    ):
        # Older numpy's np.fromstring warns at text it cannot read, rather
        # than raise, and returns what it read: strtold's reading of the
        # field up to the junk ("1" of "1e"), or nothing of that field.
        # Junk that ends a part (row 2 of two parts, 3 of three, 5) is then
        # counted as a value, and only the check of its last field rejects it.
        fromstring = np.fromstring
        strtold_prefix = re.compile(rb"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

        def warning_fromstring(text, dtype, sep):
            read = []
            for field in text.split(b","):
                literal = strtold_prefix.match(field)
                read += [literal[0]] if literal else []
                if not literal or literal[0] != field:
                    warnings.warn("string or file could not be read to its end", DeprecationWarning)
                    break
            return fromstring(b",".join(read), dtype=dtype, sep=sep)

        monkeypatch.setattr(np, "fromstring", warning_fromstring)
        rows = list(self._ROWS)
        rows[at] = row
        path = tmp_path / "pairs.csv"
        path.write_text(_short_pair_file(self._equal_length(rows)))
        outcomes, _ = _outcomes_in_parts(path, [1, 2, 3], action)
        want = _load_outcome(_reference_load_pairs, path)
        assert outcomes == [want] * 3
        assert want[:2] == (DatasetFormatError, f"{path}:{at + 2}: non-numeric field")

    # The calling thread reads the first part and a worker the second; a
    # part fails while the other part is still being parsed.
    _FAILING_PARTS = pytest.mark.parametrize(
        "failing", [[0], [1], [0, 1]], ids=["first", "second", "both"]
    )

    def _in_two_parts(self, tmp_path, monkeypatch, failing, fail):
        """Write the six rows, to be read in two parts, and make
        ``np.fromstring`` call ``fail(part)`` on each part in ``failing``
        and keep every other part's parse waiting for 50 ms."""
        rows = self._equal_length(self._ROWS)
        path = tmp_path / "pairs.csv"
        path.write_text(_short_pair_file(rows))
        fromstring = np.fromstring

        def failing_fromstring(text, *args, **kwargs):
            part = 0 if text.startswith(rows[0].encode()) else 1
            if part in failing:
                fail(part)
            else:
                time.sleep(0.05)
            return fromstring(text, *args, **kwargs)

        monkeypatch.setattr(np, "fromstring", failing_fromstring)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return path

    @_FAILING_PARTS
    def test_an_error_in_a_part_is_raised_once_every_thread_has_ended(
        self, tmp_path, monkeypatch, failing
    ):
        def fail(part):
            raise MemoryError(f"part {part}")

        path = self._in_two_parts(tmp_path, monkeypatch, failing, fail)
        before = threading.active_count()
        with pytest.raises(MemoryError, match=f"part {failing[0]}"):
            load_pairs(path)
        assert threading.active_count() == before

    @_FAILING_PARTS
    def test_a_part_numpy_rejects_goes_to_the_per_line_parse(
        self, tmp_path, monkeypatch, failing
    ):
        def fail(part):
            raise ValueError(f"part {part}: string or file could not be read to its end")

        path = self._in_two_parts(tmp_path, monkeypatch, failing, fail)
        table_by_line = ordsim.io._table_by_line
        per_line = []

        def counted_per_line(*args):
            per_line.append(args)
            return table_by_line(*args)

        monkeypatch.setattr(ordsim.io, "_table_by_line", counted_per_line)
        before = threading.active_count()
        ds = load_pairs(path)
        assert len(per_line) == 1
        assert ds == _reference_load_pairs(path)
        assert threading.active_count() == before


def _file_above_the_part_threshold(path):
    """Write a saved pair file whose rows join to more than twice
    ``_PART_MIN_CHARS``, so that two CPUs split it into two parts."""
    rows = 2 * ordsim.io._PART_MIN_CHARS // 1000 + 2
    save_pairs(_random_dataset(np.random.default_rng(29), n=rows, dim=30), path)
    _, _, lines = ordsim.io._read_lines(path, path.read_bytes())
    assert len("\n".join(line for _, line in lines)) > 2 * ordsim.io._PART_MIN_CHARS


@pytest.mark.parametrize(
    "x87, cpus, calls",
    [(True, 1, ["fromstring"]), (True, 2, ["fromstring"] * 2), (False, 2, ["loadtxt"])],
)
def test_reader_calls_on_a_file_above_the_part_threshold(
    tmp_path, monkeypatch, x87, cpus, calls
):
    # One part per CPU for strtold; np.loadtxt holds the GIL and takes the
    # whole file in one call whatever the CPU count.
    if x87 and not ordsim.io._X87_LONG_DOUBLE:
        pytest.skip("long double is not x87's")
    path = tmp_path / "pairs.csv"
    _file_above_the_part_threshold(path)
    want = _reference_load_pairs(path)
    made = []

    def counting(name, parse):
        def counted(*args, **kwargs):
            made.append(name)
            return parse(*args, **kwargs)

        return counted

    monkeypatch.setattr(ordsim.io, "_X87_LONG_DOUBLE", x87)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for name in ("fromstring", "loadtxt"):
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    assert _load_outcome(load_pairs, path) == _load_outcome(lambda p: want, path)
    assert made == calls


def test_available_cpus_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ordsim.io._available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ordsim.io._available_cpus() == 1


class TestNoProcessWideState:
    """A load changes nothing that other threads see: the warnings filters
    are the process's, so a load must leave them alone."""

    @pytest.fixture
    def reader(self, monkeypatch):
        """Replace the platform's plain reader by ``parse``, which receives
        the reader and its arguments; the fixture returns a setter."""
        name = "fromstring" if ordsim.io._X87_LONG_DOUBLE else "loadtxt"
        numpy_reader = getattr(np, name)

        def set_reader(parse):
            def patched(*args, **kwargs):
                return parse(numpy_reader, *args, **kwargs)

            monkeypatch.setattr(np, name, patched)

        return set_reader

    def test_another_thread_warns_under_its_own_filters(self, tmp_path, reader):
        path = tmp_path / "pairs.csv"
        path.write_text(_short_pair_file(["1,2,3", "4,5,6"]))
        warned = []

        def warn():
            try:
                warnings.warn("from another thread", UserWarning)
            except UserWarning:
                warned.append("raised")
            else:
                warned.append("ignored")

        def parse_while_another_thread_warns(parse, *args, **kwargs):
            thread = threading.Thread(target=warn)
            thread.start()
            thread.join(10)
            return parse(*args, **kwargs)

        reader(parse_while_another_thread_warns)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = load_pairs(path)
        assert warned == ["ignored"]
        assert ds == _reference_load_pairs(path)

    def test_overlapping_loads_leave_the_filters_as_they_were(self, tmp_path, reader):
        # The second load starts while the first is reading, and returns
        # after it: the order in which saved filters were restored wrongly.
        path = tmp_path / "pairs.csv"
        path.write_text(_short_pair_file(["1,2,3", "4,5,6"]))
        first = threading.get_ident()
        first_reading, first_returned = threading.Event(), threading.Event()
        both_reading = threading.Barrier(2, timeout=10)
        loaded = []

        def parse_together(parse, *args, **kwargs):
            if threading.get_ident() == first:
                first_reading.set()
            both_reading.wait()
            if threading.get_ident() != first:
                first_returned.wait(10)
            return parse(*args, **kwargs)

        def second_load():
            first_reading.wait(10)
            loaded.append(load_pairs(path))

        reader(parse_together)
        with warnings.catch_warnings():
            before = list(warnings.filters)
            second = threading.Thread(target=second_load)
            second.start()
            try:
                loaded.append(load_pairs(path))
            finally:
                first_returned.set()
                second.join(10)
            after = list(warnings.filters)
        assert not second.is_alive()
        assert after == before
        assert loaded == [_reference_load_pairs(path)] * 2


class TestScoreCents:
    @pytest.mark.parametrize(
        "text,cents",
        [("66.4", 6640), ("0.07", 7), ("-0.31", -31), ("50.28", 5028), ("3", 300)],
    )
    def test_parse(self, text, cents):
        assert _parse_score_cents(text) == cents

    @pytest.mark.parametrize(
        "bad", ["1.234", "1e-3", "abc", "", "1.", ".5", "1,0", "٣.٥", "３", "1.²", "1_0"]
    )
    def test_reject(self, bad):
        with pytest.raises(ValueError):
            _parse_score_cents(bad)

    @pytest.mark.parametrize("score", ["٣.٥", "3.٥", "１２"])
    def test_load_rejects_non_ascii_digits(self, tmp_path, score):
        # int() reads these, but save_results would write them back as ASCII.
        path = tmp_path / "r.csv"
        path.write_text(f"model,method,dataset,score\nm,a,d,{score}\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError) as err:
            load_results(path)
        assert str(err.value) == (
            f"{path}:2: score must be a decimal with at most 2 fraction digits: {score!r}"
        )
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "cents,text", [(6640, "66.40"), (7, "0.07"), (-31, "-0.31"), (300, "3.00")]
    )
    def test_format(self, cents, text):
        assert _format_score_cents(cents) == text

    @given(st.integers(-10_000_000, 10_000_000))
    def test_round_trip(self, cents):
        assert _parse_score_cents(_format_score_cents(cents)) == cents

    # The ids name the score; a score rounds to inf from 2^1024 - 2^970 up.
    @pytest.mark.parametrize(
        "cents",
        [100 * 2**1024, -100 * 2**1024, 100 * (2**1024 - 2**970), 10**400],
        ids=["2^1024", "-2^1024", "halfway-to-2^1024", "10^400"],
    )
    def test_reject_scores_beyond_float64(self, cents):
        text = _format_score_cents(cents)
        with pytest.raises(ValueError) as err:
            _parse_score_cents(text)
        assert str(err.value) == f"score is too large for a float64: {text!r}"

    @pytest.mark.parametrize(
        "cents",
        [100 * (2**1024 - 2**970) - 1, -100 * (2**1024 - 2**970) + 1],
        ids=["max", "-max"],
    )
    def test_accept_the_largest_scores(self, cents):
        # The largest cents whose score rounds to a finite float64 rather than to inf.
        assert _parse_score_cents(_format_score_cents(cents)) == cents
        largest = sys.float_info.max
        assert ResultsRow("m", "a", "d", cents).score == (largest if cents > 0 else -largest)

    def test_scores_whose_cents_overflow_a_float_load(self, tmp_path):
        # float(cents) overflows from a score of about 1.8e306 on, but the
        # score itself is a finite float64.
        big = "75" + "0" * 306
        path = tmp_path / "r.csv"
        path.write_text(f"model,method,dataset,score\nm,a,d,{big}\nm,a,e,-{big}.50\nm,a,f,1.25\n")
        table = load_results(path)
        assert [row.score for row in table.rows] == [7.5e307, -7.5e307, 1.25]
        assert table.scores("a")[1].tolist() == [7.5e307, -7.5e307, 1.25]

    def test_load_rejects_an_oversized_score(self, tmp_path):
        score = "1" + "0" * 400
        path = tmp_path / "r.csv"
        path.write_text(f"model,method,dataset,score\nm,a,d,1.00\n\nm,b,d,{score}\n")
        with pytest.raises(DatasetFormatError) as err:
            load_results(path)
        assert str(err.value) == f"{path}:4: score is too large for a float64: {score!r}"
        assert err.value.line == 4

    def test_score_property_matches_text_parse(self):
        # cents/100.0 must equal float() of the literal bit for bit, so that
        # differencing reproduces a double-subtraction pipeline exactly.
        for text in ("50.28", "49.97", "31.88", "32.19", "-0.31", "66.40"):
            assert _parse_score_cents(text) / 100.0 == float(text)


class TestResultsTable:
    def test_row_validation(self):
        with pytest.raises(DegenerateInputError):
            ResultsRow("", "cos", "STS12", 100)
        with pytest.raises(DegenerateInputError):
            ResultsRow("m", "co,s", "STS12", 100)

    @pytest.mark.parametrize("name", [" m", "m ", "  ", "m\nx", "m\rx", "\n"])
    def test_row_rejects_names_that_do_not_load_back(self, name):
        with pytest.raises(DegenerateInputError, match="one line without surrounding whitespace"):
            ResultsRow(name, "cos", "STS12", 100)
        with pytest.raises(DegenerateInputError):
            ResultsRow("m", "cos", name, 100)

    @pytest.mark.parametrize("cents", [10**400, -100 * 2**1024], ids=["10^400", "-2^1024"])
    def test_row_rejects_an_oversized_score(self, cents):
        with pytest.raises(DegenerateInputError) as err:
            ResultsRow("m", "cos", "STS12", cents)
        assert str(err.value) == (
            "score_cents is too large: score_cents / 100.0 overflows a float64"
        )

    @pytest.mark.parametrize("fname", ["model", "method", "dataset"])
    @pytest.mark.parametrize("value", [1, None, b"m"], ids=["int", "None", "bytes"])
    def test_row_rejects_a_name_that_is_not_a_str(self, fname, value):
        fields = {"model": "m", "method": "cos", "dataset": "D", fname: value}
        with pytest.raises(DegenerateInputError) as err:
            ResultsRow(**fields, score_cents=100)
        assert str(err.value) == f"{fname} must be a str, got {value!r}"

    @pytest.mark.parametrize("cents", [1.5, 100.0, "100", None, Fraction(100)])
    def test_row_rejects_a_score_that_is_not_an_integer(self, cents):
        with pytest.raises(DegenerateInputError) as err:
            ResultsRow("m", "cos", "D", cents)
        assert str(err.value) == f"score_cents must be an integer, got {cents!r}"

    @pytest.mark.parametrize("cents", [np.int64(-150), np.uint8(150), True])
    def test_row_keeps_an_integer_score_as_an_int(self, cents, tmp_path):
        row = ResultsRow("m", "cos", "D", cents)
        assert type(row.score_cents) is int and row.score_cents == int(cents)
        assert repr(row) == f"ResultsRow(model='m', method='cos', dataset='D', score_cents={int(cents)})"
        path = tmp_path / "r.csv"
        save_results(ResultsTable([row]), path)
        assert load_results(path).rows == (row,)

    def test_duplicate_triple_rejected_at_type_level(self):
        row = ResultsRow("m", "cos", "STS12", 100)
        with pytest.raises(DegenerateInputError, match="duplicate"):
            ResultsTable((row, row))

    def test_rows_given_as_a_list_are_kept_as_a_tuple(self):
        rows = [ResultsRow("m1", "cos", "D1", 5028), ResultsRow("m2", "cos", "D1", -31)]
        from_list, from_tuple = ResultsTable(rows), ResultsTable(tuple(rows))
        assert from_list.rows == tuple(rows)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)

    def test_round_trip(self, tmp_path):
        table = ResultsTable(
            (
                ResultsRow("m1", "cos", "D1", 5028),
                ResultsRow("m1", "recos", "D1", 5059),
                ResultsRow("m2", "cos", "D1", -31),
            )
        )
        path = tmp_path / "results.csv"
        save_results(table, path)
        assert load_results(path) == table

    def test_load_errors(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("model,method,dataset\nm,cos,D\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_results(path)

        path.write_text("model,method,dataset,score\nm,cos,D,1.234\n")
        with pytest.raises(DatasetFormatError) as err:
            load_results(path)
        assert err.value.line == 2

        path.write_text("model,method,dataset,score\nm,cos,D,1.2\nm,cos,D,1.3\n")
        with pytest.raises(DatasetFormatError, match="duplicate") as err:
            load_results(path)
        assert err.value.line == 3

        path.write_text("model,method,dataset,score\nm,cos,D\n")
        with pytest.raises(DatasetFormatError, match="4 fields"):
            load_results(path)

    @pytest.mark.parametrize(
        "fname, row", [("model", " ,cos,D,1"), ("method", "m,,D,1"), ("dataset", "m,cos,\t,1")]
    )
    def test_empty_name_messages(self, tmp_path, fname, row):
        path = tmp_path / "r.csv"
        path.write_text(f"model,method,dataset,score\nm,cos,D,1.2\n{row}\n")
        with pytest.raises(DatasetFormatError) as err:
            load_results(path)
        assert str(err.value) == f"{path}:3: {fname} must be non-empty and comma-free, got ''"
        assert err.value.line == 3
        path.write_text(f"model,method,dataset,score\n{row}.234\n")
        with pytest.raises(DatasetFormatError, match="at most 2 fraction digits"):
            load_results(path)

    def test_loaded_rows_equal_constructed_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("model,method,dataset,score\n m1 ,cos,D1,50.28\nm2,recos, D1,-0.31\n")
        rows = load_results(path).rows
        want = (ResultsRow("m1", "cos", "D1", 5028), ResultsRow("m2", "recos", "D1", -31))
        assert rows == want
        assert [(hash(r), repr(r), vars(r)) for r in rows] == [
            (hash(r), repr(r), vars(r)) for r in want
        ]

    def test_duplicate_messages(self, tmp_path):
        row = ResultsRow("m", "cos", "STS12", 100)
        with pytest.raises(DegenerateInputError) as err:
            ResultsTable((row, ResultsRow("m", "recos", "STS12", 1), row))
        assert str(err.value) == "duplicate cell ('m', 'cos', 'STS12')"
        path = tmp_path / "r.csv"
        path.write_text("model,method,dataset,score\nm,cos,D,1.2\nm,recos,D,1\n\nm,cos,D,1.3\n")
        with pytest.raises(DatasetFormatError) as err:
            load_results(path)
        assert str(err.value) == (
            f"{path}:5: duplicate cell ('m', 'cos', 'D') (first on line 2)"
        )

    def test_cells_in_file_order_and_fresh_per_call(self):
        rows = (
            ResultsRow("m2", "cos", "D2", 1),
            ResultsRow("m1", "recos", "D2", 2),
            ResultsRow("m1", "cos", "D1", 3),
            ResultsRow("m2", "cos", "D1", 4),
        )
        table = ResultsTable(rows)
        cells = table.cells("cos")
        assert list(cells.items()) == [
            (("m2", "D2"), rows[0]),
            (("m1", "D1"), rows[2]),
            (("m2", "D1"), rows[3]),
        ]
        cells.clear()
        table.cells("recos")[("m9", "D9")] = rows[0]
        assert list(table.cells("cos").values()) == [rows[0], rows[2], rows[3]]
        assert list(table.cells("recos").values()) == [rows[1]]
        assert table.cells("decos") == {}
        assert table.cells("m1") == {}

    def test_score_columns_in_file_order(self):
        rows = (
            ResultsRow("m2", "cos", "D2", 2**53 + 1),
            ResultsRow("m1", "recos", "D2", 2),
            ResultsRow("m1", "cos", "D1", -31),
            ResultsRow("m2", "cos", "D1", 2**1024 - 2**970 - 1),
        )
        keys, scores = ResultsTable(rows).scores("cos")
        assert keys == (("m2", "D2"), ("m1", "D1"), ("m2", "D1"))
        assert scores.dtype == np.float64 and not scores.flags.writeable
        assert [s.hex() for s in scores.tolist()] == [rows[i].score.hex() for i in (0, 2, 3)]
        keys, scores = ResultsTable(rows).scores("decos")
        assert keys == () and scores.size == 0 and not scores.flags.writeable

    @settings(max_examples=200)
    @given(st.lists(st.integers(-(2**1023), 2**1023) | st.integers(-10**6, 10**6), min_size=1))
    def test_score_column_bits_equal_row_scores(self, cents):
        rows = tuple(ResultsRow("m", "cos", f"D{i}", c) for i, c in enumerate(cents))
        _, scores = ResultsTable(rows).scores("cos")
        assert [s.hex() for s in scores.tolist()] == [row.score.hex() for row in rows]

    def test_loaded_table_has_the_constructed_columns(self, tmp_path):
        rows = (
            ResultsRow("m2", "cos", "D2", 5028),
            ResultsRow("m1", "recos", "D2", -31),
            ResultsRow("m1", "cos", "D1", 7),
        )
        path = tmp_path / "r.csv"
        save_results(ResultsTable(rows), path)
        loaded = load_results(path)
        for method in ("cos", "recos", "decos"):
            want_keys, want = ResultsTable(rows).scores(method)
            keys, got = loaded.scores(method)
            assert keys == want_keys and got.tolist() == want.tolist()
            assert loaded.cells(method) == ResultsTable(rows).cells(method)

    def test_index_is_not_part_of_value(self):
        rows = (ResultsRow("m", "cos", "D", 1), ResultsRow("m", "recos", "D", 2))
        table = ResultsTable(rows)
        assert repr(table) == f"ResultsTable(rows={rows!r})"
        assert table == ResultsTable(rows) and hash(table) == hash(ResultsTable(rows))
        assert table != ResultsTable(rows[:1])

    def test_distinct_helpers_preserve_first_seen_order(self):
        table = ResultsTable(
            (
                ResultsRow("m2", "cos", "D1", 1),
                ResultsRow("m1", "recos", "D2", 2),
                ResultsRow("m1", "cos", "D1", 3),
            )
        )
        assert table.models() == ("m2", "m1")
        assert table.methods() == ("cos", "recos")
        assert table.datasets() == ("D1", "D2")
        assert set(table.cells("cos")) == {("m2", "D1"), ("m1", "D1")}


def _results_outcome(load, path):
    """A table's row columns, rows, repr, hash and every method's columns,
    or the error's type, message and line."""
    try:
        table = load(path)
    except DatasetFormatError as exc:
        return type(exc), str(exc), exc.line
    row_columns = table._row_columns
    columns = [
        (column.cells, column.cell_codes.tolist(), column.scores.tobytes(),
         column.datasets.tolist(), column.micro_average.hex())
        for column in map(table._method_columns, table.methods())
    ]
    names = (table.models(), table.methods(), table.datasets())
    return row_columns, table.rows, repr(table), hash(table), names, columns


def _load_results_by_line(path):
    """load_results through the per-line reader alone: ``_read_lines``, the
    header check and ``_results_by_line``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ordsim.io, "_plain_results", lambda data: None)
        return load_results(path)


_score_texts = st.one_of(
    st.integers(-(10**6), 10**6).map(_format_score_cents),  # 2 fraction digits
    st.integers(-(10**6), 10**6).map(lambda c: f"{c / 10:.1f}"),
    st.integers(-(10**4), 10**4).map(str),
    st.sampled_from(["+7", "-0", "-0.0", "007.5", "9999999999999.99", "-9999999999999.9",
                     "10000000000000", "2251799813685.24", "900719925474.09"]),
    st.integers(10**13, 10**40).map(str),  # huge, through the per-line loop
)
_bad_scores = st.sampled_from(
    ["1.234", "", "1e5", "inf", "nan", "1_0", "٣", ".5", "1.", "1" + "0" * 400]
)
_names = st.sampled_from(["m1", "m2", "cos", "recos", "STS12", "D x", "é"])


@st.composite
def _results_file_texts(draw):
    """Results-file texts: a grid of cells in a random order, with optional
    surrounding whitespace, blank lines and CRLF, and sometimes one fault:
    a repeated cell, a bad score, 3 or 5 fields or an empty name."""
    cells = draw(
        st.lists(st.tuples(_names, _names, _names), min_size=0, max_size=12, unique=True)
    )
    rows = [[m, k, d, draw(_score_texts)] for m, k, d in cells]
    fault = draw(st.sampled_from([None] * 4 + ["repeat", "score", "fields", "empty"]))
    if rows and fault == "repeat":
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    elif rows and fault == "score":
        draw(st.sampled_from(rows))[3] = draw(_bad_scores)
    elif rows and fault == "fields":
        row = draw(st.sampled_from(rows))
        row.append("x") if draw(st.booleans()) else row.pop()
    elif rows and fault == "empty":
        draw(st.sampled_from(rows))[draw(st.integers(0, 2))] = draw(st.sampled_from(["", " "]))
    pads = st.sampled_from(["", "", " ", "\t", "\u3000"])
    lines = ["model,method,dataset,score"]
    for row in rows:
        if draw(st.booleans()):
            row = [draw(pads) + field + draw(pads) for field in row]
        lines.append(",".join(row))
        lines += draw(st.lists(st.sampled_from(["", " "]), max_size=1))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


class TestColumnarResults:
    """load_results checks a file a column at a time; every file must load
    to the same table, or fail with the same error, as the per-line loop."""

    @settings(max_examples=400, deadline=None)
    @given(_results_file_texts())
    def test_same_table_or_error_as_the_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("results") / "r.csv"
        path.write_text(text, encoding="utf-8")
        want = _results_outcome(_load_results_by_line, path)
        assert _results_outcome(load_results, path) == want

    @pytest.mark.parametrize(
        "row, message",
        [
            ("m,b,D,1.00", "duplicate cell ('m', 'b', 'D') (first on line 3)"),
            ("m,b,D", "expected 4 fields, got 3"),
            ("m,b,D,1.00,x", "expected 4 fields, got 5"),
            ("m, ,D,1.00", "method must be non-empty and comma-free, got ''"),
            ("m,b,D,1.001", "score must be a decimal with at most 2 fraction digits: '1.001'"),
            ("m,b,E," + "9" * 320, "score is too large for a float64: '" + "9" * 320 + "'"),
        ],
    )
    def test_faults_name_their_line(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        path.write_text(f"model,method,dataset,score\nm,a,D,2.50\nm,b,D,0.5\n\n{row}\nm,a,E,1\n")
        with pytest.raises(DatasetFormatError) as err:
            load_results(path)
        assert (str(err.value), err.value.line) == (f"{path}:5: {message}", 5)

    @pytest.mark.parametrize(
        "rows", [" m,a,D,1.00\nm,b,D,2", "m,a,D,1.00\nm,b,D,2\t", " ,a,D,1", "m,a,D,1\nm,b,\u3000,2"]
    )
    def test_whitespace_at_either_end_of_the_rows(self, tmp_path, rows):
        path = tmp_path / "r.csv"
        path.write_text(f"model,method,dataset,score\n{rows}\n")
        assert _results_outcome(load_results, path) == _results_outcome(_load_results_by_line, path)

    def test_saved_files_never_reach_the_line_loop(self, tmp_path, monkeypatch):
        rows = tuple(
            ResultsRow(f"m{i % 3}", f"k{i % 2}", f"D{i // 6}", (-1) ** i * 997 * i)
            for i in range(24)
        )
        path = tmp_path / "r.csv"
        save_results(ResultsTable(rows), path)

        def fail(*args):
            raise AssertionError("per-line loop called")

        monkeypatch.setattr(ordsim.io, "_results_by_line", fail)
        assert load_results(path).rows == rows

    def test_scores_near_the_column_bound_keep_exact_cents(self, tmp_path):
        # Just below 1e13 the float path must still give the exact cents.
        texts = ["9999999999999.99", "-9999999999999.99", "9999999999999.01", "0.01", "-0.01"]
        path = tmp_path / "r.csv"
        path.write_text(
            "model,method,dataset,score\n"
            + "".join(f"m,a,D{i},{t}\n" for i, t in enumerate(texts))
        )
        cents = [row.score_cents for row in load_results(path).rows]
        assert cents == [_parse_score_cents(t) for t in texts]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(_names, _names, _names, st.integers(-(10**20), 10**20)),
            max_size=10,
            unique_by=lambda r: r[:3],
        )
    )
    def test_constructed_and_loaded_tables_are_equal(self, tmp_path_factory, cells):
        table = ResultsTable(tuple(ResultsRow(*cell) for cell in cells))
        path = tmp_path_factory.mktemp("results") / "r.csv"
        save_results(table, path)
        loaded = load_results(path)
        assert loaded == table and hash(loaded) == hash(table)
        assert repr(loaded) == repr(table) and loaded.rows == table.rows
        assert _results_outcome(load_results, path) == _results_outcome(lambda p: table, path)

    def test_saving_a_loaded_table_builds_no_rows(self, tmp_path):
        rows = (
            ResultsRow("m2", "cos", "D2", 5028),
            ResultsRow("m1", "recos", "D2", -31),
            ResultsRow("m1", "cos", "D1", 7),
            ResultsRow("m1", "recos", "D1", 75 * 10**308),
        )
        made, saved = tmp_path / "made.csv", tmp_path / "saved.csv"
        save_results(ResultsTable(rows), made)
        # Whitespace, blank lines, CRLF and scores of fewer digits load as
        # the same cells, and save as the constructed table does.
        path = tmp_path / "r.csv"
        path.write_text(
            "model,method,dataset,score\r\n m2 ,cos,D2,50.28\r\n\r\nm1,recos,D2,-0.31\n"
            f"m1,cos,\tD1,0.07\nm1,recos,D1,75{'0' * 306}\n"
        )
        for source in (made, path):
            table = load_results(source)
            save_results(table, saved)
            assert saved.read_bytes() == made.read_bytes()
            assert "rows" not in vars(table)

    def test_loaded_rows_are_made_by_the_checked_constructor(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        path.write_text("model,method,dataset,score\nm,a,D1,1.5\nm,b,D1,2\nm,a,D2,3.25\n")
        table = load_results(path)
        checked = []
        post_init = ResultsRow.__post_init__

        def spy(row):
            checked.append((row.model, row.method, row.dataset, row.score_cents))
            post_init(row)

        monkeypatch.setattr(ResultsRow, "__post_init__", spy)
        rows = table.rows
        assert checked == [("m", "a", "D1", 150), ("m", "b", "D1", 200), ("m", "a", "D2", 325)]
        assert table.rows is rows and table.cells("a") and len(checked) == 3

    def test_rows_are_built_on_first_access_and_kept(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("model,method,dataset,score\nm,a,D1,1.5\nm,b,D1,2\nm,a,D2,3.25\n")
        table = load_results(path)
        assert table.methods() == ("a", "b") and table.models() == ("m",)
        assert table.datasets() == ("D1", "D2")
        keys, scores = table.scores("a")
        assert keys == (("m", "D1"), ("m", "D2")) and scores.tolist() == [1.5, 3.25]
        assert "rows" not in vars(table)
        rows = table.rows
        assert rows is table.rows and "rows" in vars(table)
        assert rows == (
            ResultsRow("m", "a", "D1", 150),
            ResultsRow("m", "b", "D1", 200),
            ResultsRow("m", "a", "D2", 325),
        )
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            table.nope


_RESULTS_HEAD = b"model,method,dataset,score\n"

# Results files, and whether load_results reads each by its plain-file path.
_PLAIN_OR_NOT_FILES = {
    "plain": (_RESULTS_HEAD + b"m,a,D,1.00\nm,b,D,2\nm,a,E,-3.5\nm,b,E,0\n", True),
    "surrounding spaces": (_RESULTS_HEAD + b" m ,a,\tD,1.00\nm,b , D,2 \n", True),
    "an inner tab in a name": (_RESULTS_HEAD + b"m\tx,a,D,1\nm\tx,b,D,2\n", True),
    "non-ASCII names": ("model,method,dataset,score\né,a, D,1\né,b,D,2\n".encode(), False),
    "a NUL in a name": (_RESULTS_HEAD + b"m\x00,a,D,1\nm,b,D,2\n", False),
    "a DEL in a name": (_RESULTS_HEAD + b"m\x7f,a,D,1\nm,b,D,2\n", False),
    "repeated cell": (_RESULTS_HEAD + b"m,a,D,1\nm,b,D,2\nm,a,D,3\n", False),
    "bad score": (_RESULTS_HEAD + b"m,a,D,1\nm,b,D,2.001\n", False),
    "score of 1e13": (_RESULTS_HEAD + b"m,a,D,1\nm,b,D,10000000000000\n", False),
    "empty name": (_RESULTS_HEAD + b"m,a,D,1\nm, ,D,2\n", False),
    "CRLF": (b"model,method,dataset,score\r\nm,a,D,1.00\r\nm,b,D,2\r\n", True),
    "CRLF, last line without CRLF": (b"model,method,dataset,score\r\nm,a,D,1.00\r\nm,b,D,2", False),
    "CRLF with a lone CR in a name": (
        b"model,method,dataset,score\r\nm\rx,a,D,1.00\r\nm,b,D,2\r\n", False
    ),
    "CRLF rows": (_RESULTS_HEAD + b"m,a,D,1.00\r\nm,b,D,2\r\n", False),
    "lone CR": (b"model,method,dataset,score\rm,a,D,1.00\rm,b,D,2\r", False),
    "no final newline": (_RESULTS_HEAD + b"m,a,D,1.00\nm,b,D,2", False),
    # A last line with no line feed and no comma, after one row and after two.
    "last line of one field": (_RESULTS_HEAD + b"m,a,D,1.5\nZZZ", False),
    "last line of one field after 2 rows": (_RESULTS_HEAD + b"m,a,D,1.5\nm,b,D,2\nZZZ", False),
    "last line a space after 2 rows": (_RESULTS_HEAD + b"m,a,D,1.5\nm,b,D,2\n ", False),
    "last line a tab after 2 rows": (_RESULTS_HEAD + b"m,a,D,1.5\nm,b,D,2\n\t", False),
    "last line a space": (_RESULTS_HEAD + b"m,a,D,1.5\n ", False),
    "last line a tab": (_RESULTS_HEAD + b"m,a,D,1.5\n\t", False),
    "blank line": (_RESULTS_HEAD + b"m,a,D,1.00\n\nm,b,D,2\n", False),
    "blank first line": (b"\n" + _RESULTS_HEAD + b"m,a,D,1.00\n", False),
    "whitespace-only line": (_RESULTS_HEAD + b"m,a,D,1.00\n \t \nm,b,D,2\n", False),
    "header only": (_RESULTS_HEAD, False),
    "empty file": (b"", False),
    "\\x0b in a name": (_RESULTS_HEAD + b"m\x0b,a,D,1\nm,b,D,2\n", False),
    "\\x0c in a name": (_RESULTS_HEAD + b"m\x0c,a,D,1\nm,b,D,2\n", False),
    "\\x1c in a name": (_RESULTS_HEAD + b"m\x1c,a,D,1\nm,b,D,2\n", False),
    "\\x1d in a name": (_RESULTS_HEAD + b"m,a\x1d,D,1\nm,b,D,2\n", False),
    "\\x1e in a name": (_RESULTS_HEAD + b"m,a,D\x1e,1\nm,b,D,2\n", False),
    "\\x85 in a name": (_RESULTS_HEAD + "m\x85,a,D,1\nm,b,D,2\n".encode(), False),
    "\\u2028 in a name": (_RESULTS_HEAD + "m,a\u2028,D,1\nm,b,D,2\n".encode(), False),
    "\\u2029 in a name": (_RESULTS_HEAD + "m,a,D\u2029,1\nm,b,D,2\n".encode(), False),
    "UTF-8 BOM": (b"\xef\xbb\xbf" + _RESULTS_HEAD + b"m,a,D,1.00\n", False),
    "invalid UTF-8": (_RESULTS_HEAD + b"m,a,D,1\nm,\xff,D,2\n", False),
    "2 fields": (_RESULTS_HEAD + b"m,a,D,1\nm,b\n", False),
    "5 fields": (_RESULTS_HEAD + b"m,a,D,1\nm,b,D,2,3\n", False),
    "3 fields and 5": (_RESULTS_HEAD + b"m,a,D\nm,b,D,2,3\n", False),
}

# Separators, line ends, blanks and bytes no plain file holds, to put among fields.
_results_odd_bytes = st.sampled_from(
    [b",", b"\n", b"\r", b"\r\n", b" ", b"\t", b"\x0c", b"\x7f", "é".encode(), b"\xff"]
)


@st.composite
def _results_file_bytes(draw):
    """Results files as raw bytes: rows of three names and a score, ending
    in LF, CR or CRLF, with an odd byte before or after about one field in
    sixteen, and sometimes a last line with no line feed."""
    names = st.sampled_from([b"m", b"n", b"a", b"b", b"D", b"E x"])
    scores = st.sampled_from([b"1", b"-2.5", b"0.07", b"3.10", b"1.234"])

    def field(values):
        value = draw(values)
        if draw(st.integers(0, 15)) == 0:
            odd = draw(_results_odd_bytes)
            value = odd + value if draw(st.booleans()) else value + odd
        return value

    header = _RESULTS_HEAD.rstrip(b"\n")
    data = header + draw(st.sampled_from([b"\n"] * 6 + [b"\r", b"\r\n"]))
    for _ in range(draw(st.integers(0, 5))):
        row = b",".join([field(names), field(names), field(names), field(scores)])
        data += row + draw(st.sampled_from([b"\n"] * 6 + [b"\r", b"\r\n"]))
    return data + draw(st.sampled_from([b""] * 4 + [b"ZZZ", b" ", b"\t", b"m,a,D,1", b"E x,b,D,2 "]))


# The characters a plain file's names may hold: printable ASCII and tab, not ",".
_plain_names = st.text(
    st.sampled_from([chr(c) for c in range(0x20, 0x7F) if c != ord(",")] + ["\t"]),
    min_size=1,
    max_size=3,
)


class TestPlainResultsFiles:
    """load_results checks a plain results file, whose fields hold only
    printable ASCII and tabs, a column at a time; every other file goes
    through the per-line reader.  Both give the same table, or the same
    error on the same line."""

    @pytest.mark.parametrize("name", list(_PLAIN_OR_NOT_FILES))
    def test_same_table_or_error_as_the_line_reader(self, tmp_path, monkeypatch, name):
        data, plain = _PLAIN_OR_NOT_FILES[name]
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        plain_results = ordsim.io._plain_results
        taken = []

        def spy(data):
            table = plain_results(data)
            taken.append(table is not None)
            return table

        monkeypatch.setattr(ordsim.io, "_plain_results", spy)
        got = _results_outcome(load_results, path)
        assert taken == [plain]
        assert got == _results_outcome(_load_results_by_line, path)

    @given(_results_file_bytes())
    @settings(max_examples=300, deadline=None)
    def test_raw_bytes_give_the_line_readers_outcome(self, tmp_path_factory, data):
        # The line reader's table, or its typed error, message and line.
        path = tmp_path_factory.mktemp("results") / "r.csv"
        path.write_bytes(data)
        assert _results_outcome(load_results, path) == _results_outcome(_load_results_by_line, path)

    @given(
        st.lists(
            st.tuples(_plain_names, _plain_names, _plain_names, st.integers(-(10**6), 10**6)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_plain_names_build_their_rows(self, tmp_path_factory, cells):
        # A file that the line reader loads and whose bytes are all plain
        # loads by the plain path, and its rows pass ResultsRow's checks.
        path = tmp_path_factory.mktemp("results") / "r.csv"
        rows = [f"{m},{k},{d},{_format_score_cents(c)}\n" for m, k, d, c in cells]
        path.write_text("model,method,dataset,score\n" + "".join(rows))
        want = _results_outcome(_load_results_by_line, path)
        assert _results_outcome(load_results, path) == want
        if want[0] is not DatasetFormatError:
            table = ordsim.io._plain_results(path.read_bytes())
            assert table is not None and table.rows == _load_results_by_line(path).rows

    def test_saved_files_take_the_plain_path(self, tmp_path, monkeypatch):
        rows = tuple(
            ResultsRow(f"m{i % 3}", f"k{i % 2}", f"D{i // 6}", (-1) ** i * 997 * i)
            for i in range(24)
        )
        path = tmp_path / "r.csv"
        save_results(ResultsTable(rows), path)

        def fail(*args):
            raise AssertionError("line reader called")

        monkeypatch.setattr(ordsim.io, "_read_lines", fail)
        assert load_results(path).rows == rows


EXPECTED_MODELS = (
    "Word2Vec",
    "FastText",
    "GloVe",
    "BERT",
    "SGPT",
    "DPR",
    "E5",
    "BGE",
    "GTE",
    "SPECTER",
    "CLIP-ViT",
)
EXPECTED_DATASETS = ("STS12", "STS13", "STS14", "STS15", "STS16", "STS-B", "SICK-R")


class TestBundledFixtures:
    def test_fixture_path_resolves(self):
        assert fixture_path("table2.csv").is_file()
        assert fixture_path("experts.csv").is_file()

    def test_fixture_path_unknown_name(self):
        with pytest.raises(DatasetFormatError):
            fixture_path("missing.csv")

    @pytest.mark.parametrize(
        "name", ["../io.py", "../fixtures/experts.csv", "./table2.csv", "", ".", ".."]
    )
    def test_fixture_path_takes_only_a_bare_fixture_name(self, name):
        with pytest.raises(DatasetFormatError, match="no bundled fixture named"):
            fixture_path(name)

    def test_score_table_shape(self):
        table = load_results(fixture_path("table2.csv"))
        assert len(table.rows) == 231
        assert table.models() == EXPECTED_MODELS
        assert table.datasets() == EXPECTED_DATASETS
        assert set(table.methods()) == {"decos", "cos", "recos"}
        for method in table.methods():
            assert len(table.cells(method)) == 77

    def test_score_table_tie_structure(self):
        # recos - cos: 5 exact ties and exactly one negative cell.
        table = load_results(fixture_path("table2.csv"))
        recos_cells = table.cells("recos")
        cos_cells = table.cells("cos")
        ties = sum(
            1
            for key in recos_cells
            if recos_cells[key].score_cents == cos_cells[key].score_cents
        )
        negatives = [
            key
            for key in recos_cells
            if recos_cells[key].score_cents < cos_cells[key].score_cents
        ]
        assert ties == 5
        assert negatives == [("BGE", "STS13")]

    def test_expert_vectors(self):
        experts = load_experts()
        assert sorted(experts) == ["e1", "e2", "e3", "e4", "e5", "e6"]
        assert all(v.dim == 4 for v in experts.values())
        assert experts["e2"] == DenseVector([2, 6.0, 3, 5])
        # e5 is the decimal-exact 1.225 scaling of e1.
        assert experts["e5"] == DenseVector([1.225, 6.7375, 2.45, 4.9])


class TestExpertsFormat:
    def test_custom_file(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("name,c1,c2\na,1,2\nb,3,4\n")
        vecs = load_experts(path)
        assert vecs["b"] == DenseVector([3, 4])

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("name,c1\na,1\na,2\n")
        with pytest.raises(DatasetFormatError) as err:
            load_experts(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("label,c1\na,1\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_experts(path)


# The malformed files of the tests above, for each of the three loaders.
_MALFORMED_FILES = [
    *(
        (load_pairs, text)
        for text in [
            b"",
            b"gold,a_0,v_0\n1,2,3\n2,3,4\n",
            b"gold,u_0,u_1,v_0\n1,2,3,4\n1,2,3,4\n",
            b"gold,u_0,v_0\n1.0,2.0,3.0\n1.0,2.0\n",
            b"gold,u_0,v_0\n1.0,x,3.0\n1.0,2.0,3.0\n",
            b"gold,u_0,v_0\n1.0,2.0,3.0\n1.0,inf,3.0\n1.0,x,3.0\n",
            b"gold,u_0,v_0\n1.0,2.0,3.0\nnan,2.0,3.0\n1.0,x,3.0\n",
            b"gold,u_0,v_0\n1.0,2.0,3.0\n",
            "gold,u_0,v_0\n1.0,2.0,3.0\n\u200b\n2.0,4.0,5.0\n".encode(),
            b"gold\xff,u_0,v_0\n",
            b"gold,u_0,v_0\r\n1,2,3\r\n\xff1,2,3\n",
        ]
    ),
    *(
        (load_results, text.encode())
        for text in [
            "",
            "model,method,dataset\nm,cos,D\n",
            "model,method,dataset,score\nm,cos,D,1.234\n",
            "model,method,dataset,score\nm,cos,D,1.2\nm,recos,D,1\n\nm,cos,D,1.3\n",
            "model,method,dataset,score\nm,cos,D\n",
            "model,method,dataset,score\nm,cos,D,1.2\nm,,D,1\n",
            "model,method,dataset,score\nm,a,d,\u0661\n",
            "model,method,dataset,score\nm,a,d,1.00\n\nm,b,d,1" + "0" * 400 + "\n",
        ]
    ),
    (load_results, b"model,method,dataset,score\r\nm,cos,D,1.25\r\n\xffm,cos,D,1.25\n"),
    *(
        (load_experts, text.encode())
        for text in [
            "",
            "label,c1\na,1\n",
            "name,c1\na,1\na,2\n",
            "name,c1\na,1,2\n",
            "name,c1\na,x\n",
        ]
    ),
    (load_experts, b"name,c1\r\na,1\r\n\xffa,1\n"),
]


class TestErrorFormat:
    """A loader error names a line exactly when its message starts with
    ``{path}:{line}: ``."""

    @pytest.mark.parametrize("load, data", _MALFORMED_FILES)
    def test_line_prefix_iff_line(self, tmp_path, load, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError) as err:
            load(path)
        message, line = str(err.value), err.value.line
        prefix = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
        assert (int(prefix.group(1)) if prefix else None) == line

    def test_missing_file_has_no_line(self, tmp_path):
        for load in (load_pairs, load_results, load_experts):
            with pytest.raises(DatasetFormatError) as err:
                load(tmp_path / "nope.csv")
            assert err.value.line is None
            assert str(err.value).startswith(f"{tmp_path / 'nope.csv'}: cannot read: ")
