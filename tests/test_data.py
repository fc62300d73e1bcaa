import math
import os
import platform
import sys
import threading

import numpy as np
import pytest

from tailband import data as data_module
from tailband.data import (
    OrderedSample,
    empirical_me,
    hill_estimate,
    ingest,
    me_at_order_statistics,
    write_sample_file,
)
from tailband.errors import (
    BadK,
    EmptyExceedanceSet,
    NonFiniteValue,
    NonPositiveOrderStatistic,
    ParseError,
    TooFewObservations,
)


def pareto_grid(n, xi, denom_offset=0):
    # deterministic "perfect sample": X_(j) = (j/(n+offset))^(-xi)
    j = np.arange(1, n + 1)
    return OrderedSample.from_data((j / (n + denom_offset)) ** (-xi))


# ---------------------------------------------------------------------------
# OrderedSample / ingest
# ---------------------------------------------------------------------------

def test_from_data_sorts_descending():
    s = OrderedSample.from_data([1.0, 3.0, 2.0])
    assert s.n == 3
    assert s.values.tolist() == [3.0, 2.0, 1.0]


def test_values_are_immutable():
    s = OrderedSample.from_data([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_too_few_observations():
    with pytest.raises(TooFewObservations):
        OrderedSample.from_data([1.0])


def test_constructor_rejects_unsorted():
    with pytest.raises(ValueError):
        OrderedSample(np.array([1.0, 2.0]))


def test_constructor_copies_a_callers_array():
    arr = np.array([3.0, 2.0, 1.0])
    s = OrderedSample(arr)
    arr[0] = 9.0
    assert s.values.tolist() == [3.0, 2.0, 1.0]
    assert arr.flags.writeable
    raw = np.array([1.0, 3.0, 2.0])
    s = OrderedSample.from_data(raw)
    raw[1] = -5.0
    assert s.values.tolist() == [3.0, 2.0, 1.0]


# ties: equal values, and -0.0 and 0.0, which compare equal but differ in bits
_TIED = [0.0, 2.5, -0.0, 1.0, 2.5, 0.0, -1.0, -0.0, 1.0, 2.5]


def test_from_data_matches_a_stable_sort_bit_for_bit():
    rng = np.random.default_rng(12)
    for raw in [np.array(_TIED), np.round(rng.standard_normal(5000), 1), rng.pareto(1.0, 4096)]:
        expected = np.sort(raw, kind="stable")[::-1]
        assert OrderedSample.from_data(raw).values.tobytes() == expected.tobytes()
        assert OrderedSample.from_data(raw.tolist()).values.tobytes() == expected.tobytes()


def test_ingest_sorts_its_parse_buffer_in_place(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("".join(f"{v!r}\n" for v in _TIED))
    s = ingest(f)
    assert s.values.tobytes() == np.sort(np.array(_TIED), kind="stable")[::-1].tobytes()
    assert not s.values.flags.writeable and not s.values.flags.owndata
    assert s.values.strides == (-8,)  # a reversed view of the buffer, not a copy


def test_ingest_plain(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("3\n1\n2\n")
    s = ingest(f)
    assert s.values.tolist() == [3.0, 2.0, 1.0]
    assert s.n == 3


def test_ingest_comments_and_ties(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("# hdr\n5\n5\n")
    s = ingest(f)
    assert s.values.tolist() == [5.0, 5.0]


def test_ingest_nan_line_number(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("1\nNaN\n2\n")
    with pytest.raises(NonFiniteValue) as exc:
        ingest(f)
    assert exc.value.line_number == 2


def test_ingest_parse_error_line_number(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("1\n2\nbogus\n")
    with pytest.raises(ParseError) as exc:
        ingest(f)
    assert exc.value.line_number == 3


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest(tmp_path / "missing.txt")


def test_ingest_scientific_notation_and_negative(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("1e3\n-2.5\n+4E-2\n")
    s = ingest(f)
    assert s.values.tolist() == [1000.0, 0.04, -2.5]


def test_ingest_csv_column_header_skip(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("time,value\n0,3.5\n1,1.5\n2,2.5\n")
    s = ingest(f, format="csv-column", column=1)
    assert s.values.tolist() == [3.5, 2.5, 1.5]


def test_ingest_csv_column_bad_row(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("v\n1\noops\n")
    with pytest.raises(ParseError) as exc:
        ingest(f, format="csv-column", column=0)
    assert exc.value.line_number == 3


# Plain-format files for the fast-path equivalence table; the line loop
# (_ingest_lines) is the oracle.  Values are written as bytes so that line
# endings and whitespace reach the reader exactly as given.
_PAST_FIRST_CHUNK = b"".join(b"%d.25\n" % i for i in range(200_000))  # ~1.3 MB
# Lines of 5 bytes up to the chunk edge: the next line starts at or before
# character _CHUNK_CHARS - 1, so a line of 5 or more characters there ends
# the first chunk and the line after it starts the second (see `_texts`).
_EDGE_LINES = (data_module._CHUNK_CHARS - 1) // 5
_BEFORE_EDGE = b"1.25\n" * _EDGE_LINES
INGEST_EQUIVALENCE_ROWS = {
    "crlf": b"3.5\r\n1\r\n2e1\r\n",
    "spaces-and-tabs": b"  3.5\n\t1 \n 2e1\t\t\n",
    "signs-and-underscores": b"+.5e-3\n1_000\n-7\n",
    "nan": b"1\n2\nnan\n",
    "NaN": b"1\nNaN\n2\n",
    "minus-inf": b"-inf\n1\n2\n",
    "overflow-to-inf": b"1\n1e400\n2\n",
    "comment-first-line": b"# header\n1\n2\n",
    "comment-middle-line": b"1\n# note\n2\n",
    "comment-last-line": b"1\n2\n# end\n",
    "blank-lines": b"\n1\n\n2\n\n",
    "whitespace-only-lines": b"1\n   \n\t\n2\n",
    "no-trailing-newline": b"1\n2\n3.75",
    "single-value": b"4.5\n",
    "empty-file": b"",
    "bad-token": b"1\n2\nbogus\n",
    "bad-token-past-first-chunk": _PAST_FIRST_CHUNK + b"1x\n2\n",
    "comment-past-first-chunk": _PAST_FIRST_CHUNK + b"# note\n7\n\n",
    "comment-then-nan-past-first-chunk": _PAST_FIRST_CHUNK + b"# note\n7\ninf\n",
    "nan-before-bad-token": b"1\nnan\n2\nbogus\n",
    "nan-before-comment-then-bad-token": b"1\nnan\n# c\nbogus\n",
    "sparse-blank-lines": b"".join(b"%d.5\n%s" % (i, b"\n" if i % 997 == 0 else b"") for i in range(150_000)),
    "nan-past-first-chunk": _PAST_FIRST_CHUNK + b"nan\n",
    "clean-past-first-chunk": _PAST_FIRST_CHUNK,
    "not-utf8": b"1\n2\n\xff3\n4\n",
    "not-utf8-in-comment": b"1\n2\n# caf\xe9\n",
    "unicode-whitespace": "\u00a01.5\u2003\n2\n".encode("utf-8"),
    "old-mac-line-endings": b"1\r2\r3\r",
    # The decimal kernel's edges.
    "halfway-2**53+1": b"9007199254740993\n1\n",
    # Halfway quotients that a second rounding to double would get wrong.
    "halfway-double-rounding": b"-260.5036096512857\n40.95493709799727\n",
    "above-2**63": b"9999999999999999999\n-9999999999999999999\n",
    "19-character-lines": b"1234567890.12345678\n-123456789012345678\n0.12345678901234567\n",
    "20-character-lines": b"12345678901234567890\n1.234567890123456789\n-0.12345678901234567\n-1234567890123456789\n",
    "21-and-22-character-lines": b"-1.234567890123456789\n-12.345678901234567890\n0.0000000000000000001\n",
    "minus-zero": b"-0\n0\n-0.0\n",
    "bare-points-and-leading-zeros": b"1.\n.5\n-.5\n007\n",
    "point-alone": b"1\n.\n2\n",
    "minus-alone": b"1\n-\n2\n",
    "plus-sign": b"+1\n2\n",
    "exponent": b"1e5\n2\n",
    "trailing-minus": b"1\n1-\n2\n",
    "two-points": b"1\n1.2.3\n",
    "rejected-lines-at-chunk-edge": _BEFORE_EDGE + b"# edge\n1e1\n2\n",
    "nonfinite-before-chunk-edge": _BEFORE_EDGE + b"1e999\nbogus\n",
    "bad-token-after-chunk-edge": _BEFORE_EDGE + b"# edge\nbogus\n",
    "no-trailing-newline-rejected": b"1\n2\n3e0",
    "no-trailing-newline-negative": b"1\n2\n-3.75",
    # Chunks of exponent lines, which the kernel hands on to float().
    "exponent-lines-past-first-chunk": b"".join(b"%d.25e-3\n" % i for i in range(200_000)) + b"bogus\n",
}


def _outcome(read, path):
    try:
        return "ok", np.asarray(read(path).values).tobytes()
    except (ParseError, NonFiniteValue, TooFewObservations) as exc:
        return type(exc).__name__, getattr(exc, "line_number", None)


@pytest.mark.parametrize("name", sorted(INGEST_EQUIVALENCE_ROWS))
def test_ingest_fast_path_matches_line_loop(tmp_path, name):
    f = tmp_path / "a.txt"
    f.write_bytes(INGEST_EQUIVALENCE_ROWS[name])
    oracle = lambda p: OrderedSample.from_data(data_module._ingest_lines(p, "plain", 0))
    assert _outcome(ingest, f) == _outcome(oracle, f)


@pytest.mark.parametrize("name", sorted(INGEST_EQUIVALENCE_ROWS))
def test_ingest_float_path_matches_line_loop(tmp_path, monkeypatch, name):
    # The path of non-ASCII chunks, and of every chunk where the long double
    # is not the x87 extended format.
    monkeypatch.setattr(data_module, "_EXACT_KERNEL", False)
    f = tmp_path / "a.txt"
    f.write_bytes(INGEST_EQUIVALENCE_ROWS[name])
    oracle = lambda p: OrderedSample.from_data(data_module._ingest_lines(p, "plain", 0))
    assert _outcome(ingest, f) == _outcome(oracle, f)


# csv-column files for the same oracle check, as (bytes, column); the plain
# rows above are read too, as one-column files.
_CSV_PAST_FIRST_CHUNK = b"".join(b"%d,%d.5\n" % (i, i) for i in range(150_000))  # ~2 MB
CSV_EQUIVALENCE_ROWS = {
    "csv-header-crlf": (b"name,x\r\na,1.5\r\nb,2\r\n", 1),
    "csv-comments-and-blanks": (b"x,y\n# c\n\n1,2\n 3 , 4 \n", 1),
    "csv-clean-past-first-chunk": (b"a,b\n" + _CSV_PAST_FIRST_CHUNK, 1),
    "csv-missing-column-past-first-chunk": (_CSV_PAST_FIRST_CHUNK + b"7\n", 1),
    "csv-bad-cell-past-first-chunk": (_CSV_PAST_FIRST_CHUNK + b"8,x\n", 1),
    "csv-not-utf8-past-first-chunk": (_CSV_PAST_FIRST_CHUNK + b"9,\xff\n", 0),
}


@pytest.mark.parametrize("name", sorted(INGEST_EQUIVALENCE_ROWS) + sorted(CSV_EQUIVALENCE_ROWS))
def test_ingest_csv_column_matches_line_loop(tmp_path, name):
    data, column = CSV_EQUIVALENCE_ROWS.get(name, (INGEST_EQUIVALENCE_ROWS.get(name), 0))
    f = tmp_path / "a.csv"
    f.write_bytes(data)
    read = lambda p: ingest(p, format="csv-column", column=column)
    oracle = lambda p: OrderedSample.from_data(data_module._ingest_lines(p, "csv-column", column))
    assert _outcome(read, f) == _outcome(oracle, f)
    expected = {
        "csv-clean-past-first-chunk": "ok",
        "csv-missing-column-past-first-chunk": "ParseError",
        "csv-bad-cell-past-first-chunk": "ParseError",
        "csv-not-utf8-past-first-chunk": "ParseError",
    }
    if name in expected:
        kind, line_number = _outcome(read, f)
        assert kind == expected[name]
        assert kind == "ok" or line_number == 150_001


def test_ingest_equivalence_table_error_lines(tmp_path):
    # The table above is only as good as the outcomes it reaches.
    expected = {
        "nan": ("NonFiniteValue", 3),
        "overflow-to-inf": ("NonFiniteValue", 2),
        "single-value": ("TooFewObservations", None),
        "bad-token-past-first-chunk": ("ParseError", 200_001),
        "nan-past-first-chunk": ("NonFiniteValue", 200_001),
        "comment-then-nan-past-first-chunk": ("NonFiniteValue", 200_003),
        "nan-before-bad-token": ("NonFiniteValue", 2),
        "nan-before-comment-then-bad-token": ("NonFiniteValue", 2),
        "not-utf8": ("ParseError", 3),
        "not-utf8-in-comment": ("ParseError", 3),
        "point-alone": ("ParseError", 2),
        "minus-alone": ("ParseError", 2),
        "trailing-minus": ("ParseError", 2),
        "two-points": ("ParseError", 2),
        "nonfinite-before-chunk-edge": ("NonFiniteValue", _EDGE_LINES + 1),
        "bad-token-after-chunk-edge": ("ParseError", _EDGE_LINES + 2),
        "exponent-lines-past-first-chunk": ("ParseError", 200_001),
    }
    assert len(INGEST_EQUIVALENCE_ROWS["bad-token-past-first-chunk"]) > 1 << 20
    for name, last_of_first in (("rejected-lines-at-chunk-edge", "# edge\n"),
                                ("nonfinite-before-chunk-edge", "1e999\n")):
        f = tmp_path / f"{name}.edge.txt"
        f.write_bytes(INGEST_EQUIVALENCE_ROWS[name])
        with data_module._open_text(f) as fh:
            assert next(data_module._texts(fh)).endswith("1.25\n" + last_of_first), name
    for name, outcome in expected.items():
        f = tmp_path / f"{name}.txt"
        f.write_bytes(INGEST_EQUIVALENCE_ROWS[name])
        assert _outcome(ingest, f) == outcome, name
    f = tmp_path / "old-mac.txt"
    f.write_bytes(INGEST_EQUIVALENCE_ROWS["old-mac-line-endings"])
    assert ingest(f).values.tolist() == [3.0, 2.0, 1.0]


def _count_line_loop_lines(monkeypatch):
    seen = []
    real = data_module._parse_lines

    def counting(lines, *args):
        lines = list(lines)
        seen.append(len(lines))
        return real(lines, *args)

    monkeypatch.setattr(data_module, "_parse_lines", counting)
    return seen


def test_ingest_clean_plain_file_skips_line_loop(tmp_path, monkeypatch):
    seen = _count_line_loop_lines(monkeypatch)
    f = tmp_path / "a.txt"
    f.write_bytes(_PAST_FIRST_CHUNK)
    s = ingest(f)
    assert seen == []
    assert s.n == 200_000
    assert s.values[0] == 199_999.25 and s.values[-1] == 0.25


def test_ingest_line_loop_sees_only_rejected_lines(tmp_path, monkeypatch):
    # A header comment and a trailing blank line each reach the line loop
    # alone; the decimal kernel reads every other line.
    seen = _count_line_loop_lines(monkeypatch)
    f = tmp_path / "a.txt"
    f.write_bytes(b"# header\n" + _PAST_FIRST_CHUNK + b"\n")
    s = ingest(f)
    assert s.n == 200_000
    assert seen == [1, 1]


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                    reason="the decimal kernel needs the x87 extended long double")
def test_decimal_kernel_is_active_on_x86_64_linux(tmp_path, monkeypatch):
    # Without the kernel every line would go through float() again, about
    # 30% slower end to end, with the same results; only this test shows it.
    assert data_module._EXACT_KERNEL
    sent = []
    real = data_module._parse_each

    def counting(lines, line_numbers):
        sent.extend(lines)
        return real(lines, line_numbers)

    monkeypatch.setattr(data_module, "_parse_each", counting)
    f = tmp_path / "a.txt"
    f.write_bytes(b"1e1\n" + _PAST_FIRST_CHUNK)
    assert ingest(f).n == 200_001
    assert sent == ["1e1"]


@pytest.mark.skipif(not data_module._EXACT_KERNEL, reason="the decimal kernel needs the x87 extended long double")
@pytest.mark.parametrize("bad_line", [None, "in-first-wait", "after-kernel-resumes", "in-second-wait"])
def test_decimal_kernel_waits_after_mostly_rejected_chunks(tmp_path, monkeypatch, bad_line):
    # Chunks 0-3 hold exponent lines (all rejected), 4 starts with the last
    # of them and goes on with plain lines, 5-9 are plain, 10 turns back to
    # exponent lines and 11-15 hold only them.  The kernel reads chunk 0,
    # waits one chunk, reads 2, waits two, reads 5 to 10, waits one, reads
    # 12, waits two and reads 15.
    lines = [b"1.25e+00\n"] * 30_000 + [b"2.5\n"] * 100_000 + [b"1.25e+00\n"] * 40_000
    bad_at = {None: None, "in-first-wait": 10_000, "after-kernel-resumes": 80_000,
              "in-second-wait": 151_000}[bad_line]
    if bad_at is not None:
        lines[bad_at] = b"bogus\n"
    f = tmp_path / "a.txt"
    f.write_bytes(b"".join(lines))
    with data_module._open_text(f) as fh:
        chunks = list(data_module._texts(fh))
    mostly_exponent = [4 * c.count("e") > c.count("\n") for c in chunks]
    assert mostly_exponent == [True] * 4 + [False] * 6 + [True] * 6
    if bad_at is not None:
        assert "bogus" in chunks[{"in-first-wait": 1, "after-kernel-resumes": 7, "in-second-wait": 13}[bad_line]]
    handed_out, read = [], []
    real_texts, real_kernel = data_module._texts, data_module._parse_decimals

    def counting(fh):
        for text in real_texts(fh):
            handed_out.append(text)
            yield text

    def recording(text):
        read.append(len(handed_out) - 1)
        return real_kernel(text)

    monkeypatch.setattr(data_module, "_texts", counting)
    monkeypatch.setattr(data_module, "_parse_decimals", recording)
    oracle = lambda p: OrderedSample.from_data(data_module._ingest_lines(p, "plain", 0))
    outcome = _outcome(ingest, f)
    assert outcome == _outcome(oracle, f)
    if bad_at is None:
        assert outcome[0] == "ok"
        assert handed_out == chunks
        assert read == [0, 2, 5, 6, 7, 8, 9, 10, 12, 15]
    else:
        assert outcome == ("ParseError", bad_at + 1)


@pytest.mark.skipif(not data_module._EXACT_KERNEL, reason="the decimal kernel needs the x87 extended long double")
def test_decimal_kernel_matches_float_on_random_reprs():
    # Shortest reprs across signs and magnitudes 1e-4 to 1e16, the form
    # `simulate` writes; about one in 10**4 has a halfway quotient.
    rng = np.random.default_rng(20_101)
    x = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-4, 16, 10**6)
    lines = list(map(repr, x.tolist()))
    values, accepted, _ = data_module._parse_decimals("\n".join(lines) + "\n")
    expected = np.array(list(map(float, lines)))
    assert accepted.sum() > 0.9 * len(lines)
    assert values[accepted].tobytes() == expected[accepted].tobytes()


def test_ingest_reads_a_fifo_in_one_pass(tmp_path):
    # A pipe cannot be rewound: every line must be read exactly once.
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    payload = b"# header\n1\n2\n3\n" + _PAST_FIRST_CHUNK + b"\n# end\n"

    def write():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        s = ingest(fifo)
    finally:
        writer.join(timeout=30)
    assert s.n == 200_003
    f = tmp_path / "a.txt"
    f.write_bytes(payload)
    assert s.values.tobytes() == ingest(f).values.tobytes()


def test_serialize_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = np.concatenate([rng.standard_cauchy(50), [-1e-17, 3.25e300, 0.0]])
    s = ingest_roundtrip = OrderedSample.from_data(data)
    f = tmp_path / "s.txt"
    write_sample_file(s, f)
    back = ingest(f)
    assert back.values.tolist() == s.values.tolist()
    # idempotent: serialize the re-ingested sample again
    f2 = tmp_path / "s2.txt"
    write_sample_file(back, f2)
    assert f.read_text() == f2.read_text()


# ---------------------------------------------------------------------------
# empirical mean excess
# ---------------------------------------------------------------------------

def test_empirical_me_direct():
    s = OrderedSample.from_data([4.0, 3.0, 2.0, 1.0])
    assert empirical_me(s, 2.0) == pytest.approx(1.5, abs=1e-15)


def test_empirical_me_constant_data():
    s = OrderedSample.from_data([7.0] * 5)
    assert empirical_me(s, 3.0) == pytest.approx(4.0)


def test_empirical_me_strict_indicator():
    s = OrderedSample.from_data([4.0, 3.0, 2.0, 1.0])
    with pytest.raises(EmptyExceedanceSet):
        empirical_me(s, 4.0)


def test_empirical_me_location_equivariance():
    rng = np.random.default_rng(3)
    x = rng.pareto(3.0, 200) + 1.0
    s = OrderedSample.from_data(x)
    for shift in (-5.0, 0.1, 42.0):
        shifted = OrderedSample.from_data(x + shift)
        assert empirical_me(shifted, 1.7 + shift) == pytest.approx(
            empirical_me(s, 1.7), rel=1e-12, abs=1e-12
        )


def test_me_at_order_statistics_matches_pointwise():
    rng = np.random.default_rng(4)
    x = np.round(rng.pareto(2.0, 60) + 1.0, 2)  # rounding forces ties
    s = OrderedSample.from_data(x)
    k = 30
    vec = me_at_order_statistics(s, k)
    for i in range(2, k + 1):
        assert vec[i - 2] == pytest.approx(empirical_me(s, s.values[i - 1]), rel=1e-13)


def test_me_at_order_statistics_matches_whole_sample_sums():
    # The search and the running sum over the top k values give the same
    # bits as over the whole sample, ties included.
    rng = np.random.default_rng(8)
    for n in (2, 3, 50, 1000):
        x = np.round(rng.pareto(1.5, n) + 1.0, 1)
        s = OrderedSample.from_data(x)
        values = s.values
        for k in sorted({2, max(2, n // 3), n}):
            thresholds = values[1:k]
            counts = np.searchsorted(-values, -thresholds, side="left")
            if np.any(counts == 0):
                with pytest.raises(EmptyExceedanceSet):
                    me_at_order_statistics(s, k)
                continue
            whole = np.cumsum(values)[counts - 1] / counts - thresholds
            assert me_at_order_statistics(s, k).tobytes() == whole.tobytes(), (n, k)


def test_me_at_order_statistics_tie_with_max():
    s = OrderedSample.from_data([5.0, 5.0, 1.0])
    with pytest.raises(EmptyExceedanceSet):
        me_at_order_statistics(s, 3)  # ME at X_(2)=5 has no strict exceedance


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------

def test_hill_hand_example():
    s = OrderedSample.from_data([math.e**3, math.e**2, math.e, 1.0])
    est = hill_estimate(s, 3)
    assert est.xi == pytest.approx(2.0, abs=1e-14)
    assert est.method == "hill"
    assert est.k == 3


def test_hill_scale_invariance():
    rng = np.random.default_rng(5)
    x = rng.pareto(4.0, 500) + 1.0
    s = OrderedSample.from_data(x)
    for c in (1e-6, 0.5, 2.0, 1e8):
        scaled = OrderedSample.from_data(c * x)
        assert hill_estimate(scaled, 100).xi == pytest.approx(
            hill_estimate(s, 100).xi, rel=1e-12
        )


def test_hill_errors():
    s = OrderedSample.from_data([3.0, 2.0, 1.0])
    with pytest.raises(BadK):
        hill_estimate(s, 3)
    with pytest.raises(BadK):
        hill_estimate(s, 0)
    neg = OrderedSample.from_data([3.0, 2.0, -1.0])
    with pytest.raises(NonPositiveOrderStatistic):
        hill_estimate(neg, 2)


def test_hill_consistency_on_pareto_samples():
    # |xi_hat - 0.25| <= 0.03 should hold on nearly every seed at n=5e4, k=1000
    from tailband.distributions import sample_pareto
    from tailband.rng import RngStream

    for seed in range(5):
        s = sample_pareto(0.25, 50_000, RngStream(seed, 77))
        assert abs(hill_estimate(s, 1000).xi - 0.25) <= 0.03


def test_hill_exact_grid_convergence():
    errs = []
    for n in (10_000, 1_000_000):
        s = pareto_grid(n, 0.3, denom_offset=1)
        k = int(math.isqrt(n))
        errs.append(abs(hill_estimate(s, k).xi - 0.3))
    assert errs[1] < errs[0]
