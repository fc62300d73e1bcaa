"""Sample ingestion, order statistics, and the Hill tail-index estimator.

Plain ASCII input is read by the exact decimal kernel `_parse_decimals`.

The central object is OrderedSample: the input data sorted in decreasing
order, X_(1) >= X_(2) >= ... >= X_(n).  Everything downstream (mean-excess
evaluation, Hill estimation, plot construction) works off the order
statistics.
"""
from __future__ import annotations

import functools
import io
import math
import sys
from array import array
from dataclasses import InitVar, dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    BadK,
    DomainError,
    EmptyExceedanceSet,
    NonFiniteValue,
    NonPositiveOrderStatistic,
    ParseError,
    TooFewObservations,
)

HILL = "hill"
FIXED = "fixed"


@dataclass(frozen=True)
class OrderedSample:
    """Validated sample in decreasing order.

    values is immutable (the array is marked read-only) so an OrderedSample
    can be shared freely across threads.  An array passed in is copied;
    `from_data` and `ingest` sort an array of their own in place and keep a
    reversed view of it, so after `ingest` the values are a read-only view
    of the parse buffer and the sample costs no more than its values.
    """

    values: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        arr = np.array(self.values, dtype=float) if copy else np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise TooFewObservations("sample must be one-dimensional")
        if arr.size < 2:
            raise TooFewObservations(f"need at least 2 observations, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(int(np.flatnonzero(~np.isfinite(arr))[0]) + 1)
        if np.any(arr[1:] > arr[:-1]):
            raise ValueError("values must be non-increasing; use OrderedSample.from_data")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_data(cls, data: Iterable[float]) -> "OrderedSample":
        """Sort raw observations into decreasing order (stable, ties kept)."""
        return cls._sorted(np.array(data if isinstance(data, np.ndarray) else list(data), dtype=float))

    @classmethod
    def _sorted(cls, arr: np.ndarray) -> "OrderedSample":
        """The sample of `arr`, a float array that nothing else holds: it is
        stable-sorted in place and kept as a reversed view, which is
        bit-identical to np.sort(arr, kind="stable")[::-1], ties included.
        An array that will be refused is not sorted, so a non-finite value
        is reported at its position in the input."""
        if arr.ndim == 1 and arr.size >= 2 and np.all(np.isfinite(arr)):
            arr.sort(kind="stable")
            arr = arr[::-1]
        return cls(arr, copy=False)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class TailIndexEstimate:
    """Tail index (shape) estimate with its provenance.

    xi > 0 is required wherever the estimate is consumed (bands, normalized
    plots), and each consumer refuses other values with its own message.
    The record itself admits any finite value: a user-supplied shape may be
    <= 0, and a Hill estimate is 0 when the top k+1 order statistics tie.
    """

    xi: float
    method: str
    k: int = 0

    def __post_init__(self):
        if self.method not in (HILL, FIXED):
            raise ValueError(f"unknown method {self.method!r}")
        if not math.isfinite(self.xi):
            raise DomainError("xi must be finite")


def fixed_xi(xi: float) -> TailIndexEstimate:
    return TailIndexEstimate(float(xi), FIXED, 0)


# ---------------------------------------------------------------------------
# ingestion / serialization
# ---------------------------------------------------------------------------

PLAIN = "plain"
CSV_COLUMN = "csv-column"


def _parse_float(token: str, line_number: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_number, repr(token.strip())) from None
    if not math.isfinite(value):
        raise NonFiniteValue(line_number)
    return value


# Characters per chunk read by `_texts`.  Fresh-process `ingest` of the
# 10**6-line `simulate` file of the QQ benchmark took 0.13 s of CPU at 64,
# 128, 256 and 512 KiB alike (128 KiB won 16 of 30 alternating runs of the
# whole command against 64 KiB), but the fewest minor page faults at 64 KiB:
# 2,600 against 8,400 to 14,200, because the kernel's arrays for one chunk
# (about 200 KB) then stay below the allocator's mmap and trim thresholds
# and are reused from the heap.  Larger chunks also raise the peak of
# `ingest` further above the values it returns.
_CHUNK_CHARS = 1 << 16


def _parse_lines(lines: Iterable[str], format: str, column: int,
                 first_line_number: int = 1) -> list[float]:
    """The line loop: the reference semantics of `ingest` and the only
    source of its errors and line numbers.  `lines` come from a file opened
    with errors="surrogateescape", so a byte that is not UTF-8 reaches it as
    a lone surrogate."""
    out: list[float] = []
    header_allowed = format == CSV_COLUMN
    for line_number, raw in enumerate(lines, start=first_line_number):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(line_number, "not valid UTF-8") from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if format == PLAIN:
            out.append(_parse_float(line, line_number))
            continue
        cells = line.split(",")
        if column >= len(cells):
            raise ParseError(line_number, f"no column {column}")
        token = cells[column]
        if header_allowed:
            header_allowed = False
            try:
                out.append(_parse_float(token, line_number))
            except ParseError:
                continue  # header row
        else:
            out.append(_parse_float(token, line_number))
    return out


class _HashingReader(io.RawIOBase):
    """Raw binary layer that feeds every byte it reads to a hash object
    (none when `digest` is None)."""

    def __init__(self, raw, digest):
        self._raw = raw
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._raw.readinto(b)
        if n and self._digest is not None:
            self._digest.update(memoryview(b)[:n])
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _open_text(path: Path, digest=None):
    """`path` as UTF-8 text read through a `_HashingReader`, so every byte
    read is also fed to the hash object `digest` if one is given."""
    raw = _HashingReader(path.open("rb", buffering=0), digest)
    return io.TextIOWrapper(io.BufferedReader(raw, _CHUNK_CHARS), encoding="utf-8", errors="surrogateescape")


def _require_two(count: int, path: Path) -> None:
    if count < 2:
        raise TooFewObservations(f"{path}: found {count} usable values, need at least 2")


def _ingest_lines(path: Path, format: str, column: int) -> list[float]:
    """Whole-file line loop; the oracle that `ingest` is tested against."""
    with _open_text(path) as fh:
        out = _parse_lines(fh, format, column)
    _require_two(len(out), path)
    return out


def _texts(fh):
    """The text of `fh` in chunks of whole lines: each chunk is
    fh.read(_CHUNK_CHARS) completed by fh.readline(), so it ends with a
    (translated) newline except at the end of a file without one.  Reading
    text in bulk keeps the text layer's per-line overhead off the loop,
    which matters because fh reads through the Python-level raw layer
    `_HashingReader`."""
    while text := fh.read(_CHUNK_CHARS):
        yield text + fh.readline()


def _lines(text: str) -> list[str]:
    """The lines of a `_texts` chunk, without their newlines."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a newline
    return lines


# The decimal kernel.  A line of the form -?digits[.digits] with at most 19
# digits (also "1." and ".5") is the integer M < 10**19 < 2**64 over 10**f,
# f <= 19.  Both are exact in the 64-bit significand of the x87 extended
# format, so M / 10**f in that format rounds once; rounding the quotient
# again to a double gives float()'s correctly rounded value unless the
# quotient lies exactly halfway between two doubles (its low 11 significand
# bits are 0x400), and those lines are rejected.  The check reads the
# significand as the first uint64 of each 16-byte long double, so the kernel
# runs only where that is the layout; elsewhere every line goes to float().
_EXACT_KERNEL = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
                 and sys.byteorder == "little")
_WIDTH = 21  # a sign, a point and 19 digits
_ROWS = np.arange(_WIDTH, dtype=np.uint8)[:, None]
_POW10 = np.array([float(10**f) for f in range(_WIDTH)], dtype=np.longdouble)  # exact to 10**22


def _parse_decimals(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values of the lines of an ASCII chunk that are plain decimals.

    Returns (values, accepted, ends): one float64 per line, bit-identical to
    float(line) where `accepted` is true, and the offset in `text` of the
    line's newline.  Each line's last _WIDTH bytes are gathered
    right-aligned into the columns of a (_WIDTH, lines) uint8 block, so that
    every step below works on whole rows: blank the bytes outside the line,
    count the points and the other non-digits, squeeze the point out by
    moving the digits left of it one row down, and fold the digit rows into
    M with uint8, uint16 and uint64 arithmetic.

    At its peak the kernel holds about 57 bytes a line (3.2 bytes per byte
    of `text` for shortest float reprs): the block, one (_WIDTH, lines) mask
    reused for every test, and a few bytes a line.  Each step writes into an
    array that is already there, and each array is dropped after its last
    use.
    """
    w = _WIDTH
    padded = ("\n" * w + text + ("" if text.endswith("\n") else "\n")).encode("ascii")
    data = np.frombuffer(padded, dtype=np.uint8)
    ends = np.flatnonzero(data[w:] == 10)  # offsets in text; the padding keeps windows in range
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    negative = data[w:][starts] == 45  # "-" first (an empty line reads its newline)
    length = np.subtract(ends, starts, out=starts)
    accepted = length <= w
    length -= negative
    body = np.minimum(length, w, out=length).astype(np.uint8)  # the characters after the sign
    del starts, length
    # Row s of `windows` holds the w bytes before text offset s, so the row
    # at a line's newline holds the line's last w bytes.
    windows = np.ndarray((data.size - w + 1, w), np.uint8, padded, strides=(1, 1))
    lines = windows[ends]
    del windows, data, padded
    block = np.ascontiguousarray(lines.T)
    del lines

    block -= np.uint8(48)  # "0" -> 0, ..., "9" -> 9, "." -> 254
    mask = np.greater_equal(_ROWS, w - body)  # the line's body
    marks = mask.view(np.uint8)  # the mask as 0 and 1, to multiply by
    block *= marks
    np.greater(block, 9, out=mask)
    others = np.add.reduce(mask, 0, dtype=np.uint8)  # points and stray bytes
    np.equal(block, 254, out=mask)
    points = np.add.reduce(mask, 0, dtype=np.uint8)
    accepted &= others == points
    accepted &= points <= 1
    digits = np.subtract(body, points, out=body)
    digits -= np.uint8(1)  # 1..19 digits read 0..18, and none wraps to 255
    accepted &= digits < 19
    del others, body, digits
    marks *= _ROWS
    row = np.add.reduce(marks, 0, dtype=np.uint8)  # the point's row, 0 without one
    np.not_equal(block, 254, out=mask)
    block *= marks  # the point blanked
    # block = I + F, the digits left (I) and right (F) of the point; the
    # digit rows are F + I moved one row down
    np.less(_ROWS, row, out=mask)
    np.multiply(block, marks, out=marks)  # I
    block -= marks  # F
    low = block[1:]  # rows 1..w-1, which hold every digit once the point is squeezed out
    low += marks[:-1]
    del mask, marks

    pairs = low[0::2]
    pairs *= np.uint8(10)
    pairs += low[1::2]
    quads = pairs[0::2].astype(np.uint16)
    quads *= np.uint16(100)
    quads += pairs[1::2]
    del block, low, pairs
    mantissa = quads[0].astype(np.uint64)
    for q in quads[1:]:
        mantissa *= np.uint64(10_000)
        mantissa += q
    del quads, q

    scale = np.uint8(w - 1) - row
    scale *= accepted & (points > 0)
    del row, points
    quotient = mantissa.astype(np.longdouble)
    del mantissa
    np.divide(quotient, _POW10[scale], out=quotient)
    accepted &= (quotient.view(np.uint64)[::2] & 0x7FF) != 0x400
    values = quotient.astype(np.float64)
    np.negative(values, out=values, where=negative)
    return values, accepted, ends


def _parse_each(lines: list[str], line_numbers) -> tuple[np.ndarray, list[int]]:
    """Values of `lines` through float() in bulk, with the line loop's
    outcome for each line float() rejects.

    Returns one value per line and the indices of the lines the line loop
    skipped (comments and blank lines, whose values are 0).  A rejected line
    goes alone through `_parse_lines` with its own number from
    `line_numbers`, so it is skipped or raises there; a non-finite value is
    sent there too, before any later line, so the first error in the file
    is the one raised.  float() strips the same whitespace as the line
    loop, so their values agree bit for bit.
    """
    out = array("d")
    skipped = []
    rest = iter(lines)
    while True:
        start = len(out)
        try:
            out.extend(map(float, rest))
            failed = False
        except ValueError:
            failed = True  # array.extend keeps the values parsed before the failure
        finite = np.isfinite(np.frombuffer(out, offset=8 * start))
        if not finite.all():
            i = start + int(np.argmin(finite))
            _parse_lines([lines[i]], PLAIN, 0, line_numbers[i])  # raises NonFiniteValue
        if not failed:
            return np.frombuffer(out), skipped
        i = len(out)  # the line float() rejected; map() has moved `rest` past it
        value = _parse_lines([lines[i]], PLAIN, 0, line_numbers[i])
        if not value:
            skipped.append(i)
        out.extend(value or [0.0])


def _read_plain(fh) -> array:
    """Values of a plain file, read in `_texts` chunks from one pass over `fh`.

    An ASCII chunk goes through the decimal kernel `_parse_decimals` (see
    _EXACT_KERNEL); the lines it rejects go through `_parse_each` in file
    order with their own line numbers and take their places among its values.
    A chunk that is not ASCII, a chunk in which the kernel rejects more
    than a quarter of the lines, a chunk while the kernel waits (below), and
    every chunk without the extended format go through `_parse_each` whole.
    """
    buf = array("d")
    line_number = 1  # of the chunk's first line
    # A chunk in which the kernel rejects more than a quarter of the lines
    # (exponent notation, long or padded lines) is read no faster than by
    # float() alone, and the kernel has cost 40% of float()'s time for
    # nothing.  The chunks after it go to float() for a wait that doubles
    # with each such chunk in a row, so a file of such lines pays for the
    # kernel on about log2(chunks) of them, and a run of good chunks is
    # missed for at most as long as the run of bad ones before it.
    wait = 0  # chunks still to go to float() before the kernel is tried again
    backoff = 1  # the wait after the next mostly rejected chunk
    for text in _texts(fh):
        kernel = _EXACT_KERNEL and not wait and text.isascii()
        wait = max(wait - 1, 0)
        if kernel:
            values, accepted, ends = _parse_decimals(text)
            rejected = np.flatnonzero(~accepted)
            kernel = 4 * rejected.size <= accepted.size
            wait, backoff = (0, 1) if kernel else (backoff, 2 * backoff)
        if kernel:
            if rejected.size:
                starts = np.concatenate(([0], ends[:-1] + 1))
                lines = [text[a:b] for a, b in zip(starts[rejected].tolist(), ends[rejected].tolist())]
                parsed, skipped = _parse_each(lines, (rejected + line_number).tolist())
                values[rejected] = parsed
                if skipped:
                    values = np.delete(values, rejected[skipped])
            line_number += len(accepted)
        else:
            lines = _lines(text)
            parsed, skipped = _parse_each(lines, range(line_number, line_number + len(lines)))
            values = np.delete(parsed, skipped) if skipped else parsed
            line_number += len(lines)
        buf.frombytes(values.view(np.uint8))
    return buf


def ingest(path: str | Path, format: str = PLAIN, column: int = 0, digest=None) -> OrderedSample:
    """Read a univariate sample from a text file.

    plain format: one number per line.  csv-column format: comma-separated
    rows, reading the 0-based `column`; a non-numeric first row is skipped as
    a header.  Lines starting with '#' are comments, blank lines are ignored,
    '.' is the decimal separator, scientific notation is accepted.  The file
    must be UTF-8; an undecodable line is a ParseError with its line number.

    The file is read in a single pass, so a pipe or FIFO works as well as a
    regular file, in chunks of about 64 KiB of whole lines.  The values of a
    plain file go into one array("d") buffer that is viewed as a numpy array
    without a copy and becomes the sample's values, sorted in place, so
    neither a list of the file's lines, nor a list of Python floats, nor a
    second array of the values is ever built.  Plain ASCII input goes
    through the exact decimal kernel `_parse_decimals`, and the lines it
    rejects through float() and the line loop (see `_read_plain`).
    csv-column files always use the line loop, fed with the same chunks of
    lines.

    With a hashlib object `digest`, the bytes of the file are fed to it as
    they are read, so the caller gets the input's hash without opening it a
    second time (which a FIFO or a process substitution would not allow).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    if format not in (PLAIN, CSV_COLUMN):
        raise ParseError(0, f"unknown format {format!r}")
    with _open_text(path, digest) as fh:
        if format == PLAIN:
            values = np.frombuffer(_read_plain(fh), dtype=float)
        else:
            values = _parse_lines(chain.from_iterable(map(_lines, _texts(fh))), format, column)
    _require_two(len(values), path)
    return OrderedSample._sorted(np.asarray(values, dtype=float))


# Rows formatted per write by every file writer (`write_sample_file` and the
# CSV and SVG writers in `outputs`), so the text they hold at once does not
# grow with the row count.
WRITE_ROWS = 2048


# The decimal writer: the text of repr(v), which is the shortest decimal
# that reads back as v and, among those, the nearest to v (dtoa's mode 0),
# for a whole column at once.  With E = floor(log10|v|) and k = 16 - E, the
# value s = |v| 10**k lies in [1e16, 1e17); k is read off the binary
# exponent of v and lowered by one where that puts s at 1e17 or above.  For 0 <= k <= 22, 10**k is an
# exact double (5**22 < 2**53), so Dekker's product splits s exactly into
# hi + lo, and s = H + f with H an int64 and 0 <= f < 1.  Every double that
# rounds to v lies within h = ulp(v)/2 * 10**k of s (also exact), unless v
# is a power of two, whose interval is narrower below it.  Because
# 0.55 < h < 11.2, the shortest decimal has 17 digits unless the nearest
# multiple of 10 lies within h (16 digits), and it is shorter still only if
# the nearest multiple of 100 lies within h.  At most one multiple of 100
# does, so that candidate is the answer and its trailing zeros fix the
# digit count.  A value within 1e-9 of a tie or of an interval edge, a
# power of two whose decimal is not exact in 15 digits, |v| outside
# [1e-6, 1e17), NaN and the infinities are declined and written by repr.
_TEXT_WIDTH = 24  # the longest repr: "-1.2345678901234567e-308"
_MIN_DECPT, _MAX_DECPT = -5, 18  # where the decimal point of a written value falls
_DECPTS = _MAX_DECPT - _MIN_DECPT + 1
_REPR_KEY = 17 * _DECPTS * 2  # the layout of a row that holds repr's text
# A value's source row: its 17 digits in bytes 3..19 (written as five
# 4-byte groups, the first holding "000" and the leading digit), then the
# characters that the layout adds.
_ALPHABET = b"-.e+0123456789\0\0"
_SOURCE_BYTES = 20 + len(_ALPHABET)
_FIRST_DIGIT, _DASH, _POINT, _E, _PLUS, _ZERO, _NUL = 3, 20, 21, 22, 23, 24, 34


class _WriterTables(NamedTuple):
    scale: np.ndarray  # 10**k at index k + 1, for k = -1..23
    scale_hi: np.ndarray  # its Veltkamp halves
    scale_lo: np.ndarray
    k_of_exponent: np.ndarray  # k + 1 by the exponent field of |v|, 0 where no value is written by the kernel
    half_ulp: np.ndarray  # ulp/2 of a normal double by its exponent field
    group_text: np.ndarray  # the four ASCII digits of 0..9999 as one uint32
    group_zeros: np.ndarray  # their trailing zeros
    layout: np.ndarray  # the source-row byte of each text byte, by layout key
    text_length: np.ndarray  # the text's length, by layout key


@functools.cache
def _writer_tables() -> _WriterTables:
    """The decimal writer's tables, built with numpy on first use (about
    1 ms, which import does not pay)."""
    # the ends of scale only serve the test that moves k: 10**23 and 0.1 are not exact
    scale = 10.0 ** np.arange(-1, 24)
    scale_hi = scale * 134217729.0
    scale_hi -= scale_hi - scale
    # 17 - floor(log10(2**e)) puts |v| 10**k in [1e16, 2e17); e * log10(2)
    # is at least 0.003 from an integer for |e| < 93
    e = np.arange(-1023, 1025)
    k_of_exponent = np.where((e >= -20) & (e <= 56), 17 - np.floor(e * np.log10(2.0)), 0).astype(np.intp)
    # the digits of 0..9999 on a (10, 10, 10, 10) grid
    digits = [np.arange(10).reshape([10 if i == j else 1 for j in range(4)]) for i in range(4)]
    group_text = np.stack(np.broadcast_arrays(*digits), axis=-1).astype(np.uint8) + ord("0")
    group_zeros = (digits[3] == 0) * (1 + (digits[2] == 0) * (1 + (digits[1] == 0) * (1 + (digits[0] == 0))))
    layout = _build_layout()
    return _WriterTables(scale, scale_hi, scale - scale_hi, k_of_exponent, np.ldexp(1.0, e - 53),
                         group_text.view(np.uint32).ravel(), group_zeros.astype(np.intp).ravel(), layout,
                         np.count_nonzero(layout != _NUL, axis=1))


def _build_layout() -> np.ndarray:
    """For each layout key ((17 - digits) * _DECPTS + decpt - _MIN_DECPT) * 2
    + sign, the source-row byte of each of the _TEXT_WIDTH text bytes
    (_NUL past the end).  The text is repr's: fixed notation for
    -4 < decpt <= 16 with ".0" on an integer, otherwise d.ddde+XX.  The last
    key copies a row that holds repr's text."""
    nd = 17 - np.arange(17)[:, None, None, None]  # significant digits
    dp = np.arange(_MIN_DECPT, _MAX_DECPT + 1)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    w = np.arange(_TEXT_WIDTH) - neg  # text position after the sign
    digit = _FIRST_DIGIT + w  # the digit at w, where digits start at w = 0
    large = (dp >= 1) & (dp <= 16)  # ddd.ddd, or ddd000.0
    small = (dp >= -3) & (dp <= 0)  # 0.000ddd
    sci = ~large & ~small
    mant = nd + (nd > 1)  # d or d.ddd before the "e"
    e = np.abs(dp - 1)
    cases = [
        (neg.astype(bool) & (w == -1), _DASH),
        (large & (w < dp) & (w < nd), digit),
        (large & (w < dp), _ZERO),
        (large & (w == dp), _POINT),
        (large & (w > dp) & (w <= nd), digit - 1),
        (large & (w == dp + 1) & (nd <= dp), _ZERO),
        (small & (w == 1), _POINT),
        (small & (w < 2 - dp), _ZERO),
        (small & (w < 2 - dp + nd), digit - 2 + dp),
        (sci & (w == 0), digit),
        (sci & (w == 1) & (nd > 1), _POINT),
        (sci & (w < mant), digit - 1),
        (sci & (w == mant), _E),
        (sci & (w == mant + 1), np.where(dp > 1, _PLUS, _DASH)),
        (sci & (w == mant + 2), _ZERO + e // 10),
        (sci & (w == mant + 3), _ZERO + e % 10),
    ]
    layout = np.select(*zip(*cases), _NUL).reshape(-1, _TEXT_WIDTH)
    return np.vstack([layout, np.arange(_TEXT_WIDTH)])


def _source_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source row and the layout key of each value of the float64 array
    v (see the decimal writer above); a declined value's row holds repr's
    text under _REPR_KEY."""
    t = _writer_tables()
    bits = v.view(np.int64)
    exponent = (bits >> 52) & 0x7FF
    k1 = t.k_of_exponent[exponent]  # k + 1
    ok = k1 != 0
    a = np.abs(v)
    with np.errstate(all="ignore"):  # NaN, inf and the declined magnitudes
        k1 -= a * t.scale[k1] >= 1e17
        ok &= (k1 >= 1) & (k1 <= 23)
        hi = a * t.scale[k1]
        # Dekker's exact product a * 10**k = hi + lo
        split = a * 134217729.0
        a_hi = split - (split - a)
        a_lo = a - a_hi
        p_hi, p_lo = t.scale_hi[k1], t.scale_lo[k1]
        lo = a_hi * p_hi - hi
        lo += a_lo * p_hi
        lo += a_hi * p_lo
        lo += a_lo * p_lo
        whole = np.floor(lo)
        f = lo - whole
        H = hi.astype(np.int64)
        H += whole.astype(np.int64)
        h = t.half_ulp[exponent] * t.scale[k1]
    del split, a_hi, a_lo, p_hi, p_lo, lo, whole, hi
    ok &= (H >= 10**16) & (H < 10**17)
    np.copyto(H, 10**16, where=~ok)  # keep the digit arithmetic in range
    upper = H // 100_000_000  # the first 9 digits
    lower = H - upper * 100_000_000  # the last 8
    del H
    # the nearest multiples of 100 and of 10: r is the distance from the
    # one below s, d the distance from the nearest
    r100 = lower % 100
    t100 = r100 + f
    d100 = np.minimum(t100, 100 - t100)
    r10 = r100 % 10
    t10 = r10 + f
    d10 = np.minimum(t10, 10 - t10)
    within100 = d100 < h
    within10 = d10 < h
    unsure = np.abs(d100 - h) < 1e-9
    unsure |= np.abs(d10 - h) < 1e-9
    unsure |= np.abs(t10 - 5) < 1e-9
    unsure |= (np.abs(f - 0.5) < 1e-9) & ~within10
    power_of_two = (bits & ((1 << 52) - 1)) == 0
    if power_of_two.any():
        # only the exact decimal of a power of two is certain
        unsure |= power_of_two & ((r100 != 0) | (f != 0))
    ok &= ~unsure
    del d100, d10, h, unsure, power_of_two
    step = (f > 0.5).astype(np.int64)  # to the nearest integer
    np.copyto(step, 10 * (t10 > 5) - r10, where=within10)
    np.copyto(step, 100 * (t100 > 50) - r100, where=within100)
    del f, r100, t100, r10, t10, within100, within10
    lower += step
    carry = lower >= 100_000_000
    upper += carry
    lower -= carry * 100_000_000
    top = upper == 1_000_000_000  # rounded up to 10**17: one digit more before the point
    decpt = 18 - k1 + top
    upper[top] = 100_000_000
    del step, carry, top, k1
    zero = (bits << 1) == 0
    if zero.any():
        upper[zero] = lower[zero] = 0
        decpt[zero] = 1  # "0.0"
        ok |= zero
    lead = upper // 100_000_000
    upper -= lead * 100_000_000
    groups = [lead, upper // 10_000, upper % 10_000, lower // 10_000, lower % 10_000]
    rows = np.empty((v.size, _SOURCE_BYTES // 4), np.uint32)
    for i, g in enumerate(groups):
        rows[:, i] = t.group_text[g]
    rows[:, 5:] = np.frombuffer(_ALPHABET, np.uint32)
    zeros = t.group_zeros[groups[4]]  # trailing zeros of the digits
    run = groups[4] == 0
    for g in groups[3:0:-1]:
        zeros += run * t.group_zeros[g]
        run &= g == 0
    key = zeros * _DECPTS
    key += decpt - _MIN_DECPT
    key *= 2
    key += bits < 0
    rows = rows.view(np.uint8)
    declined = np.flatnonzero(~ok)
    key[declined] = _REPR_KEY
    for i in declined.tolist():
        rows[i, :_TEXT_WIDTH] = np.frombuffer(repr(float(v[i])).encode().ljust(_TEXT_WIDTH, b"\0"), np.uint8)
    return rows, key


def _column_text(v: np.ndarray) -> np.ndarray:
    """The text of each value of v, left-aligned in a row of NUL bytes as
    wide as the longest: one take from the source rows by the layout."""
    rows, key = _source_rows(np.ascontiguousarray(v, dtype=np.float64))
    t = _writer_tables()
    index = t.layout[:, :t.text_length[key].max()][key]
    index += np.arange(0, rows.size, _SOURCE_BYTES)[:, None]
    return rows.ravel().take(index)


def csv_lines(columns: Iterable[np.ndarray]) -> str:
    """The CSV lines of a block of rows, one float array per column: the
    same text as "".join(",".join(map(repr, row)) + "\n" for row in rows).
    Columns with the same bytes are formatted once.  Each value's text
    is padded with NULs to its column's width, and the padding is dropped
    from the block's bytes at the end."""
    columns = list(columns)
    if not columns or not len(columns[0]):
        return ""
    texts: dict[bytes, np.ndarray] = {}
    cells = []
    for col in columns:
        key = col.tobytes()
        if key not in texts:
            texts[key] = _column_text(col)
        cells.append(texts[key])
    block = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
    at = 0
    for text in cells:
        width = text.shape[1]
        block[:, at:at + width] = text
        block[:, at + width] = ord(",")
        at += width + 1
    block[:, -1] = ord("\n")
    del texts, cells, text
    return block.tobytes().translate(None, b"\0").decode("ascii")


def write_sample_file(sample: OrderedSample | np.ndarray, path: str | Path) -> None:
    """Write one value per line in the format `ingest` reads back.

    Floats are written as repr writes them, the shortest decimal that
    round-trips, so ingest(write(ingest(f))) is the identity on the ordered
    values.  `csv_lines` formats WRITE_ROWS values per write.
    """
    values = sample.values if isinstance(sample, OrderedSample) else np.asarray(sample, dtype=float)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(values), WRITE_ROWS):
            fh.write(csv_lines([values[start:start + WRITE_ROWS]]))


# ---------------------------------------------------------------------------
# empirical mean excess
# ---------------------------------------------------------------------------

def empirical_me(sample: OrderedSample, u: float) -> float:
    """Empirical mean excess over threshold u.

    Averages X_i - u over the strict exceedances X_i > u; raises
    EmptyExceedanceSet when nothing exceeds u.
    """
    values = sample.values
    count = int(np.searchsorted(-values, -float(u), side="left"))
    if count == 0:
        raise EmptyExceedanceSet(f"no observation exceeds u={u}")
    return float(values[:count].mean() - u)


def me_at_order_statistics(sample: OrderedSample, k: int) -> np.ndarray:
    """Empirical mean excess evaluated at thresholds X_(2), ..., X_(k).

    Returns the array [ME(X_(2)), ..., ME(X_(k))].  Under ties the strict
    indicator matters: the exceedance count of X_(i) is the number of values
    strictly above it, not i-1.  Raises EmptyExceedanceSet when a threshold
    equals the sample maximum (zero strict exceedances).
    """
    values = sample.values
    if not (2 <= k <= sample.n):
        raise BadK(f"k={k} outside 2..{sample.n}")
    # every count is below k: only X_(1)..X_(k) can exceed a threshold, so
    # the search and the running sum need the top k values alone
    top = values[:k]
    thresholds = top[1:]  # X_(2)..X_(k)
    counts = np.searchsorted(-top, -thresholds, side="left")
    if np.any(counts == 0):
        raise EmptyExceedanceSet("threshold ties the sample maximum")
    csum = np.cumsum(top)
    return csum[counts - 1] / counts - thresholds


# ---------------------------------------------------------------------------
# tail-index estimators
# ---------------------------------------------------------------------------

def hill_estimate(sample: OrderedSample, k: int) -> TailIndexEstimate:
    """Hill estimator from the top k order statistics.

    xi_hat = (1/k) * sum_{i<=k} log(X_(i) / X_(k+1)).  Requires
    1 <= k <= n-1 and X_(k+1) > 0.  Scale-invariant: hill(c*X) = hill(X)
    for any c > 0.
    """
    values = sample.values
    if not (1 <= k <= sample.n - 1):
        raise BadK(f"k={k} outside 1..{sample.n - 1}")
    pivot = values[k]
    if pivot <= 0:
        raise NonPositiveOrderStatistic(f"X_({k + 1}) = {pivot} <= 0")
    xi = float(np.mean(np.log(values[:k] / pivot)))
    return TailIndexEstimate(xi, HILL, k)
