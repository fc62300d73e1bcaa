"""Sample ingestion, order statistics, and the Hill tail-index estimator.

Plain ASCII input is read by the exact decimal kernel `_parse_decimals`.

The central object is OrderedSample: the input data sorted in decreasing
order, X_(1) >= X_(2) >= ... >= X_(n).  Everything downstream (mean-excess
evaluation, Hill estimation, plot construction) works off the order
statistics.
"""
from __future__ import annotations

import io
import math
import sys
from array import array
from dataclasses import InitVar, dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# Characters per chunk read by `_texts`: big enough to amortise the read and
# the decimal kernel's per-call overhead, small enough that the kernel's
# (_WIDTH, lines) blocks stay below a megabyte (at 1 MiB they raised the
# peak RSS of a 10**6-line run by 10 MB; 64 KiB was among the lowest).
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
    every step below works on whole rows: classify the bytes, count digits
    and points, shift the digits left of the point one row down, and fold
    the digit rows into M with uint8, uint16 and uint64 arithmetic.
    """
    w = _WIDTH
    padded = ("\n" * w + text + ("" if text.endswith("\n") else "\n")).encode("ascii")
    data = np.frombuffer(padded, dtype=np.uint8)
    newlines = np.flatnonzero(data == 10)[w:]  # the padding's own newlines dropped
    length = np.diff(newlines, prepend=w - 1) - 1
    negative = data[newlines - length] == 45  # "-" first (an empty line reads its newline)
    body = np.minimum(length - negative, w).astype(np.uint8)  # the characters after the sign

    block = np.ascontiguousarray(sliding_window_view(data, w)[newlines - w].T)
    block -= np.uint8(48)  # "0" -> 0, ..., "9" -> 9, "." -> 254
    inside = _ROWS >= w - body
    digit = block < 10
    digit &= inside
    point = block == 254
    point &= inside
    digits = np.add.reduce(digit, 0, dtype=np.uint8)
    points = np.add.reduce(point, 0, dtype=np.uint8)
    accepted = ((digits + points == body) & (points <= 1) & (digits > 0) & (digits <= 19)
                & (length <= w))

    row = np.add.reduce(point * _ROWS, 0, dtype=np.uint8)  # the point's row, 0 without one
    block *= digit
    low = block[1:]  # rows 1..w-1, which hold every digit once the point is squeezed out
    step = block[:-1] - low
    step *= _ROWS[1:] <= row
    low += step
    pairs = low[0::2] * np.uint8(10) + low[1::2]
    quads = pairs[0::2].astype(np.uint16) * np.uint16(100) + pairs[1::2]
    mantissa = quads[0].astype(np.uint64)
    for q in quads[1:]:
        mantissa *= np.uint64(10_000)
        mantissa += q
    scale = np.where(accepted & (points > 0), w - 1 - row, 0)
    quotient = mantissa.astype(np.longdouble) / _POW10[scale]
    accepted &= (quotient.view(np.uint64)[::2] & 0x7FF) != 0x400
    values = quotient.astype(np.float64)
    np.negative(values, out=values, where=negative)
    return values, accepted, newlines - w


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


def write_sample_file(sample: OrderedSample | np.ndarray, path: str | Path) -> None:
    """Write one value per line in the format `ingest` reads back.

    Floats are written in shortest round-trip form, so
    ingest(write(ingest(f))) is the identity on the ordered values.  They
    are formatted a column at a time, WRITE_ROWS values per write.
    """
    values = sample.values if isinstance(sample, OrderedSample) else np.asarray(sample, dtype=float)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(values), WRITE_ROWS):
            fh.write("\n".join(map(repr, values[start:start + WRITE_ROWS].tolist())) + "\n")


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
