"""Sample ingestion, order statistics, and the Hill tail-index estimator.

The central object is OrderedSample: the input data sorted in decreasing
order, X_(1) >= X_(2) >= ... >= X_(n).  Everything downstream (mean-excess
evaluation, Hill estimation, plot construction) works off the order
statistics.
"""
from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

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

    values is immutable (the underlying array is marked read-only) so an
    OrderedSample can be shared freely across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise TooFewObservations("sample must be one-dimensional")
        if arr.size < 2:
            raise TooFewObservations(f"need at least 2 observations, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(int(np.flatnonzero(~np.isfinite(arr))[0]) + 1)
        if np.any(np.diff(arr) > 0):
            raise ValueError("values must be non-increasing; use OrderedSample.from_data")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_data(cls, data: Iterable[float]) -> "OrderedSample":
        """Sort raw observations into decreasing order (stable, ties kept)."""
        arr = np.asarray(list(data) if not isinstance(data, np.ndarray) else data, dtype=float)
        if arr.size >= 2 and np.all(np.isfinite(arr)):
            arr = np.sort(arr, kind="stable")[::-1]
        return cls(arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def order_statistic(self, i: int) -> float:
        """X_(i), 1-indexed from the top."""
        if not (1 <= i <= self.n):
            raise BadK(f"order statistic index {i} outside 1..{self.n}")
        return float(self.values[i - 1])


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


# Characters per chunk of lines read by `_chunks`: big enough to amortise
# the read, small enough that no whole-file line list is built.
_CHUNK_CHARS = 1 << 20


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


def _chunks(fh):
    """The lines of `fh` in chunks, without their newlines: each chunk holds
    the lines fh.readlines(_CHUNK_CHARS) would return, as the text of
    fh.read(_CHUNK_CHARS) completed by fh.readline() and split at the
    (already translated) newlines.  Reading text in bulk keeps the text
    layer's per-line overhead off the loop, which matters because fh reads
    through the Python-level raw layer `_HashingReader`."""
    while text := fh.read(_CHUNK_CHARS):
        lines = (text + fh.readline()).split("\n")
        if not lines[-1]:
            lines.pop()  # the text ends with a newline
        yield lines


def _read_plain(fh) -> array:
    """Values of a plain file, read in `_chunks` from one pass over `fh`.

    Each chunk goes through float() into one array("d") buffer.  At the
    first line float() rejects (a comment, a blank line, a bad token, bytes
    that are not UTF-8), the rest of that chunk is handed to the line loop,
    which skips the line or raises with its number, and the next chunk is
    read fast again.  A non-finite value among the fast-parsed lines sends
    those lines through the line loop, which raises at the first of them.
    """
    buf = array("d")
    line_number = 1  # of the chunk's first line
    for lines in _chunks(fh):
        start = len(buf)
        try:
            buf.extend(map(float, lines))
        except ValueError:
            pass  # array.extend keeps the values parsed before the failure
        done = len(buf) - start
        if not np.isfinite(np.frombuffer(buf, offset=8 * start)).all():
            _parse_lines(lines[:done], PLAIN, 0, line_number)  # raises NonFiniteValue
        if done < len(lines):
            buf.extend(_parse_lines(lines[done:], PLAIN, 0, line_number + done))
        line_number += len(lines)
    return buf


def ingest(path: str | Path, format: str = PLAIN, column: int = 0, digest=None) -> OrderedSample:
    """Read a univariate sample from a text file.

    plain format: one number per line.  csv-column format: comma-separated
    rows, reading the 0-based `column`; a non-numeric first row is skipped as
    a header.  Lines starting with '#' are comments, blank lines are ignored,
    '.' is the decimal separator, scientific notation is accepted.  The file
    must be UTF-8; an undecodable line is a ParseError with its line number.

    The file is read in a single pass, so a pipe or FIFO works as well as a
    regular file.  A plain file is read in chunks of about 1 MiB of lines,
    each passed through float() into one array("d") buffer that is viewed as
    a numpy array without a copy.  Reading in chunks keeps the peak memory
    to the 8 bytes per value of the buffer: neither a list of the whole
    file's lines nor a list of Python floats is ever built.  float() strips
    the same whitespace as the line loop, so the values are bit-identical.
    From the first line float() rejects, the rest of its chunk is parsed by
    the line loop, which is the single source of every error and line
    number; a clean file never enters it.  csv-column files always use the
    line loop, fed with the same chunks of lines.

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
            values = _parse_lines(chain.from_iterable(_chunks(fh)), format, column)
    _require_two(len(values), path)
    return OrderedSample.from_data(values)


_WRITE_CHUNK = 1 << 16  # values formatted per write: about 1.2 MB of text


def write_sample_file(sample: OrderedSample | np.ndarray, path: str | Path) -> None:
    """Write one value per line in the format `ingest` reads back.

    Floats are written in shortest round-trip form, so
    ingest(write(ingest(f))) is the identity on the ordered values.  They
    are formatted a column at a time, in chunks of _WRITE_CHUNK values so
    that the text of a large sample is never held at once.
    """
    values = sample.values if isinstance(sample, OrderedSample) else np.asarray(sample, dtype=float)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(values), _WRITE_CHUNK):
            fh.write("\n".join(map(repr, values[start:start + _WRITE_CHUNK].tolist())) + "\n")


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
    idx = np.arange(1, k)  # 0-based positions of X_(2)..X_(k)
    thresholds = values[idx]
    counts = np.searchsorted(-values, -thresholds, side="left")
    if np.any(counts == 0):
        raise EmptyExceedanceSet("threshold ties the sample maximum")
    csum = np.cumsum(values)
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
