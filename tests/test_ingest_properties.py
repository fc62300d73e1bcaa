"""Property test: `ingest` against the line loop `_ingest_lines`, its oracle,
on generated plain and csv-column files read in chunks of several sizes."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailband import data as data_module  # noqa: E402
from tailband.data import OrderedSample, ingest  # noqa: E402
from tailband.errors import NonFiniteValue, ParseError, TooFewObservations  # noqa: E402

_digits = st.text("0123456789", min_size=1, max_size=22)
# -?digits[.digits], the form the decimal kernel reads (up to 19 digits)
_plain = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=1, max_size=10),
    st.one_of(st.just(""), st.builds(".{}".format, st.text("0123456789", max_size=9))),
)
_unsigned = st.one_of(
    _digits,                                                         # integers, some past 19 digits
    st.builds("{}.{}".format, _digits, _digits),                     # decimals, leading zeros kept
    st.builds("{}.".format, _digits),                                # "1."
    st.builds(".{}".format, _digits),                                # ".5"
    st.floats(0, allow_infinity=False).map(repr),                    # reprs, in exponent form too
    st.builds("{:.{}e}".format, st.floats(0, 1e300), st.integers(0, 18)),  # savetxt-style exponents
    st.builds("{}E{}".format, _digits, st.integers(-30, 30)),
)
_other = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "", "", " ", "\t", "  "]),                  # padding before
    st.sampled_from(["", "", "-", "+"]),                             # sign
    _unsigned,
    st.sampled_from(["", "", "", " ", "\t"]),                        # padding after
)
_skipped = st.sampled_from(["", "# comment", "   ", "#", "\t# padded comment"])
_bad = st.sampled_from(["nan", "-inf", "1e999", "bogus", ".", "-", "1.2.3", "1-", "0x10", "1,5"])


@st.composite
def _files(draw):
    """(bytes, format, column): either mostly lines the decimal kernel reads
    or mostly lines it hands on, some comment and blank lines, and now and
    then one line that is refused."""
    format = draw(st.sampled_from([data_module.PLAIN, data_module.CSV_COLUMN]))
    if draw(st.booleans()):
        lines = draw(st.lists(_plain, max_size=80))
        for at, extra in draw(st.lists(st.tuples(st.integers(0, 80), st.one_of(_other, _skipped)), max_size=6)):
            lines.insert(at, extra)
    else:
        lines = draw(st.lists(st.one_of(_plain, _other, _skipped), max_size=80))
    if draw(st.booleans()) and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad))
    column = 0
    if format == data_module.CSV_COLUMN:
        column = draw(st.integers(0, 1))
        cells = ("{},{}" if column else "{1},{0}").format
        lines = [line if not line.strip() or line.lstrip().startswith("#") else cells(i, line)
                 for i, line in enumerate(lines)]
        if draw(st.booleans()):
            lines.insert(0, "id,value" if column else "value,id")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text.encode("utf-8"), format, column


def _outcome(read, path):
    try:
        return "ok", np.asarray(read(path).values).tobytes()
    except (ParseError, NonFiniteValue, TooFewObservations) as exc:
        return type(exc).__name__, getattr(exc, "line_number", None)


@pytest.fixture(scope="module")
def sample_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest_properties") / "sample.txt"


@settings(database=None, max_examples=600, deadline=None)
@given(file=_files(), chunk=st.sampled_from([16, 64, 1 << 16]))
def test_ingest_matches_line_loop(sample_path, file, chunk):
    content, format, column = file
    sample_path.write_bytes(content)
    with mock.patch.object(data_module, "_CHUNK_CHARS", chunk):
        got = _outcome(lambda p: ingest(p, format, column), sample_path)
    expected = _outcome(lambda p: OrderedSample.from_data(data_module._ingest_lines(p, format, column)), sample_path)
    assert got == expected
