"""The decimal writers against their oracles: `data.csv_lines` against repr
and `data.g9_points` against format(v, ".9g").  Each writes the same text
for every float, and its numpy fast path, not the oracle, writes nearly all
values of the kinds the program writes."""
import numpy as np
import pytest

from tailband import data as data_module
from tailband.bands import qq_band
from tailband.data import WRITE_ROWS, csv_lines, g9_points, hill_estimate
from tailband.distributions import (
    SIMULATION,
    GpdParams,
    StableSpec,
    sample_gpd,
    sample_nonstd,
    sample_pareto,
    sample_stable,
)
from tailband.plotsets import PlotConfig, qq_set
from tailband.rng import RngStream

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _lines(values) -> str:
    """The writer's text for values, WRITE_ROWS at a time."""
    return "".join(csv_lines([values[i:i + WRITE_ROWS]]) for i in range(0, len(values), WRITE_ROWS))


def _reprs(values) -> str:
    return "".join(repr(v) + "\n" for v in values.tolist())


def _fast_share(values) -> float:
    """The share of values the kernel writes without repr."""
    return float(data_module._source_rows(np.ascontiguousarray(values, dtype=float))[2].mean())


def _near_ties(rng, n: int, digits: int) -> np.ndarray:
    """Doubles nearest to decimals of digits + 1 significant digits ending in
    5: halfway between two decimals of the length repr may choose."""
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, n)
    exponents = rng.integers(-8, 16, n)
    return np.array([float(f"{m}5e{e - digits}") for m, e in zip(mantissas.tolist(), exponents.tolist())])


def _families() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2024)
    n = 100_000
    sign = rng.choice([-1.0, 1.0], n)
    return {
        "uniform": rng.uniform(0.0, 1.0, n),
        "lognormal": rng.lognormal(0.0, 2.0, n),
        "log-uniform over 1e-13..1e13": np.exp(rng.uniform(np.log(1e-13), np.log(1e13), n)),
        "negative lognormal": -rng.lognormal(0.0, 4.0, n),
        "short decimals": np.array([round(v, d) for v, d in zip(rng.lognormal(0.0, 3.0, n).tolist(),
                                                                rng.integers(0, 8, n).tolist())]) * sign,
        "integers": rng.integers(-10**7, 10**7, n).astype(float),
        "powers of two": np.ldexp(sign, rng.integers(-40, 70, n)),
        "17-digit ties": _near_ties(rng, n // 4, 16),
        "16-digit ties": _near_ties(rng, n // 4, 15),
        "near powers of ten": np.array([np.nextafter(10.0 ** e, to) for e in range(-8, 19)
                                        for to in (-np.inf, 10.0 ** e, np.inf)]),
        "edges": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1.8e308, 1e-6, 1e-5, 1e-4, 1e16, 1e17, 1e22, 2.0**53, 2.0**56, 9999999999999998.0,
                           0.41940779265565375, 0.1, 0.5, 1 / 3, 123456789012345678.0]),
    }


@pytest.mark.parametrize("family", sorted(_families()))
def test_writer_matches_repr_on_each_family(family):
    values = _families()[family]
    assert _lines(values) == _reprs(values)


def test_writer_matches_repr_on_random_bit_patterns():
    values = np.random.default_rng(7).integers(-2**63, 2**63, 10**6, dtype=np.int64).view(float)
    assert _lines(values) == _reprs(values)


def test_fast_path_writes_nearly_every_value():
    # a kernel that declined every value would still write repr's text
    families = _families()
    for family in ("uniform", "lognormal", "short decimals", "integers"):
        assert _fast_share(families[family]) > 0.99, family


@pytest.mark.parametrize("law", ["nonstd", "pareto", "gpd", "stable"])
def test_fast_path_writes_each_simulate_law(law):
    # values that repr writes in exponent notation go to repr, which is
    # cheap only while they are this rare in the files `simulate` writes
    stream = RngStream(11)
    sample = {
        "nonstd": lambda: sample_nonstd(200_000, stream),
        "pareto": lambda: sample_pareto(0.7, 200_000, stream),
        "gpd": lambda: sample_gpd(GpdParams(0.3, 1.0), 200_000, stream),
        "stable": lambda: sample_stable(StableSpec(alpha=1.25, skew=1.0, kind=SIMULATION), 200_000, stream),
    }[law]()
    assert _fast_share(sample.values) >= 0.999


def test_writer_matches_repr_on_the_qq_columns():
    # a QQ plot and band as the benchmark writes them, on a smaller sample
    sample = sample_nonstd(200_000, RngStream(5))
    cfg = PlotConfig(5000, 0.05)
    plot = qq_set(sample, cfg)
    band = qq_band(plot, cfg, hill_estimate(sample, 5000).xi)
    columns = [plot.x, plot.y, *band.rectangles()]
    for col in columns:
        assert _lines(col) == _reprs(col)
        assert _fast_share(col) > 0.999
    rows = slice(0, WRITE_ROWS)
    expected = "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c[rows].tolist() for c in columns)))
    assert csv_lines([c[rows] for c in columns]) == expected


def test_writer_formats_repeated_and_signed_zero_columns():
    a = np.array([0.0, -0.0, 1.5, -2.25, np.nan, 1e300])
    columns = [a, a.copy(), a + 0.0, -a, a[::-1]]  # a + 0.0 equals a, but -0.0 becomes 0.0
    expected = "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))
    assert csv_lines(columns) == expected
    assert csv_lines([np.empty(0)]) == ""


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1,
                max_size=WRITE_ROWS))
def test_writer_matches_repr_on_any_block(values):
    block = np.array(values, dtype=float)
    assert csv_lines([block]) == _reprs(block)
    assert csv_lines([block, -block]) == "".join(f"{v!r},{-v!r}\n" for v in block.tolist())


# ---------------------------------------------------------------------------
# the 9-digit writer of the SVG's points
# ---------------------------------------------------------------------------

def _assert_g9(values):
    """g9_points writes each value, paired with the values reversed, as
    format(v, ".9g") does, WRITE_ROWS pairs at a time."""
    values = np.asarray(values, dtype=float)
    for i in range(0, len(values), WRITE_ROWS):
        x = values[i:i + WRITE_ROWS]
        y = x[::-1]
        assert g9_points(x, y) == " ".join(map("{:.9g},{:.9g}".format, x.tolist(), y.tolist()))


def _g9_fast_share(values) -> float:
    """The share of values the 9-digit kernel writes without format()."""
    return float(data_module._fixed9(np.ascontiguousarray(values, dtype=float))[2].mean())


def _g9_ties(rng, n: int) -> np.ndarray:
    """Exact doubles with 10 significant digits, the last a 5: an integer
    part of 10 - q digits and a fraction of q digits, odd multiples of
    2**-q.  Rounded to 9 digits, each is a tie, broken to the even digit."""
    q = rng.integers(1, 5, n)
    whole = rng.integers(10 ** (9 - q), 10 ** (10 - q))
    odd = 2 * rng.integers(0, 2 ** (q - 1)) + 1
    return rng.choice([-1.0, 1.0], n) * (whole + np.ldexp(odd.astype(float), -q))


def test_g9_writer_matches_format_on_pixels_and_integers():
    rng = np.random.default_rng(2031)
    pixels = rng.uniform(-20.0, 880.0, 50_000)
    integers = rng.integers(-10**9, 10**9, 50_000).astype(float)
    for values in (pixels, integers, np.round(pixels, 3), rng.integers(0, 900, 50_000).astype(float)):
        _assert_g9(values)
    assert _g9_fast_share(pixels) > 0.999
    assert _g9_fast_share(integers) > 0.999


def test_g9_writer_rounds_ties_and_near_ties_as_format_does():
    rng = np.random.default_rng(8)
    ties = _g9_ties(rng, 20_000)
    assert {f"{v:.9g}" for v in (1234567.125, 1234567.375, 123456789.5, 12345678.25)} == {
        "1234567.12", "1234567.38", "123456790", "12345678.2"}
    _assert_g9(np.concatenate([[1234567.125, 1234567.375, 123456789.5, 12345678.25, -0.5], ties]))
    # the doubles nearest 10-digit decimals that end in 5: a hair above or
    # below a tie, where the scaled product may round onto the half
    digits, exponents = rng.integers(10**8, 10**9, 20_000), rng.integers(-13, 0, 20_000)
    _assert_g9([float(f"{m}5e{e}") for m, e in zip(digits.tolist(), exponents.tolist())])


def test_g9_writer_matches_format_near_powers_of_ten():
    # the neighbours of 10**e, among them 1e-4 and 1e9, where the notation
    # changes, and values that round across a power of ten
    near = []
    for e in range(-7, 12):
        for to in (-np.inf, np.inf):
            v = 10.0 ** e
            for _ in range(3):
                v = np.nextafter(v, to)
                near.append(v)
        near += [10.0 ** e, 10.0 ** e * (1 - 4e-10), 10.0 ** e * (1 - 6e-10), 10.0 ** e * (1 + 4e-9)]
    near += [9.9999999949e-5, 9.99999999951e-5, 999999999.49, 999999999.51, 99999999.95, 0.0001, 1e9]
    _assert_g9(near)
    _assert_g9(-np.array(near))


def test_g9_fast_path_writes_the_qq_pixels():
    # a QQ plot and band as the benchmark draws them, on a smaller sample,
    # mapped to pixels as the SVG writer maps them
    sample = sample_nonstd(200_000, RngStream(5))
    cfg = PlotConfig(5000, 0.05)
    plot = qq_set(sample, cfg)
    _, _, ylo, yhi = qq_band(plot, cfg, hill_estimate(sample, 5000).xi).rectangles()
    x_lo, x_hi = plot.x.min(), plot.x.max()
    y_lo, y_hi = min(plot.y.min(), ylo.min()), max(plot.y.max(), yhi.max())
    px = 70.0 + (plot.x - x_lo) / (x_hi - x_lo) * 770.0
    pixels = [px] + [570.0 - (y - y_lo) / (y_hi - y_lo) * 540.0 for y in (plot.y, ylo, yhi)]
    for values in pixels:
        _assert_g9(values)
        assert _g9_fast_share(values) > 0.999


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                          st.floats(-1e9, 1e9)), min_size=1, max_size=WRITE_ROWS))
def test_g9_writer_matches_format_on_any_block(values):
    _assert_g9(values)
