"""The decimal writer `data.csv_lines` against repr, its oracle: the same
text for every float, and the numpy fast path, not repr, for nearly all
values of the kinds the program writes."""
import numpy as np
import pytest

from tailband import data as data_module
from tailband.bands import qq_band
from tailband.data import WRITE_ROWS, csv_lines, hill_estimate
from tailband.distributions import sample_nonstd
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
    values = np.ascontiguousarray(values)
    keys = [data_module._source_rows(values[i:i + WRITE_ROWS])[1] for i in range(0, len(values), WRITE_ROWS)]
    return float(np.mean(np.concatenate(keys) != data_module._REPR_KEY))


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
