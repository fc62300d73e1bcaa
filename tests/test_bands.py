import math
import warnings

import numpy as np
import pytest

from tailband import distributions
from tailband.bands import (
    BandQuantileTable,
    ConfidenceBand,
    CoverageDistribution,
    _pchip,
    build_bands,
    coverage_experiment,
    me_band,
    qq_band,
)
from tailband.data import OrderedSample, hill_estimate
from tailband.distributions import SUM_OVER_MAX, StableSpec, limit_quantile, sample_pareto
from tailband.errors import DomainError, MeanDoesNotExist, RegimeBoundary
from tailband.limitsim import (
    QuantileEstimate,
    bridge_c_quantiles,
    bridge_functional_samples,
    bridge_quantiles,
    qq_sup_quantile,
)
from tailband.plotsets import PlotConfig, me_set, qq_set
from tailband.rng import RngStream


def _paths(xi, eps, rng, n_paths, grid_m):
    """The bridge analyze passes to build_bands: one path set for every level."""
    return lambda levels: bridge_quantiles(xi, eps, levels, n_paths, grid_m, rng, integral=xi < 0.5)


def _no_paths(levels):
    raise AssertionError(f"bridge paths drawn for levels {levels}")


# ---------------------------------------------------------------------------
# QQ bands
# ---------------------------------------------------------------------------

def _qq(s, k, eps, alpha, xi):
    return qq_band(qq_set(s, PlotConfig(k, eps)), PlotConfig(k, eps, alpha), xi)


def test_qq_band_contains_base_plot():
    s = sample_pareto(0.25, 3000, RngStream(1))
    band = _qq(s, 400, 0.05, 0.05, hill_estimate(s, 400).xi)
    assert np.all(band.dy_lo < 0) and np.all(band.dy_hi > 0)
    assert np.all(band.dx_lo == 0) and np.all(band.dx_hi == 0)
    assert band.regime == "qq"
    assert band.level == pytest.approx(0.95)


def test_qq_band_width_formula_and_k_scaling():
    s = sample_pareto(0.25, 9000, RngStream(2))
    c = qq_sup_quantile(1 - 0.05 / 2, 0.05).value
    band1 = _qq(s, 500, 0.05, 0.05, 0.3)
    assert band1.dy_hi[0] == pytest.approx(0.3 * c / math.sqrt(500), rel=1e-12)
    band2 = _qq(s, 1000, 0.05, 0.05, 0.3)
    assert band1.dy_hi[0] / band2.dy_hi[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_qq_band_scale_invariance():
    s = sample_pareto(0.25, 2000, RngStream(3))
    b1 = _qq(s, 300, 0.05, 0.05, hill_estimate(s, 300).xi)
    scaled = OrderedSample.from_data(13.0 * s.values)
    b2 = _qq(scaled, 300, 0.05, 0.05, hill_estimate(scaled, 300).xi)
    assert np.allclose(b1.base.points, b2.base.points, atol=1e-12)
    assert np.allclose(b1.dy_hi, b2.dy_hi, rtol=1e-12)


def test_qq_band_rejects_nonpositive_shape():
    s = sample_pareto(0.25, 2000, RngStream(3))
    with pytest.raises(DomainError):
        _qq(s, 300, 0.05, 0.05, -0.1)
    plot = qq_set(s, PlotConfig(300, 0.05))
    with pytest.raises(DomainError, match="QQ band needs xi > 0"):
        build_bands(s, plot, PlotConfig(300, 0.05), -0.1, [0.05], _no_paths)


def test_qq_band_contains_line_helper():
    s = sample_pareto(0.25, 5000, RngStream(4))
    band = _qq(s, 500, 0.05, 0.05, hill_estimate(s, 500).xi)
    assert band.contains_line(0.25)          # typical draw covers the truth
    assert not band.contains_line(0.6)       # grossly wrong slope excluded


def test_qq_bands_share_the_plot_and_draw_no_paths():
    s = sample_pareto(0.25, 3000, RngStream(1))
    cfg = PlotConfig(400, 0.05)
    plot = qq_set(s, cfg)
    found = build_bands(s, plot, cfg, 0.25, [0.01, 0.05, 0.10], _no_paths)
    assert [b.level for b in found] == [0.99, 0.95, 0.9]
    assert all(b.base is plot for b in found)
    for band, alpha in zip(found, (0.01, 0.05, 0.10)):
        alone = qq_band(plot, PlotConfig(400, 0.05, alpha), 0.25)
        assert alone.dy_hi.tolist() == band.dy_hi.tolist() and alone.quantiles_used == band.quantiles_used


# ---------------------------------------------------------------------------
# ME bands
# ---------------------------------------------------------------------------

def test_me_band_light_regime_shape():
    s = sample_pareto(0.25, 4000, RngStream(5))
    cfg = PlotConfig(500, 0.1, 0.05)
    plot = me_set(s, cfg)
    xi = hill_estimate(s, 500).xi
    [band] = build_bands(s, plot, cfg, xi, [0.05], _paths(xi, 0.1, RngStream(6), 2000, 1024))
    assert band.base is plot
    assert band.regime == "me-lt-half"
    assert np.all(band.dx_hi == -band.dx_lo)
    assert np.all(band.dy_hi == -band.dy_lo)
    assert {"c", "d", "xi_hat"} <= set(band.quantiles_used)


def test_me_band_determinism():
    s = sample_pareto(0.25, 4000, RngStream(5))
    cfg = PlotConfig(500, 0.1, 0.05)
    bridge = _paths(0.25, 0.1, RngStream(6), 2000, 1024)
    [b1] = build_bands(s, me_set(s, cfg), cfg, 0.25, [0.05], bridge)
    [b2] = build_bands(s, me_set(s, cfg), cfg, 0.25, [0.05], bridge)
    assert b1.dy_hi.tolist() == b2.dy_hi.tolist()


def test_me_band_nesting_same_paths():
    s = sample_pareto(0.25, 4000, RngStream(5))
    plot = me_set(s, PlotConfig(500, 0.1))
    c_samp, d_samp = bridge_functional_samples([0.25], 0.1, 2000, 1024, RngStream(6))
    bands = {}
    for alpha in (0.01, 0.05):
        level = 1 - alpha / 2
        mk = lambda arr: QuantileEstimate.from_samples(arr, level, grid_m=1024)
        bands[alpha] = me_band(
            s, plot, PlotConfig(500, 0.1, alpha), 0.25, bridge_quantiles=(mk(c_samp[0]), mk(d_samp[0]))
        )
    assert np.all(bands[0.01].dy_hi >= bands[0.05].dy_hi)
    assert np.all(bands[0.01].dy_lo <= bands[0.05].dy_lo)


def test_me_band_heavy_regime():
    s = sample_pareto(0.7, 20_000, RngStream(7))
    cfg = PlotConfig(1000, 0.1, 0.05)
    [band] = build_bands(s, me_set(s, cfg), cfg, 0.7, [cfg.alpha], _no_paths)
    assert band.regime == "me-gt-half"
    # vertical interval shrinks like 1/j along the plot
    j = band.base.indices.astype(float)
    widths = band.dy_hi - band.dy_lo
    assert np.allclose(widths * j, widths[0] * j[0], rtol=1e-9)
    # asymmetric offsets (skewed law), straddling zero
    assert np.any(band.dy_lo < 0) and np.any(band.dy_hi > 0)
    assert not np.allclose(-band.dy_lo, band.dy_hi)


def test_me_band_heavy_regime_holds_the_model_point_exactly_when_the_law_does():
    # ACCEPT 06 pins the fluctuation y_j - m_j = s_j S, s_j = X_(1)/(j X_(k)),
    # around the model point m_j = xi/(1-xi) (j/k)^-xi.  The band at j must
    # hold m_j exactly when S_j lies between the law's quantiles; the
    # interval reflected through the point holds it in other cases.
    xi, k, alpha = 0.7, 1000, 0.5  # a wide level, so that both outcomes occur
    tilde = limit_quantile(StableSpec(alpha=1.0 / xi, skew=1.0, kind=SUM_OVER_MAX), [alpha / 2, 1 - alpha / 2])
    c = QuantileEstimate(1.0, 1 - alpha / 2, "series")  # the horizontal half-width, not checked here
    cfg = PlotConfig(k, 0.1, alpha)
    outcomes = set()
    for rep in range(5):
        s = sample_pareto(xi, 20_000, RngStream(31, rep))
        plot = me_set(s, cfg)
        band = me_band(s, plot, cfg, xi, (c, None), tilde)
        j = plot.indices.astype(float)
        model = xi / (1.0 - xi) * (j / k) ** (-xi)
        y = plot.points[:, 1]
        law = (j * s.values[k - 1] / s.values[0]) * (y - model)
        inside = (y + band.dy_lo <= model) & (model <= y + band.dy_hi)
        assert inside.tolist() == ((tilde[0].value <= law) & (law <= tilde[1].value)).tolist(), rep
        outcomes |= set(inside.tolist())
    assert outcomes == {False, True}


def test_me_bands_heavy_regime_runs_one_quantile_search(monkeypatch):
    # build_bands reads limit_quantile from distributions when it runs
    searches = []
    monkeypatch.setattr(
        distributions, "limit_quantile",
        lambda spec, q, *a, **k: searches.append(list(q)) or limit_quantile(spec, q, *a, **k),
    )
    s = sample_pareto(0.7, 20_000, RngStream(7))
    cfg = PlotConfig(1000, 0.1, 0.05)
    plot = me_set(s, cfg)
    alphas = [0.01, 0.05, 0.10]
    with pytest.warns(UserWarning):  # the 99% band
        found = build_bands(s, plot, cfg, 0.7, alphas, _no_paths)  # c from the first-passage solve
    assert searches == [[0.005, 0.995, 0.025, 0.975, 0.05, 0.95]]
    assert all(b.base is plot for b in found)
    assert [b.quantiles_used["c"] for b in found] == bridge_c_quantiles(0.7, 0.1, [0.995, 0.975, 0.95])
    # each band as me_band builds it from a search of its own
    spec = StableSpec(alpha=1.0 / 0.7, skew=1.0, kind=SUM_OVER_MAX)
    for band, alpha in zip(found, alphas):
        c = band.quantiles_used["c"]
        tilde = limit_quantile(spec, [alpha / 2, 1 - alpha / 2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            alone = me_band(s, plot, PlotConfig(1000, 0.1, alpha), 0.7, (c, None), tilde)
        assert alone.quantiles_used == band.quantiles_used
        assert alone.dy_lo.tolist() == band.dy_lo.tolist() and alone.dy_hi.tolist() == band.dy_hi.tolist()
    # a light-regime band still reads every level off one path set
    light = sample_pareto(0.25, 20_000, RngStream(7))
    drawn = []
    paths = _paths(0.25, 0.1, RngStream(8), 1000, 1024)
    build_bands(light, me_set(light, cfg), cfg, 0.25, alphas, lambda levels: drawn.append(levels) or paths(levels))
    assert drawn == [[0.995, 0.975, 0.95]]  # one path set for every level


def test_me_band_heavy_regime_99_warns():
    s = sample_pareto(0.7, 5000, RngStream(9))
    cfg = PlotConfig(500, 0.1, 0.01)
    with pytest.warns(UserWarning):
        build_bands(s, me_set(s, cfg), cfg, 0.7, [cfg.alpha], _no_paths)


def test_me_band_regime_refusals():
    s = sample_pareto(0.25, 1000, RngStream(11))
    cfg = PlotConfig(200, 0.1, 0.05)
    plot = me_set(s, cfg)
    # each refused before a path is drawn
    with pytest.raises(RegimeBoundary):
        build_bands(s, plot, cfg, 0.5, [cfg.alpha], _no_paths)
    with pytest.raises(RegimeBoundary):
        build_bands(s, plot, cfg, 0.49, [cfg.alpha], _no_paths)
    with pytest.raises(MeanDoesNotExist, match="no ME band for xi>=1"):
        build_bands(s, plot, cfg, 1.2, [cfg.alpha], _no_paths)
    with pytest.raises(DomainError):
        build_bands(s, plot, cfg, -0.2, [cfg.alpha], _no_paths)


def test_confidence_band_validation():
    s = sample_pareto(0.25, 500, RngStream(12))
    base = qq_set(s, PlotConfig(100, 0.1, 0.05))
    n = len(base)
    with pytest.raises(DomainError):
        ConfidenceBand(
            base=base,
            dx_lo=np.zeros(n),
            dx_hi=np.zeros(n),
            dy_lo=np.zeros(n),   # not < dy_hi
            dy_hi=np.zeros(n),
            level=0.95,
            regime="qq",
        )
    with pytest.raises(DomainError):
        ConfidenceBand(
            base=base,
            dx_lo=np.zeros(n - 1),
            dx_hi=np.zeros(n),
            dy_lo=-np.ones(n),
            dy_hi=np.ones(n),
            level=0.95,
            regime="qq",
        )


# ---------------------------------------------------------------------------
# coverage experiments
# ---------------------------------------------------------------------------

def test_coverage_single_replication_is_binary():
    res = coverage_experiment(
        CoverageDistribution("pareto", 0.25), 2000, PlotConfig(300, 0.05, 0.05), 1, RngStream(20), plot="qq"
    )
    assert res.replications == 1
    assert res.coverage in (0.0, 1.0)


def test_coverage_nested_levels_on_same_seeds():
    dist = CoverageDistribution("pareto", 0.25)
    res95 = coverage_experiment(dist, 2000, PlotConfig(300, 0.05, 0.05), 40, RngStream(21), plot="qq")
    res99 = coverage_experiment(dist, 2000, PlotConfig(300, 0.05, 0.01), 40, RngStream(21), plot="qq")
    # wider band can only cover more often, replication by replication
    assert all(h99 or not h95 for h95, h99 in zip(res95.hits, res99.hits))
    assert res99.coverage >= res95.coverage


@pytest.mark.parametrize("replications", [0, -2])
def test_coverage_needs_a_replication(replications):
    dist = CoverageDistribution("pareto", 0.25)
    with pytest.raises(DomainError, match="at least 1 replication"):
        coverage_experiment(dist, 1500, PlotConfig(200, 0.05, 0.05), replications, RngStream(22), plot="qq")


def test_band_quantile_table_interpolates():
    table = BandQuantileTable.build(
        np.linspace(0.2, 0.3, 9), 0.1, 0.975, RngStream(23), n_paths=2000, grid_m=1024
    )
    c_mid, d_mid = table.lookup(0.25)
    c_exact, d_exact = table.lookup(float(table.xis[4]))
    assert c_mid.value == pytest.approx(c_exact.value, rel=0.02)
    with pytest.raises(DomainError):
        table.lookup(0.5)


def test_pchip_matches_scipy_bit_for_bit():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(23)
    for trial in range(120):
        k = int(rng.integers(2, 45))
        x = np.cumsum(rng.uniform(0.001, 0.1, k)) + 0.02
        y = [
            rng.normal(size=k),                      # slopes of both signs
            np.cumsum(rng.exponential(size=k)),      # increasing, as quantiles in xi are
            np.round(rng.normal(size=k), 1),         # flat stretches: zero secants
            np.sqrt(x) + rng.normal(scale=1e-3, size=k),
        ][trial % 4]
        at = np.concatenate([x, rng.uniform(x[0], x[-1], 40)])  # the knots as well
        expected = PchipInterpolator(x, y)(at)
        found = np.array([_pchip(x, y, float(a)) for a in at])
        assert found.tobytes() == expected.tobytes(), trial


@pytest.mark.parametrize(
    "n_paths, grid_m, eps, message",
    [
        (999, 1024, 0.1, "the d-functional needs at least 1000 paths, got 999"),
        (1000, 999, 0.1, "the d-functional needs grid size m >= 1000, got 999"),
        (1000, 1000, 0.9999, "the window [eps, 1] with eps=0.9999 holds 1 of the grid=1000 columns"),
    ],
    ids=["paths", "grid", "window"],
)
def test_every_bridge_quantile_caller_checks_resolution(n_paths, grid_m, eps, message):
    with pytest.raises(DomainError) as direct:
        bridge_quantiles(0.25, eps, [0.975], n_paths, grid_m, RngStream(0))
    with pytest.raises(DomainError) as table:
        BandQuantileTable.build([0.2, 0.3], eps, 0.975, RngStream(0), n_paths=n_paths, grid_m=grid_m)
    assert str(direct.value).startswith(message) and str(table.value) == str(direct.value)


def test_c_functional_window_needs_two_grid_columns():
    with pytest.raises(DomainError, match="holds 1 of the grid=1000 columns"):
        bridge_quantiles(0.7, 0.9999, [0.975], 100, 1000, RngStream(0), integral=False)
    with pytest.warns(UserWarning, match="draws beyond it"):  # 100 paths leave 2.5 draws beyond the level
        [(c, d)] = bridge_quantiles(0.7, 0.999, [0.975], 100, 1000, RngStream(0), integral=False)  # two columns
    assert c.value > 0 and d is None


@pytest.mark.slow
def test_qq_coverage_moderate_run():
    res = coverage_experiment(
        CoverageDistribution("pareto", 0.25), 5000, PlotConfig(500, 0.05, 0.05), 100, RngStream(24), plot="qq"
    )
    assert 0.88 <= res.coverage <= 1.0


@pytest.mark.slow
def test_me_coverage_moderate_run():
    res = coverage_experiment(
        CoverageDistribution("pareto", 0.25),
        10_000,
        PlotConfig(1000, 0.1, 0.05),
        40,
        RngStream(25),
        plot="me",
        n_paths=4000,
        grid_m=2048,
    )
    assert 0.80 <= res.coverage <= 1.0


def test_me_coverage_rejects_heavy_shape():
    with pytest.raises(DomainError):
        coverage_experiment(
            CoverageDistribution("pareto", 0.7), 1000, PlotConfig(100, 0.1, 0.05), 2, RngStream(26), plot="me"
        )
