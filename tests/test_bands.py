import math
import warnings

import numpy as np
import pytest

from tailband import bands as bands_module
from tailband.bands import (
    BandQuantileTable,
    ConfidenceBand,
    CoverageDistribution,
    coverage_experiment,
    me_band,
    me_bands,
    qq_band,
)
from tailband.data import OrderedSample, fixed_xi, hill_estimate
from tailband.distributions import SUM_OVER_MAX, StableSpec, limit_quantile, sample_pareto
from tailband.errors import DomainError, MeanDoesNotExist, RegimeBoundary
from tailband.limitsim import QuantileEstimate, bridge_functional_samples, bridge_quantiles, qq_sup_quantile
from tailband.plotsets import PlotConfig, qq_set
from tailband.rng import RngStream


# ---------------------------------------------------------------------------
# QQ bands
# ---------------------------------------------------------------------------

def test_qq_band_contains_base_plot():
    s = sample_pareto(0.25, 3000, RngStream(1))
    band = qq_band(s, PlotConfig(400, 0.05, 0.05), hill_estimate(s, 400))
    assert np.all(band.dy_lo < 0) and np.all(band.dy_hi > 0)
    assert np.all(band.dx_lo == 0) and np.all(band.dx_hi == 0)
    assert band.regime == "qq"
    assert band.level == pytest.approx(0.95)


def test_qq_band_width_formula_and_k_scaling():
    s = sample_pareto(0.25, 9000, RngStream(2))
    xi = fixed_xi(0.3)
    c = qq_sup_quantile(1 - 0.05 / 2, 0.05).value
    band1 = qq_band(s, PlotConfig(500, 0.05, 0.05), xi)
    assert band1.dy_hi[0] == pytest.approx(0.3 * c / math.sqrt(500), rel=1e-12)
    band2 = qq_band(s, PlotConfig(1000, 0.05, 0.05), xi)
    assert band1.dy_hi[0] / band2.dy_hi[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_qq_band_scale_invariance():
    s = sample_pareto(0.25, 2000, RngStream(3))
    cfg = PlotConfig(300, 0.05, 0.05)
    b1 = qq_band(s, cfg, hill_estimate(s, 300))
    scaled = OrderedSample.from_data(13.0 * s.values)
    b2 = qq_band(scaled, cfg, hill_estimate(scaled, 300))
    assert np.allclose(b1.base.points, b2.base.points, atol=1e-12)
    assert np.allclose(b1.dy_hi, b2.dy_hi, rtol=1e-12)


def test_qq_band_rejects_nonpositive_shape():
    s = sample_pareto(0.25, 2000, RngStream(3))
    with pytest.raises(DomainError):
        qq_band(s, PlotConfig(300, 0.05, 0.05), fixed_xi(-0.1))


def test_qq_band_contains_line_helper():
    s = sample_pareto(0.25, 5000, RngStream(4))
    band = qq_band(s, PlotConfig(500, 0.05, 0.05), hill_estimate(s, 500))
    assert band.contains_line(0.25)          # typical draw covers the truth
    assert not band.contains_line(0.6)       # grossly wrong slope excluded


# ---------------------------------------------------------------------------
# ME bands
# ---------------------------------------------------------------------------

def test_me_band_light_regime_shape():
    s = sample_pareto(0.25, 4000, RngStream(5))
    [band] = me_bands(
        s, PlotConfig(500, 0.1, 0.05), hill_estimate(s, 500), [0.05], RngStream(6), n_paths=2000, grid_m=1024
    )
    assert band.regime == "me-lt-half"
    assert np.all(band.dx_hi == -band.dx_lo)
    assert np.all(band.dy_hi == -band.dy_lo)
    assert {"c", "d", "xi_hat"} <= set(band.quantiles_used)


def test_me_band_determinism():
    s = sample_pareto(0.25, 4000, RngStream(5))
    args = dict(rng=RngStream(6), n_paths=2000, grid_m=1024)
    [b1] = me_bands(s, PlotConfig(500, 0.1, 0.05), fixed_xi(0.25), [0.05], **args)
    [b2] = me_bands(s, PlotConfig(500, 0.1, 0.05), fixed_xi(0.25), [0.05], **args)
    assert b1.dy_hi.tolist() == b2.dy_hi.tolist()


def test_me_band_nesting_same_paths():
    s = sample_pareto(0.25, 4000, RngStream(5))
    xi = fixed_xi(0.25)
    c_samp, d_samp = bridge_functional_samples([0.25], 0.1, 2000, 1024, RngStream(6))
    bands = {}
    for alpha in (0.01, 0.05):
        level = 1 - alpha / 2
        mk = lambda arr: QuantileEstimate.from_samples(arr, level, grid_m=1024)
        bands[alpha] = me_band(
            s, PlotConfig(500, 0.1, alpha), xi, bridge_quantiles=(mk(c_samp[0]), mk(d_samp[0]))
        )
    assert np.all(bands[0.01].dy_hi >= bands[0.05].dy_hi)
    assert np.all(bands[0.01].dy_lo <= bands[0.05].dy_lo)


def test_me_band_heavy_regime():
    s = sample_pareto(0.7, 20_000, RngStream(7))
    cfg = PlotConfig(1000, 0.1, 0.05)
    [band] = me_bands(s, cfg, fixed_xi(0.7), [cfg.alpha], RngStream(8), n_paths=2000, grid_m=1024)
    assert band.regime == "me-gt-half"
    # vertical interval shrinks like 1/j along the plot
    j = band.base.indices.astype(float)
    widths = band.dy_hi - band.dy_lo
    assert np.allclose(widths * j, widths[0] * j[0], rtol=1e-9)
    # asymmetric offsets (skewed law), straddling zero
    assert np.any(band.dy_lo < 0) and np.any(band.dy_hi > 0)
    assert not np.allclose(-band.dy_lo, band.dy_hi)


def test_me_bands_heavy_regime_runs_one_quantile_search(monkeypatch):
    searches = []
    search = bands_module.limit_quantile
    monkeypatch.setattr(
        bands_module, "limit_quantile", lambda spec, q, *a, **k: searches.append(list(q)) or search(spec, q, *a, **k)
    )
    s = sample_pareto(0.7, 20_000, RngStream(7))
    cfg = PlotConfig(1000, 0.1, 0.05)
    alphas = [0.01, 0.05, 0.10]
    with pytest.warns(UserWarning):  # the 99% band
        found = me_bands(s, cfg, fixed_xi(0.7), alphas, RngStream(8), n_paths=1000, grid_m=1024)
    assert searches == [[0.005, 0.995, 0.025, 0.975, 0.05, 0.95]]
    # each band as me_band builds it from a search of its own
    spec = StableSpec(alpha=1.0 / 0.7, skew=1.0, kind=SUM_OVER_MAX)
    for band, alpha in zip(found, alphas):
        c = band.quantiles_used["c"]
        tilde = limit_quantile(spec, [alpha / 2, 1 - alpha / 2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            alone = me_band(s, PlotConfig(1000, 0.1, alpha), fixed_xi(0.7), (c, None), tilde)
        assert alone.quantiles_used == band.quantiles_used
        assert alone.dy_lo.tolist() == band.dy_lo.tolist() and alone.dy_hi.tolist() == band.dy_hi.tolist()


def test_me_band_heavy_regime_99_warns():
    s = sample_pareto(0.7, 5000, RngStream(9))
    cfg = PlotConfig(500, 0.1, 0.01)
    with pytest.warns(UserWarning):
        me_bands(s, cfg, fixed_xi(0.7), [cfg.alpha], RngStream(10), n_paths=1000, grid_m=1024)


def test_me_band_regime_refusals():
    s = sample_pareto(0.25, 1000, RngStream(11))
    cfg = PlotConfig(200, 0.1, 0.05)
    with pytest.raises(RegimeBoundary):
        me_bands(s, cfg, fixed_xi(0.5), [cfg.alpha], RngStream(0))
    with pytest.raises(RegimeBoundary):
        me_bands(s, cfg, fixed_xi(0.49), [cfg.alpha], RngStream(0))
    with pytest.raises(MeanDoesNotExist, match="no ME band for xi>=1"):
        me_bands(s, cfg, fixed_xi(1.2), [cfg.alpha], RngStream(0))
    with pytest.raises(DomainError):
        me_bands(s, cfg, fixed_xi(-0.2), [cfg.alpha], RngStream(0))


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
