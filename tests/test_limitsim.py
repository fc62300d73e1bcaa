import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from tailband.errors import DomainError, RegimeMismatch
from tailband.limitsim import (
    DUAL_SERIES_CROSSOVER,
    SERIES_FORM_DEFAULT,
    QuantileEstimate,
    bridge_functional_samples,
    bridge_quantiles,
    cone_exit_probability,
    doob_band_probability,
    mc_cone_exit_probability,
    qq_sup_quantile,
    reflection_exit_probability,
    _bridge_functional_worker,
    _image_series,
    _window_start,
    check_bridge_resolution,
)
from tailband.parallel import batch_sizes
from tailband.rng import RngStream


# ---------------------------------------------------------------------------
# cone-exit series
# ---------------------------------------------------------------------------

def test_cone_exit_matches_reflection_formula():
    # the two independent closed forms agree to high precision
    for m in (0.3, 0.5, 1.0, 2.0, 3.5):
        for d in (0.0526, 0.2, 1.0, 4.0):
            a = cone_exit_probability(m, d, terms=60)
            b = reflection_exit_probability(m, d)
            assert abs(a - b) < 1e-9, (m, d)


def test_cone_exit_alternate_form_disagrees():
    # the competing index convention is not the same series
    assert abs(cone_exit_probability(1.0, 1.0, form="4k+1") - reflection_exit_probability(1.0, 1.0)) > 0.3


def test_cone_exit_monotone():
    ds = 0.2
    vals = [cone_exit_probability(m, ds) for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    vals_d = [cone_exit_probability(1.0, d) for d in (0.05, 0.2, 1.0, 5.0)]
    assert all(b < a for a, b in zip(vals_d, vals_d[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals + vals_d)


def test_cone_exit_extremes():
    assert cone_exit_probability(100.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert cone_exit_probability(0.2, 4.0) == pytest.approx(1.0, abs=1e-3)


def test_cone_exit_truncation_adequate_above_threshold():
    # 15 terms match 100 terms to 1e-6 once M*sqrt(delta) >= ~0.085
    for x in np.linspace(0.085, 3.0, 40):
        p15 = cone_exit_probability(x, 1.0, terms=15)
        p100 = cone_exit_probability(x, 1.0, terms=100)
        assert abs(p15 - p100) < 1e-6, x


def test_cone_exit_truncation_breaks_below_threshold():
    # documents the genuine limit of the 15-term image sum: at M*sqrt(delta)=0.05
    # the truncation error is ~2.7e-3 (tail ~ 2*(1-Phi(61 x))), which is why
    # cone_exit_probability hands small x to the dual series
    diff = abs(
        _image_series(0.05, 15, SERIES_FORM_DEFAULT) - _image_series(0.05, 100, SERIES_FORM_DEFAULT)
    )
    assert 1e-4 < diff < 1e-2
    # the image sum first reaches 1e-6 at x ~ 0.0802; below that it must not be used
    assert DUAL_SERIES_CROSSOVER > 0.0802


def test_cone_exit_15_terms_match_reflection_oracle():
    # independent oracle: ACCEPT 02 compares the series only with itself
    for x in np.linspace(0.05, 3.0, 50):
        assert abs(cone_exit_probability(x, 1.0) - reflection_exit_probability(x, 1.0)) < 1e-12, x
    # no jump where the dual series hands over to the image series
    below = cone_exit_probability(np.nextafter(DUAL_SERIES_CROSSOVER, 0.0), 1.0)
    assert abs(below - cone_exit_probability(DUAL_SERIES_CROSSOVER, 1.0)) < 1e-15


def test_cone_exit_validation():
    with pytest.raises(DomainError):
        cone_exit_probability(0.0, 1.0)
    with pytest.raises(DomainError):
        cone_exit_probability(1.0, -1.0)
    with pytest.raises(DomainError):
        cone_exit_probability(1.0, 1.0, form="nope")


# ---------------------------------------------------------------------------
# Doob's two-boundary formula
# ---------------------------------------------------------------------------

def test_doob_degenerate_one_sided():
    for a, b in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5)):
        v = doob_band_probability(a, b, 1e6, 1e6)
        assert abs(v - (1 - math.exp(-2 * a * b))) < 1e-8


def test_doob_swap_symmetry():
    for a, b, al, be in ((0.5, 1.0, 0.25, 2.0), (1.0, 0.3, 0.7, 0.9)):
        assert doob_band_probability(a, b, al, be) == pytest.approx(
            doob_band_probability(al, be, a, b), rel=1e-14
        )


def test_doob_shrinking_intercepts_kill_probability():
    # staying probability vanishes as the intercepts shrink (the series needs
    # ~1/sqrt(ab) terms as b -> 0, so the check stops at b = 0.1)
    vals = [doob_band_probability(0.5, b, 0.5, b) for b in (1.0, 0.5, 0.1)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] == pytest.approx(0.0, abs=1e-9)


def test_doob_validation():
    with pytest.raises(DomainError):
        doob_band_probability(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        doob_band_probability(1.0, 0.0, 1.0, 1.0)


def test_cone_exit_consistent_with_doob_conditioning():
    # exit probability recomputed by conditioning on W(delta) and applying
    # the two-boundary formula to the restarted motion
    for m, d in ((1.0, 0.5), (2.0, 0.2), (0.8, 1.0)):
        def integrand(s):
            inner = doob_band_probability(m, m * d - s, m, m * d + s, terms=40)
            return inner * math.exp(-s * s / (2 * d)) / math.sqrt(2 * math.pi * d)

        inside, _ = quad(integrand, -m * d, m * d, epsabs=1e-12, epsrel=1e-11, limit=300)
        assert abs(cone_exit_probability(m, d, terms=60) - (1.0 - inside)) < 1e-6


# ---------------------------------------------------------------------------
# quantile of the QQ sup functional
# ---------------------------------------------------------------------------

def test_qq_sup_quantile_hits_target_probability():
    for level in (0.9, 0.95, 0.975, 0.995):
        q = qq_sup_quantile(level, 0.05)
        assert q.source == "series"
        assert q.std_error == 0.0
        delta = 0.05 / 0.95
        assert abs(cone_exit_probability(q.value, delta) - (1 - level)) <= 1e-8


def test_qq_sup_quantile_monotone_in_level():
    assert qq_sup_quantile(0.99, 0.05).value > qq_sup_quantile(0.95, 0.05).value


def test_qq_sup_quantile_monotone_in_eps():
    assert qq_sup_quantile(0.975, 0.02).value > qq_sup_quantile(0.975, 0.1).value


def test_qq_sup_quantile_validation():
    with pytest.raises(DomainError):
        qq_sup_quantile(1.2, 0.05)
    with pytest.raises(DomainError):
        qq_sup_quantile(0.9, 0.0)


def test_quantile_estimate_invariants():
    with pytest.raises(DomainError):
        QuantileEstimate(1.0, 0.5, "series", std_error=0.1)
    with pytest.raises(DomainError):
        QuantileEstimate(1.0, 0.5, "monte-carlo", std_error=0.0)
    with pytest.raises(DomainError):
        QuantileEstimate(1.0, 1.5, "series")


# ---------------------------------------------------------------------------
# bridge simulation
# ---------------------------------------------------------------------------

def test_bridge_variance_and_covariance(bridge_paths):
    m = 64
    t, paths = bridge_paths(20_000, m, RngStream(2))
    i_half = m // 2 - 1
    i_quarter = m // 4 - 1
    var_half = paths[:, i_half].var()
    se = math.sqrt(2.0 / 20_000) * 0.25
    assert abs(var_half - 0.25) <= 3 * se
    cov = np.mean(paths[:, i_quarter] * paths[:, i_half])
    assert abs(cov - (0.25 * (1 - 0.5))) <= 0.01
    assert np.all(np.abs(paths.mean(axis=0)) <= 4.5 * np.sqrt(t * (1 - t) / 20_000) + 1e-12)


def test_bridge_engine_thread_invariance():
    stream = RngStream(4)
    c1, d1 = bridge_functional_samples([0.2], 0.1, 1030, 512, stream, batch=256, threads=1)
    c2, d2 = bridge_functional_samples([0.2], 0.1, 1030, 512, stream, batch=256, threads=2)
    assert c1.tolist() == c2.tolist()
    assert d1.tolist() == d2.tolist()


def _unfused_batch(args):
    """The bridge worker as one whole-batch pass with a boolean window mask:
    the reference the row-blocked worker must reproduce bit for bit."""
    seed, stream_id, batch_index, size, xi_values, eps, m, include_integral = args
    g = RngStream(seed, stream_id).child(batch_index).generator()
    z = g.standard_normal((size, m)) * math.sqrt(1.0 / m)
    np.cumsum(z, axis=1, out=z)
    t = np.arange(1, m + 1) / m
    b = z - t[None, :] * z[:, -1:]
    b[:, -1] = 0.0
    mask = t >= eps - 1e-12
    t_mask = t[mask]
    c_part = np.empty((len(xi_values), size))
    d_part = np.empty((len(xi_values), size)) if include_integral else None
    for row, xi in enumerate(xi_values):
        weights = t ** (-(1.0 + xi))
        f = b * weights[None, :]
        c_part[row] = xi * f[:, mask].max(axis=1)
        if include_integral:
            cs = np.cumsum(f, axis=1)
            integral = (cs - 0.5 * (f + f[:, :1])) / m
            d_part[row] = xi * (integral[:, mask] / t_mask[None, :]).max(axis=1)
    return c_part, d_part


# (m, eps on a grid point, eps between grid points)
_WINDOW_GRIDS = ((2, 0.5, 0.3), (3, 1 / 3, 0.5), (513, 57 / 513, 0.25), (1024, 0.125, 0.1))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("batch", [1, 15, 16, 17, 220, 256])
def test_bridge_engine_matches_unfused_worker(batch, threads):
    # batches [batch, batch, 7] (nine of one path at batch 1): full and short
    # row blocks, a block edge on either side of 16, and a short last batch
    n_paths = 2 * batch + 7
    stream = RngStream(12, 5)
    for m, *eps_values in _WINDOW_GRIDS:
        t = np.arange(1, m + 1) / m
        for eps, on_grid in zip(eps_values, (True, False)):
            assert np.any(t == eps) == on_grid
            for integral, shape_sets in ((False, [(0.7,), (0.3, 0.6, 0.9)]), (True, [(0.25,), (0.1, 0.3, 0.45)])):
                for shapes in shape_sets:
                    c, d = bridge_functional_samples(
                        shapes, eps, n_paths, m, stream, include_integral=integral, batch=batch, threads=threads
                    )
                    parts = [
                        _unfused_batch((stream.seed, stream.stream_id, i, size, shapes, eps, m, integral))
                        for i, size in enumerate(batch_sizes(n_paths, batch))
                    ]
                    case = (m, eps, integral, shapes)
                    assert np.array_equal(c, np.concatenate([p[0] for p in parts], axis=1)), case
                    if integral:
                        assert np.array_equal(d, np.concatenate([p[1] for p in parts], axis=1)), case
                    else:
                        assert d is None


@pytest.mark.parametrize("integral", [False, True])
def test_bridge_worker_memory_is_row_blocked(integral):
    # one 256-path batch on the default grid: whole-batch temporaries would
    # take 16.8 MB each; the row-blocked worker needs a few (16 x m) buffers
    tracemalloc.start()
    try:
        _bridge_functional_worker((13, 0, 0, 256, (0.25,), 0.1, 8192, integral))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@pytest.mark.parametrize("m", [2, 3, 7, 1000, 8192, 10**6 + 3])
def test_window_start_matches_a_search_of_the_grid(m):
    # the closed form against the binary search over the whole grid it
    # replaces, with eps on, a hair off and one ulp off each grid point
    grid = np.arange(1, m + 1) / m
    columns = range(m + 1) if m <= 8192 else sorted({0, 1, 2, m // 2, m - 2, m - 1, m} | set(range(0, m, 9973)))
    for j in columns:
        at = j / m
        for eps in (at, at + 1e-12, at - 1e-12, np.nextafter(at, 2.0), np.nextafter(at, -1.0),
                    np.nextafter(at + 1e-12, 2.0), np.nextafter(at + 1e-12, -1.0)):
            eps = float(eps)
            assert _window_start(eps, m) == int(np.searchsorted(grid, eps - 1e-12)), (m, j, eps)


def test_resolution_check_builds_no_grid():
    # validating a grid of 10^11 columns once took a 745 GiB arange; the
    # grid is now refused by name, and the refusal allocates nothing either
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="--grid"):
            check_bridge_resolution(0.1, 1500, 10**11, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("integral", [False, True])
def test_resolution_check_refuses_a_grid_beyond_physical_memory(monkeypatch, integral):
    # a machine of 2**30 bytes; a worker holds (2 + integral) rows of
    # min(16, paths) paths, t and a weight row, m doubles each
    sizes = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])
    rows = (2 + integral) * 16 + 2
    fits = 2**30 // (8 * rows)
    check_bridge_resolution(0.1, 1500, fits, integral)
    with pytest.raises(DomainError) as refused:
        check_bridge_resolution(0.1, 1500, fits + 1, integral)
    message = str(refused.value)
    assert "\n" not in message
    assert message.startswith(f"--grid {fits + 1} needs {rows * 8 * (fits + 1)} bytes"), message
    if not integral:  # fewer paths than a block: the rows shrink with them
        check_bridge_resolution(0.1, 2, fits + 1, False)


def test_resolution_check_skips_the_memory_bound_without_sysconf(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unknown)
    check_bridge_resolution(0.1, 1500, 10**11, False)


def test_bridge_functional_small_shape_scaling():
    # at small shapes the c-functional is nearly linear in the shape, so the
    # same paths give quantiles in ratio ~2 for shapes (0.01, 0.02)
    stream = RngStream(5)
    c, _ = bridge_functional_samples([0.01, 0.02], 0.1, 2000, 2048, stream)
    q1, q2 = np.quantile(c[0], 0.975), np.quantile(c[1], 0.975)
    assert q2 / q1 == pytest.approx(2.0, rel=0.05)


def test_me_band_quantiles_contract():
    (c, d), (c90, d90) = bridge_quantiles(0.25, 0.1, [0.975, 0.90], n_paths=2000, m=1024, rng=RngStream(6))
    assert c.source == d.source == "monte-carlo"
    assert c.std_error > 0 and d.std_error > 0
    assert c.n_paths == d.n_paths == 2000
    assert c90.value < c.value and d90.value < d.value  # monotone in level


def test_me_band_quantiles_validation():
    with pytest.raises(RegimeMismatch):
        bridge_quantiles(0.6, 0.1, [0.975], rng=RngStream(0))
    with pytest.raises(DomainError):
        bridge_quantiles(0.25, 0.1, [0.975], n_paths=10, rng=RngStream(0))
    with pytest.raises(DomainError):
        bridge_quantiles(0.25, 0.1, [0.975], rng=None)


@pytest.mark.slow
def test_me_band_quantiles_run_to_run_stability():
    # two independent path sets at 1e4 paths: the c quantile agrees within 2%
    # relative; both agree within 3 combined standard errors (the d quantile's
    # own standard error at this path count is ~1.8%, so 2% is not a sound
    # bound for it)
    [a] = bridge_quantiles(0.25, 0.1, [0.975], n_paths=10_000, m=4096, rng=RngStream(7, 1))
    [b] = bridge_quantiles(0.25, 0.1, [0.975], n_paths=10_000, m=4096, rng=RngStream(7, 2))
    assert abs(a[0].value - b[0].value) / a[0].value < 0.02
    for x, y in zip(a, b):
        assert abs(x.value - y.value) <= 3 * math.hypot(x.std_error, y.std_error)


def test_bridge_sup_quantile_valid_above_half():
    [(q, d)] = bridge_quantiles(0.7, 0.1, [0.975], n_paths=2000, m=1024, rng=RngStream(8), integral=False)
    assert q.value > 0
    assert d is None
    with pytest.raises(RegimeMismatch):
        bridge_quantiles(1.2, 0.1, [0.975], rng=RngStream(8), integral=False)


# ---------------------------------------------------------------------------
# Monte Carlo cone-exit oracle
# ---------------------------------------------------------------------------

def test_mc_cone_exit_thread_invariance():
    p1 = mc_cone_exit_probability([1.0, 2.0], 1.0, paths=4096, grid=500, rng=RngStream(9), threads=1)
    p2 = mc_cone_exit_probability([1.0, 2.0], 1.0, paths=4096, grid=500, rng=RngStream(9), threads=2)
    assert p1.tolist() == p2.tolist()


@pytest.mark.slow
def test_mc_cone_exit_matches_series():
    probs = mc_cone_exit_probability([1.0, 2.0], 1.0, paths=60_000, grid=2000, rng=RngStream(10))
    for slope, p_hat in zip((1.0, 2.0), probs):
        p = reflection_exit_probability(slope, 1.0)
        se = math.sqrt(p * (1 - p) / 60_000)
        assert abs(p_hat - p) <= 4 * se + 5e-4
