import math
import statistics
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from tailband import cfinversion
from tailband.cfinversion import GilPelaezInverter
from tailband.distributions import (
    SIMULATION,
    SUM_OVER_MAX,
    GpdParams,
    StableSpec,
    _build_inverter,
    gpd_me,
    lambertw,
    limit_quantile,
    limit_quantile_curve,
    nonstd_quantile_tail,
    nonstd_sf,
    sample_gpd,
    sample_nonstd,
    sample_pareto,
    sample_stable,
    sample_sum_over_max_statistic,
    stable_cf,
    sum_over_max_cf,
)
from tailband.data import empirical_me
from tailband.errors import DomainError, RegimeMismatch
from tailband.limitsim import QuantileEstimate
from tailband.rng import RngStream


# ---------------------------------------------------------------------------
# GPD
# ---------------------------------------------------------------------------

def test_gpd_me_values():
    assert gpd_me(GpdParams(0.0, 1.0), 5.0) == pytest.approx(1.0)
    assert gpd_me(GpdParams(0.25, 1.0), 2.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        gpd_me(GpdParams(1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        GpdParams(0.25, 0.0)


def test_gpd_me_matches_simulation():
    p = GpdParams(0.25, 1.0)
    s = sample_gpd(p, 100_000, RngStream(8))
    for u in (0.5, 1.0, 2.0):
        excesses = s.values[s.values > u] - u
        se = excesses.std(ddof=1) / math.sqrt(excesses.size)
        assert abs(empirical_me(s, u) - gpd_me(p, u)) <= 3 * se


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_pareto_tail_probability():
    s = sample_pareto(0.25, 100_000, RngStream(9))
    p_hat = (s.values > 2.0).mean()
    p = 2.0**-4
    se = math.sqrt(p * (1 - p) / 100_000)
    assert abs(p_hat - p) <= 3 * se
    assert s.values.min() >= 1.0


def test_sample_pareto_validation():
    with pytest.raises(DomainError):
        sample_pareto(0.25, 1, RngStream(0))
    with pytest.raises(DomainError):
        sample_pareto(-1.0, 10, RngStream(0))


def test_samplers_are_reproducible():
    a = sample_pareto(0.5, 100, RngStream(42, 3)).values
    b = sample_pareto(0.5, 100, RngStream(42, 3)).values
    assert a.tolist() == b.tolist()
    c = sample_pareto(0.5, 100, RngStream(42, 4)).values
    assert a.tolist() != c.tolist()


# ---------------------------------------------------------------------------
# Lambert W and the nonstandard law
# ---------------------------------------------------------------------------

def test_lambertw_anchors():
    assert lambertw(0.0) == pytest.approx(0.0, abs=1e-15)
    assert lambertw(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambertw(2 * math.e**2) == pytest.approx(2.0, rel=1e-13)
    assert lambertw(-1 / math.e) == pytest.approx(-1.0, rel=1e-6)


def test_lambertw_residual_identity():
    xs = np.array([-1 / math.e + 1e-6, 0.0, 1.0, math.e, 10.0, 1e6])
    w = lambertw(xs)
    resid = np.abs(w * np.exp(w) - xs)
    assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(xs)))


def test_lambertw_domain():
    with pytest.raises(DomainError):
        lambertw(-1.0)


def test_nonstd_sf_at_one():
    assert nonstd_sf(1.0) == pytest.approx(1.0, rel=1e-12)


def test_nonstd_roundtrip():
    for p in (0.5, 0.01, 1e-6):
        assert nonstd_sf(nonstd_quantile_tail(p)) == pytest.approx(p, abs=1e-10 * max(1, p))


def test_nonstd_regular_variation_index():
    # sf(2y)/sf(y) -> 2^-5, deviation shrinking as y grows
    dev = [abs(nonstd_sf(2 * y) / nonstd_sf(y) - 2.0**-5) for y in (1e3, 1e6)]
    assert dev[1] < dev[0] < 0.02


def test_nonstd_sample_support():
    s = sample_nonstd(500, RngStream(10))
    assert s.values.min() >= 1.0


def test_nonstd_domain_errors():
    with pytest.raises(DomainError):
        nonstd_sf(0.5)
    with pytest.raises(DomainError):
        nonstd_quantile_tail(0.0)
    with pytest.raises(DomainError):
        nonstd_quantile_tail(1.5)


# ---------------------------------------------------------------------------
# stable simulation law
# ---------------------------------------------------------------------------

def test_stable_gaussian_degeneracy():
    s = sample_stable(StableSpec(alpha=2.0, skew=0.0), 100_000, RngStream(11))
    assert s.values.mean() == pytest.approx(0.0, abs=3 * math.sqrt(2 / 100_000))
    assert s.values.var() == pytest.approx(2.0, rel=0.03)


def test_stable_empirical_cf_matches_analytic():
    s = sample_stable(StableSpec(alpha=1.5, skew=1.0), 100_000, RngStream(21))
    ts = np.linspace(-2, 2, 41)
    emp = np.array([np.exp(1j * t * s.values).mean() for t in ts])
    assert np.abs(emp - stable_cf(1.5, 1.0, ts)).max() <= 0.01


def test_stable_alpha_one_empirical_cf():
    g = RngStream(31)
    s = sample_stable(StableSpec(alpha=1.0, skew=0.7), 100_000, g)
    ts = np.linspace(-2, 2, 21)
    emp = np.array([np.exp(1j * t * s.values).mean() for t in ts])
    assert np.abs(emp - stable_cf(1.0, 0.7, ts)).max() <= 0.015


def test_stable_spec_validation():
    with pytest.raises(DomainError):
        StableSpec(alpha=0.0)
    with pytest.raises(DomainError):
        StableSpec(alpha=1.5, skew=2.0)
    with pytest.raises(DomainError):
        StableSpec(alpha=1.0, kind=SUM_OVER_MAX)


# ---------------------------------------------------------------------------
# limit characteristic functions
# ---------------------------------------------------------------------------

LIMIT_SPECS = [
    StableSpec(alpha=1.5, skew=1.0, kind=SUM_OVER_MAX),
]


@pytest.mark.parametrize("spec", LIMIT_SPECS)
def test_limit_cf_normalization(spec):
    assert sum_over_max_cf(spec.xi, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", LIMIT_SPECS)
def test_limit_cf_hermitian(spec):
    ts = np.array([0.3, 1.0, 4.4])
    assert np.allclose(sum_over_max_cf(spec.xi, ts), np.conj(sum_over_max_cf(spec.xi, -ts)))


@pytest.mark.parametrize("spec", LIMIT_SPECS)
def test_limit_cf_modulus_bound(spec):
    ts = np.linspace(-10, 10, 401)
    assert np.all(np.abs(sum_over_max_cf(spec.xi, ts)) <= 1.0 + 1e-12)


def test_sum_over_max_cf_vs_direct_quadrature():
    xi = 2 / 3
    a = 1 / xi

    def direct(lam):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re, _ = quad(lambda t: (np.cos(t * lam) - 1) * t ** (-1 - a), 0, 1, limit=800)
            im, _ = quad(lambda t: (np.sin(t * lam) - t * lam) * t ** (-1 - a), 0, 1, limit=800)
        return np.exp(1j * lam) / (1 + 1j * lam / (1 - xi) - (re + 1j * im) / xi)

    for lam in (0.3, 1.0, 2.7, 8.0, 33.3):
        assert abs(sum_over_max_cf(xi, lam) - direct(lam)) < 1e-9


def test_sum_over_max_cf_mean():
    # numerical derivative of the CF at 0 gives the mean -xi/(1-xi)
    xi = 2 / 3
    h = 1e-5
    mean = (sum_over_max_cf(xi, h) - sum_over_max_cf(xi, -h)) / (2j * h)
    assert mean.real == pytest.approx(-xi / (1 - xi), abs=1e-6)


def _fourier_power_integral(w, lo, p):
    """int_lo^inf e^{iwt} t^(-p) dt by scipy's QAWF (weight cos/sin), or the
    plain power integral at w = 0."""
    if w == 0:
        return complex(quad(lambda t: t ** -p, lo, np.inf, epsabs=1e-15, epsrel=1e-13)[0])
    re = quad(lambda t: t ** -p, lo, np.inf, weight="cos", wvar=abs(w), epsabs=1e-14)[0]
    im = quad(lambda t: t ** -p, lo, np.inf, weight="sin", wvar=abs(w), epsabs=1e-14)[0]
    return complex(re, im if w > 0 else -im)


@pytest.mark.parametrize("xi", [0.55, 0.7, 0.9])
def test_sum_over_max_cf_tail_identity(xi):
    # phi(l) = -xi e^{il} l^-a / (Gamma(-a) e^{-i pi a/2} - R(l)) with
    # R(l) = int_l^inf e^{iu} u^(-1-a) du: the identity behind the
    # inverter's closed-form tail.
    a = 1 / xi
    for lam in (30.0, 100.0, 1000.0):
        r = _fourier_power_integral(1.0, lam, 1 + a)
        exact = -xi * np.exp(1j * lam) * lam**-a / (math.gamma(-a) * np.exp(-0.5j * math.pi * a) - r)
        assert abs(sum_over_max_cf(xi, lam) - exact) <= 1e-9 * abs(exact)


@pytest.mark.slow
def test_sum_over_max_statistic_approaches_cf():
    # empirical CF of the finite-n statistic approaches the limit CF as k grows
    xi = 2 / 3
    ts = np.array([0.3, 1.0, 2.0])
    ref = sum_over_max_cf(xi, ts)
    gaps = []
    for k in (1000, 16000):
        d = sample_sum_over_max_statistic(xi, 20_000, RngStream(5), k=k, n=10**4 * k)
        emp = np.array([np.exp(1j * t * d).mean() for t in ts])
        gaps.append(np.abs(emp - ref).max())
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.03


def test_sum_over_max_statistic_mean():
    d = sample_sum_over_max_statistic(2 / 3, 20_000, RngStream(6), k=4000, n=10**7)
    assert d.mean() == pytest.approx(-2.0, abs=0.15)


def test_sum_over_max_regime_check():
    with pytest.raises(RegimeMismatch):
        sample_sum_over_max_statistic(0.3, 100, RngStream(0))
    with pytest.raises(RegimeMismatch):
        sum_over_max_cf(1.2, 1.0)


# ---------------------------------------------------------------------------
# limit quantiles
# ---------------------------------------------------------------------------

def test_limit_quantile_validation():
    spec = StableSpec(alpha=1.5, skew=1.0, kind=SUM_OVER_MAX)
    with pytest.raises(DomainError):
        limit_quantile(spec, 0.0)
    with pytest.raises(DomainError):
        limit_quantile(spec, 0.5, method="monte-carlo")  # needs rng
    with pytest.raises(DomainError):
        limit_quantile(spec, 0.5, method="bogus")


def _gaussian_inverter():
    """The inverter of exp(-t^2), the CF of N(0, 2) and of the stable law at
    alpha = 2, with the sum-over-max inverters' CDF error bound: a law
    whose quantiles are known exactly."""
    return GilPelaezInverter.from_cf(lambda t: np.exp(-t * t), 8.0, 32.0, tail_err=3e-6)


def test_limit_quantile_simulation_median_symmetry():
    assert _gaussian_inverter().quantile(0.5) == pytest.approx(0.0, abs=1e-6)
    draws = sample_stable(StableSpec(alpha=2.0, skew=0.0, kind=SIMULATION), 200_000, RngStream(13)).values
    q_mc = QuantileEstimate.from_samples(draws, 0.5)
    assert q_mc.value == pytest.approx(0.0, abs=4 * q_mc.std_error)


def test_limit_quantile_gaussian_anchor():
    # exp(-t^2) is the CF of N(0, 2); check a nontrivial quantile
    q = _gaussian_inverter().quantile(0.975)
    assert q == pytest.approx(math.sqrt(2.0) * 1.959963984540054, abs=1e-5)


def test_limit_quantile_refuses_other_laws_and_unresolvable_levels():
    sim = StableSpec(alpha=1.5, skew=1.0, kind=SIMULATION)
    with pytest.raises(DomainError, match="sum-over-max"):
        limit_quantile(sim, 0.5)
    with pytest.raises(DomainError, match="sum-over-max"):
        limit_quantile(sim, 0.5, method="monte-carlo", rng=RngStream(0), paths=100)
    with pytest.raises(DomainError, match="sum-over-max"):
        limit_quantile_curve(sim, [0.5])
    spec = StableSpec(alpha=1.0 / 0.7, skew=1.0, kind=SUM_OVER_MAX)
    # 10 x the CDF error bound 3e-6 is the first level cf-inversion answers
    for level in (1e-12, 2.9e-5, 1.0 - 2.9e-5):
        with pytest.raises(DomainError, match="cannot resolve"):
            limit_quantile(spec, [0.5, level])
    with pytest.raises(DomainError, match="cannot resolve"):
        limit_quantile_curve(spec, [1e-9, 0.5])
    assert limit_quantile(spec, 1e-4).level == 1e-4  # ACCEPT 06 clips its levels at 5e-4


def test_monte_carlo_quantile_warns_on_a_thin_tail():
    draws = np.arange(1500.0)
    with pytest.warns(UserWarning, match="rests on 3 draws beyond it"):
        QuantileEstimate.from_samples(draws, 0.998)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        QuantileEstimate.from_samples(draws, 0.995)  # 7.5 draws beyond: the 1% band of 1,500 paths


def test_limit_quantile_determinism():
    spec = StableSpec(alpha=1.5, skew=1.0, kind=SUM_OVER_MAX)
    a = limit_quantile(spec, 0.9, method="monte-carlo", rng=RngStream(14), paths=5000, mc_k=500, mc_n=10**6)
    b = limit_quantile(spec, 0.9, method="monte-carlo", rng=RngStream(14), paths=5000, mc_k=500, mc_n=10**6)
    assert a == b
    c1 = limit_quantile(spec, 0.9, method="cf-inversion")
    c2 = limit_quantile(spec, 0.9, method="cf-inversion")
    assert c1 == c2


@pytest.mark.slow
def test_sum_over_max_quantile_cross_method():
    # cf-inversion against the finite-n Monte Carlo oracle; the oracle
    # carries a finite-k bias on top of its sampling error, so the allowance
    # is 3 standard errors plus a small bias budget
    spec = StableSpec(alpha=1.5, skew=1.0, kind=SUM_OVER_MAX)
    for level, bias_budget in ((0.5, 0.05), (0.975, 0.12)):
        q_cf = limit_quantile(spec, level, method="cf-inversion")
        q_mc = limit_quantile(
            spec, level, method="monte-carlo", rng=RngStream(15), paths=30_000, mc_k=16_000, mc_n=16 * 10**7
        )
        assert abs(q_cf.value - q_mc.value) <= 3 * q_mc.std_error + bias_budget


# ---------------------------------------------------------------------------
# Gil-Pelaez inverter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        StableSpec(alpha=1.0 / 0.55, skew=1.0, kind=SUM_OVER_MAX),
        StableSpec(alpha=1.0 / 0.7, skew=1.0, kind=SUM_OVER_MAX),
        StableSpec(alpha=1.0 / 0.9, skew=1.0, kind=SUM_OVER_MAX),
        None,
    ],
    ids=["som-0.55", "som-0.7", "som-0.9", "gaussian"],
)
def test_inverter_cdf_matches_dense_sum(spec):
    # The two-stage panel sum is the dense quadrature sum, reordered; both
    # add the inverter's closed-form tail (sum-over-max laws only).
    inv = _gaussian_inverter() if spec is None else _build_inverter(spec.alpha, 32.0)
    xs = np.linspace(-inv.x_max, inv.x_max, 33)
    dense = np.array([
        0.5 - ((np.exp(-1j * np.outer([x], inv.nodes)) @ inv.kernel)[0] + inv.tail_sums(np.array([x]))[0]).imag / np.pi
        for x in xs
    ])
    assert np.max(np.abs(inv.cdf(xs) - dense)) <= 1e-12
    assert all(inv.cdf(float(x)) == pytest.approx(d, abs=1e-12) for x, d in zip(xs[::8], dense[::8]))


@pytest.mark.parametrize("xi", [0.55, 0.7, 0.9])
def test_sum_over_max_closed_form_tail_matches_quadrature(xi):
    inv = _build_inverter(1.0 / xi, 32.0)
    tail, t_max = inv.tail, inv.t_max
    assert t_max == pytest.approx(30.0)
    # x = 1 has no oscillation; 0.99 and 1.02 take the power series, the
    # rest the continued fraction (0.96 at |z| = 1.2, where it is slowest)
    for x in (-25.0, -3.0, 0.0, 0.5, 0.96, 0.99, 1.0, 1.02, 1.5, 7.0, 31.0):
        expected = tail.coef * _fourier_power_integral(1.0 - x, t_max, 1.0 + tail.power)
        assert abs(inv.tail_sums(np.array([x]))[0] - expected) <= 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("x_max", [32.0, 128.0])
@pytest.mark.parametrize("xi", [0.55, 0.7, 0.9])
def test_sum_over_max_tail_matches_truncated_inverter(xi, x_max):
    # The inverter with the closed-form tail against a tail-less one whose
    # quadrature runs out to where the bound 2 xi t^-a / Gamma(-a) on |phi|
    # puts the truncation error under the same budget: 1.4M nodes at
    # xi = 0.9 and x_max = 32, 5.0M at x_max = 128 (phi is evaluated in
    # chunks to bound memory).
    a = 1.0 / xi
    tol = 3e-6
    t_max = max(50.0, (2.0 * xi / math.gamma(-a) / (math.pi * a * tol)) ** (1.0 / a))
    truncated = GilPelaezInverter.from_cf(
        lambda t: np.concatenate([sum_over_max_cf(xi, c) for c in np.array_split(t, 1 + t.size // 250_000)]),
        t_max, x_max, tail_err=tol,
    )
    inv = _build_inverter(a, x_max)
    assert inv.cdf_abs_err == tol
    xs = np.append(np.linspace(-x_max, x_max, 65), [0.97, 1.0, 1.03])
    assert np.max(np.abs(inv.cdf(xs) - truncated.cdf(xs))) <= inv.cdf_abs_err


def test_inverter_nodes_factor_into_panels():
    inv = _build_inverter(1.0 / 0.55, 32.0)
    p = np.arange(inv.n_panels)
    assert np.array_equal(inv.nodes, (p[:, None] * inv.panel_width + inv.offsets[None, :]).ravel())
    assert np.all(np.diff(inv.nodes) > 0)


def test_gauss_legendre_literals_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert cfinversion.GL_NODES.tobytes() == nodes.tobytes()
    assert cfinversion.GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("xi", [0.55, 0.7, 0.9])
def test_inverter_cdf_of_a_point_does_not_depend_on_its_batch(xi):
    # 1,501 points span two CDF chunks (1,444 points each at 726 panels)
    inv = _build_inverter(1.0 / xi, 32.0)
    xs = np.append(np.linspace(-inv.x_max, inv.x_max, 1500), 1.0)
    batch = inv.cdf(xs)
    assert batch.tobytes() == np.array([inv.cdf(float(x)) for x in xs]).tobytes()
    assert inv.cdf(xs[740:752]).tobytes() == batch[740:752].tobytes()


def _search_one_level(inv, q, xtol=1e-9):
    """The quantile search for one level as a scalar loop, the reference for
    GilPelaezInverter.quantile: the bracket doubled out from [-1, 1] within
    [-x_max, x_max], then bisection to xtol; None beyond the range."""
    lo = -1.0
    while inv.cdf(lo) > q:
        lo *= 2.0
        if lo < -inv.x_max:
            return None
    hi = 1.0
    while inv.cdf(hi) < q:
        hi *= 2.0
        if hi > inv.x_max:
            return None
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if inv.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _limit_quantile_one_level(spec, q):
    """(value, std_error, x_max) of one level from the first inverter of the
    ladder 32, 128, ... whose range holds it, one CDF point at a time."""
    x_max = 32.0
    while True:
        inv = _build_inverter(spec.alpha, x_max)
        value = _search_one_level(inv, q)
        if value is not None:
            h = 1e-3 * max(1.0, abs(value))
            density = max((inv.cdf(value + h) - inv.cdf(value - h)) / (2 * h), 1e-12)
            return value, inv.cdf_abs_err / density + 1e-6, x_max
        x_max *= 4.0


@pytest.mark.parametrize(
    "levels, x_maxes",
    [
        ([0.005, 0.995, 0.025, 0.975, 0.05, 0.95], [32.0] * 6),  # the three bands of --multi-alpha
        ([1e-4, 1e-3], [128.0, 32.0]),
    ],
    ids=["multi-alpha", "two-inverters"],
)
def test_batched_limit_quantiles_equal_the_search_for_each_level(levels, x_maxes):
    spec = StableSpec(alpha=1.0 / 0.7, skew=1.0, kind=SUM_OVER_MAX)
    alone = [_limit_quantile_one_level(spec, q) for q in levels]
    assert [x_max for _, _, x_max in alone] == x_maxes
    batched = limit_quantile(spec, levels)
    assert [(e.value, e.std_error) for e in batched] == [(v, err) for v, err, _ in alone]
    assert [e.level for e in batched] == levels
    assert limit_quantile(spec, levels[-1]) == batched[-1]


def test_inverter_quantile_beyond_the_range_is_nan():
    inv = _build_inverter(1.0 / 0.7, 32.0)
    values = inv.quantile(np.array([1e-4, 0.5]))
    assert np.isnan(values[0]) and values[1] == inv.quantile(0.5)
    assert np.isnan(inv.quantile_curve(np.array([1e-4, 0.5]))).all()
    with pytest.raises(DomainError):
        inv.quantile(np.array([0.5, 1.0]))


@pytest.mark.parametrize("q", [0.005, 0.05, 0.3, 0.5, 0.9, 0.975, 0.995])
def test_limit_quantile_gaussian_matches_normal_dist(q):
    # within the error limit_quantile reports: the CDF error bound over the
    # density, plus 1e-6
    inv = _gaussian_inverter()
    law = statistics.NormalDist(0.0, math.sqrt(2.0))
    exact = law.inv_cdf(q)
    assert abs(inv.quantile(q) - exact) <= inv.cdf_abs_err / law.pdf(exact) + 1e-6


def test_quantile_curve_matches_pointwise_quantile():
    # On a grid fine enough that linear interpolation is exact to well under
    # xtol, the vectorised curve and per-point bisection agree within xtol.
    inv = _gaussian_inverter()
    probs = np.array([0.005, 0.05, 0.3, 0.5, 0.9, 0.975, 0.995])
    xtol = 1e-6
    curve = inv.quantile_curve(probs, n_grid=20_000)
    pointwise = np.array([inv.quantile(q, xtol=xtol) for q in probs])
    assert np.max(np.abs(curve - pointwise)) <= xtol


def test_quantile_curve_within_std_error_sum_over_max():
    # The heavy-regime law has a non-smooth density at x = 1, where linear
    # interpolation on the coarse grid alone was off by 2.2e-3 (q = 0.92).
    spec = StableSpec(alpha=1.0 / 0.7, skew=1.0, kind=SUM_OVER_MAX)
    inv = _build_inverter(spec.alpha, 32.0)
    probs = np.arange(1, 200) * 0.005
    curve = inv.quantile_curve(probs)
    for q, value in zip(probs, curve):
        est = limit_quantile(spec, q, method="cf-inversion")
        assert abs(value - inv.quantile(q)) <= est.std_error, q


def test_inverter_cache_is_bounded():
    alpha = 1.0 / 0.55
    assert _build_inverter(alpha, 32.0) is _build_inverter(alpha, 32.0)
    assert _build_inverter.cache_info().maxsize is not None
