"""Distributional checks of the normalized-plot fluctuations against the
simulated limit processes (two-sample Kolmogorov-Smirnov)."""
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from tailband.distributions import sample_pareto
from tailband.plotsets import PlotConfig, qq_normalized_set, truncation_index
from tailband.data import fixed_xi, me_at_order_statistics
from tailband.rng import RngStream


@pytest.mark.slow
def test_qq_fluctuation_sup_matches_limit_law(bridge_paths):
    # sup_j |sqrt(k)(log(X_j/X_k) + xi log(j/k))| over j/k >= eps has the law
    # of sup_t |xi B(t)/t| on [eps, 1] up to finite-sample error
    xi, n, k, eps, reps = 0.25, 50_000, 1000, 0.05, 200
    j0 = truncation_index(eps, k)
    cfg = PlotConfig(k, eps, 0.05)
    stats = np.empty(reps)
    for rep in range(reps):
        s = sample_pareto(xi, n, RngStream(41, rep))
        ps = qq_normalized_set(s, cfg, fixed_xi(xi))
        fluct = ps.y - xi * ps.x  # the sqrt(k)-scaled deviation alone
        stats[rep] = np.abs(fluct).max()
    t, b = bridge_paths(2000, 2048, RngStream(42))
    mask = t >= eps - 1e-12
    ref = np.abs(xi * b[:, mask] / t[None, mask]).max(axis=1)
    d = ks_2samp(stats, ref).statistic
    assert d <= 0.12, f"KS D={d:.4f}"


@pytest.mark.slow
def test_me_fluctuation_matches_limit_integral_law(bridge_paths):
    # the vertical fluctuation of the normalized ME plot at t = 1/2 has the
    # law of xi t^-1 int_0^t y^-(1+xi) B(y) dy at t = 1/2
    xi, n, k, reps = 0.25, 50_000, 3000, 200
    i = k // 2
    slope = xi / (1.0 - xi)
    stats = np.empty(reps)
    for rep in range(reps):
        s = sample_pareto(xi, n, RngStream(43, rep))
        x_k = s.values[k - 1]
        me_i = me_at_order_statistics(s, k)[i - 2]
        stats[rep] = math.sqrt(k) * (me_i / x_k - slope * (i / k) ** (-xi))
    m = 4096
    t, b = bridge_paths(2000, m, RngStream(44))
    f = b * t[None, :] ** (-(1.0 + xi))
    cs = np.cumsum(f, axis=1)
    integral = (cs - 0.5 * (f + f[:, :1])) / m
    half_idx = m // 2 - 1
    ref = xi * integral[:, half_idx] / t[half_idx]
    d = ks_2samp(stats, ref).statistic
    assert d <= 0.12, f"KS D={d:.4f}"
