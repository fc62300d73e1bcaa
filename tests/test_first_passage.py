"""The c-functional's quantiles from the first-passage solve
(limitsim.bridge_c_quantiles): its normal tail and quadrature rule, an exact
oracle for linear boundaries, an independent density propagation, and a
bridge path set."""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline
from scipy.special import ndtr

from tailband.errors import DomainError, RegimeMismatch
from tailband.limitsim import (
    _FP_CELLS,
    _FirstPassage,
    _gauss_legendre,
    _normal_sf,
    bridge_c_quantiles,
    bridge_quantiles,
)
from tailband.rng import RngStream


def test_normal_tail_matches_scipy():
    x = np.linspace(-40.0, 40.0, 400_001)
    ref = ndtr(-x)
    got = _normal_sf(x)
    assert np.max(np.abs(got - ref)) <= 3e-16
    for top, rel in ((7.0, 3e-9), (37.0, 4e-6)):
        upper = (x >= 0) & (x < top)
        assert np.max(np.abs(got[upper] / ref[upper] - 1.0)) <= rel


@pytest.mark.parametrize("n", [2, 6, 40])
def test_gauss_legendre_matches_numpy(n):
    x, w = leggauss(n)
    nodes, weights = _gauss_legendre(n)
    assert np.max(np.abs(nodes - (x + 1.0) / 2.0)) <= 2e-16
    assert np.max(np.abs(weights - w / 2.0)) <= 2e-15


def _linear_bridge_crossing(a, beta, eps):
    """P(B(t) >= a + beta t for some t in [eps, 1]) for a Brownian bridge B:
    W(s) = B(t)/(1-t), s = t/(1-t), crosses the line a + (a + beta) s."""
    s0, k = eps / (1.0 - eps), a + beta
    return ndtr(-(a + k * s0) / math.sqrt(s0)) + math.exp(-2.0 * a * k) * ndtr((a - k * s0) / math.sqrt(s0))


@pytest.mark.parametrize("a, beta, eps", [(0.3, 1.0, 0.1), (0.5, 2.0, 0.05), (0.2, 3.0, 0.2), (0.8, 0.5, 0.1)])
def test_first_passage_matches_the_linear_boundary_formula(a, beta, eps):
    # B(t) >= a + beta t exactly when W(u) = B(t)/t >= (a + beta) + a u at u = (1-t)/t
    solver = _FirstPassage(lambda u: (a + beta) + a * u, (1.0 - eps) / eps, _FP_CELLS)
    [p] = solver.crossing([1.0])
    assert abs(p - _linear_bridge_crossing(a, beta, eps)) <= 1e-6


_STEP_NODES, _STEP_WEIGHTS = leggauss(24)
_CROSS_NODES, _CROSS_WEIGHTS = leggauss(48)


def _propagated_crossing(g, s0, s_end, steps, points):
    """P(W(s) >= g(s) for some s in [s0, s_end]) for a Brownian motion W,
    by carrying the density of the paths that have not crossed.

    The paths above g at s0 cross at once.  The rest are carried to s_end
    in steps graded towards s0, as a density over the distance y = g - W,
    on a grid graded towards y = 0 and read between nodes by a cubic
    spline.  Over a step the boundary is the chord between its ends: a path
    at y crosses with probability Phi-bar((y + dg)/sd) + exp(-2 y dg/ds)
    Phi-bar((y - dg)/sd), and a survivor reaches y' with the Gaussian
    transition density times the pinned weight 1 - exp(-2 y y'/ds).  Both
    integrals are Gauss-Legendre sums.  Mass farther than 9 sqrt(s_end)
    from the boundary is dropped: it does not come back.
    """
    top = 9.0 * math.sqrt(s_end)
    s = s0 + (s_end - s0) * (np.arange(steps + 1) / steps) ** 2
    y = top * (np.arange(points + 1) / points) ** 2
    b = g(s)
    root_s0 = math.sqrt(s0)
    density = CubicSpline(y, np.exp(-0.5 * ((b[0] - y) / root_s0) ** 2) / (root_s0 * math.sqrt(2.0 * math.pi)))
    crossed = ndtr(-b[0] / root_s0)
    for k in range(steps):
        ds, dg = s[k + 1] - s[k], b[k + 1] - b[k]
        sd = math.sqrt(ds)
        reach = min(top, abs(dg) + 12.0 * sd)
        yc = 0.5 * reach * (_CROSS_NODES + 1.0)
        cross = ndtr(-(yc + dg) / sd) + np.exp(-2.0 * yc * dg / ds) * ndtr(-(yc - dg) / sd)
        crossed += 0.5 * reach * np.sum(_CROSS_WEIGHTS * density(yc) * cross)
        # a survivor at y' came from y = y' - dg + sd z, z standard normal
        to = y[1:, None]
        z_lo = np.clip((dg - to) / sd, -8.0, 8.0)  # a source lies at y >= 0
        z = z_lo + 0.5 * (8.0 - z_lo) * (_STEP_NODES + 1.0)
        src = to - dg + sd * z
        weight = 0.5 * (8.0 - z_lo) * _STEP_WEIGHTS * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        at = np.clip(src, 0.0, top)
        carried = np.where(src <= top, density(at), 0.0) * -np.expm1(-2.0 * at * to / ds)
        density = CubicSpline(y, np.concatenate([[0.0], np.sum(weight * carried, axis=1)]))
    return crossed


@pytest.mark.parametrize("a, beta, eps", [(0.3, 1.0, 0.1), (0.8, 0.5, 0.1)])
def test_propagation_matches_the_linear_boundary_formula(a, beta, eps):
    # the oracle's own check: on a straight boundary the pinned weight is exact
    s0 = eps / (1.0 - eps)
    p = _propagated_crossing(lambda s: a + (a + beta) * s, s0, 49.0, 200, 300)
    assert abs(p - _linear_bridge_crossing(a, beta, eps)) <= 1e-6


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("xi", [0.55, 0.7, 0.9])
def test_first_passage_c_matches_a_density_propagation(xi, eps):
    # C > c when W(s) = B(t)/(1-t), s = t/(1-t), crosses (c/xi) s (s/(1+s))^xi
    # after s0 = eps/(1-eps).  Past s = 9 (t = 0.9) that boundary lies so far
    # above W's spread that a crossing there has probability below 1e-100.
    [c] = bridge_c_quantiles(xi, eps, [0.975])
    lam = c.value / xi
    g = lambda s: lam * s * (s / (1.0 + s)) ** xi  # noqa: E731
    coarse, fine = (_propagated_crossing(g, eps / (1.0 - eps), 9.0, steps, steps * 3 // 2) for steps in (100, 200))
    p = fine + (fine - coarse) / 3.0  # the propagation converges as steps^-2
    assert abs(p - 0.025) <= 1e-6


def test_first_passage_c_at_the_benchmark_shape():
    [c] = bridge_c_quantiles(0.7, 0.1, [0.975])
    assert abs(c.value - 22.3105) <= 0.002
    assert 0.0 < c.std_error <= 1e-4 * c.value
    assert (c.source, c.n_paths, c.grid_m) == ("first-passage", 0, 0)


def test_first_passage_c_within_the_errors_of_a_path_set():
    [c] = bridge_c_quantiles(0.7, 0.1, [0.975])
    [(mc, _)] = bridge_quantiles(0.7, 0.1, [0.975], n_paths=4000, m=8192, rng=RngStream(11), integral=False)
    assert abs(c.value - mc.value) <= 3.0 * mc.std_error


def test_each_level_is_solved_alone():
    levels = [0.995, 0.975, 0.95]
    together = bridge_c_quantiles(0.7, 0.1, levels)
    assert together == [bridge_c_quantiles(0.7, 0.1, [level])[0] for level in levels]
    assert together == bridge_c_quantiles(0.7, 0.1, levels)
    assert together[0].value > together[1].value > together[2].value


@pytest.mark.parametrize("xi, eps, level, error, names", [
    (0.7, 1e-300, 0.975, DomainError, "eps=1e-300: the c quantile cannot be bracketed"),
    (0.7, 0.1, 0.5, DomainError, "level in (1/2, 1)"),
    (0.7, 0.1, 1.0, DomainError, "level in (1/2, 1)"),
    (0.7, 0.0, 0.975, DomainError, "eps must lie in (0,1)"),
    (1.0, 0.1, 0.975, RegimeMismatch, "0 < xi < 1"),
])
def test_first_passage_refusals(xi, eps, level, error, names):
    with pytest.raises(error, match=names.replace("(", r"\(").replace(")", r"\)")):
        bridge_c_quantiles(xi, eps, [level])
