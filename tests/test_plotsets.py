import math

import numpy as np
import pytest

from tailband.data import OrderedSample, fixed_xi
from tailband.distributions import sample_pareto
from tailband.errors import (
    BadK,
    DomainError,
    NonPositiveOrderStatistic,
    RegimeMismatch,
    WindowMismatch,
)
from tailband.plotsets import (
    GT_HALF,
    LT_HALF,
    LimitSet,
    PlotConfig,
    PlotSet,
    hausdorff_to_limit,
    me_limit_set,
    me_normalized_set,
    me_set,
    qq_limit_set,
    qq_normalized_set,
    qq_set,
    truncation_index,
)
from tailband.rng import RngStream


def pareto_grid_sample(n, xi):
    j = np.arange(1, n + 1)
    return OrderedSample.from_data((j / n) ** (-xi))


# ---------------------------------------------------------------------------
# config and truncation
# ---------------------------------------------------------------------------

def test_truncation_index_float_fuzz():
    assert truncation_index(0.05, 500) == 25       # 0.05*500 is 25 up to fp fuzz
    assert truncation_index(0.05, 510) == 26       # 25.5 -> 26
    assert truncation_index(0.001, 100) == 1       # below 1 keeps everything
    assert truncation_index(0.1, 1000) == 100


def test_plot_config_validation():
    with pytest.raises(BadK):
        PlotConfig(1, 0.05)
    with pytest.raises(DomainError):
        PlotConfig(10, 1.5)
    with pytest.raises(DomainError):
        PlotConfig(10, 0.1, alpha=0.0)


# ---------------------------------------------------------------------------
# QQ sets
# ---------------------------------------------------------------------------

def test_qq_set_hand_example():
    s = OrderedSample.from_data([8.0, 4.0, 2.0, 1.0])
    ps = qq_set(s, PlotConfig(2, 0.01))
    assert ps.points.tolist() == [[0.0, 0.0], [math.log(2), math.log(2)]]
    assert ps.indices.tolist() == [2, 1]
    assert ps.normalizers["x_k"] == 4.0


def test_qq_set_first_point_is_origin():
    s = sample_pareto(0.5, 300, RngStream(1))
    ps = qq_set(s, PlotConfig(50, 0.05))
    assert ps.points[0].tolist() == [0.0, 0.0]


def test_qq_set_truncation_window():
    s = sample_pareto(0.5, 300, RngStream(1))
    ps = qq_set(s, PlotConfig(100, 0.1))
    assert ps.indices.min() == 10
    assert len(ps) == 91
    full = qq_set(s, PlotConfig(100, 0.001))  # eps*k < 1 drops no point
    assert len(full) == 100


def test_qq_set_exact_pareto_grid_on_line():
    xi = 0.37
    s = pareto_grid_sample(512, xi)
    ps = qq_set(s, PlotConfig(128, 0.001))
    assert np.abs(ps.y - xi * ps.x).max() < 1e-12


def test_qq_set_scale_invariance():
    s = sample_pareto(0.25, 400, RngStream(2))
    cfg = PlotConfig(80, 0.05)
    base = qq_set(s, cfg)
    for c in (1e-3, 7.0):
        scaled = qq_set(OrderedSample.from_data(c * s.values), cfg)
        assert np.allclose(scaled.points, base.points, atol=1e-12)


def test_qq_set_needs_positive_order_statistic():
    s = OrderedSample.from_data([3.0, 2.0, 0.0, -1.0])
    with pytest.raises(NonPositiveOrderStatistic):
        qq_set(s, PlotConfig(3, 0.05))


def test_qq_set_k_bound():
    s = OrderedSample.from_data([3.0, 2.0, 1.0])
    with pytest.raises(BadK):
        qq_set(s, PlotConfig(3, 0.05))


def test_qq_normalized_collapses_on_exact_grid():
    xi = 0.3
    s = pareto_grid_sample(1000, xi)
    ps = qq_normalized_set(s, PlotConfig(200, 0.05), fixed_xi(xi))
    assert np.abs(ps.y - xi * ps.x).max() < 1e-9  # fluctuation term vanishes
    assert ps.points[0].tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# ME sets
# ---------------------------------------------------------------------------

def test_me_set_hand_example():
    s = OrderedSample.from_data([4.0, 3.0, 2.0, 1.0])
    ps = me_set(s, PlotConfig(3, 0.05))
    assert np.allclose(ps.points, [[1.5, 0.5], [1.0, 0.75]])
    assert ps.indices.tolist() == [2, 3]


def test_me_set_last_point_x_is_one():
    s = sample_pareto(0.25, 500, RngStream(3))
    ps = me_set(s, PlotConfig(100, 0.05))
    assert ps.x[-1] == pytest.approx(1.0)
    assert np.all(ps.x >= 1.0 - 1e-12)
    assert np.all(np.diff(ps.x) <= 1e-12)  # non-increasing along the index


def test_me_set_scale_invariance():
    s = sample_pareto(0.25, 500, RngStream(3))
    cfg = PlotConfig(100, 0.05)
    base = me_set(s, cfg)
    scaled = me_set(OrderedSample.from_data(5.0 * s.values), cfg)
    assert np.allclose(scaled.points, base.points, rtol=1e-12)


def test_me_set_truncation():
    s = sample_pareto(0.25, 500, RngStream(3))
    ps = me_set(s, PlotConfig(100, 0.1))
    assert ps.indices.min() == 10
    assert ps.indices.max() == 100


# ---------------------------------------------------------------------------
# normalized ME sets
# ---------------------------------------------------------------------------

def test_me_normalized_exact_grid_first_coordinate():
    xi = 0.25
    s = pareto_grid_sample(2000, xi)
    cfg = PlotConfig(400, 0.05)
    ps = me_normalized_set(s, cfg, fixed_xi(xi), LT_HALF)
    model_x = (ps.indices / cfg.k) ** (-xi)
    assert np.abs(ps.x - model_x).max() < 1e-9  # zero horizontal fluctuation


def test_me_normalized_regime_validation():
    s = sample_pareto(0.25, 500, RngStream(4))
    cfg = PlotConfig(100, 0.05)
    with pytest.raises(RegimeMismatch):
        me_normalized_set(s, cfg, fixed_xi(0.7), LT_HALF)
    with pytest.raises(RegimeMismatch):
        me_normalized_set(s, cfg, fixed_xi(0.25), GT_HALF)
    with pytest.raises(DomainError):
        me_normalized_set(s, cfg, fixed_xi(0.25), "weird")


def test_me_normalized_gt_half_scale_recorded():
    s = sample_pareto(0.7, 2000, RngStream(5))
    cfg = PlotConfig(300, 0.05)
    ps = me_normalized_set(s, cfg, fixed_xi(0.7), GT_HALF)
    expect = cfg.k * s.values[cfg.k - 1] / s.values[0]
    assert ps.normalizers["vertical_scale"] == pytest.approx(expect)
    assert ps.kind == "me-normalized-gt-half"


# ---------------------------------------------------------------------------
# limit sets and Hausdorff distance
# ---------------------------------------------------------------------------

def test_limit_set_constructors():
    q = qq_limit_set(0.25, 0.05)
    assert q.slope == 0.25
    assert q.window == (0.0, -math.log(0.05))
    m = me_limit_set(0.25, 0.05)
    assert m.slope == pytest.approx(1 / 3)
    assert m.window == (1.0, 0.05**-0.25)
    with pytest.raises(DomainError):
        LimitSet("curve", 1.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        LimitSet("me-line", 1.0, (2.0, 1.0))


def test_hausdorff_dense_points_on_line_near_zero():
    xi = 0.7
    x = np.linspace(0.0, 2.0, 4000)
    plot = PlotSet(np.column_stack([x, xi * x]), "qq")
    d = hausdorff_to_limit(plot, qq_limit_set(xi, math.exp(-2.0)))
    # floor: segment discretization (1000 points over length ~2.4)
    assert d < 2.5 * math.hypot(1, xi) / 1000


def test_hausdorff_single_offset_point():
    xi = 0.5
    x = np.linspace(0.0, 2.0, 2000)
    pts = np.column_stack([x, xi * x])
    # displace one interior point perpendicular to the line by distance 0.3
    normal = np.array([-xi, 1.0]) / math.hypot(1, xi)
    pts[1000] = pts[1000] + 0.3 * normal
    plot = PlotSet(pts[np.argsort(pts[:, 0])], "me")
    d = hausdorff_to_limit(plot, qq_limit_set(xi, math.exp(-2.0)))
    assert d == pytest.approx(0.3, rel=0.01)


def test_hausdorff_window_mismatch():
    x = np.linspace(0.0, 5.0, 100)
    plot = PlotSet(np.column_stack([x, x]), "me")
    with pytest.raises(WindowMismatch):
        hausdorff_to_limit(plot, LimitSet("me-line", 1.0, (0.0, 2.0)))


@pytest.mark.slow
def test_plot_distance_shrinks_with_sample_size():
    # convergence-in-probability surrogate at two sizes (QQ plot)
    xi = 0.25
    medians = []
    for size_idx, n in enumerate((1000, 10_000)):
        k = int(n**0.6)
        cfg = PlotConfig(k, 0.05)
        dists = []
        for rep in range(20):
            s = sample_pareto(xi, n, RngStream(17, 100 * size_idx + rep))
            ps = qq_set(s, cfg)
            dists.append(hausdorff_to_limit(ps, qq_limit_set(xi, 0.04)))
        medians.append(np.median(dists))
    assert medians[1] < medians[0]
