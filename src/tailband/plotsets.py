"""Construction of the diagnostic plot sets and their limit lines.

The QQ set plots (-log(j/k), log(X_(j)/X_(k))) for the top k order
statistics; under a regularly varying tail with shape xi it settles on the
line y = xi * x.  The mean-excess (ME) set plots the empirical mean excess
at the order statistics, scaled by X_(k); for xi in (0, 1) it settles on the
line y = x * xi/(1-xi).  Normalized variants blow the fluctuations up by the
appropriate rate so they converge to non-degenerate limit processes; those
are what the band quantiles are calibrated against.

Every plot is truncated: points with j/k < eps are dropped because the
limit fluctuation variance explodes there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .data import OrderedSample, TailIndexEstimate, me_at_order_statistics
from .errors import (
    BadK,
    DomainError,
    NonPositiveOrderStatistic,
    RegimeMismatch,
    WindowMismatch,
)

QQ = "qq"
QQ_NORMALIZED = "qq-normalized"
ME = "me"
ME_NORMALIZED_LT_HALF = "me-normalized-lt-half"
ME_NORMALIZED_GT_HALF = "me-normalized-gt-half"

_KINDS = (
    QQ,
    QQ_NORMALIZED,
    ME,
    ME_NORMALIZED_LT_HALF,
    ME_NORMALIZED_GT_HALF,
)

LT_HALF = "lt-half"
GT_HALF = "gt-half"


def truncation_index(eps: float, k: int) -> int:
    """Smallest j with j/k >= eps (ceiling of eps*k, robust to float fuzz)."""
    x = eps * k
    nearest = round(x)
    j0 = nearest if abs(x - nearest) < 1e-9 else math.ceil(x)
    return max(1, int(j0))


@dataclass(frozen=True)
class PlotConfig:
    """Plot parameters: top-k cut, truncation level, band level."""

    k: int
    eps: float
    alpha: float = 0.05

    def __post_init__(self):
        if self.k < 2:
            raise BadK(f"k must be >= 2, got {self.k}")
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must lie in (0,1), got {self.eps}")
        # truncation keeps j >= max(1, ceil(eps*k)), so the window is never
        # empty; eps*k < 1 simply means no point is dropped
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise DomainError(f"alpha={self.alpha} is too small: the band level 1 - alpha/2 rounds to 1")


@dataclass(frozen=True)
class PlotSet:
    """A finite plot: points, kind, and the constants used to scale it.

    `indices` records the order-statistic index behind each point (j for QQ,
    i for ME), which band assembly and coverage checks rely on.
    """

    points: np.ndarray
    kind: str
    normalizers: dict = field(default_factory=dict)
    indices: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise DomainError("points must be a non-empty (m, 2) array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("plot points must be finite")
        if self.kind not in _KINDS:
            raise DomainError(f"unknown plot kind {self.kind!r}")
        if self.kind in (QQ, QQ_NORMALIZED):
            if pts.shape[0] > 1 and not np.all(np.diff(pts[:, 0]) > 0):
                raise DomainError(f"{self.kind} x-coordinates must increase strictly")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int)
            if idx.shape != (pts.shape[0],):
                raise DomainError("indices must align with points")
            idx = idx.copy()
            idx.flags.writeable = False
            object.__setattr__(self, "indices", idx)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class LimitSet:
    """The deterministic limit of a plot: a line segment over a window."""

    kind: str                      # "line-through-origin" | "me-line"
    slope: float
    window: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("line-through-origin", "me-line"):
            raise DomainError(f"unknown limit kind {self.kind!r}")
        lo, hi = self.window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError("window must be a non-degenerate finite interval")
        if not math.isfinite(self.slope):
            raise DomainError("slope must be finite")


def qq_limit_set(xi: float, eps: float) -> LimitSet:
    """Limit line of the truncated QQ plot: y = xi*x on [0, -log eps]."""
    return LimitSet("line-through-origin", float(xi), (0.0, -math.log(eps)))


def me_limit_set(xi: float, eps: float) -> LimitSet:
    """Limit line of the truncated ME plot: y = x*xi/(1-xi) on [1, eps^-xi]."""
    if not (0.0 < xi < 1.0):
        raise DomainError(f"ME limit needs xi in (0,1), got {xi}")
    return LimitSet("me-line", xi / (1.0 - xi), (1.0, eps ** (-xi)))


# ---------------------------------------------------------------------------
# QQ sets
# ---------------------------------------------------------------------------

def _qq_indices(cfg: PlotConfig) -> np.ndarray:
    return np.arange(cfg.k, truncation_index(cfg.eps, cfg.k) - 1, -1)  # j descending -> x ascending from 0


def qq_set(sample: OrderedSample, cfg: PlotConfig) -> PlotSet:
    """Log-scale QQ plot of the top k order statistics.

    Points (-log(j/k), log(X_(j)/X_(k))) for j = k down to ceil(eps*k).
    Scale-invariant in the data.
    """
    if cfg.k >= sample.n:
        raise BadK(f"k={cfg.k} must be < n={sample.n}")
    x_k = sample.values[cfg.k - 1]
    if x_k <= 0:
        raise NonPositiveOrderStatistic(f"X_({cfg.k}) = {x_k} <= 0")
    j = _qq_indices(cfg)
    xs = -np.log(j / cfg.k) + 0.0  # + 0.0 turns -log(1) = -0.0 into +0.0
    ys = np.log(sample.values[j - 1] / x_k) + 0.0
    return PlotSet(np.column_stack([xs, ys]), QQ, normalizers={"x_k": float(x_k)}, indices=j)


def qq_normalized_set(sample: OrderedSample, cfg: PlotConfig, xi: TailIndexEstimate) -> PlotSet:
    """QQ plot recentered on its limit line with sqrt(k)-blown-up fluctuations.

    Points (-log(j/k), -xi log(j/k) + sqrt(k) (log(X_(j)/X_(k)) + xi log(j/k)))
    for j = k down to ceil(eps*k).
    Converges weakly to the line perturbed by xi B(t)/t; used to check the
    fluctuation law, not to build bands.
    """
    if cfg.k >= sample.n:
        raise BadK(f"k={cfg.k} must be < n={sample.n}")
    if not (xi.xi > 0):
        raise DomainError("normalized QQ set needs xi > 0")
    x_k = sample.values[cfg.k - 1]
    if x_k <= 0:
        raise NonPositiveOrderStatistic(f"X_({cfg.k}) = {x_k} <= 0")
    j = _qq_indices(cfg)
    log_ratio = np.log(j / cfg.k)
    xs = -log_ratio + 0.0
    fluct = math.sqrt(cfg.k) * (np.log(sample.values[j - 1] / x_k) + xi.xi * log_ratio)
    ys = -xi.xi * log_ratio + fluct + 0.0
    return PlotSet(
        np.column_stack([xs, ys]),
        QQ_NORMALIZED,
        normalizers={"x_k": float(x_k), "xi": xi.xi},
        indices=j,
    )


# ---------------------------------------------------------------------------
# ME sets
# ---------------------------------------------------------------------------

def _me_indices(cfg: PlotConfig) -> np.ndarray:
    return np.arange(max(2, truncation_index(cfg.eps, cfg.k)), cfg.k + 1)


def me_set(sample: OrderedSample, cfg: PlotConfig) -> PlotSet:
    """Scaled mean-excess plot over the top k order statistics.

    Points (X_(i)/X_(k), ME(X_(i))/X_(k)) for i = 2..k with i/k >= eps.  Scale-invariant; x-coordinates are >= 1 and non-increasing
    along the index.
    """
    if cfg.k < 3:
        raise BadK("me_set needs k >= 3")
    if cfg.k > sample.n:
        raise BadK(f"k={cfg.k} must be <= n={sample.n}")
    x_k = sample.values[cfg.k - 1]
    if x_k <= 0:
        raise NonPositiveOrderStatistic(f"X_({cfg.k}) = {x_k} <= 0")
    me_all = me_at_order_statistics(sample, cfg.k)  # thresholds X_(2)..X_(k)
    i = _me_indices(cfg)
    xs = sample.values[i - 1] / x_k
    ys = me_all[i - 2] / x_k
    return PlotSet(np.column_stack([xs, ys]), ME, normalizers={"x_k": float(x_k)}, indices=i)


def me_normalized_set(
    sample: OrderedSample,
    cfg: PlotConfig,
    xi: TailIndexEstimate,
    regime: str,
) -> PlotSet:
    """Mean-excess plot recentered on its limit with regime-specific
    scaling, over the points of me_set.

    lt-half (0 < xi < 1/2): both components blown up by sqrt(k).
    gt-half (1/2 < xi < 1): the vertical fluctuation is scaled by
        k X_(k) / X_(1) (data-driven normalization), the horizontal one by
        sqrt(k) as before.
    """
    if regime not in (LT_HALF, GT_HALF):
        raise DomainError(f"unknown regime {regime!r}")
    if cfg.k < 3:
        raise BadK("me_normalized_set needs k >= 3")
    if cfg.k > sample.n:
        raise BadK(f"k={cfg.k} must be <= n={sample.n}")
    s = xi.xi
    if regime == LT_HALF and not (0.0 < s < 0.5):
        raise RegimeMismatch(f"lt-half regime needs 0 < xi < 1/2, got {s}")
    if regime == GT_HALF and not (0.5 < s < 1.0):
        raise RegimeMismatch(f"gt-half regime needs 1/2 < xi < 1, got {s}")
    x_k = sample.values[cfg.k - 1]
    x_1 = sample.values[0]
    if x_k <= 0:
        raise NonPositiveOrderStatistic(f"X_({cfg.k}) = {x_k} <= 0")
    me_all = me_at_order_statistics(sample, cfg.k)
    i = _me_indices(cfg)
    ratio = i / cfg.k
    model_x = ratio ** (-s)
    fluct_x = math.sqrt(cfg.k) * (sample.values[i - 1] / x_k - model_x)
    xs = model_x + fluct_x
    me_vals = me_all[i - 2]
    normalizers = {"x_k": float(x_k), "x_1": float(x_1), "xi": s}
    model_y = s / (1.0 - s) * model_x
    if regime == LT_HALF:
        ys = model_y + math.sqrt(cfg.k) * (me_vals / x_k - model_y)
        kind = ME_NORMALIZED_LT_HALF
    else:
        scale = cfg.k * x_k / x_1
        ys = model_y + scale * (me_vals / x_k - model_y)
        kind = ME_NORMALIZED_GT_HALF
        normalizers["vertical_scale"] = float(scale)
    return PlotSet(np.column_stack([xs, ys]), kind, normalizers=normalizers, indices=i)


# ---------------------------------------------------------------------------
# distance to the limit
# ---------------------------------------------------------------------------

def hausdorff_to_limit(plot: PlotSet, limit: LimitSet, segment_points: int = 1000) -> float:
    """Hausdorff distance between the plot and its limit segment.

    The segment is the limit line restricted to the plot's x-range (the
    limit window must cover that range).  One direction is exact
    point-to-segment distance; the other discretizes the segment into
    `segment_points` points, adding an error of at most the discretization
    step times the slope factor.
    """
    pts = plot.points
    x_lo, x_hi = float(pts[:, 0].min()), float(pts[:, 0].max())
    w_lo, w_hi = limit.window
    tol = 1e-9 * max(1.0, abs(x_hi))
    if x_lo < w_lo - tol or x_hi > w_hi + tol:
        raise WindowMismatch(
            f"plot x-range [{x_lo:.6g}, {x_hi:.6g}] outside limit window [{w_lo:.6g}, {w_hi:.6g}]"
        )
    if x_hi - x_lo <= 0:
        x_hi = x_lo + max(1e-12, abs(x_lo) * 1e-12)
    s = limit.slope
    # distance from each plot point to the segment {(x, s x): x in [x_lo, x_hi]}
    proj = (pts[:, 0] + s * pts[:, 1]) / (1.0 + s * s)
    proj = np.clip(proj, x_lo, x_hi)
    d_points = np.hypot(pts[:, 0] - proj, pts[:, 1] - s * proj)
    # distance from a dense sampling of the segment to the point set
    seg_x = np.linspace(x_lo, x_hi, segment_points)
    seg = np.column_stack([seg_x, s * seg_x])
    d_seg = np.empty(segment_points)
    chunk = max(1, 2_000_000 // max(1, len(plot)))
    for start in range(0, segment_points, chunk):
        block = seg[start : start + chunk]
        dx = block[:, None, 0] - pts[None, :, 0]
        dy = block[:, None, 1] - pts[None, :, 1]
        d_seg[start : start + chunk] = np.sqrt(dx * dx + dy * dy).min(axis=1)
    return float(max(d_points.max(), d_seg.max()))
