"""Confidence bands around the truncated QQ and ME plots.

Band recipes by regime:

* QQ (any xi > 0): each plotted point gets the vertical interval
  +- xi_hat * c / sqrt(k), where c is the (1 - alpha/2)-quantile of
  sup_{t >= delta} |W(t)|/t with delta = eps/(1-eps), evaluated from the
  closed-form series.  The xi_hat factor carries the scale of the limit
  fluctuation xi B(t)/t.
* ME with xi_hat < 1/2: per-point rectangles with horizontal half-width
  c / sqrt(k) and vertical half-width d / sqrt(k); c and d are Monte Carlo
  quantiles of the two bridge functionals.
* ME with 1/2 < xi_hat < 1: the horizontal half-width is unchanged, while
  the vertical interval at the point y_j with order-statistic index j is
  [y_j - s_j q_hi, y_j - s_j q_lo], with s_j = X_(1) / (j X_(k)) and q_lo,
  q_hi the alpha/2 and 1 - alpha/2 quantiles of the sum-over-max law S.
  The fluctuation is y_j - m_j = s_j S around the model point m_j, so the
  interval is the law's equal-tailed interval reflected through the point:
  it contains m_j exactly when q_lo <= S <= q_hi.  It is asymmetric, and
  reaches further above the point than below it (the law is skewed left).

xi_hat in [0.48, 0.52] is refused (the boundary case has no usable limit),
and xi_hat >= 1 is refused (the mean excess has no meaningful band).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import OrderedSample, hill_estimate
from .distributions import (
    SUM_OVER_MAX,
    GpdParams,
    StableSpec,
    limit_quantile,
    sample_gpd,
    sample_pareto,
)
from .errors import DomainError, MeanDoesNotExist, RegimeBoundary, UntabulatedShape
from .limitsim import (
    DEFAULT_GRID,
    DEFAULT_PATHS,
    QuantileEstimate,
    batch_quantile_std_error,
    bridge_functional_samples,
    check_bridge_resolution,
    qq_sup_quantile,
)
from .plotsets import ME, QQ, PlotConfig, PlotSet, me_set, qq_set
from .rng import RngStream

REGIME_QQ = "qq"
REGIME_ME_LT_HALF = "me-lt-half"
REGIME_ME_GT_HALF = "me-gt-half"

_BOUNDARY_LO = 0.48
_BOUNDARY_HI = 0.52


@dataclass(frozen=True)
class ConfidenceBand:
    """Per-point offset rectangles around a base plot."""

    base: PlotSet
    dx_lo: np.ndarray
    dx_hi: np.ndarray
    dy_lo: np.ndarray
    dy_hi: np.ndarray
    level: float
    regime: str
    quantiles_used: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.base)
        for name in ("dx_lo", "dx_hi", "dy_lo", "dy_hi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DomainError(f"{name} must have one offset per point")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(self.dy_lo < self.dy_hi):
            raise DomainError("vertical offsets must satisfy dy_lo < dy_hi")
        if not np.all(self.dx_lo <= self.dx_hi):
            raise DomainError("horizontal offsets must satisfy dx_lo <= dx_hi")
        if not (0.0 < self.level < 1.0):
            raise DomainError(f"level must lie in (0,1), got {self.level}")
        if self.regime not in (REGIME_QQ, REGIME_ME_LT_HALF, REGIME_ME_GT_HALF):
            raise DomainError(f"unknown regime {self.regime!r}")

    def rectangles(self, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Absolute (xlo, xhi, ylo, yhi) corners of each point's rectangle,
        or of the points in the slice rows."""
        x, y = self.base.x[rows], self.base.y[rows]
        return x + self.dx_lo[rows], x + self.dx_hi[rows], y + self.dy_lo[rows], y + self.dy_hi[rows]

    def contains_line(self, slope: float, model_x: np.ndarray | None = None) -> bool:
        """Whether the line y = slope*x lies inside the band.

        Checked at the per-point model positions: for each banded point, the
        line's point at model_x (the plotted x itself when model_x is None)
        must fall inside that point's rectangle.  This is exactly the event
        whose asymptotic probability the band level calibrates.
        """
        xlo, xhi, ylo, yhi = self.rectangles()
        mx = self.base.x if model_x is None else np.asarray(model_x, dtype=float)
        my = slope * mx
        return bool(np.all((xlo <= mx) & (mx <= xhi) & (ylo <= my) & (my <= yhi)))


def qq_band(plot: PlotSet, cfg: PlotConfig, xi: float) -> ConfidenceBand:
    """(1 - alpha) confidence band around the truncated QQ plot `plot`."""
    if not (xi > 0):
        raise DomainError(f"QQ band needs xi > 0, got {xi}")
    c = qq_sup_quantile(1.0 - cfg.alpha / 2.0, cfg.eps)
    half = xi * c.value / math.sqrt(cfg.k)
    if not math.isfinite(half):
        raise DomainError(f"xi={xi:g} is too large: the band half-width xi * c / sqrt(k) overflows")
    zeros = np.zeros(len(plot))
    return ConfidenceBand(
        base=plot,
        dx_lo=zeros,
        dx_hi=zeros,
        dy_lo=zeros - half,
        dy_hi=zeros + half,
        level=1.0 - cfg.alpha,
        regime=REGIME_QQ,
        quantiles_used={"c": c, "xi_hat": xi},
    )


def _refuse_me_shape(s: float) -> None:
    """Raise for the shapes that have no ME band."""
    if s <= 0:
        raise DomainError(f"ME band needs xi > 0, got {s}")
    if s >= 1:
        raise MeanDoesNotExist("no ME band for xi>=1")
    if _BOUNDARY_LO <= s <= _BOUNDARY_HI:
        raise RegimeBoundary(
            f"xi_hat={s:.4f} inside [{_BOUNDARY_LO}, {_BOUNDARY_HI}]: boundary case has no band"
        )


def me_band(
    sample: OrderedSample,
    plot: PlotSet,
    cfg: PlotConfig,
    xi: float,
    bridge_quantiles: tuple[QuantileEstimate, QuantileEstimate | None],
    tilde: list[QuantileEstimate] | None = None,
) -> ConfidenceBand:
    """(1 - alpha) confidence band around `plot`, the truncated ME plot of sample.

    bridge_quantiles is the (c, d) pair of bridge-functional quantiles at
    level 1 - alpha/2, as limitsim.bridge_quantiles returns it.  Regime
    selection by the supplied shape: xi < 1/2 uses symmetric c/d
    rectangles; 1/2 < xi < 1 uses c for the horizontal half-width (d may
    be None) and the skewed sum-over-max quantiles tilde, at levels
    alpha/2 and 1 - alpha/2, scaled per point (build_bands finds those of
    all its bands in one search).
    """
    _refuse_me_shape(xi)
    sqrt_k = math.sqrt(cfg.k)
    level = 1.0 - cfg.alpha
    c, d = bridge_quantiles
    half_x = np.full(len(plot), c.value / sqrt_k)
    if xi < 0.5:
        half_y = np.full(len(plot), d.value / sqrt_k)
        return ConfidenceBand(
            base=plot,
            dx_lo=-half_x,
            dx_hi=half_x,
            dy_lo=-half_y,
            dy_hi=half_y,
            level=level,
            regime=REGIME_ME_LT_HALF,
            quantiles_used={"c": c, "d": d, "xi_hat": xi},
        )
    # heavy regime: 1/2 < xi_hat < 1
    if level >= 0.99:
        warnings.warn(
            "confidence bands above 99% are extremely wide in the infinite-variance regime",
            stacklevel=2,
        )
    q_lo, q_hi = tilde
    if not (q_lo.value < q_hi.value):
        raise DomainError("sum-over-max quantiles must be ordered")
    x_1 = sample.values[0]
    x_k = sample.values[cfg.k - 1]
    j = plot.indices.astype(float)
    scale = x_1 / (j * x_k)
    return ConfidenceBand(
        base=plot,
        dx_lo=-half_x,
        dx_hi=half_x,
        dy_lo=-scale * q_hi.value,
        dy_hi=-scale * q_lo.value,
        level=level,
        regime=REGIME_ME_GT_HALF,
        quantiles_used={"c": c, "tilde_lo": q_lo, "tilde_hi": q_hi, "xi_hat": xi},
    )


def build_bands(
    sample: OrderedSample,
    plot: PlotSet,
    cfg: PlotConfig,
    xi: float,
    alphas,
    bridge,
) -> list[ConfidenceBand]:
    """One band around plot, the QQ or ME plot of sample, per miss
    probability in alphas (cfg.alpha is not used); every band shares plot.

    An ME band's shape is checked first.  In the heavy regime one
    limit_quantile search then finds the sum-over-max quantiles of every
    band, so a level it cannot resolve is refused before any path is drawn.
    bridge(levels) then returns the (c, d) pair at each level 1 - alpha/2.
    """
    band_cfgs = [PlotConfig(cfg.k, cfg.eps, a) for a in alphas]
    if plot.kind == QQ:
        return [qq_band(plot, band_cfg, xi) for band_cfg in band_cfgs]
    _refuse_me_shape(xi)
    tildes = [None] * len(band_cfgs)
    if xi > 0.5:
        spec = StableSpec(alpha=1.0 / xi, skew=1.0, kind=SUM_OVER_MAX)
        found = limit_quantile(spec, [p for a in alphas for p in (a / 2.0, 1.0 - a / 2.0)])
        tildes = [found[2 * i : 2 * i + 2] for i in range(len(band_cfgs))]
    quantiles = bridge([1.0 - band_cfg.alpha / 2.0 for band_cfg in band_cfgs])
    return [
        me_band(sample, plot, band_cfg, xi, q, tilde)
        for band_cfg, q, tilde in zip(band_cfgs, quantiles, tildes)
    ]


# ---------------------------------------------------------------------------
# coverage experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageDistribution:
    """A simulation law with known shape, for coverage studies."""

    name: str                      # "pareto" | "gpd"
    xi: float
    beta: float = 1.0

    def __post_init__(self):
        if self.name not in ("pareto", "gpd"):
            raise DomainError(f"unsupported coverage distribution {self.name!r}")
        if not (self.xi > 0):
            raise DomainError("coverage study needs xi > 0")

    def sample(self, n: int, rng: RngStream) -> OrderedSample:
        if self.name == "pareto":
            return sample_pareto(self.xi, n, rng)
        return sample_gpd(GpdParams(self.xi, self.beta), n, rng)


def _pchip(x: np.ndarray, y: np.ndarray, at: float) -> float:
    """The monotone cubic through the knots (x, y), x ascending, at
    x[0] <= at <= x[-1]: bit for bit scipy's PchipInterpolator(x, y)(at).
    Inner knot slopes are weighted harmonic means of the secants (0 where
    these differ in sign or vanish), end slopes three-point estimates kept
    monotone."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(len(x), m[0])  # two knots: the line through them
    if len(x) > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(inner, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, e))
    i = min(int(np.searchsorted(x, at, side="right")) - 1, len(x) - 2)
    t = (d[i] + d[i + 1] - 2 * m[i]) / h[i]
    s = at - x[i]  # PPoly's power sum, lowest power first
    return float(y[i] + d[i] * s + ((m[i] - d[i]) / h[i] - t) * (s * s) + t / h[i] * (s * s * s))


@dataclass(frozen=True)
class BandQuantileTable:
    """Bridge-functional quantiles tabulated on a shape grid.

    Coverage experiments re-estimate xi in every replication; recomputing
    10^4 bridge paths per replication is wasteful, so the quantiles are
    tabulated once on a grid of shapes (one shared path set) and read off by
    monotone cubic interpolation.  Interpolation error is far below the
    Monte Carlo error of the quantiles themselves.
    """

    xis: np.ndarray
    c_values: np.ndarray
    d_values: np.ndarray
    level: float
    eps: float
    n_paths: int
    grid_m: int
    c_err: float
    d_err: float

    @classmethod
    def build(
        cls,
        xi_grid,
        eps: float,
        level: float,
        rng: RngStream,
        n_paths: int = DEFAULT_PATHS,
        grid_m: int = DEFAULT_GRID,
        threads: int = 1,
    ) -> "BandQuantileTable":
        check_bridge_resolution(eps, n_paths, grid_m, integral=True)
        xis = np.asarray(sorted(float(x) for x in xi_grid))
        c_samples, d_samples = bridge_functional_samples(
            xis, eps, n_paths, grid_m, rng, include_integral=True, threads=threads
        )
        c_values = np.quantile(c_samples, level, axis=1)
        d_values = np.quantile(d_samples, level, axis=1)
        mid = len(xis) // 2
        return cls(
            xis=xis,
            c_values=c_values,
            d_values=d_values,
            level=level,
            eps=eps,
            n_paths=n_paths,
            grid_m=grid_m,
            c_err=batch_quantile_std_error(c_samples[mid], level),
            d_err=batch_quantile_std_error(d_samples[mid], level),
        )

    def lookup(self, xi: float) -> tuple[QuantileEstimate, QuantileEstimate]:
        if not (self.xis[0] <= xi <= self.xis[-1]):
            raise UntabulatedShape(f"xi={xi:.4f} outside tabulated range [{self.xis[0]}, {self.xis[-1]}]")
        c = _pchip(self.xis, self.c_values, xi)
        d = _pchip(self.xis, self.d_values, xi)
        mk = lambda v, err: QuantileEstimate(
            value=v,
            level=self.level,
            source="monte-carlo",
            std_error=max(err, 1e-12),
            n_paths=self.n_paths,
            grid_m=self.grid_m,
        )
        return mk(c, self.c_err), mk(d, self.d_err)


# What a replication refuses instead of drawing its band: an estimated shape
# that the quantile table does not cover, that sits on the regime boundary,
# or at which the mean does not exist.
_REFUSALS = (UntabulatedShape, RegimeBoundary, MeanDoesNotExist)


@dataclass(frozen=True)
class CoverageResult:
    """Whether each replication's band held the line.  A replication whose
    estimated shape has no band is a miss, and `refusals` names it:
    (replication, reason), the reason being the refusal's class name."""

    hits: tuple[bool, ...]
    replications: int
    refusals: tuple[tuple[int, str], ...]

    @property
    def coverage(self) -> float:
        return sum(self.hits) / self.replications


def coverage_experiment(
    dist: CoverageDistribution,
    n: int,
    cfg: PlotConfig,
    replications: int,
    rng: RngStream,
    plot: str = QQ,
    n_paths: int = DEFAULT_PATHS,
    grid_m: int = DEFAULT_GRID,
    threads: int = 1,
) -> CoverageResult:
    """Frequency with which the band contains the true limit line.

    Each replication draws a fresh sample, estimates xi by Hill at the
    plot's k (the width a practitioner would use), builds the band, and
    checks containment of the line whose slope uses the TRUE xi, evaluated
    at the per-index model positions.  For ME plots the band quantiles are
    read from a shape-grid table built once from a dedicated stream.  A
    replication whose Hill estimate has no band (see _REFUSALS) counts as a
    miss and is recorded in the result's refusals.
    """
    if plot not in (QQ, ME):
        raise DomainError(f"coverage plot must be 'qq' or 'me', got {plot!r}")
    if replications < 1:
        raise DomainError(f"need at least 1 replication, got {replications}")
    # allocated first, so that a count too large for memory fails before any work
    hits = np.empty(replications, dtype=bool)
    table = None
    if plot == ME:
        if not (0 < dist.xi < 0.5):
            raise DomainError("ME coverage experiment supports the xi < 1/2 regime")
        span = max(0.12, 12.0 * dist.xi / math.sqrt(cfg.k))
        lo = max(0.02, dist.xi - span)
        hi = min(0.47, dist.xi + span)
        xi_grid = np.linspace(lo, hi, 41)
        table = BandQuantileTable.build(
            xi_grid,
            cfg.eps,
            1.0 - cfg.alpha / 2.0,
            rng.child(replications),  # reps use children 0..replications-1
            n_paths=n_paths,
            grid_m=grid_m,
            threads=threads,
        )
    slope = dist.xi if plot == QQ else dist.xi / (1.0 - dist.xi)
    refusals = []
    for rep in range(replications):
        rep_rng = rng.child(rep)
        sample = dist.sample(n, rep_rng)
        xi_hat = hill_estimate(sample, cfg.k).xi
        base = qq_set(sample, cfg) if plot == QQ else me_set(sample, cfg)
        try:
            [band] = build_bands(sample, base, cfg, xi_hat, [cfg.alpha], lambda _: [table.lookup(xi_hat)])
        except _REFUSALS as refusal:
            hits[rep] = False
            refusals.append((rep, type(refusal).__name__))
            continue
        model_x = None if plot == QQ else (base.indices / cfg.k) ** (-dist.xi)
        hits[rep] = band.contains_line(slope, model_x=model_x)
    return CoverageResult(hits=tuple(hits.tolist()), replications=replications, refusals=tuple(refusals))
