"""Limit-process machinery: boundary-crossing series, a first-passage solve
and Monte Carlo quantiles of the Brownian-bridge functionals that size the
confidence bands.

Two closed forms do the analytic work:

* cone_exit_probability: P(sup_{t >= delta} |W(t)|/t > M) for a standard
  Brownian motion, as a series of Gaussian-cdf differences (the image
  series) or, for small M*sqrt(delta), as its dual theta series, so that 15
  terms are exact to double precision at every M*sqrt(delta).  Two index
  conventions of the image series circulate; the shipped default is the one
  that matches both the classical reflection formula (after time inversion)
  and direct simulation.  The other is kept behind the `form` flag.
* doob_band_probability: P(-(alpha t + beta) <= W(t) <= a t + b for all
  t >= 0), Doob's two-linear-boundary formula.

No band uses doob_band_probability (checked by the acceptance gate),
reflection_exit_probability or mc_cone_exit_probability: the last two are
the independent oracles, the classical reflection series and a corrected
simulation, that the tests check cone_exit_probability against.

The Gaussian cdf in the series is `_ndtr`, 0.5 * erfc(-x/sqrt 2) from the
standard library's math.erfc, and `qq_sup_quantile` inverts the series by
plain bisection (`bisect`, which also inverts the Gil-Pelaez CDF), so the
QQ band never loads scipy.

bridge_c_quantiles solves the c-functional's quantiles without paths, as
the first passage of a Brownian motion over a curved boundary (Fortet's
equation); its normal tail `_normal_sf` is a rational approximation in
whole-array numpy steps, since the solve needs some 10^5 values at a time.

Everything Monte Carlo is driven by RngStream batches so results are
reproducible bit-for-bit at any worker count.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError, RegimeMismatch
from .parallel import batch_sizes, run_batches
from .rng import RngStream

SERIES_FORM_DEFAULT = "4k-1"   # leading Phi offsets of the validated series
SERIES_FORM_ALTERNATE = "4k+1"
# x = M*sqrt(delta) below which the default form sums the dual series.  Set by
# convergence alone: at 15 terms both series are exact to double precision on
# [0.14, 3], while the image sum's tail exceeds 1e-6 below x ~ 0.0802.
DUAL_SERIES_CROSSOVER = 0.5

DEFAULT_PATHS = 10_000
DEFAULT_GRID = 8192

_SQRT1_2 = math.sqrt(0.5)


def _ndtr(x) -> np.ndarray:
    """Standard normal cdf at each element of x, as 0.5 * erfc(-x/sqrt 2).

    It agrees with scipy.special.ndtr to 3 ulp for x >= -1, which covers
    every term of the image series; further into the lower tail both lose
    relative accuracy to the rounding of x/sqrt 2.
    """
    return np.array([0.5 * math.erfc(-v * _SQRT1_2) for v in np.ravel(x).tolist()])


def type7_quantile(samples, level: float, axis: int = -1):
    """np.quantile(samples, level, axis=axis) for a float level, bit for bit:
    the type-7 (linear) quantile, partitioned at the same order statistics
    and interpolated by the same lerp.  np.quantile sorts its partition
    points with np.unique, whose masked-array check loads numpy.ma."""
    a = np.array(samples, dtype=float)
    n = a.shape[axis]
    virtual = (n - 1) * level
    lo = hi = -1  # the largest draw, where the level reaches it
    if virtual < n - 1:
        lo = math.floor(virtual)
        hi = lo + 1
    a.partition(sorted({-1, 0, lo, hi}), axis=axis)
    below, above, last = (np.take(a, i, axis=axis) for i in (lo, hi, -1))
    gamma = virtual - lo  # past the last index as well, as in np.quantile
    diff = above - below
    result = above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma
    return np.where(np.isnan(last), last, result)  # a NaN draw makes the quantile NaN


@dataclass(frozen=True)
class QuantileEstimate:
    """A quantile value with its provenance and error estimate."""

    value: float
    level: float
    # "series" (exact), "monte-carlo" (std_error from path batches), or a
    # numerical solve whose std_error is its error bound: "cf-inversion"
    # (the sum-over-max law) and "first-passage" (bridge_c_quantiles)
    source: str
    std_error: float = 0.0
    n_paths: int = 0
    grid_m: int = 0

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise DomainError(f"level must lie in (0,1), got {self.level}")
        if self.source not in ("series", "monte-carlo", "cf-inversion", "first-passage"):
            raise DomainError(f"unknown source {self.source!r}")
        if self.source == "series" and self.std_error != 0.0:
            raise DomainError("series quantiles are exact; std_error must be 0")
        if self.source != "series" and not (self.std_error > 0.0):
            raise DomainError("stochastic/numerical quantiles need std_error > 0")

    @classmethod
    def from_samples(cls, samples, level: float, grid_m: int = 0) -> "QuantileEstimate":
        """Type-7 empirical level-quantile of Monte Carlo draws, with its
        10-batch standard error; n_paths is the number of draws.  Fewer than
        5 draws expected beyond the level get a warning: the quantile is
        then little more than the most extreme draw."""
        samples = np.asarray(samples, dtype=float)
        beyond = min(level, 1.0 - level) * samples.size
        if beyond < 5:
            warnings.warn(
                f"the level-{level:g} quantile of {samples.size} draws rests on {beyond:.3g} draws beyond it; "
                "raise the path count for a meaningful value",
                stacklevel=2,
            )
        return cls(
            value=float(type7_quantile(samples, level)),
            level=level,
            source="monte-carlo",
            std_error=batch_quantile_std_error(samples, level),
            n_paths=samples.size,
            grid_m=grid_m,
        )

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "level": self.level,
            "source": self.source,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "grid_m": self.grid_m,
        }


def batch_quantile_std_error(samples: np.ndarray, level: float, n_batches: int = 10) -> float:
    """Standard error of an empirical quantile by the batch-means method."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < n_batches * 2:
        raise DomainError("too few samples for batch-means error")
    usable = n - n % n_batches
    parts = samples[:usable].reshape(n_batches, -1)
    qs = type7_quantile(parts, level, axis=1)
    return float(np.std(qs, ddof=1) / math.sqrt(n_batches))


# ---------------------------------------------------------------------------
# closed-form boundary-crossing probabilities
# ---------------------------------------------------------------------------

def _image_series(x: float, terms: int, form: str) -> float:
    """Partial image (reflection) sum of the cone-exit probability, unclipped."""
    k = np.arange(1, terms + 1, dtype=float)
    if form == SERIES_FORM_DEFAULT:
        return 4.0 * float(np.sum(_ndtr((4 * k - 1) * x) - _ndtr((4 * k - 3) * x)))
    if form == SERIES_FORM_ALTERNATE:
        return 4.0 * float(np.sum(_ndtr((4 * k + 1) * x) - _ndtr((4 * k - 1) * x)))
    raise DomainError(f"unknown series form {form!r}")


def _dual_series(x: float, terms: int) -> float:
    """Partial dual (Jacobi theta) sum of the default-form probability, unclipped."""
    j = np.arange(terms, dtype=float)
    odd = 2 * j + 1
    stay = np.sum((-1.0) ** j / odd * np.exp(-((odd * math.pi / x) ** 2) / 8))
    return 1.0 - 4.0 / math.pi * float(stay)


def cone_exit_probability(
    slope: float, delta: float, terms: int = 15, form: str = SERIES_FORM_DEFAULT
) -> float:
    """P(sup_{t >= delta} |W(t)|/t > slope) for standard Brownian motion.

    Series in x = slope * sqrt(delta); `terms` is the number of terms summed
    on every branch.

    * Image series: the default form sums 4 * [Phi((4k-1)x) - Phi((4k-3)x)],
      k = 1..terms; the alternate "4k+1" form sums
      4 * [Phi((4k+1)x) - Phi((4k-1)x)].  Only the default reproduces the
      reflection-formula value of the time-inverted two-sided exit problem
      (see reflection_exit_probability), which is why it ships as default.
      Its truncation error is about 2*(1 - Phi((4*terms+1)x)): below 1e-6
      only for x >= ~0.0802 at terms = 15.
    * Dual series, the Fourier/Jacobi-theta form of the same two-sided exit
      law: 1 - (4/pi) * sum_{j<terms} (-1)^j/(2j+1) * exp(-(2j+1)^2 pi^2/(8x^2)).
      Its truncation error is about (4/pi)/(2*terms+1) *
      exp(-(2*terms+1)^2 pi^2/(8x^2)), which at terms = 15 is below double
      precision for every x <= 3.

    The default form sums the dual series for x < DUAL_SERIES_CROSSOVER (0.5)
    and the image series from there on; at the crossover both are exact to
    double precision, so the value has no jump there.  The alternate form has
    no dual and is the image sum at every x.
    """
    if not (slope > 0 and delta > 0):
        raise DomainError("slope and delta must be positive")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    x = slope * math.sqrt(delta)
    if form == SERIES_FORM_DEFAULT and x < DUAL_SERIES_CROSSOVER:
        total = _dual_series(x, terms)
    else:
        total = _image_series(x, terms, form)
    return min(1.0, max(0.0, total))


def reflection_exit_probability(slope: float, delta: float, terms: int = 200) -> float:
    """Same probability through time inversion and the reflection series.

    sup_{t>=delta}|W(t)|/t equals in law sup_{s<=1/delta}|W~(s)|, whose
    distribution is the classical alternating image series.  Used as an
    independent deterministic oracle for cone_exit_probability.
    """
    if not (slope > 0 and delta > 0):
        raise DomainError("slope and delta must be positive")
    x = slope * math.sqrt(delta)
    j = np.arange(-terms, terms + 1, dtype=float)
    stay = np.sum((-1.0) ** j * (_ndtr((2 * j + 1) * x) - _ndtr((2 * j - 1) * x)))
    return min(1.0, max(0.0, 1.0 - float(stay)))


def doob_band_probability(
    a: float, b: float, alpha: float, beta: float, terms: int = 15
) -> float:
    """P(-(alpha t + beta) <= W(t) <= a t + b for all t >= 0).

    Doob's formula: 1 - sum_k [e^{-2A_k} + e^{-2B_k} - e^{-2C_k} - e^{-2D_k}]
    with the quadratic-in-k exponents below.  Symmetric under swapping
    (a, b) <-> (alpha, beta); with alpha, beta -> inf it collapses to the
    one-sided linear boundary value 1 - e^{-2ab}.
    """
    if a < 0 or alpha < 0:
        raise DomainError("slopes a, alpha must be >= 0")
    if b <= 0 or beta <= 0:
        raise DomainError("intercepts b, beta must be > 0")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    k = np.arange(1, terms + 1, dtype=float)
    ab, albe = a * b, alpha * beta
    cross = a * beta + b * alpha
    a_k = k**2 * ab + (k - 1) ** 2 * albe + k * (k - 1) * cross
    b_k = (k - 1) ** 2 * ab + k**2 * albe + k * (k - 1) * cross
    c_k = k**2 * (ab + albe) + k * (k - 1) * a * beta + k * (k + 1) * b * alpha
    d_k = k**2 * (ab + albe) + k * (k + 1) * a * beta + k * (k - 1) * b * alpha
    total = np.exp(-2 * a_k) + np.exp(-2 * b_k) - np.exp(-2 * c_k) - np.exp(-2 * d_k)
    return min(1.0, max(0.0, 1.0 - float(np.sum(total))))


def bisect(root_is_above, lo, hi, xtol: float):
    """Bisection of the brackets [lo, hi], each a float or an array of them.

    Halves each bracket, keeping the upper half where root_is_above holds at
    its midpoint and the lower half otherwise, until it is at most xtol wide,
    and returns its midpoint; a NaN bracket stays NaN.  Every step calls
    root_is_above(mid, i) once, with the midpoints mid of the brackets still
    wider than xtol and their indices i, so a bracket's steps are the same
    whichever others share them.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    while True:
        i = np.flatnonzero(hi - lo > xtol)
        if not i.size:
            break
        mid = 0.5 * (lo[i] + hi[i])
        above = np.asarray(root_is_above(mid, i), dtype=bool)
        lo[i[above]] = mid[above]
        hi[i[~above]] = mid[~above]
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=64)
def qq_sup_quantile(level: float, eps: float) -> QuantileEstimate:
    """level-quantile of sup_{t >= delta} |W(t)|/t with delta = eps/(1-eps).

    A pure function of (level, eps) with a frozen result, so it is cached:
    a coverage run asks for the same quantile once per replication.

    Solves cone_exit_probability(M, delta) = 1 - level by bisection
    in x = M*sqrt(delta), which halves the bracket until it is at most
    xtol = 1e-13 wide and returns its midpoint; the returned M satisfies
    |P(sup > M) - (1-level)| <= 1e-8.
    The bracket starts at M*sqrt(delta) = 0.085, which covers every level
    >= 0.001; more extreme lower-tail levels are refused.  The series is
    accurate below that point too (it sums the dual series there); the
    bracket and the refusal are kept so that the supported levels stay the
    same.
    """
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0,1), got {level}")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    delta = eps / (1.0 - eps)
    target = 1.0 - level
    sqrt_d = math.sqrt(delta)

    def prob_at_x(x: float) -> float:
        return cone_exit_probability(x / sqrt_d, delta)

    x_lo = 0.085
    if prob_at_x(x_lo) < target:
        raise ConvergenceFailure(f"level {level} too extreme for the 15-term series")
    x_hi = 0.5
    for _ in range(80):
        if prob_at_x(x_hi) < target:
            break
        x_hi *= 2.0
    else:
        raise ConvergenceFailure("failed to bracket the quantile")
    # The exit probability falls as x grows: prob_at_x(lo) >= target > prob_at_x(hi).
    x_star = float(bisect(lambda mid, _: [prob_at_x(x) >= target for x in mid.tolist()], x_lo, x_hi, 1e-13)[0])
    if abs(prob_at_x(x_star) - target) > 1e-8:
        raise ConvergenceFailure("root-find did not reach probability tolerance")
    return QuantileEstimate(value=x_star / sqrt_d, level=level, source="series")


# ---------------------------------------------------------------------------
# Brownian-bridge band functionals
# ---------------------------------------------------------------------------

# Rows drawn and transformed together inside a batch: a few (16, m) buffers
# stay in cache and replace the full-batch temporaries.
_BLOCK_ROWS = 16


def _window_start(eps: float, m: int) -> int:
    """Index of the first grid column t_j = (j + 1)/m with t_j >= eps: the
    window t >= eps is the suffix of columns from there on.

    The index is found without building the grid: ceil(v m) - 1 is at most a
    rounding step off, and the same float comparisons a binary search over
    np.arange(1, m + 1) / m makes settle it, so check_bridge_resolution
    costs no memory at any m."""
    v = eps - 1e-12
    j = min(max(math.ceil(v * m) - 1, 0), m)
    while j > 0 and j / m >= v:
        j -= 1
    while j < m and (j + 1) / m < v:
        j += 1
    return j


def check_bridge_resolution(eps: float, n_paths: int, m: int, integral: bool) -> None:
    """Refuse a bridge path set too coarse for its quantiles to mean anything.

    eps must lie in (0, 1), its window [eps, 1] must hold at least two of
    the m grid columns, and the d-functional (integral=True) needs at least
    1000 paths and grid points.  A grid whose per-thread path buffers would
    not fit in the machine's physical memory is refused by name, before
    anything is allocated.  Every caller that reads quantiles off bridge paths checks this
    first; bridge_functional_samples itself does not, so that tests may
    draw small path sets.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    if integral and n_paths < 1000:
        raise DomainError(f"the d-functional needs at least 1000 paths, got {n_paths}")
    if integral and m < 1000:
        raise DomainError(f"the d-functional needs grid size m >= 1000, got {m}")
    columns = max(0, m - _window_start(eps, m))
    if columns < 2:
        raise DomainError(
            f"the window [eps, 1] with eps={eps} holds {columns} of the grid={m} columns; "
            "need at least 2: lower eps or raise grid"
        )
    # what one _bridge_functional_worker holds: its row buffers, t and a weight row
    need = ((2 + integral) * min(_BLOCK_ROWS, n_paths) + 2) * m * 8
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return  # the platform cannot tell its memory size
    if pages > 0 and page_size > 0 and need > pages * page_size:
        raise DomainError(
            f"--grid {m} needs {need} bytes per thread, more than the {pages * page_size} bytes of physical memory"
        )


def _bridge_functional_worker(args) -> tuple[np.ndarray, np.ndarray | None]:
    """c (and d) samples of one batch, in row blocks of _BLOCK_ROWS paths.

    The generator fills each block in C order, so the blocks draw the same
    numbers as one (size, m) call, and every value is computed by the same
    floating-point operations in the same order as on a whole batch.  The
    window t >= eps is the suffix of columns j >= j0 because t increases.
    """
    seed, stream_id, batch_index, size, xi_values, eps, m, include_integral = args
    g = RngStream(seed, stream_id).child(batch_index).generator()
    t = np.arange(1, m + 1) / m
    j0 = _window_start(eps, m)
    weights = [t ** (-(1.0 + xi)) for xi in xi_values]
    scale = math.sqrt(1.0 / m)
    rows = min(_BLOCK_ROWS, size)
    z_buf = np.empty((rows, m))
    f_buf = np.empty((rows, m))
    cs_buf = np.empty((rows, m)) if include_integral else None
    # the bridge and f are formed from column 0 on only where the running
    # integral needs them; the c-functional reads the window alone
    first = 0 if include_integral else j0
    c_part = np.empty((len(xi_values), size))
    d_part = np.empty((len(xi_values), size)) if include_integral else None
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        z, f = z_buf[: hi - lo], f_buf[: hi - lo]
        g.standard_normal(out=z)
        z *= scale
        np.cumsum(z, axis=1, out=z)
        b_cols, f_cols = z[:, first:], f[:, first:]
        np.multiply(t[first:], z[:, -1:], out=f_cols)
        np.subtract(b_cols, f_cols, out=b_cols)  # bridge b = W - t W(1)
        z[:, -1] = 0.0
        for row, (xi, w) in enumerate(zip(xi_values, weights)):
            np.multiply(b_cols, w[first:], out=f_cols)
            np.max(f[:, j0:], axis=1, out=c_part[row, lo:hi])
            c_part[row, lo:hi] *= xi
            if include_integral:
                # trapezoid from y = 1/m: I_j = (sum_{l<=j} f_l - f_1/2 - f_j/2)/m
                cs = cs_buf[: hi - lo]
                np.cumsum(f, axis=1, out=cs)
                fw, cw = f[:, j0:], cs[:, j0:]
                np.add(fw, f[:, :1], out=fw)
                fw *= 0.5
                np.subtract(cw, fw, out=cw)
                cw /= m
                cw /= t[j0:]
                np.max(cw, axis=1, out=d_part[row, lo:hi])
                d_part[row, lo:hi] *= xi
    return c_part, d_part


def bridge_functional_samples(
    xi_values,
    eps: float,
    n_paths: int,
    m: int,
    rng: RngStream,
    include_integral: bool = True,
    batch: int = 256,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-path suprema of the band functionals, for each shape value.

    For each simulated bridge B, evaluates over the window t in [eps, 1]:
      c-functional: sup xi t^-(1+xi) B(t)
      d-functional: sup xi t^-1 * integral_0^t y^-(1+xi) B(y) dy
    (signed suprema; the integral is trapezoidal from y = 1/m, whose omitted
    head is O(m^(xi - 1/2)) pathwise for xi < 1/2).  Returns arrays of shape
    (len(xi_values), n_paths); results are independent of `threads`.
    """
    xi_values = tuple(float(x) for x in np.atleast_1d(xi_values))
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    for xi in xi_values:
        if not (0.0 < xi < 1.0):
            raise DomainError(f"shape {xi} outside (0,1)")
        if include_integral and xi >= 0.5:
            raise RegimeMismatch(f"integral functional needs xi < 1/2, got {xi}")
    if m < 2:
        raise DomainError("grid size m must be >= 2")
    sizes = batch_sizes(n_paths, batch)
    args = [
        (rng.seed, rng.stream_id, i, size, xi_values, eps, m, include_integral)
        for i, size in enumerate(sizes)
    ]
    parts = run_batches(_bridge_functional_worker, args, threads)
    c_all = np.concatenate([p[0] for p in parts], axis=1)
    d_all = np.concatenate([p[1] for p in parts], axis=1) if include_integral else None
    return c_all, d_all


def bridge_quantiles(
    xi: float,
    eps: float,
    levels,
    n_paths: int = DEFAULT_PATHS,
    m: int = DEFAULT_GRID,
    rng: RngStream | None = None,
    threads: int = 1,
    integral: bool = True,
) -> list[tuple[QuantileEstimate, QuantileEstimate | None]]:
    """Monte Carlo quantiles (c, d) of the two band functionals, one pair per level.

    All levels are read off one simulated path set.  Each level is the
    quantile probability itself (a band at confidence 1 - a uses
    level = 1 - a/2 for each functional).  The c-functional is valid for any
    0 < xi < 1.  With integral=True the d-functional is estimated as well,
    which needs xi < 1/2; with integral=False d is None.  The path set must
    pass check_bridge_resolution.  Standard errors come from 10 path batches.
    """
    if integral and not (0.0 < xi < 0.5):
        raise RegimeMismatch(f"the d-functional needs 0 < xi < 1/2, got {xi}")
    if not (0.0 < xi < 1.0):
        raise RegimeMismatch(f"the c-functional needs 0 < xi < 1, got {xi}")
    check_bridge_resolution(eps, n_paths, m, integral)
    if rng is None:
        raise DomainError("bridge_quantiles needs an RngStream")
    for level in levels:
        if not (0.0 < level < 1.0):
            raise DomainError(f"level must lie in (0,1), got {level}")
    c_samples, d_samples = bridge_functional_samples(
        [xi], eps, n_paths, m, rng, include_integral=integral, threads=threads
    )
    return [
        (
            QuantileEstimate.from_samples(c_samples[0], level, m),
            QuantileEstimate.from_samples(d_samples[0], level, m) if integral else None,
        )
        for level in levels
    ]


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the cone-exit probability
# ---------------------------------------------------------------------------

def _cone_exit_worker(args) -> np.ndarray:
    seed, stream_id, batch_index, size, grid, delta, slopes, buffers = args
    g = RngStream(seed, stream_id).child(batch_index).generator()
    # each worker thread draws every batch into one buffer of its own: a
    # fresh array per batch paid its page faults again (0.37 s against 0.30 s)
    z = getattr(buffers, "z", None)
    if z is None or len(z) < size:
        z = buffers.z = np.empty((size, grid), dtype=np.float32)
    z = z[:size]
    g.standard_normal(out=z, dtype=np.float32)  # the same draws as a fresh (size, grid) array
    np.cumsum(z, axis=1, out=z)
    mx = z.max(axis=1)
    mn = z.min(axis=1)
    sums = np.zeros(len(slopes))
    for si, slope in enumerate(slopes):
        c = slope * math.sqrt(delta * grid)  # barrier in cumulative-sum units
        exited = (mx >= c) | (mn <= -c)
        p_exit = exited.astype(float)
        near = ~exited & ((mx > c - 4.0) | (mn < -c + 4.0))
        idx = np.nonzero(near)[0]
        if idx.size:
            rows = z[idx].astype(np.float64)
            log_stay = np.zeros(idx.size)
            for sign in (1.0, -1.0):
                gap_a = c - sign * rows[:, :-1]
                gap_b = c - sign * rows[:, 1:]
                expo = -2.0 * gap_a * gap_b
                hit = expo > -30.0
                if hit.any():
                    pj = np.zeros_like(expo)
                    pj[hit] = np.exp(expo[hit])
                    log_stay += np.log1p(-np.clip(pj, 0.0, 1.0 - 1e-15)).sum(axis=1)
            p_exit[idx] = 1.0 - np.exp(log_stay)
        sums[si] = float(p_exit.sum())
    return sums


def mc_cone_exit_probability(
    slopes,
    delta: float,
    paths: int = 1_000_000,
    grid: int = 10_000,
    rng: RngStream | None = None,
    threads: int = 1,
    batch: int = 2048,
) -> np.ndarray:
    """Simulation oracle for cone_exit_probability, shared across slopes.

    Time inversion maps sup_{t>=delta}|W(t)|/t to the running maximum of a
    Brownian motion on [0, 1/delta], simulated on `grid` equal steps.  Each
    path contributes its exact conditional crossing probability
    (Brownian-bridge barrier crossing between grid points), which removes
    the discretization bias of the plain grid maximum and shrinks the
    variance.
    Deterministic for fixed rng at any thread count.
    """
    if rng is None:
        raise DomainError("mc_cone_exit_probability needs an RngStream")
    if not (delta > 0):
        raise DomainError("delta must be positive")
    slopes = tuple(float(s) for s in np.atleast_1d(slopes))
    sizes = batch_sizes(paths, batch)
    buffers = threading.local()  # the workers' draw buffers, freed on return
    args = [
        (rng.seed, rng.stream_id, i, size, grid, delta, slopes, buffers)
        for i, size in enumerate(sizes)
    ]
    parts = run_batches(_cone_exit_worker, args, threads)
    return np.sum(np.stack(parts, axis=0), axis=0) / paths


# ---------------------------------------------------------------------------
# c quantiles without paths: a first-passage solve
# ---------------------------------------------------------------------------

# Hart's (1968) double-precision rational approximation of the normal tail,
# numerator and denominator, highest power first.
_TAIL_NUM = (0.0352624965998911, 0.700383064443688, 6.37396220353165, 33.912866078383,
             112.079291497871, 221.213596169931, 220.206867912376)
_TAIL_DEN = (0.0883883476483184, 1.75566716318264, 16.064177579207, 86.7807322029461,
             296.564248779674, 637.333633378831, 793.826512519948, 440.413735824752)


def _normal_sf(x) -> np.ndarray:
    """P(Z > x) at each element of the array x, for a standard normal Z.

    exp(-x^2/2) P(|x|)/Q(|x|) with Hart's coefficients, reflected for x < 0,
    in whole-array numpy steps.  Its absolute error is below 3e-16 at every
    x, and its relative error below 3e-9 for x < 7 and below 4e-6 for
    x < 37.  The first-passage solve takes about 10^5 values at a time,
    which _ndtr's loop over math.erfc would take 15 ms for.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    num = ax * _TAIL_NUM[0]
    for coef in _TAIL_NUM[1:-1]:
        num += coef
        num *= ax
    num += _TAIL_NUM[-1]
    den = ax * _TAIL_DEN[0]
    for coef in _TAIL_DEN[1:-1]:
        den += coef
        den *= ax
    den += _TAIL_DEN[-1]
    tail = np.square(ax)
    tail *= -0.5
    np.exp(tail, out=tail)
    tail *= num
    tail /= den
    return np.where(x < 0, 1.0 - tail, tail)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    (0, 1).  The nodes are the roots of the Legendre polynomial P_n, found
    by Newton's method on its three-term recurrence."""
    def legendre(x):  # P_n(x) and its derivative
        before, p = np.ones_like(x), x
        for k in range(2, n + 1):
            before, p = p, ((2 * k - 1) * x * p - (k - 1) * before) / k
        return p, n * (x * p - before) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, slope = legendre(x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    slope = legendre(x)[1]
    return (1.0 - x) / 2.0, 1.0 / ((1.0 - x * x) * slope * slope)


_FP_CELLS = 100          # cells of the fine solve; the coarse one has half as many
_FP_OFF_POINTS = 2       # Gauss points in each cell before the collocation point
_FP_DIAG_POINTS = 6      # Gauss points in the collocation point's own cell
_FP_F_TOL = 1e-12        # |log P - log(1 - level)| at a root


class _FirstPassage:
    """P(W(u) >= lam shape(u) for some u in (0, u_end]) at each lam of an
    array, for a standard Brownian motion W from 0 and shape(0) > 0.

    With g = lam shape, Fortet's equation ties the first passage to the
    boundary: P(W(u) >= g(u)) = int_0^u K(u, v) dF(v), with
    K(u, v) = Phi-bar((g(u) - g(v))/sqrt(u - v)) and F the law of the first
    passage.  F puts one mass on each of `cells` equal cells, spread evenly
    over it, and the equation holds at each cell's right end, so the masses
    follow one by one.  K's average over a cell before that end takes 2
    Gauss points; over the end's own cell it takes 6 in r = sqrt((u_end_i
    - v)/width), which absorbs K's square root at v = u.  K is
    Phi-bar(lam D), D = (shape(u) - shape(v))/sqrt(u - v), so each D is
    computed once for every lam.  The error falls as cells^-2.
    """

    def __init__(self, shape, u_end: float, cells: int):
        width = u_end / cells
        u = width * np.arange(1, cells + 1)  # the collocation points
        at_u = shape(u)
        self.lhs = at_u / np.sqrt(u)
        # row i of the packed triangle holds cells 0..i-1, from i(i-1)/2 on
        rows, cols = np.tril_indices(cells, -1)
        nodes, self.off_weights = _gauss_legendre(_FP_OFF_POINTS)
        v = width * (cols[:, None] + nodes)
        self.off = (at_u[rows, None] - shape(v)) / np.sqrt(u[rows, None] - v)
        nodes, weights = _gauss_legendre(_FP_DIAG_POINTS)
        v = u[:, None] - width * nodes**2
        self.own = (at_u[:, None] - shape(v)) / (np.sqrt(width) * nodes)
        self.own_weights = 2.0 * nodes * weights

    def crossing(self, lam) -> np.ndarray:
        """The crossing probability at each lam, one row of work per lam."""
        lam = np.asarray(lam, dtype=float)[:, None, None]
        kernel = np.sum(_normal_sf(lam * self.off) * self.off_weights, axis=-1)
        own = np.sum(_normal_sf(lam * self.own) * self.own_weights, axis=-1)
        rhs = _normal_sf(lam[:, :, 0] * self.lhs)
        mass = np.empty_like(rhs)
        for i in range(rhs.shape[1]):
            start = i * (i - 1) // 2
            before = (kernel[:, start : start + i] * mass[:, :i]).sum(axis=1)
            mass[:, i] = (rhs[:, i] - before) / own[:, i]
        return np.sum(mass, axis=1)


def _illinois(fn, lo, hi, f_lo, f_hi) -> np.ndarray:
    """The root of each decreasing function in its bracket [lo, hi], with
    f_lo > 0 > f_hi, by the Illinois variant of regula falsi.  fn(x, i)
    returns the values at the points x of the brackets i still open, so
    that a bracket takes the same steps whichever others share it.  A
    bracket closes once its value is within _FP_F_TOL of zero."""
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    root = np.empty(lo.shape)
    kept = np.zeros(lo.shape)  # +1: lo was kept on the last step, -1: hi was
    i = np.arange(lo.size)
    for _ in range(100):
        x = (lo[i] * f_hi[i] - hi[i] * f_lo[i]) / (f_hi[i] - f_lo[i])
        f = fn(x, i)
        up = f > 0  # the root lies above x
        f_hi[i] = np.where(up & (kept[i] < 0), 0.5 * f_hi[i], f_hi[i])
        f_lo[i] = np.where(~up & (kept[i] > 0), 0.5 * f_lo[i], f_lo[i])
        lo[i], f_lo[i] = np.where(up, x, lo[i]), np.where(up, f, f_lo[i])
        hi[i], f_hi[i] = np.where(up, hi[i], x), np.where(up, f_hi[i], f)
        kept[i] = np.where(up, -1.0, 1.0)
        done = np.abs(f) <= _FP_F_TOL
        root[i[done]] = x[done]
        i = i[~done]
        if not i.size:
            return root
    raise ConvergenceFailure("the first-passage root-find did not converge")


def bridge_c_quantiles(xi: float, eps: float, levels) -> list[QuantileEstimate]:
    """The level-quantiles of C = sup_{t in [eps, 1]} xi t^-(1+xi) B(t) for a
    Brownian bridge B, one per level, from a first-passage solve: no paths.

    P(C > c) is the chance that B crosses b(t) = (c/xi) t^(1+xi) on [eps, 1].
    W(u) = (1 + u) B(1/(1+u)) is a standard Brownian motion, and B(t) >= b(t)
    exactly when W(u) >= lam (1+u)^-xi at u = (1-t)/t, lam = c/xi.  So
    P(C > c) is the chance that W crosses that falling boundary on
    (0, u_end], u_end = (1-eps)/eps, which _FirstPassage solves.

    With a = lam eps^xi/sqrt(u_end), the boundary's end value over W's
    spread there, P(C > c) lies between Phi-bar(a) (W above the boundary at
    u_end) and 2 Phi-bar(a) (W's running maximum above the boundary's
    least value).  So c lies between the roots of Phi-bar(a) = p and
    2 Phi-bar(a) = p, p = 1 - level, and regula falsi finds it inside that
    bracket on 50 cells and on 100, some 7 solves each for every level at
    once.  The solve converges as cells^-2, so the value is
    c_100 + (c_100 - c_50)/3 and std_error, the error bound, is
    |c_100 - c_50|/3, the estimated error of c_100; the value's own error
    is some 50 times smaller in the checks.  Each level's value is the same
    whichever others share the call.  A level must exceed 1/2.  A bracket
    that is not finite or does not hold the root (eps so small that the
    supremum diverges in floating point) is refused.
    """
    if not (0.0 < xi < 1.0):
        raise RegimeMismatch(f"the c-functional needs 0 < xi < 1, got {xi}")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    levels = [float(level) for level in levels]
    for level in levels:
        if not (0.5 < level < 1.0):
            raise DomainError(f"a first-passage c quantile needs a level in (1/2, 1), got {level}")
    p = np.array([1.0 - level for level in levels])
    u_end = (1.0 - eps) / eps
    per_a = math.sqrt(u_end) / eps**xi  # lam per unit of a
    unresolved = DomainError(f"eps={eps}: the c quantile cannot be bracketed (the supremum diverges as eps -> 0)")
    zero, top = np.zeros(p.size), np.full(p.size, 40.0)
    lam_lo = per_a * bisect(lambda mid, i: _normal_sf(mid) > p[i], zero, top, 1e-13)
    lam_hi = per_a * bisect(lambda mid, i: 2.0 * _normal_sf(mid) > p[i], zero, top, 1e-13)
    if not (math.isfinite(u_end) and np.all(np.isfinite(lam_hi))):
        raise unresolved
    shape = lambda u: (1.0 + u) ** -xi  # noqa: E731
    coarse, fine = (_FirstPassage(shape, u_end, cells) for cells in (_FP_CELLS // 2, _FP_CELLS))
    log_p = np.log(p)

    def gap(solver):
        return lambda lam, i: np.log(solver.crossing(lam)) - log_p[i]

    every = np.arange(p.size)
    roots = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for solver in coarse, fine:
            f_lo, f_hi = gap(solver)(lam_lo, every), gap(solver)(lam_hi, every)
            if not (np.all(f_lo > 0) and np.all(f_hi < 0)):
                raise unresolved
            roots.append(_illinois(gap(solver), lam_lo, lam_hi, f_lo, f_hi))
    lam_50, lam_100 = roots
    c_50, c_100 = xi * lam_50, xi * lam_100
    value = c_100 + (c_100 - c_50) / 3.0
    error = np.abs(c_100 - c_50) / 3.0
    return [
        QuantileEstimate(value=float(v), level=level, source="first-passage", std_error=float(max(e, 1e-12 * v)))
        for v, e, level in zip(value, error, levels)
    ]
