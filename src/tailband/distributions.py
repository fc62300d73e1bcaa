"""Samplers and analytic functions for the distributions used by the tool.

Covers the simulation laws (Pareto, generalized Pareto, alpha-stable via the
Chambers-Mallows-Stuck transform, and a Lambert-W-based law whose slowly
varying factor matters), plus the one limit law whose quantiles drive the
heavy-regime mean-excess bands:

* ``sum-over-max``   - Darling-type limit of the mean-excess fluctuation
  normalized by data-driven constants (top order statistic in place of b(n));
  its characteristic function has a reciprocal form and is not stable itself.

The sum-over-max law is the one law inverted through its characteristic
function (cfinversion); the alpha-stable law is only sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cfinversion
from .data import OrderedSample
from .errors import ConvergenceFailure, DomainError, RegimeMismatch
from .limitsim import QuantileEstimate
from .rng import RngStream

XI_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# generalized Pareto
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpdParams:
    """Shape/scale parameters of the generalized Pareto distribution."""

    xi: float
    beta: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta}")
        if not math.isfinite(self.xi):
            raise DomainError("xi must be finite")


def gpd_me(p: GpdParams, u: float) -> float:
    """Mean excess of the GPD over threshold u: beta/(1-xi) + u*xi/(1-xi).

    Linear in u; defined only for xi < 1 (the mean must exist).
    """
    if p.xi >= 1:
        raise DomainError(f"mean does not exist for xi={p.xi} >= 1")
    if u < 0:
        raise DomainError("threshold must be >= 0")
    if p.xi < -XI_ZERO_TOL and u > -p.beta / p.xi:
        raise DomainError(f"u={u} outside support [0, {-p.beta / p.xi}]")
    if abs(p.xi) < XI_ZERO_TOL:
        return p.beta
    return (p.beta + p.xi * u) / (1.0 - p.xi)


# ---------------------------------------------------------------------------
# simulation-law samplers
# ---------------------------------------------------------------------------

def _open_unit_uniform(g: np.random.Generator, n: int) -> np.ndarray:
    # 1 - random() lies in (0, 1], avoiding 0 for negative-power transforms
    return 1.0 - g.random(n)


def sample_pareto(xi: float, n: int, rng: RngStream) -> OrderedSample:
    """n i.i.d. draws with survival function x^(-1/xi) on [1, inf)."""
    if not (xi > 0):
        raise DomainError(f"pareto shape xi must be > 0, got {xi}")
    if n < 2:
        raise DomainError("need n >= 2")
    u = _open_unit_uniform(rng.generator(), n)
    with np.errstate(over="ignore"):
        x = u ** (-xi)
    return _finite_draws(x, f"pareto shape xi={xi}")


def sample_gpd(p: GpdParams, n: int, rng: RngStream) -> OrderedSample:
    if n < 2:
        raise DomainError("need n >= 2")
    u = _open_unit_uniform(rng.generator(), n)
    with np.errstate(over="ignore"):
        if abs(p.xi) < XI_ZERO_TOL:
            x = -p.beta * np.log(u)
        else:
            x = p.beta * (u ** (-p.xi) - 1.0) / p.xi
    return _finite_draws(x, f"gpd shape xi={p.xi} with beta={p.beta}")


def _finite_draws(x: np.ndarray, law: str) -> OrderedSample:
    # an overflowing draw is the shape's fault, not a line of an input file
    if not np.isfinite(x).all():
        raise DomainError(f"{law} gives draws too large for a float")
    return OrderedSample.from_data(x)


# ---------------------------------------------------------------------------
# Lambert W and the nonstandard heavy-tailed law
# ---------------------------------------------------------------------------

_BRANCH_POINT = -math.exp(-1.0)


def lambertw(x):
    """Principal branch of Lambert's W (solves w*e^w = x for x >= -1/e).

    Halley iteration from a piecewise initial guess: the branch-point series
    near -1/e, log1p for moderate arguments, and the asymptotic
    log(x) - log log(x) expansion for large x.  The residual satisfies
    |w*e^w - x| <= 1e-12 * max(1, |x|).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr).astype(float).copy()
    if np.any(a < _BRANCH_POINT - 1e-15):
        raise DomainError(f"lambertw needs x >= -1/e, got {a.min()}")
    np.clip(a, _BRANCH_POINT, None, out=a)

    w = np.empty_like(a)
    near = a < -0.2
    if near.any():
        p = np.sqrt(2.0 * (np.e * a[near] + 1.0))
        w[near] = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    mid = (~near) & (a < 3.0)
    w[mid] = np.log1p(a[mid])
    big = a >= 3.0
    if big.any():
        lg = np.log(a[big])
        w[big] = lg - np.log(lg) + np.log(lg) / lg

    tol = 1e-13 * np.maximum(1.0, np.abs(a))
    for _ in range(80):
        ew = np.exp(w)
        f = w * ew - a
        if np.all(np.abs(f) <= tol):
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w = w - f / denom
    else:
        raise ConvergenceFailure("lambertw iteration did not converge")
    return float(w[0]) if scalar else w


def nonstd_sf(y):
    """Survival function (1/32) * W(2*y*e^2)^5 * y^(-5) for y >= 1.

    The W^5 factor is slowly varying, so the tail is regularly varying with
    index -5 (shape 0.2) but with a slowly varying part that genuinely moves.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 1.0):
        raise DomainError("nonstd_sf needs y >= 1")
    w = lambertw(2.0 * arr * np.exp(2.0))
    out = (w**5) * arr**-5.0 / 32.0
    return float(out) if arr.ndim == 0 else out


def nonstd_quantile_tail(p):
    """Inverse of nonstd_sf: the value whose survival probability is p."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr > 1.0)):
        raise DomainError("tail probability must lie in (0, 1]")
    out = arr ** (-0.2) * (1.0 - np.log(arr) / 10.0)
    return float(out) if arr.ndim == 0 else out


def sample_nonstd(n: int, rng: RngStream) -> OrderedSample:
    if n < 2:
        raise DomainError("need n >= 2")
    u = _open_unit_uniform(rng.generator(), n)
    return OrderedSample.from_data(nonstd_quantile_tail(u))


# ---------------------------------------------------------------------------
# alpha-stable: simulation law and the sum-over-max limit law
# ---------------------------------------------------------------------------

SIMULATION = "simulation"
SUM_OVER_MAX = "sum-over-max"

_KINDS = (SIMULATION, SUM_OVER_MAX)


@dataclass(frozen=True)
class StableSpec:
    """A stable-type law: the simulation family or the sum-over-max limit law.

    alpha is the stability index (1/xi).  For kind 'sum-over-max' only
    alpha in (1, 2) is meaningful (shape xi in (1/2, 1)); that law ignores
    skew.
    """

    alpha: float
    skew: float = 1.0
    kind: str = SIMULATION

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown stable kind {self.kind!r}")
        if not (0.0 < self.alpha <= 2.0):
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (-1.0 <= self.skew <= 1.0):
            raise DomainError(f"skew must lie in [-1, 1], got {self.skew}")
        if self.kind == SUM_OVER_MAX and not (1.0 < self.alpha < 2.0):
            raise DomainError("sum-over-max law needs alpha in (1, 2)")

    @property
    def xi(self) -> float:
        return 1.0 / self.alpha


def _cms_draws(alpha: float, skew: float, size: int, g: np.random.Generator) -> np.ndarray:
    """Chambers-Mallows-Stuck draws for the CF exp(-|t|^a (1 - i*skew*sgn(t)*tan(pi a/2))).

    For alpha = 2 this degenerates to a centered Gaussian with variance 2.
    """
    v = g.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = g.standard_exponential(size)
    if alpha == 1.0:
        half_pi = np.pi / 2.0
        shifted = half_pi + skew * v
        x = (shifted * np.tan(v) - skew * np.log((half_pi * w * np.cos(v)) / shifted)) / half_pi
        return x
    tan_half = math.tan(math.pi * alpha / 2.0)
    b = math.atan(skew * tan_half) / alpha
    s = (1.0 + (skew * tan_half) ** 2) ** (1.0 / (2.0 * alpha))
    x = (
        s
        * np.sin(alpha * (v + b))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
    )
    return x


def sample_stable(spec: StableSpec, n: int, rng: RngStream) -> OrderedSample:
    """n i.i.d. draws from the simulation stable law (unit scale, zero location).

    The location convention: for alpha > 1 the draws have mean 0 already,
    which is the convention the heavy-tail experiments assume.
    """
    if spec.kind != SIMULATION:
        raise DomainError("sample_stable draws from the simulation law only")
    if n < 2:
        raise DomainError("need n >= 2")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = _cms_draws(spec.alpha, spec.skew, n, rng.generator())
    return _finite_draws(x, f"stable shape xi={1.0 / spec.alpha} (index alpha={spec.alpha})")


def stable_cf(alpha: float, skew: float, t) -> np.ndarray:
    """Analytic CF of the simulation law (the CMS sampling target)."""
    ts = np.asarray(t, dtype=float)
    at = np.abs(ts)
    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.where(at > 0, (2.0 / np.pi) * skew * np.sign(ts) * np.log(at), 0.0)
        return np.exp(-at * (1.0 + 1j * phase))
    tan_half = math.tan(math.pi * alpha / 2.0)
    return np.exp(-(at**alpha) * (1.0 - 1j * skew * np.sign(ts) * tan_half))


# -- sum-over-max law -------------------------------------------------------

_SERIES_CUT = 4.0


def _som_series_integral(lam: np.ndarray, a: float) -> np.ndarray:
    """G(lam) = int_0^lam (e^{iu}-1-iu) u^{-1-a} du by power series, lam <= ~4."""
    acc = np.zeros(lam.shape, dtype=complex)
    term = (1j * lam) ** 2 / 2.0  # m = 2 power/factorial part
    for m in range(2, 48):
        acc += term / (m - a)
        term = term * (1j * lam) / (m + 1)
    return acc * lam ** (-a)


def _som_panel_integrals(lo: np.ndarray, hi: np.ndarray, a: float) -> np.ndarray:
    half = (hi - lo) / 2.0
    u = (lo + hi)[:, None] / 2.0 + half[:, None] * cfinversion.GL_NODES[None, :]
    gu = (np.exp(1j * u) - 1.0 - 1j * u) * u ** (-1.0 - a)
    return np.einsum("pk,k->p", gu, cfinversion.GL_WEIGHTS) * half


def sum_over_max_cf(xi: float, t) -> np.ndarray:
    """CF of the sum-over-max limit law, for shape xi in (1/2, 1).

    phi(l) = e^{il} / (1 + il/(1-xi) - I(l)/xi) with
    I(l) = int_0^1 (e^{itl}-1-itl) t^{-1-1/xi} dt, evaluated through the
    rescaled integral I(l) = l^{1/xi} * G(l): a power series below the cut
    and cumulative Gauss-Legendre panels above it.  Relative accuracy of the
    inner integral is ~1e-12, well inside the 1e-10 target.

    For large l, with a = 1/xi and R(l) = int_l^inf e^{iu} u^{-1-a} du
    (|R(l)| <= 2 l^{-1-a}), the terms il/(1-xi) and 1 cancel exactly and

        phi(l) = -xi e^{il} l^{-a} / (Gamma(-a) e^{-i pi a/2} - R(l)),

    so phi decays only like l^{-a}, with leading term
    C0 e^{il} l^{-a}, C0 = -xi e^{i pi a/2} / Gamma(-a).  The CF inverter
    integrates that term beyond its t_max in closed form (cfinversion).
    """
    if not (0.5 < xi < 1.0):
        raise RegimeMismatch(f"sum-over-max law needs xi in (1/2, 1), got {xi}")
    a = 1.0 / xi
    ts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ts).ravel()
    lam = np.abs(flat)
    out = np.ones(lam.shape, dtype=complex)
    pos = lam > 0
    if pos.any():
        lp = lam[pos]
        order = np.argsort(lp)
        sorted_l = lp[order]
        G = np.empty(sorted_l.shape, dtype=complex)
        small = sorted_l <= _SERIES_CUT
        if small.any():
            G[small] = _som_series_integral(sorted_l[small], a)
        if (~small).any():
            bigs = sorted_l[~small]
            pts = np.unique(np.concatenate([[_SERIES_CUT], np.arange(_SERIES_CUT, bigs[-1], 0.4)[1:], bigs]))
            increments = _som_panel_integrals(pts[:-1], pts[1:], a)
            cum = np.concatenate([[0.0 + 0.0j], np.cumsum(increments)])
            base = _som_series_integral(np.array([_SERIES_CUT]), a)[0]
            G[~small] = base + cum[np.searchsorted(pts, bigs)]
        I = sorted_l**a * G
        psi = 1.0 + 1j * sorted_l / (1.0 - xi) - I / xi
        phi_sorted = np.exp(1j * sorted_l) / psi
        phi = np.empty_like(phi_sorted)
        phi[order] = phi_sorted
        out[pos] = phi
    neg = flat < 0
    out[neg] = np.conj(out[neg])
    out = out.reshape(np.atleast_1d(ts).shape)
    return out if ts.ndim else complex(out[0])


# ---------------------------------------------------------------------------
# Monte Carlo draws
# ---------------------------------------------------------------------------

def sample_sum_over_max_statistic(
    xi: float,
    reps: int,
    rng: RngStream,
    k: int = 4000,
    n: int = 10_000_000,
    batch: int = 2000,
) -> np.ndarray:
    """Draws of the normalized mean-excess fluctuation statistic at t = 1.

    Simulates (k * X_(k)/X_(1)) * (ME(X_(k))/X_(k) - xi/(1-xi)) from exact
    Pareto(xi) samples of size n, generating only the top k+1 order
    statistics through the gamma representation U_(j) = Gamma_j/Gamma_(n+1).
    As k grows with n/k this converges to the sum-over-max limit law, which
    is the Monte Carlo oracle for its quantiles.
    """
    if not (0.5 < xi < 1.0):
        raise RegimeMismatch(f"needs xi in (1/2, 1), got {xi}")
    if not (3 <= k < n):
        raise DomainError("need 3 <= k < n")
    g = rng.generator()
    out = np.empty(reps)
    slope = xi / (1.0 - xi)
    for start in range(0, reps, batch):
        b = min(batch, reps - start)
        e = g.standard_exponential((b, k + 1))
        gam = np.cumsum(e, axis=1)
        g_np1 = gam[:, -1] + g.gamma(float(n - k), 1.0, size=b)
        x = (gam[:, :k] / g_np1[:, None]) ** (-xi)  # X_(1) >= ... >= X_(k)
        x_k = x[:, -1]
        x_1 = x[:, 0]
        me_k = x[:, :-1].sum(axis=1) / (k - 1) - x_k
        out[start : start + b] = (k * x_k / x_1) * (me_k / x_k - slope)
    return out


# ---------------------------------------------------------------------------
# quantiles by CF inversion or Monte Carlo
# ---------------------------------------------------------------------------

_INVERTER_TOL = 3e-6  # a-priori CDF error bound of every limit-law inverter


@lru_cache(maxsize=8)
def _build_inverter(alpha: float, x_max: float) -> cfinversion.GilPelaezInverter:
    """The CF inverter of the sum-over-max law of index alpha resolving
    |x| <= x_max; the last few are kept, since each law is inverted at
    several levels."""
    xi, tol = 1.0 / alpha, _INVERTER_TOL
    gamma_neg_a = math.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))  # Gamma(-a) > 0 on (1, 2)
    # phi(t) = C0 e^{it} t^-a / (1 - rho(t)) with |rho(t)| <= r(t) =
    # 2 t^(-1-a) / Gamma(-a) (see sum_over_max_cf).  Beyond T the CF minus
    # its leading term is at most |C0| t^-a r(t) / (1 - r(T)), and r(T) < 1e-3
    # for T >= 30, so its CDF contribution is at most
    # 2 k_rest T^(-1-2a) with k_rest = 2 |C0| / (pi Gamma(-a) (1+2a)).
    # T keeps that below half the budget; the floor of 30 decides it for
    # every xi in (1/2, 1), leaving the rest at ~1e-7 or less.
    half_turn = 0.5 * math.pi * alpha
    tail = cfinversion.PowerTail(coef=-xi * complex(math.cos(half_turn), math.sin(half_turn)) / gamma_neg_a, power=alpha)
    k_rest = 2.0 * abs(tail.coef) / (math.pi * gamma_neg_a * (1.0 + 2.0 * alpha))
    t_max = max(30.0, (4.0 * k_rest / tol) ** (1.0 / (1.0 + 2.0 * alpha)))
    return cfinversion.GilPelaezInverter.from_cf(
        lambda nodes: sum_over_max_cf(xi, nodes), t_max, x_max, tail_err=tol, tail=tail
    )


def _solve_in_resolved_range(spec: StableSpec, x_max: float, solve, probs: np.ndarray):
    """(x_maxes, values): for each probability of probs, the first x_max of
    the ladder that starts at x_max and grows fourfold up to 2^22 whose
    inverter of `spec` resolves it, and its value there.

    solve(inverter, p) returns the values of the probabilities p, NaN for
    those beyond that inverter's range.  Only the sum-over-max law is
    inverted, and a probability within 10 x the CDF error bound of 0 or 1
    is refused: the bound would swamp its tail.
    """
    if spec.kind != SUM_OVER_MAX:
        raise DomainError(f"only the {SUM_OVER_MAX} law is inverted, not the {spec.kind!r} law")
    thin = probs[np.minimum(probs, 1.0 - probs) < 10.0 * _INVERTER_TOL]
    if thin.size:
        raise DomainError(
            f"cf-inversion cannot resolve level {thin[0]:g}: it lies within "
            f"{10.0 * _INVERTER_TOL:g} of 0 or 1, 10 x the inverter's CDF error bound"
        )
    x_maxes = np.full(probs.shape, np.nan)
    values = np.full(probs.shape, np.nan)
    while True:
        todo = np.flatnonzero(np.isnan(values))
        if not todo.size:
            return x_maxes, values
        if x_max > 2.0**22:
            raise ConvergenceFailure(f"probability {probs[todo[0]]} beyond the resolved range (+-{x_max / 4.0:g})")
        values[todo] = solve(_build_inverter(spec.alpha, x_max), probs[todo])
        x_maxes[todo[~np.isnan(values[todo])]] = x_max
        x_max *= 4.0


def limit_quantile_curve(spec: StableSpec, probs) -> np.ndarray:
    """Quantiles at many probabilities from one CDF-inversion grid.

    Used to draw deterministic "quantile inversion" reference samples from a
    limit law (feed it equally spaced probabilities).  Probabilities must
    stay inside (0, 1), away from the extreme tails the quadrature grid
    cannot resolve; the resolved range grows automatically as needed.
    """
    probs = np.asarray(probs, dtype=float)
    if np.any((probs <= 0.0) | (probs >= 1.0)):
        raise DomainError("probabilities must lie strictly inside (0, 1)")
    return _solve_in_resolved_range(spec, 64.0, lambda inv, p: inv.quantile_curve(p), probs)[1]


def limit_quantile(
    spec: StableSpec,
    q,
    method: str = "cf-inversion",
    rng: RngStream | None = None,
    paths: int = 100_000,
    mc_k: int = 4000,
    mc_n: int = 10_000_000,
) -> QuantileEstimate | list[QuantileEstimate]:
    """Quantiles of the sum-over-max law at the level q, or at each level of
    a sequence q, by CF inversion or Monte Carlo: one QuantileEstimate for a
    float, a list of them for a sequence.

    cf-inversion is deterministic: the Gil-Pelaez CDF (two-stage panel sum,
    see cfinversion) bisected to 1e-9 on the abscissa, with no scipy
    involved.  All levels share one search (GilPelaezInverter.quantile),
    and each level is answered by the first inverter of the x_max ladder
    32, 128, ... whose range holds it, exactly as if it were asked alone.
    Its std_error field reports the numerical error estimate: the a-priori
    CDF error bound 3e-6 divided by the local density, plus 1e-6, which
    bounds the root-finding error with room to spare; the densities of all
    levels an inverter answers come from one CDF call.  The quadrature
    stops at t_max = 30 and the CF's leading l^{-a} term is integrated
    beyond it in closed form (see sum_over_max_cf): 5,808 nodes at
    x_max = 32 for every xi, where a truncated integral needed 43k
    (xi = 0.55) to 1.4M (xi = 0.9).  A level within 3e-5 of 0 or 1 is
    refused.  monte-carlo draws `paths` replicates of the finite-n
    statistic with parameters mc_k, mc_n once and reports each level's
    type-7 empirical quantile with a 10-batch standard error.
    """
    levels = np.atleast_1d(np.asarray(q, dtype=float))
    for level in levels:
        if not (0.0 < level < 1.0):
            raise DomainError(f"quantile level must lie in (0,1), got {level}")
    if method == "cf-inversion":
        x_maxes, values = _solve_in_resolved_range(spec, 32.0, lambda inv, p: inv.quantile(p), levels)
        errors = np.empty(levels.size)
        for x_max in np.unique(x_maxes):
            inv = _build_inverter(spec.alpha, x_max)
            mine = x_maxes == x_max
            h = 1e-3 * np.maximum(1.0, np.abs(values[mine]))
            f_hi, f_lo = np.split(inv.cdf(np.concatenate([values[mine] + h, values[mine] - h])), 2)
            density = np.maximum((f_hi - f_lo) / (2 * h), 1e-12)
            errors[mine] = inv.cdf_abs_err / density + 1e-6
        estimates = [
            QuantileEstimate(value=float(v), level=float(level), source="cf-inversion", std_error=float(err))
            for v, level, err in zip(values, levels, errors)
        ]
    elif method == "monte-carlo":
        if rng is None:
            raise DomainError("monte-carlo method needs an RngStream")
        if spec.kind != SUM_OVER_MAX:
            raise DomainError(f"only the {SUM_OVER_MAX} law is simulated here, not the {spec.kind!r} law")
        draws = sample_sum_over_max_statistic(spec.xi, paths, rng, k=mc_k, n=mc_n)
        estimates = [QuantileEstimate.from_samples(draws, float(level)) for level in levels]
    else:
        raise DomainError(f"unknown method {method!r}")
    return estimates[0] if np.ndim(q) == 0 else estimates
