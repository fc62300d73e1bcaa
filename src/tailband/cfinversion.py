"""Gil-Pelaez inversion of characteristic functions.

F(x) = 1/2 - (1/pi) * int_0^inf Im(e^{-itx} phi(t)) / t dt

The integral is evaluated on a fixed Gauss-Legendre panel grid on (0, t_max],
dense enough to resolve the oscillation e^{-itx} for |x| up to a declared
x_max.  phi is evaluated once on the grid.

The grid has P panels of width h, and panel p holds the nodes p*h + off_k
with the same 8 offsets off_k in every panel.  So e^{-ixt} factors into
e^{-ixph} * e^{-ix off_k}, and a CDF point is evaluated in two stages
instead of as one dense dot product over all 8P nodes:

1. c_p = sum_k K[p, k] e^{-ix off_k}, one (P x 8) matvec of the kernel with
   8 offset exponentials;
2. sum_p e^{-ixph} c_p with p = a*Q + b and Q = ceil(sqrt P):
   sum_a e^{-ixaQh} sum_b e^{-ixbh} c_{aQ+b}, two short exponential vectors
   and one (A x Q) matvec.

That is about 2 sqrt(P) + 8 complex exponentials per point instead of 8P;
the sum is the same one, only its evaluation order differs (the two agree
to ~1e-15).  Quantiles bisect the CDF, so no root finder from scipy is
needed.

A CF that decays only like a power, phi(t) ~ C e^{it} t^{-a} (the
sum-over-max law), may declare that leading term as a `PowerTail`.  Its
integral over [t_max, inf) is added in closed form,

    int_T^inf e^{-ixt} C e^{it} t^{-1-a} dt = C T^{-a} E_{1+a}(-i(1-x)T),

with the generalized exponential integral E_p of `expint`, so t_max only
has to reach where the rest of phi is negligible instead of where phi
itself is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .limitsim import bisect

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# Complex elements of the per-chunk (points x panels) intermediate of `cdf`.
_CHUNK_ELEMENTS = 1 << 20
# Steps into which quantile_curve splits each grid interval holding a
# probability.  Near x = 1, where the sum-over-max law's density is not
# smooth, the interpolation error falls only about like steps^(-1/xi),
# not steps^-2.
_REFINE_STEPS = 64


def expint(p: float, z: complex) -> complex:
    """Generalized exponential integral E_p(z) = int_1^inf e^{-zs} s^{-p} ds
    for real non-integer p > 1 and Re z >= 0, to about 1e-14 relative.

    E_p(0) = 1/(p-1) exactly; for |z| < 1 the power series
    E_p(z) = z^{p-1} Gamma(1-p) - sum_k (-z)^k / (k! (k+1-p)); otherwise the
    continued fraction of Numerical Recipes (3rd ed.) section 6.3, evaluated
    by the modified Lentz method.  A scalar in plain Python complex
    arithmetic, since the CDF bisection calls it one point at a time.
    """
    if z == 0:
        return complex(1.0 / (p - 1.0))
    if abs(z) < 1.0:
        acc = 0j
        term = 1 + 0j  # (-z)^k / k!
        k = 0
        while True:
            step = term / (k + 1.0 - p)
            acc += step
            if k > 2 and abs(step) <= 1e-16 * abs(acc):
                return z ** (p - 1.0) * math.gamma(1.0 - p) - acc
            k += 1
            term *= -z / k
    b = z + p
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (p - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 1e-15:
            # e^{-z} through math: importing cmath added ~0.2 MB to the peak RSS of every command
            return h * complex(math.cos(z.imag), -math.sin(z.imag)) * math.exp(-z.real)
    raise ConvergenceFailure(f"E_{p} continued fraction did not converge at z={z}")


@dataclass(frozen=True)
class PowerTail:
    """Leading term phi(t) ~ coef * e^{it} * t^(-power) of a CF for large t."""

    coef: complex
    power: float

    def integral(self, x: float, t_max: float) -> complex:
        """int_{t_max}^inf e^{-ixt} coef e^{it} t^(-power) / t dt, in closed form."""
        return self.coef * t_max ** -self.power * expint(1.0 + self.power, -1j * (1.0 - x) * t_max)


def _panel_grid(t_max: float, panel_width: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(h, offsets, nodes, weights) of the 8-point Gauss-Legendre panels on
    (0, t_max]: P panels of width h = t_max/P <= panel_width, panel p
    holding the nodes p*h + offsets with offsets = (h/2)(g_k + 1)."""
    n_panels = max(1, int(np.ceil(t_max / panel_width)))
    h = t_max / n_panels
    offsets = (h / 2.0) * (_GL_NODES + 1.0)
    nodes = (np.arange(n_panels)[:, None] * h + offsets[None, :]).ravel()
    weights = np.tile((h / 2.0) * _GL_WEIGHTS, n_panels)
    return h, offsets, nodes, weights


@dataclass(frozen=True)
class GilPelaezInverter:
    """CDF/quantile evaluator for one characteristic function."""

    nodes: np.ndarray       # ascending quadrature abscissae on (0, t_max), panel-major
    kernel: np.ndarray      # weights * phi(nodes) / nodes, complex, aligned with nodes
    x_max: float            # largest |x| the node density resolves
    cdf_abs_err: float      # a-priori bound on |F_computed - F|
    panel_width: float      # h: panel p starts at p*h
    offsets: np.ndarray     # the 8 node offsets within every panel
    tail: PowerTail | None = None  # leading term of cf beyond t_max, integrated in closed form

    @classmethod
    def from_cf(
        cls,
        cf,
        t_max: float,
        x_max: float,
        tail_err: float,
        phase_slack: float = 4.0,
        tail: PowerTail | None = None,
    ) -> "GilPelaezInverter":
        """Build the fixed quadrature for `cf` on (0, t_max].

        `phase_slack` budgets the phase speed of cf itself on top of the
        e^{-itx} rotation; the panel width keeps at least ~32 quadrature
        points per full oscillation at |x| = x_max.  `tail_err` bounds the
        CDF error of what the quadrature leaves out beyond t_max: all of cf,
        or only cf minus `tail` when a tail is given.
        """
        width = min(0.5, np.pi / (2.0 * (x_max + phase_slack)))
        h, offsets, nodes, weights = _panel_grid(t_max, width)
        phi = np.asarray(cf(nodes), dtype=complex)
        if phi.shape != nodes.shape:
            raise DomainError("characteristic function must be vectorized")
        kernel = weights * phi / nodes
        for arr in (nodes, kernel, offsets):
            arr.flags.writeable = False  # inverters are cached and shared
        return cls(
            nodes=nodes,
            kernel=kernel,
            x_max=float(x_max),
            cdf_abs_err=float(tail_err),
            panel_width=float(h),
            offsets=offsets,
            tail=tail,
        )

    @property
    def n_panels(self) -> int:
        return self.nodes.size // self.offsets.size

    @property
    def t_max(self) -> float:
        return self.n_panels * self.panel_width

    def tail_sums(self, xs: np.ndarray) -> np.ndarray:
        """int_{t_max}^inf e^{-ixt} tail(t) / t dt for each x (0 without a tail)."""
        if self.tail is None:
            return np.zeros(xs.size, dtype=complex)
        t_max = self.t_max
        return np.array([self.tail.integral(float(x), t_max) for x in xs], dtype=complex)

    def _panel_sums(self, xc: np.ndarray) -> np.ndarray:
        """sum_t e^{-ixt} kernel(t) for each x of the chunk xc, in two stages
        (see the module docstring)."""
        n_panels = self.n_panels
        q = math.isqrt(n_panels - 1) + 1  # ceil(sqrt(P))
        a = -(-n_panels // q)
        # stage 1: c[x, p] = sum_k K[p, k] e^{-ix off_k}, zero-padded to A*Q panels
        c = np.zeros((xc.size, a * q), dtype=complex)
        c[:, :n_panels] = np.exp(-1j * np.outer(xc, self.offsets)) @ self.kernel.reshape(n_panels, -1).T
        # stage 2: sum_a e^{-ixaQh} sum_b e^{-ixbh} c[x, aQ + b]
        h = self.panel_width
        inner = np.exp(-1j * np.outer(xc, np.arange(q) * h))
        outer = np.exp(-1j * np.outer(xc, np.arange(a) * (q * h)))
        by_row = np.matmul(c.reshape(xc.size, a, q), inner[:, :, None])[:, :, 0]
        return np.einsum("ia,ia->i", by_row, outer)

    def cdf(self, x) -> np.ndarray | float:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.size)
        chunk = max(1, _CHUNK_ELEMENTS // self.n_panels)
        for start in range(0, xs.size, chunk):
            xc = xs[start : start + chunk]
            out[start : start + chunk] = 0.5 - (self._panel_sums(xc) + self.tail_sums(xc)).imag / np.pi
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(out[0])
        return out

    def _bracket(self, p_lo: float, p_hi: float) -> tuple[float, float]:
        """Abscissae lo <= -1 and hi >= 1 with F(lo) <= p_lo and F(hi) >= p_hi,
        each doubled from -1 or 1 until it holds, within [-x_max, x_max]."""
        lo = -1.0
        while self.cdf(lo) > p_lo:
            lo *= 2.0
            if lo < -self.x_max:
                raise ConvergenceFailure(f"probability {p_lo} below resolved range (+-{self.x_max})")
        hi = 1.0
        while self.cdf(hi) < p_hi:
            hi *= 2.0
            if hi > self.x_max:
                raise ConvergenceFailure(f"probability {p_hi} above resolved range (+-{self.x_max})")
        return lo, hi

    def quantile(self, q: float, xtol: float = 1e-9) -> float:
        """q-quantile: a bracket doubled out from [-1, 1] until it holds q,
        then bisection of the inverted CDF until the bracket is at most xtol
        wide; returns its midpoint."""
        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile level {q} outside (0,1)")
        lo, hi = self._bracket(q, q)
        return bisect(lambda v: self.cdf(v) < q, lo, hi, xtol)

    def quantile_curve(self, probs: np.ndarray, n_grid: int = 800) -> np.ndarray:
        """Quantiles for many probabilities via a monotone CDF grid.

        probs must lie within the CDF range reachable inside [-x_max, x_max].
        The CDF is taken on n_grid points across the bracket of all probs;
        each grid interval that holds a probability is then refined once
        into _REFINE_STEPS equal steps, and the quantile is linearly
        interpolated on that finer grid.  The coarse grid alone is not
        accurate enough: for the sum-over-max law at xi = 0.7 its 800
        points were off by up to 2.2e-3 (at q = 0.92, next to x = 1).
        Refined, the curve stays within a tenth of limit_quantile's
        std_error of per-point `quantile` there, and within a fiftieth at
        xi = 0.55 and 0.9.
        """
        probs = np.asarray(probs, dtype=float)
        lo, hi = self._bracket(float(probs.min()), float(probs.max()))
        xs = np.linspace(lo, hi, n_grid)
        cd = np.maximum.accumulate(np.asarray(self.cdf(xs)))
        # interval j = [xs[j], xs[j+1]] with cd[j] < q <= cd[j+1]
        cells = np.clip(np.searchsorted(cd, probs) - 1, 0, n_grid - 2)
        refined, row = np.unique(cells, return_inverse=True)
        fine_x = np.linspace(xs[refined], xs[refined + 1], _REFINE_STEPS + 1, axis=1)
        fine_cd = np.maximum.accumulate(self.cdf(fine_x.ravel()).reshape(fine_x.shape), axis=1)
        out = np.empty(probs.shape)
        for r in range(refined.size):
            mine = row == r
            out[mine] = np.interp(probs[mine], fine_cd[r], fine_x[r])
        return out
