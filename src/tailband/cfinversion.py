"""Gil-Pelaez inversion of characteristic functions.

F(x) = 1/2 - (1/pi) * int_0^inf Im(e^{-itx} phi(t)) / t dt

The integral is evaluated on a fixed Gauss-Legendre panel grid on (0, t_max],
dense enough to resolve the oscillation e^{-itx} for |x| up to a declared
x_max.  phi is evaluated once on the grid.

The grid has P panels of width h, and panel p holds the nodes p*h + off_k
with the same 8 offsets off_k in every panel.  So e^{-ixt} factors into
e^{-ixph} * e^{-ix off_k}, and a CDF point is evaluated in two stages
instead of as one dense dot product over all 8P nodes:

1. c_p = sum_k K[p, k] e^{-ix off_k}, the kernel's (P x 8) panels against
   8 offset exponentials;
2. sum_p e^{-ixph} c_p with p = a*Q + b and Q = ceil(sqrt P):
   sum_a e^{-ixaQh} sum_b e^{-ixbh} c_{aQ+b}, two short exponential vectors
   against the (A x Q) table of c.

That is about 2 sqrt(P) + 8 complex exponentials per point instead of 8P;
the sum is the same one, only its evaluation order differs (the two agree
to ~1e-15).

Both stages are sums of products by `np.einsum` (optimize=False), not
matrix products: BLAS may split and order a product's sums differently with
the number of points, so a point's CDF took other last bits in a batch than
alone, and its call woke an OpenBLAS worker thread that kept spinning until
the process exited.  Here a point's CDF comes from the same operations in
whatever batch it is in.  The price is paid on large batches: on a 2-core
Xeon host, 1,444 points at P = 726 take about 29 ms against 18 ms through
BLAS, one point 53 against 43 us.  The command-line paths ask for
at most 16 points per call; only quantile_curve builds large batches.

Quantiles bracket and bisect the CDF for a whole array of levels at once
(`quantile`), so no root finder from scipy is needed: the bracket ladder
takes one CDF call and each bisection step one more for every level still
open.

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

# The 8-point Gauss-Legendre rule on [-1, 1], bit for bit what
# numpy.polynomial.legendre.leggauss(8) returns; as literals, importing
# this module neither loads numpy.polynomial nor runs its eigensolver.
GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
# Complex elements of the per-chunk (points x panels) intermediate of `cdf`.
_CHUNK_ELEMENTS = 1 << 20
# Phase speed budgeted for the CF itself on top of the e^{-itx} rotation.
_PHASE_SLACK = 6.0
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
    offsets = (h / 2.0) * (GL_NODES + 1.0)
    nodes = (np.arange(n_panels)[:, None] * h + offsets[None, :]).ravel()
    weights = np.tile((h / 2.0) * GL_WEIGHTS, n_panels)
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
        tail: PowerTail | None = None,
    ) -> "GilPelaezInverter":
        """Build the fixed quadrature for `cf` on (0, t_max].

        _PHASE_SLACK budgets the phase speed of cf itself on top of the
        e^{-itx} rotation; the panel width keeps at least ~32 quadrature
        points per full oscillation at |x| = x_max.  `tail_err` bounds the
        CDF error of what the quadrature leaves out beyond t_max: all of cf,
        or only cf minus `tail` when a tail is given.
        """
        width = min(0.5, np.pi / (2.0 * (x_max + _PHASE_SLACK)))
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
        of sums of products (see the module docstring)."""
        n_panels = self.n_panels
        q = math.isqrt(n_panels - 1) + 1  # ceil(sqrt(P))
        a = -(-n_panels // q)
        # stage 1: c[x, p] = sum_k K[p, k] e^{-ix off_k}, zero-padded to A*Q panels
        c = np.zeros((xc.size, a * q), dtype=complex)
        offset_rot = np.exp(-1j * np.outer(xc, self.offsets))
        np.einsum("xk,pk->xp", offset_rot, self.kernel.reshape(n_panels, -1), out=c[:, :n_panels])
        # stage 2: sum_a e^{-ixaQh} sum_b e^{-ixbh} c[x, aQ + b]
        h = self.panel_width
        row_rot = np.exp(-1j * np.outer(xc, np.arange(q) * h))
        block_rot = np.exp(-1j * np.outer(xc, np.arange(a) * (q * h)))
        by_row = np.einsum("xab,xb->xa", c.reshape(xc.size, a, q), row_rot)
        return np.einsum("xa,xa->x", by_row, block_rot)

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

    def _bracket(self, p_lo: np.ndarray, p_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per pair of probabilities, abscissae lo <= -1 and hi >= 1 with
        F(lo) <= p_lo and F(hi) >= p_hi: the first of -1, -2, -4, ... and of
        1, 2, 4, ... within [-x_max, x_max] where that holds, NaN where none
        does.  The whole ladder is one CDF call."""
        steps = [1.0]
        while 2.0 * steps[-1] <= self.x_max:
            steps.append(2.0 * steps[-1])
        ladder = np.array(steps)
        f = self.cdf(np.concatenate([-ladder, ladder]))
        below = f[None, : ladder.size] <= p_lo[:, None]
        above = f[None, ladder.size :] >= p_hi[:, None]
        lo = np.where(below.any(axis=1), -ladder[below.argmax(axis=1)], np.nan)
        hi = np.where(above.any(axis=1), ladder[above.argmax(axis=1)], np.nan)
        return lo, hi

    def quantile(self, q, xtol: float = 1e-9) -> np.ndarray | float:
        """Quantiles at the levels q, a float or an array of them.

        Each level gets its own bracket from `_bracket`, doubled out from
        [-1, 1], and `bisect` halves it until it is at most xtol wide and
        returns its midpoint.  The levels share every CDF call, and since a
        point's CDF does not depend on the batch it is in, each value is
        the one a search for its level alone returns.  A level beyond the
        resolved range [-x_max, x_max] comes back NaN.
        """
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        outside = levels[~((levels > 0.0) & (levels < 1.0))]
        if outside.size:
            raise DomainError(f"quantile level {outside[0]} outside (0,1)")
        lo, hi = self._bracket(levels, levels)
        values = bisect(lambda mid, i: self.cdf(mid) < levels[i], lo, hi, xtol)
        return float(values[0]) if np.ndim(q) == 0 else values

    def quantile_curve(self, probs: np.ndarray, n_grid: int = 800) -> np.ndarray:
        """Quantiles for many probabilities via a monotone CDF grid.

        The curve is NaN when a prob lies beyond the CDF range reachable
        inside [-x_max, x_max].  The CDF is taken on n_grid points across
        the bracket of all probs, found as `quantile` finds its brackets;
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
        [lo], [hi] = self._bracket(probs.min(keepdims=True), probs.max(keepdims=True))
        if np.isnan(lo) or np.isnan(hi):
            return np.full(probs.shape, np.nan)
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
