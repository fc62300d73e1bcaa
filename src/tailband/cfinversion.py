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

    @classmethod
    def from_cf(
        cls,
        cf,
        t_max: float,
        x_max: float,
        tail_err: float,
        phase_slack: float = 4.0,
    ) -> "GilPelaezInverter":
        """Build the fixed quadrature for `cf` on (0, t_max].

        `phase_slack` budgets the phase speed of cf itself on top of the
        e^{-itx} rotation; the panel width keeps at least ~32 quadrature
        points per full oscillation at |x| = x_max.
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
        )

    @property
    def n_panels(self) -> int:
        return self.nodes.size // self.offsets.size

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
            out[start : start + chunk] = 0.5 - self._panel_sums(xc).imag / np.pi
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

        probs must lie within the CDF range reachable inside [-x_max, x_max];
        values are linearly interpolated between grid points (grid spacing is
        chosen so interpolation error is far below the quadrature error).
        """
        probs = np.asarray(probs, dtype=float)
        lo, hi = self._bracket(float(probs.min()), float(probs.max()))
        xs = np.linspace(lo, hi, n_grid)
        cd = np.maximum.accumulate(np.asarray(self.cdf(xs)))
        return np.interp(probs, cd, xs)
