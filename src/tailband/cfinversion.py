"""Gil-Pelaez inversion of characteristic functions.

F(x) = 1/2 - (1/pi) * int_0^inf Im(e^{-itx} phi(t)) / t dt

The integral is evaluated on a fixed Gauss-Legendre panel grid on (0, t_max],
dense enough to resolve the oscillation e^{-itx} for |x| up to a declared
x_max.  phi is evaluated once on the grid, after which every CDF evaluation
is a single complex dot product, so quantile root-finding is cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panel_grid(t_max: float, panel_width: float) -> tuple[np.ndarray, np.ndarray]:
    n_panels = max(1, int(np.ceil(t_max / panel_width)))
    edges = np.linspace(0.0, t_max, n_panels + 1)
    lo = edges[:-1]
    half = (edges[1:] - lo) / 2.0
    nodes = (lo[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class GilPelaezInverter:
    """CDF/quantile evaluator for one characteristic function."""

    nodes: np.ndarray       # ascending quadrature abscissae on (0, t_max)
    kernel: np.ndarray      # weights * phi(nodes) / nodes, complex
    x_max: float            # largest |x| the node density resolves
    cdf_abs_err: float      # a-priori bound on |F_computed - F|

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
        nodes, weights = _panel_grid(t_max, width)
        phi = np.asarray(cf(nodes), dtype=complex)
        if phi.shape != nodes.shape:
            raise DomainError("characteristic function must be vectorized")
        kernel = weights * phi / nodes
        return cls(nodes=nodes, kernel=kernel, x_max=float(x_max), cdf_abs_err=float(tail_err))

    def cdf(self, x) -> np.ndarray | float:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.size)
        chunk = max(1, int(4_000_000 // max(1, self.nodes.size)))
        for start in range(0, xs.size, chunk):
            xc = xs[start : start + chunk]
            phase = np.exp(-1j * np.outer(xc, self.nodes))
            out[start : start + chunk] = 0.5 - (phase @ self.kernel).imag / np.pi
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

    def quantile(self, q: float, xtol: float = 1e-6) -> float:
        """q-quantile: a bracket doubled out from [-1, 1] until it holds q,
        then Brent's method (scipy brentq) on the inverted CDF to xtol."""
        from scipy.optimize import brentq

        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile level {q} outside (0,1)")
        lo, hi = self._bracket(q, q)
        return float(brentq(lambda v: self.cdf(v) - q, lo, hi, xtol=xtol))

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
