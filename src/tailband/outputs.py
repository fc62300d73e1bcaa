"""Deterministic file emission: CSV, JSON, SVG, and run manifests.

Float formatting rules keep every byte reproducible: CSV uses the shortest
round-trip representation (repr), SVG uses 9 significant digits, JSON is
emitted with sorted keys, and nothing embeds timestamps.  Numbers are
formatted a column at a time (`tolist()` and `map`, no Python loop per
value), and each file is written in one call.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .bands import ConfidenceBand
from .plotsets import PlotSet

MANIFEST_NAME = "run_manifest.json"


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns, each value in the shortest decimal
    form that round-trips to the same float (repr).  Columns with the same
    bytes are formatted once."""
    texts: dict[bytes, list[str]] = {}
    cells = []
    for col in columns:
        col = np.asarray(col, dtype=float)
        key = col.tobytes()
        if key not in texts:
            texts[key] = list(map(repr, col.tolist()))
        cells.append(texts[key])
    lines = [",".join(header), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json_dumps(payload), encoding="utf-8", newline="\n")


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_plot_csv(path: str | Path, plot: PlotSet) -> None:
    write_csv(path, ["x", "y"], [plot.x, plot.y])


def write_band_csv(path: str | Path, band: ConfidenceBand) -> None:
    xlo, xhi, ylo, yhi = band.rectangles()
    write_csv(path, ["x", "y", "xlo", "xhi", "ylo", "yhi"], [band.base.x, band.base.y, xlo, xhi, ylo, yhi])


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run: re-running `command` reproduces the outputs."""

    command: str
    seed: int
    inputs: dict[str, str]    # path -> sha256
    outputs: dict[str, str]   # path -> sha256

    def payload(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seed": self.seed,
            "tool": "tailband",
            "version": __version__,
        }


def write_run_manifest(
    path: str | Path,
    command: str,
    seed: int,
    inputs: Mapping[str, str],
    outputs: Sequence[str | Path],
) -> Path:
    """Write the manifest of one run.  `inputs` maps each input path to the
    sha256 of the bytes the run read from it (inputs are not opened again:
    a FIFO could not be); outputs are hashed from the written files."""
    manifest = RunManifest(
        command=command,
        seed=int(seed),
        inputs=dict(inputs),
        outputs={str(p): file_sha256(p) for p in outputs},
    )
    path = Path(path)
    write_json(path, manifest.payload())
    return path


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_WIDTH, _HEIGHT = 860.0, 620.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70.0, 20.0, 30.0, 50.0
_BAND_FILLS = ("#c6dbef", "#9ecae1", "#6baed6")  # widest to narrowest


def _fmt(v: float) -> str:
    return f"{v:.9g}"


_POINT_FMT = "{:.9g},{:.9g}"  # one polygon or polyline point, in pixels


def render_plot_svg(
    plot: PlotSet,
    bands: Sequence[ConfidenceBand] = (),
    reference_slope: float | None = None,
    title: str = "",
) -> str:
    """Deterministic SVG: shaded band(s), the plotted points, reference line.

    Bands are drawn as the polygon between the per-point vertical interval
    edges (horizontal offsets are carried in the CSV, not the shading).
    Multiple bands should be passed widest first so narrower ones draw on top.
    """
    xs = [plot.x]
    ys = [plot.y]
    for band in bands:
        xlo, xhi, ylo, yhi = band.rectangles()
        xs.extend([xlo, xhi])
        ys.extend([ylo, yhi])
    all_x = np.concatenate(xs)
    all_y = np.concatenate(ys)
    if reference_slope is not None:
        all_y = np.concatenate([all_y, reference_slope * np.array([all_x.min(), all_x.max()])])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi - x_lo <= 0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0:
        y_hi = y_lo + 1.0
    pad_x, pad_y = 0.03 * (x_hi - x_lo), 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # sx and sy map a float or a whole array; numpy rounds each operation as
    # Python does, so a point's pixels do not depend on which one was passed
    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v):
        return _HEIGHT - _MARGIN_B - (v - y_lo) / (y_hi - y_lo) * inner_h

    def poly_points(px: np.ndarray, py: np.ndarray) -> str:
        return " ".join(map(_POINT_FMT.format, sx(px).tolist(), sy(py).tolist()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
    ]
    for i, band in enumerate(bands):
        _, _, ylo, yhi = band.rectangles()
        px = np.concatenate([band.base.x, band.base.x[::-1]])
        py = np.concatenate([yhi, ylo[::-1]])
        fill = _BAND_FILLS[min(i, len(_BAND_FILLS) - 1)]
        parts.append(f'<polygon points="{poly_points(px, py)}" fill="{fill}" stroke="none"/>')
    if reference_slope is not None:
        rx = np.array([max(x_lo, plot.x.min()), min(x_hi, plot.x.max())])
        ry = reference_slope * rx
        parts.append(
            f'<line x1="{_fmt(sx(rx[0]))}" y1="{_fmt(sy(ry[0]))}" x2="{_fmt(sx(rx[1]))}" '
            f'y2="{_fmt(sy(ry[1]))}" stroke="#a63603" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
    parts.append(
        f'<polyline points="{poly_points(plot.x, plot.y)}" fill="none" stroke="#000000" stroke-width="1.2"/>'
    )
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{_fmt(y0)}" stroke="#333333"/>'
    )
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(_MARGIN_T)}" stroke="#333333"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        vx = x_lo + frac * (x_hi - x_lo)
        vy = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{_fmt(sx(vx))}" y1="{_fmt(y0)}" x2="{_fmt(sx(vx))}" y2="{_fmt(y0 + 5)}" stroke="#333333"/>'
            f'<text x="{_fmt(sx(vx))}" y="{_fmt(y0 + 18)}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{_fmt(round(vx, 6))}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(sy(vy))}" x2="{_fmt(x0)}" y2="{_fmt(sy(vy))}" stroke="#333333"/>'
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(sy(vy) + 4)}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{_fmt(round(vy, 6))}</text>'
        )
    if title:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MARGIN_T - 10)}" font-size="13" text-anchor="middle" '
            f'font-family="monospace">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot_svg(
    path: str | Path,
    plot: PlotSet,
    bands: Sequence[ConfidenceBand] = (),
    reference_slope: float | None = None,
    title: str = "",
) -> None:
    Path(path).write_text(
        render_plot_svg(plot, bands, reference_slope, title), encoding="utf-8", newline="\n"
    )
