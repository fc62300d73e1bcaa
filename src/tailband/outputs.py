"""Deterministic file emission: CSV, JSON, SVG, and run manifests.

Float formatting rules keep every byte reproducible: CSV uses the shortest
round-trip representation (repr), SVG uses 9 significant digits, JSON is
emitted with sorted keys, and nothing embeds timestamps.  Numbers are
formatted a column at a time (`tolist()` and `map`, no Python loop per
value).  The CSV and SVG writers stream their text to the file in blocks of
`WRITE_ROWS` rows, so what they hold at once does not grow with the row
count.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .bands import ConfidenceBand
from .data import WRITE_ROWS
from .plotsets import PlotSet

MANIFEST_NAME = "run_manifest.json"


def _blocks(n: int) -> Iterator[slice]:
    """The rows 0..n-1 in slices of WRITE_ROWS."""
    return (slice(start, start + WRITE_ROWS) for start in range(0, n, WRITE_ROWS))


def _write_text(path: str | Path, pieces: Iterable[str]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def _csv_pieces(
    header: Sequence[str], n: int, columns: Callable[[slice], Sequence[np.ndarray]]
) -> Iterator[str]:
    """The text of a CSV file: its header line, then the lines of each block
    of rows.  columns(rows) returns each column's values in the slice rows;
    columns with the same bytes in a block are formatted once."""
    yield ",".join(header) + "\n"
    for rows in _blocks(n):
        texts: dict[bytes, list[str]] = {}
        cells = []
        for col in columns(rows):
            key = col.tobytes()
            if key not in texts:
                texts[key] = list(map(repr, col.tolist()))
            cells.append(texts[key])
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns, each value in the shortest decimal
    form that round-trips to the same float (repr)."""
    cols = [np.asarray(col, dtype=float) for col in columns]
    n = min(map(len, cols), default=0)
    _write_text(path, _csv_pieces(header, n, lambda rows: [col[rows] for col in cols]))


def json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json_dumps(payload), encoding="utf-8", newline="\n")


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_plot_csv(path: str | Path, plot: PlotSet) -> None:
    write_csv(path, ["x", "y"], [plot.x, plot.y])


def write_band_csv(path: str | Path, band: ConfidenceBand) -> None:
    x, y = band.base.x, band.base.y
    header = ["x", "y", "xlo", "xhi", "ylo", "yhi"]
    _write_text(path, _csv_pieces(header, len(x), lambda rows: [x[rows], y[rows], *band.rectangles(rows)]))


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


def _svg_pieces(
    plot: PlotSet,
    bands: Sequence[ConfidenceBand],
    reference_slope: float | None,
    title: str,
) -> Iterator[str]:
    """The text of the SVG in pieces: each element, with the points of a
    polygon or polyline in blocks of WRITE_ROWS.  The band rectangles are
    computed a block at a time, for the frame as well as for the polygons."""
    x_lo, x_hi = float(plot.x.min()), float(plot.x.max())
    y_lo, y_hi = float(plot.y.min()), float(plot.y.max())
    for band in bands:
        for rows in _blocks(len(band.base)):
            xlo, xhi, ylo, yhi = band.rectangles(rows)
            x_lo = min(x_lo, float(xlo.min()), float(xhi.min()))
            x_hi = max(x_hi, float(xlo.max()), float(xhi.max()))
            y_lo = min(y_lo, float(ylo.min()), float(yhi.min()))
            y_hi = max(y_hi, float(ylo.max()), float(yhi.max()))
    if reference_slope is not None:
        ends = reference_slope * np.array([x_lo, x_hi])
        y_lo, y_hi = min(y_lo, float(ends.min())), max(y_hi, float(ends.max()))
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

    def poly_points(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[str]:
        """The points attribute of a polygon or polyline, one piece per (x, y) block."""
        sep = ""
        for px, py in pairs:
            yield sep + " ".join(map(_POINT_FMT.format, sx(px).tolist(), sy(py).tolist()))
            sep = " "

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">\n'
    )
    yield f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>\n'
    for i, band in enumerate(bands):
        blocks = list(_blocks(len(band.base)))
        # the upper edge left to right, then the lower edge right to left
        upper = ((band.base.x[rows], band.rectangles(rows)[3]) for rows in blocks)
        lower = ((band.base.x[rows][::-1], band.rectangles(rows)[2][::-1]) for rows in reversed(blocks))
        fill = _BAND_FILLS[min(i, len(_BAND_FILLS) - 1)]
        yield '<polygon points="'
        yield from poly_points(chain(upper, lower))
        yield f'" fill="{fill}" stroke="none"/>\n'
    if reference_slope is not None:
        rx = np.array([max(x_lo, plot.x.min()), min(x_hi, plot.x.max())])
        ry = reference_slope * rx
        yield (
            f'<line x1="{_fmt(sx(rx[0]))}" y1="{_fmt(sy(ry[0]))}" x2="{_fmt(sx(rx[1]))}" '
            f'y2="{_fmt(sy(ry[1]))}" stroke="#a63603" stroke-width="1.5" stroke-dasharray="6,4"/>\n'
        )
    yield '<polyline points="'
    yield from poly_points((plot.x[rows], plot.y[rows]) for rows in _blocks(len(plot)))
    yield '" fill="none" stroke="#000000" stroke-width="1.2"/>\n'
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    yield f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{_fmt(y0)}" stroke="#333333"/>\n'
    yield f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(_MARGIN_T)}" stroke="#333333"/>\n'
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        vx = x_lo + frac * (x_hi - x_lo)
        vy = y_lo + frac * (y_hi - y_lo)
        yield (
            f'<line x1="{_fmt(sx(vx))}" y1="{_fmt(y0)}" x2="{_fmt(sx(vx))}" y2="{_fmt(y0 + 5)}" stroke="#333333"/>'
            f'<text x="{_fmt(sx(vx))}" y="{_fmt(y0 + 18)}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{_fmt(round(vx, 6))}</text>\n'
        )
        yield (
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(sy(vy))}" x2="{_fmt(x0)}" y2="{_fmt(sy(vy))}" stroke="#333333"/>'
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(sy(vy) + 4)}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{_fmt(round(vy, 6))}</text>\n'
        )
    if title:
        yield (
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MARGIN_T - 10)}" font-size="13" text-anchor="middle" '
            f'font-family="monospace">{title}</text>\n'
        )
    yield "</svg>\n"


def write_plot_svg(
    path: str | Path,
    plot: PlotSet,
    bands: Sequence[ConfidenceBand] = (),
    reference_slope: float | None = None,
    title: str = "",
) -> None:
    """Write a deterministic SVG: shaded band(s), the plotted points, reference line.

    Bands are drawn as the polygon between the per-point vertical interval
    edges (horizontal offsets are carried in the CSV, not the shading).
    Multiple bands should be passed widest first so narrower ones draw on top.
    The text is written a piece at a time.
    """
    _write_text(path, _svg_pieces(plot, bands, reference_slope, title))
