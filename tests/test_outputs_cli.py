import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tailband import outputs
from tailband.bands import CoverageDistribution, coverage_experiment, qq_band
from tailband.cli import _CACHE_HEADER, _CACHE_NUMERICS, main
from tailband.data import OrderedSample, ingest, write_sample_file
from tailband.distributions import sample_pareto
from tailband.limitsim import qq_sup_quantile
from tailband.outputs import file_sha256, write_band_csv, write_csv, write_plot_csv, write_plot_svg
from tailband.plotsets import PlotConfig, PlotSet, qq_set
from tailband.rng import RngStream


def run_cli(*argv):
    return main([str(a) for a in argv])


def read(path):
    return Path(path).read_bytes()


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_format_float_roundtrip(tmp_path):
    values = [0.1, 1 / 3, 1e-300, 12345.678901234567, -0.0]
    p = tmp_path / "t.csv"
    write_csv(p, ["v"], [values])
    back = [float(line) for line in p.read_text().splitlines()[1:]]
    assert np.array(back).tobytes() == np.array(values).tobytes()


def test_write_csv_deterministic(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["x", "y"], [(0.1, 1e-5), (0.2, 3)])
    assert p.read_text() == "x,y\n0.1,0.2\n1e-05,3.0\n"


def _svg_text(path, plot, bands=(), reference_slope=None, title=""):
    """The text write_plot_svg writes to path."""
    write_plot_svg(path, plot, bands, reference_slope, title)
    return path.read_text(encoding="utf-8")


def test_svg_renderer_deterministic(tmp_path):
    x = np.linspace(0, 1, 20)
    plot = PlotSet(np.column_stack([x, 2 * x]), "qq")
    a = _svg_text(tmp_path / "a.svg", plot, reference_slope=2.0, title="demo")
    b = _svg_text(tmp_path / "b.svg", plot, reference_slope=2.0, title="demo")
    assert a == b
    assert "date" not in a.lower() and "time" not in a.lower()


# ---------------------------------------------------------------------------
# the column writers against the per-value writers they replaced
# ---------------------------------------------------------------------------

def _per_value_csv(header, rows):
    """The CSV writer as one call per value: the reference for write_csv."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(repr(float(c)) if isinstance(c, (int, float, np.floating)) else str(c) for c in row)
        text += "\n"
    return text


def _per_value_sample_text(values):
    """The sample writer as one call per value: the reference for write_sample_file."""
    return "".join(repr(float(v)) + "\n" for v in values)


def _fmt9(v):
    return f"{v:.9g}"


def _per_point_svg(plot, bands=(), reference_slope=None, title="", coord=_fmt9):
    """The SVG renderer with one scalar sx/sy call and one format per point:
    the reference for write_plot_svg.  `coord` formats a polygon or polyline
    coordinate (9 significant digits in the file)."""
    width, height = 860.0, 620.0
    margin_l, margin_r, margin_t, margin_b = 70.0, 20.0, 30.0, 50.0
    fills = ("#c6dbef", "#9ecae1", "#6baed6")
    xs, ys = [plot.x], [plot.y]
    for band in bands:
        xlo, xhi, ylo, yhi = band.rectangles()
        xs.extend([xlo, xhi])
        ys.extend([ylo, yhi])
    all_x, all_y = np.concatenate(xs), np.concatenate(ys)
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
    inner_w = width - margin_l - margin_r
    inner_h = height - margin_t - margin_b

    def sx(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v):
        return height - margin_b - (v - y_lo) / (y_hi - y_lo) * inner_h

    def poly_points(px, py):
        return " ".join(f"{coord(sx(a))},{coord(sy(b))}" for a, b in zip(px, py))

    f = _fmt9
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{f(width)}" height="{f(height)}" '
        f'viewBox="0 0 {f(width)} {f(height)}">',
        f'<rect width="{f(width)}" height="{f(height)}" fill="#ffffff"/>',
    ]
    for i, band in enumerate(bands):
        _, _, ylo, yhi = band.rectangles()
        px = np.concatenate([band.base.x, band.base.x[::-1]])
        py = np.concatenate([yhi, ylo[::-1]])
        fill = fills[min(i, len(fills) - 1)]
        parts.append(f'<polygon points="{poly_points(px, py)}" fill="{fill}" stroke="none"/>')
    if reference_slope is not None:
        rx = np.array([max(x_lo, plot.x.min()), min(x_hi, plot.x.max())])
        ry = reference_slope * rx
        parts.append(
            f'<line x1="{f(sx(rx[0]))}" y1="{f(sy(ry[0]))}" x2="{f(sx(rx[1]))}" '
            f'y2="{f(sy(ry[1]))}" stroke="#a63603" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
    parts.append(f'<polyline points="{poly_points(plot.x, plot.y)}" fill="none" stroke="#000000" stroke-width="1.2"/>')
    x0, y0 = margin_l, height - margin_b
    parts.append(f'<line x1="{f(x0)}" y1="{f(y0)}" x2="{f(width - margin_r)}" y2="{f(y0)}" stroke="#333333"/>')
    parts.append(f'<line x1="{f(x0)}" y1="{f(y0)}" x2="{f(x0)}" y2="{f(margin_t)}" stroke="#333333"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        vx = x_lo + frac * (x_hi - x_lo)
        vy = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{f(sx(vx))}" y1="{f(y0)}" x2="{f(sx(vx))}" y2="{f(y0 + 5)}" stroke="#333333"/>'
            f'<text x="{f(sx(vx))}" y="{f(y0 + 18)}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{f(round(vx, 6))}</text>'
        )
        parts.append(
            f'<line x1="{f(x0 - 5)}" y1="{f(sy(vy))}" x2="{f(x0)}" y2="{f(sy(vy))}" stroke="#333333"/>'
            f'<text x="{f(x0 - 8)}" y="{f(sy(vy) + 4)}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{f(round(vy, 6))}</text>'
        )
    if title:
        parts.append(
            f'<text x="{f(width / 2)}" y="{f(margin_t - 10)}" font-size="13" text-anchor="middle" '
            f'font-family="monospace">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# edge floats: signed zero, the smallest subnormal, tiny and huge normals,
# integer-valued floats (repr keeps ".0"; 1e22 and 2**53 switch notation)
_EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-300, 1e308, 3.0, -7.0, 2.0**53, 1e16, 1e22, 0.1, 1 / 3, 0.0])


def _qq_bands():
    s = sample_pareto(0.25, 3000, RngStream(11))
    plot = qq_set(s, PlotConfig(400, 0.05))
    return [qq_band(plot, PlotConfig(400, 0.05, alpha), 0.25) for alpha in (0.01, 0.05)]


def test_csv_writer_matches_per_value_writer(tmp_path):
    a = _EDGE_FLOATS
    plus_zero = a + 0.0  # equal to a, but not in bytes: -0.0 becomes 0.0
    cases = [
        (["a", "b", "a2", "a3", "z", "neg"], [a, a[::-1], a, a.copy(), plus_zero, -a]),  # repeated columns
        (["x", "y"], [a[3:4], a[:1]]),  # a single row
        (["x", "y"], [np.empty(0), np.empty(0)]),  # no row
        (["n", "m"], [[1, 2, -3], (4.0, 5e-324, -0.0)]),  # ints and tuples
    ]
    for i, (header, columns) in enumerate(cases):
        p = tmp_path / f"c{i}.csv"
        write_csv(p, header, columns)
        assert p.read_bytes() == _per_value_csv(header, zip(*columns)).encode(), header
    band = _qq_bands()[0]
    write_band_csv(tmp_path / "band.csv", band)
    rows = zip(band.base.x, band.base.y, *band.rectangles())
    assert (tmp_path / "band.csv").read_bytes() == _per_value_csv(["x", "y", "xlo", "xhi", "ylo", "yhi"], rows).encode()
    write_plot_csv(tmp_path / "plot.csv", band.base)
    assert (tmp_path / "plot.csv").read_bytes() == _per_value_csv(["x", "y"], band.base.points).encode()


def test_svg_renderer_matches_per_point_renderer(monkeypatch, tmp_path):
    bands = _qq_bands()
    # a QQ plot's x increases strictly: drop 1e308 (the frame would overflow) and +0.0
    edge = _EDGE_FLOATS[(np.abs(_EDGE_FLOATS) < 1e300) & (np.signbit(_EDGE_FLOATS) | (_EDGE_FLOATS != 0))]
    cases = [
        (bands[0].base, bands, 0.25, "qq"),  # two band polygons, widest first
        (PlotSet(np.column_stack([np.sort(edge), edge]), "qq"), (), -2.0, ""),
        (PlotSet(np.array([[5e-324, -0.0]]), "qq"), (), None, ""),  # one point
    ]
    for plot, case_bands, slope, title in cases:
        assert _svg_text(tmp_path / "p.svg", plot, case_bands, slope, title) == _per_point_svg(
            plot, case_bands, slope, title
        )
    # the file keeps 9 digits, which hide a last-bit change in a pixel
    # coordinate: compare the coordinates at full precision as well
    monkeypatch.setattr(outputs, "g9_points", lambda x, y: " ".join(map("{!r},{!r}".format, x.tolist(), y.tolist())))
    for plot, case_bands, slope, title in cases:
        new = _svg_text(tmp_path / "p.svg", plot, case_bands, slope, title)
        assert new == _per_point_svg(plot, case_bands, slope, title, coord=lambda v: repr(float(v)))


def test_svg_point_writer_matches_per_point_format():
    # -0.0, subnormals, 1e308, integer-valued floats, and random pixels
    rng = np.random.default_rng(17)
    pixels = rng.uniform(-20.0, 880.0, 2 * 2048)
    for x, y in [(_EDGE_FLOATS, _EDGE_FLOATS[::-1]), (-_EDGE_FLOATS, _EDGE_FLOATS), (pixels[0::2], pixels[1::2]),
                 (np.array([-0.0]), np.array([5e-324]))]:
        expected = " ".join(map("{:.9g},{:.9g}".format, x.tolist(), y.tolist()))
        assert outputs.g9_points(x, y) == expected


def test_sample_writer_matches_per_value_writer(tmp_path):
    draws = sample_pareto(0.5, 2 * (1 << 16) + 5, RngStream(4))  # past two chunk edges
    for i, values in enumerate([draws, _EDGE_FLOATS, np.empty(0), np.array([1e308])]):
        p = tmp_path / f"s{i}.txt"
        write_sample_file(values, p)
        expected = values.values if isinstance(values, OrderedSample) else values
        assert p.read_bytes() == _per_value_sample_text(expected).encode(), i


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("simulate", "--dist", "pareto", "--xi", "0.25", "--n", 50, "--seed", 1, "--out", out1) == 0
    assert run_cli("simulate", "--dist", "pareto", "--xi", "0.25", "--n", 50, "--seed", 1, "--out", out2) == 0
    assert read(out1) == read(out2)
    manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
    assert manifest["seed"] == 1
    assert str(out1) in manifest["outputs"]
    assert manifest["outputs"][str(out1)] == file_sha256(out1)


def test_simulate_nonstd_support(tmp_path):
    out = tmp_path / "n.txt"
    assert run_cli("simulate", "--dist", "nonstd", "--n", 100, "--seed", 2, "--out", out) == 0
    s = ingest(out)
    assert s.values.min() >= 1.0


def test_simulate_env_seed(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("TAILBAND_SEED", "9")
    run_cli("simulate", "--dist", "gpd", "--xi", "0.25", "--beta", "2", "--n", 20, "--out", out1)
    run_cli("simulate", "--dist", "gpd", "--xi", "0.25", "--beta", "2", "--n", 20, "--seed", 9, "--out", out2)
    assert read(out1) == read(out2)


@pytest.mark.parametrize("dist, xi", [("pareto", "inf"), ("pareto", "1e308"), ("gpd", "1e308")])
def test_simulate_overflowing_shape_refused(tmp_path, capsys, dist, xi):
    out = tmp_path / "s.txt"
    assert run_cli("simulate", "--dist", dist, "--xi", xi, "--n", 10, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"DomainError: {dist} shape xi={float(xi)} ") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_overflowing_stable_shape_refused(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert run_cli("simulate", "--dist", "stable", "--xi", "1e308", "--n", 10, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("DomainError: stable shape xi=1e+308 ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("dist", ["pareto", "gpd"])
def test_simulate_large_finite_shape_works(tmp_path, capsys, dist):
    out = tmp_path / "s.txt"
    assert run_cli("simulate", "--dist", dist, "--xi", 40, "--n", 100_000, "--seed", 1, "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert ingest(out).n == 100_000


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.fixture()
def sample_file(tmp_path):
    f = tmp_path / "sample.txt"
    run_cli("simulate", "--dist", "pareto", "--xi", "0.25", "--n", 4000, "--seed", 5, "--out", f)
    return f


def test_analyze_qq_hand_example(tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("8\n4\n2\n1\n")
    out = tmp_path / "out"
    assert run_cli("analyze", f, "--plot", "qq", "--k", 2, "--eps", 0.01, "--outdir", out) == 0
    rows = (out / "plot.csv").read_text().splitlines()
    assert rows[0] == "x,y"
    assert rows[1] == "0.0,0.0"
    x, y = map(float, rows[2].split(","))
    assert x == pytest.approx(math.log(2), rel=1e-15)
    assert y == pytest.approx(math.log(2), rel=1e-15)


def test_analyze_qq_band_outputs(sample_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "analyze", sample_file, "--plot", "qq", "--k", 500, "--eps", 0.05,
        "--band", "--alpha", "0.05", "--svg", "plot.svg", "--outdir", out, "--seed", 3,
    )
    assert code == 0
    assert (out / "plot.csv").exists()
    band_rows = (out / "band.csv").read_text().splitlines()
    assert band_rows[0] == "x,y,xlo,xhi,ylo,yhi"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["regime"] == "qq"
    assert meta["xi_method"] == "hill"
    assert abs(meta["xi_hat"] - 0.25) < 0.05
    assert (out / "plot.svg").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert str(sample_file) in manifest["inputs"]


def test_analyze_me_band_runs(sample_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "analyze", sample_file, "--plot", "me", "--k", 400, "--eps", 0.1,
        "--band", "--paths", 1000, "--grid", 1024, "--outdir", out, "--seed", 3,
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["regime"] == "me-lt-half"
    assert meta["quantiles"]["c"]["source"] == "monte-carlo"


def test_analyze_byte_identical_reruns(sample_file, tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        run_cli(
            "analyze", sample_file, "--plot", "me", "--k", 300, "--eps", 0.1,
            "--band", "--paths", 1000, "--grid", 1024, "--svg", "p.svg", "--outdir", out, "--seed", 11,
        )
        outs.append(out)
    for name in ("plot.csv", "band.csv", "meta.json", "p.svg"):
        assert read(outs[0] / name) == read(outs[1] / name)


def test_analyze_thread_count_invariance(sample_file, tmp_path):
    outs = []
    for name, threads in (("t1", 1), ("t2", 2)):
        out = tmp_path / name
        run_cli(
            "analyze", sample_file, "--plot", "me", "--k", 300, "--eps", 0.1,
            "--band", "--paths", 1024, "--grid", 1024, "--outdir", out, "--seed", 11,
            "--threads", threads,
        )
        outs.append(out)
    for name in ("plot.csv", "band.csv", "meta.json"):
        assert read(outs[0] / name) == read(outs[1] / name)


def test_analyze_multi_alpha_svg(sample_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "analyze", sample_file, "--plot", "qq", "--k", 400, "--eps", 0.05,
        "--band", "--multi-alpha", "--svg", "bands.svg", "--outdir", out,
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["band_levels"] == [0.99, 0.95, 0.9]
    svg = (out / "bands.svg").read_text()
    assert svg.count("<polygon") == 3


def test_analyze_csv_column_input(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("id,value\n0,8\n1,4\n2,2\n3,1\n")
    out = tmp_path / "out"
    code = run_cli(
        "analyze", f, "--format", "csv-column", "--column", 1,
        "--plot", "qq", "--k", 2, "--eps", 0.01, "--outdir", out,
    )
    assert code == 0
    assert (out / "plot.csv").read_text().splitlines()[1] == "0.0,0.0"


def test_analyze_missing_file_exit_code(tmp_path, capsys):
    code = run_cli("analyze", tmp_path / "nope.txt", "--plot", "qq", "--k", 10, "--eps", 0.05, "--outdir", tmp_path / "o")
    assert code == 2
    assert "FileNotFound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["analyze", "{f}", "--outdir", "{file}"], "FileExistsError"),
        (["analyze", "{f}", "--outdir", "{o}", "--svg", "{dir}"], "IsADirectoryError"),
        (["analyze", "{dir}", "--outdir", "{o}"], "IsADirectoryError"),
        (["simulate", "--dist", "pareto", "--xi", "0.5", "--n", "10", "--out", "{dir}"], "IsADirectoryError"),
    ],
    ids=["outdir-is-a-file", "svg-is-a-directory", "input-is-a-directory", "simulate-out-is-a-directory"],
)
def test_path_of_the_wrong_kind_exit_code(tmp_path, capsys, argv, error):
    f = tmp_path / "f.txt"
    f.write_text("8\n4\n2\n1\n")
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    paths = {"f": f, "file": tmp_path / "file", "dir": tmp_path / "dir", "o": tmp_path / "o"}
    argv = [a.format(**paths) for a in argv]
    if argv[0] == "analyze":
        argv += ["--plot", "qq", "--k", "2", "--eps", "0.01"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


@pytest.mark.parametrize("svg", ["{dir}", "plot.svg"], ids=["absolute-directory", "directory-in-outdir"])
def test_refused_svg_path_leaves_no_partial_run(tmp_path, capsys, svg):
    f = tmp_path / "f.txt"
    f.write_text("8\n4\n2\n1\n")
    (tmp_path / "dir").mkdir()
    outdir = tmp_path / "o"
    (outdir / "plot.svg").mkdir(parents=True)
    svg = svg.format(dir=tmp_path / "dir")
    assert run_cli("analyze", f, "--plot", "qq", "--k", 2, "--eps", 0.01, "--band",
                   "--outdir", outdir, "--svg", svg) == 2
    err = capsys.readouterr().err
    assert err.startswith("IsADirectoryError: ") and err.count("\n") == 1
    assert sorted(p.name for p in outdir.iterdir()) == ["plot.svg"]


@pytest.mark.parametrize("argv, error, names", [
    (["--plot", "qq", "--k", 300, "--eps", 0.05, "--band", "--multi-alpha", "--alpha", 0.2], "DomainError", "--alpha"),
    (["--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.5], "RegimeBoundary", "xi_hat"),
    (["--plot", "qq", "--k", 300, "--eps", 0.05, "--multi-alpha"], "DomainError", "--band"),
    (["--plot", "qq", "--k", 300, "--eps", 0.05, "--band", "--alpha", 1e-300], "DomainError", "alpha=1e-300"),
    (["--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7, "--alpha", 1e-300], "DomainError",
     "alpha=1e-300"),
    (["--plot", "me", "--k", 300, "--eps", 0.9999, "--band", "--xi", 0.25, "--grid", 1000], "DomainError",
     "eps=0.9999 holds 1 of the grid=1000"),
    (["--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.25, "--paths", 100], "DomainError",
     "1000 paths, got 100"),
    (["--plot", "qq", "--k", 300, "--eps", 0.05, "--band", "--xi", 1e308], "DomainError",
     "xi=1e+308 is too large: the band half-width"),
    (["--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7, "--alpha", 1e-9, "--paths", 100,
      "--grid", 100], "DomainError", "cannot resolve level 5e-10"),
], ids=["multi-alpha-without-its-alpha", "band-regime-boundary", "multi-alpha-without-band",
        "qq-alpha-level-rounds-to-one", "me-alpha-level-rounds-to-one", "window-of-one-grid-column",
        "too-few-paths-for-d", "qq-half-width-overflows", "sum-over-max-level-unresolvable"])
def test_refused_band_leaves_no_data_file(sample_file, tmp_path, capsys, argv, error, names):
    outdir = tmp_path / "o"
    assert run_cli("analyze", sample_file, *argv, "--svg", "plot.svg", "--outdir", outdir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert names in err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize(
    "fmt, content, line",
    [
        ("plain", b"1\n2\n\xff3\n4\n", 3),
        ("csv-column", b"id,value\n0,1\n1,2\n2,\xff\n", 4),
    ],
)
def test_analyze_non_utf8_input_exit_code(tmp_path, capsys, fmt, content, line):
    f = tmp_path / "data.txt"
    f.write_bytes(content)
    code = run_cli(
        "analyze", f, "--format", fmt, "--column", 1 if fmt == "csv-column" else 0,
        "--plot", "qq", "--k", 2, "--eps", 0.01, "--outdir", tmp_path / "o",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"ParseError: cannot parse line {line} (not valid UTF-8)\n"


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--dist", "pareto", "--xi", 0.5, "--n", 10, "--out", tmp_path / "s.txt",
                "--threads", threads)
    assert exc.value.code == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5", "abc"])
def test_seed_outside_range_rejected(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--dist", "pareto", "--xi", 0.5, "--n", 10, "--out", tmp_path / "s.txt",
                "--seed", seed)
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5", "abc"])
def test_env_seed_outside_range_refused(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setenv("TAILBAND_SEED", seed)
    assert run_cli("simulate", "--dist", "pareto", "--xi", 0.5, "--n", 10, "--out", tmp_path / "s.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("DomainError: TAILBAND_SEED ") and err.count("\n") == 1
    assert not (tmp_path / "s.txt").exists()


def test_seed_range_ends_accepted(tmp_path, monkeypatch):
    assert run_cli("simulate", "--dist", "pareto", "--xi", 0.5, "--n", 10, "--out", tmp_path / "a.txt",
                   "--seed", 2**64 - 1) == 0
    monkeypatch.setenv("TAILBAND_SEED", str(2**64 - 1))
    assert run_cli("simulate", "--dist", "pareto", "--xi", 0.5, "--n", 10, "--out", tmp_path / "b.txt") == 0
    assert read(tmp_path / "a.txt") == read(tmp_path / "b.txt")


def test_negative_column_rejected(tmp_path, capsys):
    f = tmp_path / "data.csv"
    f.write_text("id,value\n0,8\n1,4\n2,2\n3,1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", f, "--format", "csv-column", "--column", -1,
                "--plot", "qq", "--k", 2, "--eps", 0.01, "--outdir", tmp_path / "o")
    assert exc.value.code == 2
    assert "argument --column" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_PATHS_COMMANDS = {
    "analyze": ["analyze", "{f}", "--plot", "me", "--k", "300", "--eps", "0.1", "--band", "--xi", "0.7",
                "--outdir", "{o}"],
    "quantiles": ["quantiles", "--functional", "me-c", "--xi", "0.25", "--eps", "0.1", "--level", "0.975",
                  "--out", "{o}/q.json"],
    "coverage": ["coverage", "--xi", "0.25", "--n", "1500", "--k", "200", "--eps", "0.05",
                 "--replications", "2", "--outdir", "{o}"],
}


@pytest.mark.parametrize("paths", ["0", "-5"])
@pytest.mark.parametrize("command", sorted(_PATHS_COMMANDS))
def test_paths_below_one_rejected(tmp_path, capsys, command, paths):
    f = tmp_path / "s.txt"
    f.write_text("".join(f"{(i + 1) ** 0.7!r}\n" for i in range(2000)))
    argv = [a.format(f=f, o=tmp_path / "o") for a in _PATHS_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--paths", paths)
    assert exc.value.code == 2
    assert "argument --paths" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_fifo_manifest_hashes_bytes_read(tmp_path):
    # The manifest hashes the input as it is read: a FIFO cannot be opened a
    # second time, and the bytes recorded are the bytes analysed.
    import os
    import subprocess
    import sys
    import threading

    import tailband

    payload = "".join(f"{(i + 1) ** 0.5!r}\n" for i in range(2000)).encode()
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(payload)
        except OSError:
            pass  # the reader went away

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    env = dict(os.environ, PYTHONPATH=str(Path(tailband.__file__).resolve().parent.parent))
    argv = ["analyze", str(fifo), "--plot", "qq", "--k", "200", "--eps", "0.05", "--outdir"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tailband.cli", *argv, str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=60,
        )
    finally:
        if writer.is_alive():  # unblock a writer whose reader never came
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["inputs"] == {str(fifo): hashlib.sha256(payload).hexdigest()}
    regular = tmp_path / "in.txt"
    regular.write_bytes(payload)
    assert run_cli(*argv[:1], regular, *argv[2:], tmp_path / "r") == 0
    assert read(tmp_path / "r" / "plot.csv") == read(tmp_path / "o" / "plot.csv")
    assert json.loads(read(tmp_path / "r" / "run_manifest.json"))["inputs"] == {str(regular): file_sha256(regular)}


def test_run_batches_caps_workers(monkeypatch):
    from tailband import parallel

    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    # run_batches reads the pool class from concurrent.futures when it starts one
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    square = lambda v: v * v
    assert parallel.run_batches(square, [1, 2, 3, 4, 5], threads=64) == [1, 4, 9, 16, 25]
    assert parallel.run_batches(square, [1, 2], threads=64) == [1, 4]
    assert parallel.run_batches(square, [1, 2, 3, 4, 5], threads=2) == [1, 4, 9, 16, 25]
    assert created == [3, 2, 2]
    # without an affinity mask the machine's CPU count caps the pool
    monkeypatch.delattr(parallel.os, "sched_getaffinity")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    assert parallel.run_batches(square, [1, 2, 3, 4, 5], threads=64) == [1, 4, 9, 16, 25]
    assert created == [3, 2, 2, 3]
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.run_batches(square, [1, 2, 3], threads=8) == [1, 4, 9]
    assert created == [3, 2, 2, 3]  # one CPU (or unknown): no pool


def test_run_batches_stays_on_the_cpus_it_may_use(monkeypatch):
    # a process pinned to one CPU of a larger machine runs every batch in the
    # calling thread, whatever --threads asks for
    import threading

    from tailband import parallel

    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    idents = parallel.run_batches(lambda v: threading.get_ident(), range(6), threads=4)
    assert idents == [threading.get_ident()] * 6


def _stdout_then_loaded(argv, tmp_path, package="scipy"):
    """stdout lines of one `tailband` command run in a fresh interpreter,
    followed by the list of modules of `package` it loaded."""
    import os
    import subprocess
    import sys

    import tailband

    script = (
        "import sys\n"
        "import tailband.cli\n"
        "argv = sys.argv[1:]\n"
        "assert tailband.cli.main(argv) == 0\n"
        "package = " + repr(package) + "\n"
        "print(sorted(m for m in sys.modules if m == package or m.startswith(package + '.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tailband.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_qq_analyze_loads_no_scipy(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("".join(f"{(i + 1) ** 0.5!r}\n" for i in range(2000)))
    argv = ["analyze", f, "--plot", "qq", "--k", "200", "--eps", "0.05", "--band", "--svg", "p.svg",
            "--outdir", tmp_path / "o"]
    assert _stdout_then_loaded(argv, tmp_path) == ["[]"]
    assert (tmp_path / "o" / "band.csv").exists()


def test_heavy_me_analyze_and_stilde_load_no_scipy(tmp_path):
    f = tmp_path / "s.txt"
    assert run_cli("simulate", "--dist", "pareto", "--xi", 0.7, "--n", 4000, "--seed", 5, "--out", f) == 0
    argv = ["analyze", f, "--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7,
            "--paths", 1000, "--grid", 1024, "--outdir", tmp_path / "o"]
    assert _stdout_then_loaded(argv, tmp_path) == ["[]"]
    meta = json.loads((tmp_path / "o" / "meta.json").read_text())
    assert meta["regime"] == "me-gt-half"
    assert meta["quantiles"]["tilde_hi"]["source"] == "cf-inversion"
    argv = ["quantiles", "--functional", "stilde", "--xi", 0.7, "--level", 0.975]
    assert _stdout_then_loaded(argv, tmp_path)[-1] == "[]"  # after the quantile's JSON


def test_me_coverage_loads_no_scipy(tmp_path):
    argv = ["coverage", "--plot", "me", "--xi", 0.25, "--n", 2000, "--k", 200, "--eps", 0.1,
            "--replications", 3, "--paths", 1000, "--grid", 1024, "--outdir", tmp_path / "o"]
    assert _stdout_then_loaded(argv, tmp_path)[-1] == "[]"  # after the coverage's JSON
    assert len(json.loads((tmp_path / "o" / "report.json").read_text())["per_replication"]) == 3


def test_analyze_loads_no_multiprocessing(tmp_path):
    # Monte Carlo batches run on threads: neither the QQ band nor a heavy ME
    # band on two threads imports multiprocessing
    f = tmp_path / "s.txt"
    assert run_cli("simulate", "--dist", "pareto", "--xi", 0.7, "--n", 4000, "--seed", 5, "--out", f) == 0
    qq = ["analyze", f, "--plot", "qq", "--k", "200", "--eps", "0.05", "--band", "--outdir", tmp_path / "q"]
    assert _stdout_then_loaded(qq, tmp_path, "multiprocessing") == ["[]"]
    me = ["analyze", f, "--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7,
          "--paths", 1000, "--grid", 1024, "--threads", 2, "--outdir", tmp_path / "o"]
    assert _stdout_then_loaded(me, tmp_path, "multiprocessing") == ["[]"]
    assert (tmp_path / "o" / "band.csv").exists()


def test_analyze_me_band_heavy_shape_refusal(sample_file, tmp_path, capsys):
    code = run_cli(
        "analyze", sample_file, "--plot", "me", "--k", 300, "--eps", 0.1,
        "--band", "--xi", 1.2, "--outdir", tmp_path / "o",
    )
    assert code == 2
    assert "MeanDoesNotExist: no ME band for xi>=1" in capsys.readouterr().err


@pytest.fixture()
def engine_calls(monkeypatch):
    """Arguments of every call to the bridge path engine."""
    from tailband import limitsim

    calls = []
    engine = limitsim.bridge_functional_samples

    def counting(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(limitsim, "bridge_functional_samples", counting)
    return calls


@pytest.mark.parametrize("xi, path_sets", [(0.25, 1), (0.7, 0)], ids=["0.25", "0.7"])
def test_analyze_me_multi_alpha_draws_one_path_set(sample_file, tmp_path, engine_calls, xi, path_sets):
    # one path set serves every level of a light-regime band; a heavy-regime
    # band solves c without paths
    bands = {}
    for name, extra in (("single", []), ("multi", ["--multi-alpha"])):
        engine_calls.clear()
        out = tmp_path / name
        code = run_cli(
            "analyze", sample_file, "--plot", "me", "--k", 400, "--eps", 0.1, "--band", "--xi", xi,
            "--paths", 1000, "--grid", 1024, "--seed", 3, "--outdir", out, *extra,
        )
        assert code == 0
        assert len(engine_calls) == path_sets
        bands[name] = read(out / "band.csv")
    assert bands["multi"] == bands["single"]


@pytest.mark.parametrize("plot, xi", [("qq", 0.25), ("me", 0.25), ("me", 0.7)])
def test_analyze_builds_the_plot_once_for_every_band(sample_file, tmp_path, monkeypatch, plot, xi):
    from tailband import bands, outputs, plotsets

    # cli reads each name from its module when the command runs
    built, drawn = [], []
    for module in (plotsets, bands):
        for name in ("qq_set", "me_set"):
            make = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, make=make: built.append(make(*a)) or built[-1])
    svg = outputs.write_plot_svg
    monkeypatch.setattr(
        outputs, "write_plot_svg",
        lambda path, base, found, **k: drawn.append((base, found)) or svg(path, base, found, **k),
    )
    code = run_cli(
        "analyze", sample_file, "--plot", plot, "--k", 400, "--eps", 0.1, "--band", "--xi", xi, "--multi-alpha",
        "--paths", 1000, "--grid", 1024, "--svg", "p.svg", "--outdir", tmp_path / "o",
    )
    assert code == 0
    [(plotted, found)] = drawn
    assert len(built) == 1 and built[0] is plotted and len(found) == 3
    assert all(band.base is plotted for band in found)


@pytest.mark.parametrize("xi, error", [(0.48, "RegimeBoundary"), (0.5, "RegimeBoundary"),
                                       (0.52, "RegimeBoundary"), (1.0, "MeanDoesNotExist"),
                                       (1.2, "MeanDoesNotExist")])
def test_analyze_me_shape_refused_before_drawing(sample_file, tmp_path, capsys, engine_calls, xi, error):
    code = run_cli(
        "analyze", sample_file, "--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", xi,
        "--multi-alpha", "--outdir", tmp_path / "o",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"{error}: ")
    assert engine_calls == []


def test_analyze_warning_is_one_line(tmp_path, capsys):
    import warnings

    f = tmp_path / "heavy.txt"
    run_cli("simulate", "--dist", "pareto", "--xi", "0.7", "--n", 5000, "--seed", 9, "--out", f)
    hook = warnings.showwarning
    code = run_cli(
        "analyze", f, "--plot", "me", "--k", 500, "--eps", 0.1, "--band", "--xi", 0.7,
        "--alpha", 0.01, "--paths", 1000, "--grid", 1024, "--seed", 10, "--outdir", tmp_path / "o",
    )
    assert code == 0
    assert capsys.readouterr().err == (
        "UserWarning: confidence bands above 99% are extremely wide in the infinite-variance regime\n"
    )
    assert warnings.showwarning is hook


def test_analyze_conservative_xi(sample_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("analyze", sample_file, "--plot", "qq", "--k", 300, "--eps", 0.05, "--band", "--outdir", out1)
    run_cli(
        "analyze", sample_file, "--plot", "qq", "--k", 300, "--eps", 0.05, "--band",
        "--conservative-xi", 1.5, "--outdir", out2,
    )
    m1 = json.loads((out1 / "meta.json").read_text())
    m2 = json.loads((out2 / "meta.json").read_text())
    assert m2["xi_hat"] == pytest.approx(1.5 * m1["xi_hat"])
    b1 = (out1 / "band.csv").read_text().splitlines()[1].split(",")
    b2 = (out2 / "band.csv").read_text().splitlines()[1].split(",")
    width1 = float(b1[5]) - float(b1[4])
    width2 = float(b2[5]) - float(b2[4])
    assert width2 == pytest.approx(1.5 * width1, rel=1e-9)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--xi", "--conservative-xi"])
def test_analyze_non_finite_shape_refused(sample_file, tmp_path, capsys, flag, value):
    code = run_cli(
        "analyze", sample_file, "--plot", "qq", "--k", 300, "--eps", 0.05, "--band",
        flag, value, "--outdir", tmp_path / "o",
    )
    assert code == 2
    assert capsys.readouterr().err == "DomainError: xi must be finite\n"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def test_quantiles_qq_sup_matches_library(capsys):
    assert run_cli("quantiles", "--functional", "qq-sup", "--eps", 0.05, "--level", 0.975) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimates"][0]["value"] == pytest.approx(qq_sup_quantile(0.975, 0.05).value)
    assert payload["estimates"][0]["source"] == "series"


def test_quantiles_cache_hit(tmp_path, capsys):
    args = [
        "quantiles", "--functional", "me-c", "--xi", 0.25, "--eps", 0.1, "--level", 0.975,
        "--paths", 1000, "--grid", 1024, "--seed", 4, "--cache-dir", tmp_path,
    ]
    assert run_cli(*args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cache_hit"] is False
    assert run_cli(*args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cache_hit"] is True
    assert second["estimates"] == first["estimates"]
    # different key (level) misses
    args[args.index("--level") + 1] = 0.9
    assert run_cli(*args) == 0
    assert json.loads(capsys.readouterr().out)["cache_hit"] is False


def test_quantiles_cache_keys_the_shape_exactly(tmp_path, capsys):
    # a shape equal to another in four decimals is a key of its own
    args = ["quantiles", "--functional", "stilde", "--level", 0.975, "--cache-dir", tmp_path]
    assert run_cli(*args, "--xi", 0.7) == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli(*args, "--xi", 0.70004) == 0
    second = json.loads(capsys.readouterr().out)
    assert (first["cache_hit"], second["cache_hit"]) == (False, False)
    assert abs(second["estimates"][0]["value"] - 1.5273857998) < 1e-9
    assert abs(first["estimates"][0]["value"] - 1.5276509543) < 1e-9


def test_quantiles_cache_misses_rows_of_older_numerics(tmp_path, capsys):
    # Rows written by earlier numerics must never be served: the untagged
    # quantile_cache.csv (brentq on the per-node sum) and v2 (the CF
    # integral truncated at t_max, without the closed-form tail).
    olds = [tmp_path / "quantile_cache.csv", tmp_path / "quantile_cache.v2.csv"]
    for old in olds:
        old.write_text(
            "functional,xi,eps,level,paths,grid,seed,source,value,std_error,n_paths,grid_m\n"
            "stilde,0.5500,,0.975,100000,8192,0,cf-inversion,99.0,0.001,0,0\n"
        )
    args = ["quantiles", "--functional", "stilde", "--xi", 0.55, "--level", 0.975, "--seed", 0,
            "--cache-dir", tmp_path]
    assert run_cli(*args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cache_hit"] is False
    assert first["estimates"][0]["value"] != 99.0
    assert run_cli(*args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cache_hit"] is True
    assert second["estimates"] == first["estimates"]
    assert all(old.read_text().count("\n") == 2 for old in olds)  # old files are left alone


@pytest.mark.parametrize(
    "row",
    [
        "stilde,0.55,,0.975,100000,8192,0,cf-inversion,99.0,0.001",  # last two fields cut
        "stilde,0.55,,0.975,100000,8192,0,cf-inversion,99.0,0.001,0,0,0",  # one field too many
        "stilde,0.55,,0.975,100000,8192,0,cf-inversion,9x.0,0.001,0,0",  # value does not parse
        "stilde,0.55,,0.975,100000,8192,0,cf-inversion,99.0,0.0,0,0",  # std_error must be > 0
    ],
    ids=["cut", "extra-field", "bad-float", "zero-std-error"],
)
def test_quantiles_cache_malformed_row_is_a_miss(tmp_path, capsys, row):
    cache = tmp_path / f"quantile_cache.v{_CACHE_NUMERICS}.csv"
    cache.write_text(_CACHE_HEADER + "\n" + row + "\n")
    args = ["quantiles", "--functional", "stilde", "--xi", 0.55, "--level", 0.975, "--seed", 0,
            "--cache-dir", tmp_path]
    assert run_cli(*args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cache_hit"] is False
    assert first["estimates"][0]["value"] != 99.0
    lines = cache.read_text().splitlines()
    assert lines[:2] == [_CACHE_HEADER, row] and len(lines) == 3  # a good row is appended
    assert run_cli(*args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cache_hit"] is True
    assert second["estimates"] == first["estimates"]


def test_quantiles_cache_non_utf8_row_is_a_miss(tmp_path, capsys):
    cache = tmp_path / f"quantile_cache.v{_CACHE_NUMERICS}.csv"
    bad = b"stilde,0.55,,0.975,100000,8192,0,cf-inversion,9\xff.0,0.001,0,0\n"
    cache.write_bytes(_CACHE_HEADER.encode() + b"\n" + bad)
    args = ["quantiles", "--functional", "stilde", "--xi", 0.55, "--level", 0.975, "--seed", 0,
            "--cache-dir", tmp_path]
    assert run_cli(*args) == 0
    assert json.loads(capsys.readouterr().out)["cache_hit"] is False
    assert run_cli(*args) == 0
    assert json.loads(capsys.readouterr().out)["cache_hit"] is True
    assert cache.read_bytes().startswith(_CACHE_HEADER.encode() + b"\n" + bad)


def test_quantiles_stilde_both_methods(capsys):
    code = run_cli(
        "quantiles", "--functional", "stilde", "--xi", 0.6667, "--level", 0.975,
        "--method", "both", "--paths", 4000, "--seed", 6,
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    sources = {e["source"] for e in payload["estimates"]}
    assert sources == {"cf-inversion", "monte-carlo"}
    values = [e["value"] for e in payload["estimates"]]
    errs = [e["std_error"] for e in payload["estimates"]]
    # cross-method agreement within combined error plus finite-sample slack
    assert abs(values[0] - values[1]) <= 3 * math.hypot(*errs) + 0.25


def test_quantiles_missing_arguments(capsys):
    assert run_cli("quantiles", "--functional", "me-c", "--level", 0.9) == 2
    assert "DomainError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_report(tmp_path, capsys):
    out = tmp_path / "cov"
    code = run_cli(
        "coverage", "--dist", "pareto", "--xi", 0.25, "--n", 1500, "--k", 200,
        "--eps", 0.05, "--alpha", 0.05, "--replications", 5, "--seed", 7, "--outdir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["per_replication"]) == 5
    assert report["coverage"] == pytest.approx(
        sum(report["per_replication"]) / 5
    )
    # identical rerun produces identical bytes (manifest included: same argv)
    before = read(out / "report.json"), read(out / "run_manifest.json")
    run_cli(
        "coverage", "--dist", "pareto", "--xi", 0.25, "--n", 1500, "--k", 200,
        "--eps", 0.05, "--alpha", 0.05, "--replications", 5, "--seed", 7, "--outdir", out,
    )
    assert (read(out / "report.json"), read(out / "run_manifest.json")) == before


def test_coverage_me_plot_and_single_replication(tmp_path):
    out = tmp_path / "cov_me"
    code = run_cli(
        "coverage", "--dist", "pareto", "--xi", 0.25, "--n", 1500, "--k", 200,
        "--eps", 0.1, "--plot", "me", "--replications", 1, "--paths", 1000,
        "--grid", 1024, "--seed", 8, "--outdir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["per_replication"]) == 1
    assert report["coverage"] in (0.0, 1.0)


def test_coverage_counts_a_replication_without_a_band_as_a_miss(tmp_path):
    # near the regime boundary some Hill estimates fall inside [0.48, 0.52];
    # such a replication once aborted the whole run with exit 2.  The shape
    # table reaches 0.48, so an estimate just below it has its band.
    argv = ["coverage", "--plot", "me", "--xi", 0.45, "--n", 3000, "--k", 300, "--eps", 0.1,
            "--replications", 50, "--paths", 1000, "--grid", 1024, "--seed", 4]
    assert run_cli(*argv, "--outdir", tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    refused = sum(report["refusals"].values())
    assert refused > 0 and set(report["refusals"]) <= {"UntabulatedShape", "RegimeBoundary", "MeanDoesNotExist"}
    assert "UntabulatedShape" not in report["refusals"]
    assert report["coverage"] == sum(report["per_replication"]) / 50
    result = coverage_experiment(CoverageDistribution("pareto", 0.45), 3000, PlotConfig(300, 0.1), 50,
                                 RngStream(4), plot="me", n_paths=1000, grid_m=1024)
    assert result.hits == tuple(report["per_replication"]) and len(result.refusals) == refused
    assert not any(result.hits[rep] for rep, _ in result.refusals)


def test_coverage_me_refuses_a_coarse_path_set(tmp_path, capsys):
    # the shape-grid table checks the path set as bridge_quantiles does
    out = tmp_path / "o"
    code = run_cli("coverage", "--plot", "me", "--xi", 0.25, "--n", 2000, "--k", 200, "--eps", 0.1,
                   "--replications", 3, "--grid", 10, "--paths", 100, "--outdir", out)
    assert code == 2
    assert capsys.readouterr().err == "DomainError: the d-functional needs at least 1000 paths, got 100\n"
    assert not out.exists()


@pytest.mark.parametrize("replications", ["0", "-2"])
def test_coverage_replications_below_one_rejected(tmp_path, capsys, replications):
    with pytest.raises(SystemExit) as exc:
        run_cli("coverage", "--xi", 0.25, "--n", 1500, "--k", 200, "--eps", 0.05,
                "--replications", replications, "--outdir", tmp_path / "o")
    assert exc.value.code == 2
    assert "argument --replications: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_replay_reproduces_outputs(tmp_path):
    import shlex

    out = tmp_path / "o1"
    run_cli("simulate", "--dist", "pareto", "--xi", "0.5", "--n", 30, "--seed", 3, "--out", out / "s.txt")
    manifest = json.loads((out / "s.txt.manifest.json").read_text())
    recorded = shlex.split(manifest["command"])[1:]  # strip program name
    # replay into a fresh location by swapping the --out argument
    idx = recorded.index("--out") + 1
    recorded[idx] = str(out / "replay.txt")
    assert main(recorded) == 0
    assert read(out / "s.txt") == read(out / "replay.txt")


def test_quantiles_refuses_a_grid_beyond_memory_by_name(tmp_path, capsys):
    # the check comes before any path buffer, so nothing large is allocated
    out = tmp_path / "q.json"
    argv = ["quantiles", "--functional", "me-c", "--xi", "0.25", "--eps", "0.1", "--level", "0.975",
            "--paths", "1000", "--grid", "100000000000", "--out", out]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("DomainError: --grid 100000000000 needs ") and err.count("\n") == 1, err
    assert not out.exists()
