"""Command-line interface.

Subcommands:
  simulate   draw a sample from one of the built-in laws into a text file
  analyze    build a QQ or ME plot (optionally with a confidence band) from a file
  quantiles  tabulate limit-functional quantiles (with an optional CSV cache)
  coverage   run a band-coverage experiment against a known simulation law

Every file-producing run also writes a manifest recording the command line,
seed, and content hashes of inputs and outputs; re-running the recorded
command reproduces the outputs byte for byte.  Exit codes: 0 success,
2 usage/domain error or a size too large for memory (one-line diagnostic
on stderr), 1 internal error.

A layer that only some commands run (the simulation laws and the
sum-over-max inverter in distributions and cfinversion, the thread pool) is
imported inside the function that needs it, which reads the names from
their module each time it runs (no module-level alias, so a patched module
attribute is seen); a QQ run neither compiles nor loads those layers.
"""
from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import os
import shlex
import sys
import warnings
from collections import Counter
from pathlib import Path

from . import __version__
from .bands import CoverageDistribution, build_bands, coverage_experiment
from .data import FIXED, TailIndexEstimate, fixed_xi, hill_estimate, ingest, write_sample_file
from .errors import DomainError, RegimeMismatch, TailbandError
from .limitsim import QuantileEstimate, bridge_quantiles, qq_sup_quantile
from .outputs import (
    MANIFEST_NAME,
    json_dumps,
    write_band_csv,
    write_json,
    write_plot_csv,
    write_plot_svg,
    write_run_manifest,
)
from .plotsets import ME, QQ, PlotConfig, me_set, qq_set
from .rng import RngStream

MULTI_ALPHAS = (0.01, 0.05, 0.10)


def _int_arg(lo: int, hi: int | None = None):
    """argparse type for an integer in [lo, hi); the parser exits 2 on anything else."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo or (hi is not None and value >= hi):
            bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi})"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_seed_arg = _int_arg(0, 2**64)


def _default_seed() -> int:
    try:
        return _seed_arg(os.environ.get("TAILBAND_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise DomainError(f"TAILBAND_SEED {exc}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=_seed_arg,
        default=None,
        help="random seed, 0 <= seed < 2**64 (default: $TAILBAND_SEED or 0)",
    )
    p.add_argument(
        "--threads",
        type=_int_arg(1),
        default=1,
        help="worker threads for Monte Carlo batches (capped at the batch count and the CPUs "
        "the process may use; changes no output byte)",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, like every
    other refusal; its subcommand parsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tailband", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"tailband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a sample into a text file")
    p.add_argument("--dist", choices=["pareto", "gpd", "stable", "nonstd"], required=True)
    p.add_argument("--xi", type=float, help="shape (stable: stability index is 1/xi)")
    p.add_argument("--beta", type=float, default=1.0, help="GPD scale")
    p.add_argument("--skew", type=float, default=1.0, help="stable skewness in [-1, 1]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output sample file")
    _add_common(p)

    p = sub.add_parser("analyze", help="plot construction and confidence bands")
    p.add_argument("input", help="sample file")
    p.add_argument("--format", choices=["plain", "csv-column"], default="plain")
    p.add_argument("--column", type=_int_arg(0), default=0, help="0-based column for csv-column input")
    p.add_argument("--plot", choices=[QQ, ME], required=True)
    p.add_argument("--k", type=int, required=True, help="number of upper order statistics")
    p.add_argument("--eps", type=float, required=True, help="truncation level")
    p.add_argument("--alpha", type=float, default=0.05, help="band miss probability")
    p.add_argument("--band", action="store_true", help="emit a confidence band")
    p.add_argument("--xi", type=float, default=None, help="override the estimated shape")
    p.add_argument(
        "--conservative-xi",
        type=float,
        default=None,
        metavar="FACTOR",
        help="inflate the estimated shape by FACTOR for band width",
    )
    p.add_argument("--paths", type=_int_arg(1), default=10_000, help="Monte Carlo paths for ME quantiles")
    p.add_argument("--grid", type=int, default=8192, help="bridge grid size")
    p.add_argument("--svg", default=None, metavar="FILE", help="also render an SVG")
    p.add_argument("--multi-alpha", action="store_true", help="shade bands at alpha 0.01/0.05/0.10")
    p.add_argument("--outdir", required=True)
    _add_common(p)

    p = sub.add_parser("quantiles", help="limit-functional quantiles")
    p.add_argument("--functional", choices=["qq-sup", "me-c", "me-d", "stilde"], required=True)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--level", type=float, required=True, help="quantile probability")
    p.add_argument("--paths", type=_int_arg(1), default=None, help="Monte Carlo replicates")
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--method", choices=["cf-inversion", "monte-carlo", "both"], default="cf-inversion")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out", default=None, help="also write the JSON to a file")
    _add_common(p)

    p = sub.add_parser("coverage", help="band coverage experiment")
    p.add_argument("--dist", choices=["pareto", "gpd"], default="pareto")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--plot", choices=[QQ, ME], default=QQ)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--replications", type=_int_arg(1), required=True)
    p.add_argument("--paths", type=_int_arg(1), default=10_000)
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--outdir", required=True)
    _add_common(p)
    return parser


def _seed_of(args: argparse.Namespace) -> int:
    return _default_seed() if args.seed is None else args.seed


def _command_line(argv: list[str]) -> str:
    return "tailband " + " ".join(shlex.quote(a) for a in argv)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    from .distributions import (
        SIMULATION,
        GpdParams,
        StableSpec,
        sample_gpd,
        sample_nonstd,
        sample_pareto,
        sample_stable,
    )

    seed = _seed_of(args)
    stream = RngStream(seed)
    if args.dist == "pareto":
        if args.xi is None:
            raise DomainError("pareto needs --xi")
        sample = sample_pareto(args.xi, args.n, stream)
    elif args.dist == "gpd":
        if args.xi is None:
            raise DomainError("gpd needs --xi")
        sample = sample_gpd(GpdParams(args.xi, args.beta), args.n, stream)
    elif args.dist == "stable":
        if args.xi is None or args.xi <= 0:
            raise DomainError("stable needs --xi > 0 (stability index 1/xi)")
        sample = sample_stable(StableSpec(alpha=1.0 / args.xi, skew=args.skew, kind=SIMULATION), args.n, stream)
    else:
        sample = sample_nonstd(args.n, stream)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sample_file(sample, out)
    write_run_manifest(
        Path(str(out) + ".manifest.json"), _command_line(argv), seed, inputs={}, outputs=[out]
    )
    return 0


def _quantile_payload(q: QuantileEstimate | float) -> dict | float:
    return q.as_dict() if isinstance(q, QuantileEstimate) else q


def cmd_analyze(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _seed_of(args)
    stream = RngStream(seed)
    outdir = Path(args.outdir)
    svg_path = None if args.svg is None else outdir / args.svg  # an absolute --svg stays as given
    if svg_path is not None and svg_path.is_dir():  # refused before anything is written
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(svg_path))
    if args.multi_alpha and not args.band:
        raise DomainError("--multi-alpha shades band levels and needs --band")
    if args.multi_alpha and not any(abs(args.alpha - a) < 1e-12 for a in MULTI_ALPHAS):
        raise DomainError(f"--multi-alpha needs --alpha in {', '.join(map(str, MULTI_ALPHAS))}, got {args.alpha}")
    input_sha256 = hashlib.sha256()
    sample = ingest(args.input, args.format, args.column, digest=input_sha256)
    cfg = PlotConfig(args.k, args.eps, args.alpha)
    if args.xi is not None:
        xi_est = fixed_xi(args.xi)
    else:
        xi_est = hill_estimate(sample, args.k)
    if args.conservative_xi is not None:
        if args.conservative_xi <= 0:
            raise DomainError("--conservative-xi factor must be positive")
        xi_est = TailIndexEstimate(xi_est.xi * args.conservative_xi, FIXED, xi_est.k)

    # everything that can be refused is built before the first file is written
    plot = qq_set(sample, cfg) if args.plot == QQ else me_set(sample, cfg)
    bands = []
    meta = {
        "alpha": cfg.alpha,
        "eps": cfg.eps,
        "k": cfg.k,
        "kind": plot.kind,
        "n": sample.n,
        "normalizers": {k: float(v) for k, v in plot.normalizers.items()},
        "xi_hat": xi_est.xi,
        "xi_method": xi_est.method,
    }
    if args.band:
        alphas = sorted(MULTI_ALPHAS if args.multi_alpha else (cfg.alpha,))
        bands = build_bands(sample, plot, cfg, xi_est.xi, alphas, lambda levels: bridge_quantiles(
            xi_est.xi, cfg.eps, levels, args.paths, args.grid, stream, args.threads, integral=xi_est.xi < 0.5
        ))
        primary = next(b for b in bands if abs((1.0 - b.level) - cfg.alpha) < 1e-12)
        meta["band_levels"] = [b.level for b in bands]
        meta["quantiles"] = {k: _quantile_payload(v) for k, v in primary.quantiles_used.items()}
        meta["regime"] = primary.regime

    outdir.mkdir(parents=True, exist_ok=True)
    plot_csv = outdir / "plot.csv"
    write_plot_csv(plot_csv, plot)
    written = [plot_csv]
    if args.band:
        band_csv = outdir / "band.csv"
        write_band_csv(band_csv, primary)
        written.append(band_csv)
    meta_json = outdir / "meta.json"
    write_json(meta_json, meta)
    written.append(meta_json)
    if svg_path is not None:
        slope = xi_est.xi if args.plot == QQ else xi_est.xi / (1.0 - xi_est.xi)
        title = f"{plot.kind} plot, k={cfg.k}, eps={cfg.eps}"
        write_plot_svg(svg_path, plot, bands, reference_slope=slope, title=title)
        written.append(svg_path)

    write_run_manifest(
        outdir / MANIFEST_NAME, _command_line(argv), seed,
        inputs={args.input: input_sha256.hexdigest()}, outputs=written,
    )
    return 0


# Numerics revision of cached quantiles.  It is part of the cache file's name,
# so rows computed by older numerics are never read: bump it whenever the
# numerics behind a cached value change.  Revision 4 sums the Gil-Pelaez CDF
# without BLAS, which moves the last bits of stilde cf-inversion values and
# their std_error (by about 1e-15 relative); revision 3 stops the sum-over-max
# CF quadrature at t_max = 30 and integrates the CF's leading tail term
# beyond it in closed form, which moves stilde cf-inversion values (by about
# 1e-8 at xi = 0.7); revision 2 truncated that integral at a t_max of
# hundreds to thousands, summed the Gil-Pelaez CDF in two rotor stages and
# bisected it to 1e-9; revision 1 (the untagged quantile_cache.csv) took one
# exponential per node and scipy's brentq.
_CACHE_NUMERICS = 4
_CACHE_HEADER = "functional,xi,eps,level,paths,grid,seed,source,value,std_error,n_paths,grid_m"


def _cache_key(args: argparse.Namespace, seed: int, paths: int, source: str) -> str:
    xi = "" if args.xi is None else f"{args.xi:.4f}"
    eps = "" if args.eps is None else repr(float(args.eps))
    return ",".join(
        [args.functional, xi, eps, repr(float(args.level)), str(paths), str(args.grid), str(seed), source]
    )


def _cache_lookup(cache_file: Path, key: str) -> QuantileEstimate | None:
    """The cached estimate under key, or None.  A row of the key that is cut
    short or does not parse (a crash mid-write, a hand edit) is a miss, so the
    value is recomputed and a good row appended after it."""
    if not cache_file.exists():
        return None
    prefix = key + ","
    fields = key.split(",")
    for line in cache_file.read_text(encoding="utf-8", errors="replace").splitlines()[1:]:
        if not line.startswith(prefix):
            continue
        row = line[len(prefix):].split(",")
        if len(row) != 4:
            continue
        try:
            return QuantileEstimate(
                value=float(row[0]),
                level=float(fields[3]),
                source=fields[7],
                std_error=float(row[1]),
                n_paths=int(row[2]),
                grid_m=int(row[3]),
            )
        except (ValueError, DomainError):  # DomainError: fields out of range
            continue
    return None


def _cache_store(cache_file: Path, key: str, est: QuantileEstimate) -> None:
    new_file = not cache_file.exists()
    with cache_file.open("a", encoding="utf-8", newline="\n") as fh:
        if new_file:
            fh.write(_CACHE_HEADER + "\n")
        fh.write(
            f"{key},{est.value!r},{est.std_error!r},{est.n_paths},{est.grid_m}\n"
        )


def cmd_quantiles(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _seed_of(args)
    stream = RngStream(seed)
    functional = args.functional
    needs_eps = functional in ("qq-sup", "me-c", "me-d")
    if needs_eps and args.eps is None:
        raise DomainError(f"{functional} needs --eps")
    if functional in ("me-c", "me-d", "stilde") and args.xi is None:
        raise DomainError(f"{functional} needs --xi")
    if functional == "stilde" and not (0.5 < args.xi < 1.0):
        raise RegimeMismatch(f"the sum-over-max law needs --xi in (1/2, 1), got {args.xi}")
    paths = args.paths
    if paths is None:
        paths = 100_000 if functional == "stilde" else 10_000

    cache_file = None
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_file = cache_dir / f"quantile_cache.v{_CACHE_NUMERICS}.csv"

    def compute(source: str) -> QuantileEstimate:
        if functional == "qq-sup":
            return qq_sup_quantile(args.level, args.eps)
        if functional in ("me-c", "me-d"):
            [(c, d)] = bridge_quantiles(
                args.xi, args.eps, [args.level], paths, args.grid, stream, args.threads,
                integral=functional == "me-d",
            )
            return c if functional == "me-c" else d
        from .distributions import SUM_OVER_MAX, StableSpec, limit_quantile

        spec = StableSpec(alpha=1.0 / args.xi, skew=1.0, kind=SUM_OVER_MAX)
        return limit_quantile(spec, args.level, method=source, rng=stream, paths=paths)

    if functional == "stilde":
        sources = ["cf-inversion", "monte-carlo"] if args.method == "both" else [args.method]
    elif functional == "qq-sup":
        sources = ["series"]
    else:
        sources = ["monte-carlo"]

    estimates: list[QuantileEstimate] = []
    hits: list[bool] = []
    for source in sources:
        key = _cache_key(args, seed, paths, source)
        est = _cache_lookup(cache_file, key) if cache_file is not None else None
        hits.append(est is not None)
        if est is None:
            est = compute(source)
            if cache_file is not None:
                _cache_store(cache_file, key, est)
        estimates.append(est)

    payload = {
        "cache_hit": all(hits) if hits else False,
        "eps": args.eps,
        "estimates": [e.as_dict() for e in estimates],
        "functional": functional,
        "grid": args.grid,
        "level": args.level,
        "paths": paths,
        "seed": seed,
        "xi": args.xi,
    }
    text = json_dumps(payload)
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8", newline="\n")
        write_run_manifest(
            Path(str(out) + ".manifest.json"), _command_line(argv), seed, inputs={}, outputs=[out]
        )
    return 0


def cmd_coverage(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _seed_of(args)
    stream = RngStream(seed)
    dist = CoverageDistribution(args.dist, args.xi, args.beta)
    cfg = PlotConfig(args.k, args.eps, args.alpha)
    result = coverage_experiment(
        dist,
        args.n,
        cfg,
        args.replications,
        stream,
        plot=args.plot,
        n_paths=args.paths,
        grid_m=args.grid,
        threads=args.threads,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {
        "config": {
            "alpha": cfg.alpha,
            "beta": args.beta,
            "dist": args.dist,
            "eps": cfg.eps,
            "k": cfg.k,
            "n": args.n,
            "paths": args.paths,
            "plot": args.plot,
            "replications": args.replications,
            "seed": seed,
            "xi": args.xi,
        },
        "coverage": result.coverage,
        "per_replication": list(result.hits),
        "refusals": dict(Counter(reason for _, reason in result.refusals)),
    }
    report_path = outdir / "report.json"
    write_json(report_path, report)
    write_run_manifest(
        outdir / MANIFEST_NAME, _command_line(argv), seed, inputs={}, outputs=[report_path]
    )
    sys.stdout.write(json_dumps({"coverage": result.coverage, "report": str(report_path)}))
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"{category.__name__}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # Entered as a process (`python -m tailband.cli`, the `tailband`
        # script): move the ~22,000 objects that import leaves into the
        # permanent generation, so that neither the collections during the
        # run nor the one at interpreter exit walk them again.  Teardown of
        # a QQ run falls from about 22 ms of CPU to 4-6 ms.  A caller that
        # passes argv (tests, notebooks, perfbench/traced.py) owns its
        # process and keeps its collector as it was.
        gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "quantiles": cmd_quantiles,
        "coverage": cmd_coverage,
    }
    # warnings are one-line diagnostics here, without the source line
    saved_showwarning = warnings.showwarning
    warnings.showwarning = _print_warning
    try:
        return handlers[args.command](args, argv)
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unusable path: a directory for a file, a file for a directory
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except TailbandError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a --n, --grid or --paths whose arrays cannot be allocated
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal errors
        import traceback

        traceback.print_exc()
        return 1
    finally:
        warnings.showwarning = saved_showwarning


if __name__ == "__main__":
    raise SystemExit(main())
