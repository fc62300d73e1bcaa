"""Table-driven edge test of the command line: every numeric flag of the four
subcommands takes NaN, inf, 0, a negative, a tiny and a huge value.

Each case must exit 0 or 2, never 1.  On exit 2 it prints exactly one stderr
line and leaves no data file behind.  Each case runs in a fresh interpreter
whose address space is capped at 2 GB, so a huge --n, --grid or --paths
fails at allocation instead of taking the machine's memory.
"""
import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import tailband

ADDRESS_SPACE = 2 << 30
EDGE_VALUES = ("nan", "inf", "0", "-1", "1e-300", "1e308", "1000000000000")

# A valid command per row, with {f} the sample file and {o} the output
# directory, and the numeric flags that vary from it.  A command is chosen
# where the flag matters: --beta only shapes the GPD, --skew only the
# stable law, and --paths and --grid only the Monte Carlo paths.
TABLE = {
    "simulate": [
        (["simulate", "--dist", "pareto", "--xi", "0.5", "--n", "1000", "--out", "{o}/s.txt"],
         ["--xi", "--n", "--seed", "--threads"]),
        (["simulate", "--dist", "gpd", "--xi", "0.3", "--beta", "2", "--n", "1000", "--out", "{o}/s.txt"],
         ["--xi", "--beta"]),
        (["simulate", "--dist", "stable", "--xi", "0.7", "--skew", "0.5", "--n", "1000", "--out", "{o}/s.txt"],
         ["--xi", "--skew"]),
    ],
    "analyze": [
        (["analyze", "{f}", "--plot", "qq", "--k", "300", "--eps", "0.05", "--band", "--svg", "p.svg",
          "--outdir", "{o}"],
         ["--k", "--eps", "--alpha", "--xi", "--conservative-xi", "--seed", "--threads"]),
        (["analyze", "{f}", "--plot", "me", "--k", "300", "--eps", "0.1", "--band", "--xi", "0.7",
          "--paths", "1000", "--grid", "1000", "--svg", "p.svg", "--outdir", "{o}"],
         ["--k", "--eps", "--alpha", "--xi", "--conservative-xi", "--paths", "--grid", "--threads"]),
        (["analyze", "{f}", "--plot", "me", "--k", "300", "--eps", "0.1", "--band", "--xi", "0.25",
          "--paths", "1000", "--grid", "1000", "--outdir", "{o}"],
         ["--alpha", "--paths", "--grid"]),
        (["analyze", "{f}", "--format", "csv-column", "--column", "0", "--plot", "qq", "--k", "300",
          "--eps", "0.05", "--outdir", "{o}"],
         ["--column"]),
    ],
    "quantiles": [
        (["quantiles", "--functional", "qq-sup", "--eps", "0.05", "--level", "0.975", "--out", "{o}/q.json"],
         ["--eps", "--level"]),
        (["quantiles", "--functional", "me-d", "--xi", "0.25", "--eps", "0.1", "--level", "0.95",
          "--paths", "1000", "--grid", "1000", "--out", "{o}/q.json"],
         ["--xi", "--eps", "--level", "--paths", "--grid", "--seed", "--threads"]),
        (["quantiles", "--functional", "stilde", "--xi", "0.7", "--level", "0.975", "--out", "{o}/q.json"],
         ["--xi", "--level"]),
        (["quantiles", "--functional", "stilde", "--xi", "0.7", "--level", "0.975", "--method", "monte-carlo",
          "--paths", "1000", "--out", "{o}/q.json"],
         ["--level", "--paths"]),
    ],
    "coverage": [
        (["coverage", "--xi", "0.25", "--n", "1000", "--k", "100", "--eps", "0.05", "--replications", "2",
          "--outdir", "{o}"],
         ["--xi", "--n", "--k", "--eps", "--alpha", "--replications", "--seed", "--threads"]),
        (["coverage", "--dist", "gpd", "--xi", "0.25", "--beta", "2", "--n", "1000", "--k", "100",
          "--eps", "0.05", "--replications", "2", "--outdir", "{o}"],
         ["--beta"]),
        (["coverage", "--plot", "me", "--xi", "0.25", "--n", "1000", "--k", "100", "--eps", "0.1",
          "--replications", "2", "--paths", "1000", "--grid", "1000", "--outdir", "{o}"],
         ["--xi", "--eps", "--alpha", "--paths", "--grid"]),
    ],
}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _with_value(argv: list[str], flag: str, value: str) -> list[str]:
    if flag in argv:
        i = argv.index(flag) + 1
        return argv[:i] + [value] + argv[i + 1:]
    return argv + [flag, value]


def _run_case(case, sample: Path, workdir: Path) -> str | None:
    """None when the case behaves, else what went wrong."""
    argv, label = case
    outdir = workdir / label
    argv = [a.format(f=sample, o=outdir) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(tailband.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "tailband.cli", *argv], env=env, capture_output=True, text=True,
        timeout=120, cwd=workdir, preexec_fn=_cap_address_space,
    )
    if proc.returncode == 0:
        return None
    if proc.returncode != 2:
        return f"{label}: exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    if proc.stderr.count("\n") != 1 or not proc.stderr.endswith("\n"):
        return f"{label}: {proc.stderr.count(chr(10))} stderr lines: {proc.stderr!r}"
    left = sorted(p.name for p in outdir.rglob("*") if p.is_file()) if outdir.exists() else []
    if left:
        return f"{label}: refused but left {left}"
    return None


@pytest.mark.parametrize("command", sorted(TABLE))
def test_every_numeric_flag_exits_0_or_2_with_one_line(command, tmp_path):
    sample = tmp_path / "sample.csv"
    sample.write_text("".join(f"{(i + 1) ** 0.7!r}\n" for i in range(2000)))
    cases = [
        (_with_value(argv, flag, value), f"{row}{flag}={value}")
        for row, (argv, flags) in enumerate(TABLE[command])
        for flag in flags
        for value in EDGE_VALUES
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        faults = [f for f in pool.map(lambda c: _run_case(c, sample, tmp_path), cases) if f]
    assert not faults, "\n".join(faults)
