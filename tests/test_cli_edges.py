"""Table-driven edge test of the command line: every numeric flag of the four
subcommands takes NaN, inf, 0, a negative, a tiny and a huge value.

Each case must exit 0 or 2, never 1.  On exit 2 it prints exactly one stderr
line and leaves no data file behind.  Two helper processes each import
tailband.cli once and fork a child per case, which runs cli.main as `python
-m tailband.cli` would, with its address space capped at 2 GB, so a huge
--n, --grid or --paths fails at allocation instead of taking the machine's
memory.
"""
import json
import os
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
# stable law, and --paths and --grid only the Monte Carlo paths, which an
# analyze run draws (on --threads) for a light-regime ME band alone.
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
          "--svg", "p.svg", "--outdir", "{o}"],
         ["--k", "--eps", "--alpha", "--xi", "--conservative-xi"]),
        (["analyze", "{f}", "--plot", "me", "--k", "300", "--eps", "0.1", "--band", "--xi", "0.25",
          "--paths", "1000", "--grid", "1000", "--outdir", "{o}"],
         ["--alpha", "--paths", "--grid", "--threads"]),
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


# The helper: it reads [address space, [[argv, cwd, stderr path], ...]] as
# JSON on stdin and writes each case's exit code as JSON on stdout.  A child
# exits as the interpreter would: SystemExit's code, or 1 after printing the
# traceback of any other exception.  SIGALRM ends a case that hangs.
_FORK_HELPER = """
import json, os, resource, signal, sys, traceback
import tailband.cli
limit, cases = json.load(sys.stdin)
codes = []
for argv, cwd, stderr in cases:
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.chdir(cwd)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.dup2(os.open(stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)
        signal.alarm(120)
        try:
            code = tailband.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            traceback.print_exc()
            code = 1
        if code is not None and not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code or 0)
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
json.dump(codes, sys.stdout)
"""


def _with_value(argv: list[str], flag: str, value: str) -> list[str]:
    if flag in argv:
        i = argv.index(flag) + 1
        return argv[:i] + [value] + argv[i + 1:]
    return argv + [flag, value]


def _run_cases(cases, sample: Path, workdir: Path) -> list[str]:
    """What went wrong in each case that misbehaved, run one after another
    in a child of one helper process."""
    logs = workdir / "stderr"
    logs.mkdir(exist_ok=True)
    jobs = [([a.format(f=sample, o=workdir / label) for a in argv], str(workdir), str(logs / f"{i}"))
            for i, (argv, label) in enumerate(cases)]
    env = dict(os.environ, PYTHONPATH=str(Path(tailband.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _FORK_HELPER], input=json.dumps([ADDRESS_SPACE, jobs]),
                          env=env, capture_output=True, text=True, timeout=600, check=True)
    codes = json.loads(proc.stdout)
    faults = [_fault(label, code, Path(stderr).read_text(), workdir / label)
              for (_, label), code, (_, _, stderr) in zip(cases, codes, jobs)]
    return [f for f in faults if f]


def _fault(label: str, code: int, stderr: str, outdir: Path) -> str | None:
    """None when the case behaves, else what went wrong."""
    if code == 0:
        return None
    if code != 2:
        return f"{label}: exit {code}: {stderr.strip().splitlines()[-1:]}"
    if stderr.count("\n") != 1 or not stderr.endswith("\n"):
        return f"{label}: {stderr.count(chr(10))} stderr lines: {stderr!r}"
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
    # two helpers, each with its own working directory, take every other case
    halves = [tmp_path / "a", tmp_path / "b"]
    for half in halves:
        half.mkdir()
    with ThreadPoolExecutor(max_workers=2) as pool:
        faults = sum(pool.map(lambda i: _run_cases(cases[i::2], sample, halves[i]), range(2)), [])
    assert not faults, "\n".join(faults)
