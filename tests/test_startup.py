"""Process start-up: which layers a command loads, where the import-time heap
is frozen, and that the traced runner still sees the layers loaded on demand."""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailband
from tailband.cli import main

ROOT = Path(__file__).resolve().parent.parent
ON_DEMAND = ("concurrent.futures", "tailband.cfinversion", "tailband.distributions")


def _env():
    return dict(os.environ, PYTHONPATH=str(Path(tailband.__file__).resolve().parent.parent))


def _run(args, cwd, *, script=None):
    return subprocess.run(
        [sys.executable, *([] if script is None else ["-c", script]), *map(str, args)],
        env=_env(), capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def _heavy_sample(tmp_path):
    f = tmp_path / "s.txt"
    assert main(["simulate", "--dist", "pareto", "--xi", "0.7", "--n", "4000", "--seed", "5", "--out", str(f)]) == 0
    return f


def _loaded(argv, tmp_path, modules=ON_DEMAND):
    """(exit code, the modules of `modules` loaded) of one `tailband` command
    run in a fresh interpreter.  The interpreter sees two usable CPUs, so
    that --threads 2 starts a pool on any host."""
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import tailband.cli\n"
        "try:\n"
        "    code = tailband.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"print(code, sorted(m for m in {tuple(modules)!r} if m in sys.modules), file=sys.stderr)\n"
    )
    proc = _run(argv, tmp_path, script=script)
    code, loaded = proc.stderr.splitlines()[-1].split(" ", 1)
    return int(code), loaded


def test_qq_band_and_help_load_no_me_or_pool_layers(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("".join(f"{(i + 1) ** 0.5!r}\n" for i in range(2000)))
    qq = ["analyze", f, "--plot", "qq", "--k", "200", "--eps", "0.05", "--band", "--svg", "p.svg",
          "--outdir", tmp_path / "o"]
    assert _loaded(qq, tmp_path) == (0, "[]")
    assert (tmp_path / "o" / "p.svg").exists()
    assert _loaded(["--help"], tmp_path) == (0, "[]")


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["--version"], 0),
    (["analyze", "--help"], 0),
    (["analyze", "s.txt", "--plot", "pp", "--k", "10", "--eps", "0.1", "--outdir", "o"], 2),
    (["simulate", "--dist", "pareto"], 2),
])
def test_help_version_and_usage_errors_load_no_numpy(tmp_path, argv, code):
    assert _loaded(argv, tmp_path, ["numpy", "tailband.data"]) == (code, "[]")


def _me_band(tmp_path, xi, out):
    """An ME band command on two threads, with the Monte Carlo flags set."""
    return ["analyze", _heavy_sample(tmp_path), "--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", xi,
            "--paths", 1000, "--grid", 1024, "--threads", 2, "--outdir", tmp_path / out]


def test_me_bands_on_two_threads_load_only_the_layers_they_run(tmp_path):
    # a light-regime band draws its paths on the thread pool; a heavy-regime
    # band loads the sum-over-max inverter and solves c without paths, so it
    # starts no pool
    assert _loaded(_me_band(tmp_path, 0.25, "light"), tmp_path) == (0, "['concurrent.futures']")
    assert _loaded(_me_band(tmp_path, 0.7, "heavy"), tmp_path) == (
        0, repr(sorted(set(ON_DEMAND) - {"concurrent.futures"}))
    )
    assert json.loads((tmp_path / "light" / "meta.json").read_text())["regime"] == "me-lt-half"
    assert json.loads((tmp_path / "heavy" / "meta.json").read_text())["regime"] == "me-gt-half"


def test_workload_commands_do_not_load_numpy_ma(tmp_path):
    # the benchmark's two commands at small sizes.  np.unique and
    # np.quantile check for masked arrays, which imports all of numpy.ma
    # (about 10 ms of CPU) on their first call.
    f = tmp_path / "s.txt"
    f.write_text("".join(f"{(i + 1) ** 0.5!r}\n" for i in range(2000)))
    qq = ["analyze", f, "--plot", "qq", "--k", "200", "--eps", "0.05", "--band", "--svg", "p.svg",
          "--outdir", tmp_path / "qq"]
    me = ["analyze", _heavy_sample(tmp_path), "--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7,
          "--multi-alpha", "--paths", 1000, "--grid", 1024, "--threads", 2, "--seed", 7, "--svg", "p.svg",
          "--outdir", tmp_path / "me"]
    for argv, out in ((qq, "qq"), (me, "me")):
        assert _loaded(argv, tmp_path, ["numpy.ma"]) == (0, "[]")
        assert (tmp_path / out / "p.svg").exists()
    assert len(json.loads((tmp_path / "me" / "meta.json").read_text())["band_levels"]) == 3


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["quantiles", "--functional", "qq-sup", "--eps", "0.05", "--level", "0.975"]) == 0
    assert main(["analyze", str(_heavy_sample(tmp_path)), "--plot", "qq", "--k", "200", "--eps", "0.05",
                 "--outdir", str(tmp_path / "o")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


_FREEZE_SPY = (
    "import gc, sys\n"
    "import tailband.limitsim as limitsim\n"
    "series = limitsim.qq_sup_quantile\n"
    "def spy(*a, **k):\n"
    "    print('frozen', gc.get_freeze_count(), file=sys.stderr)\n"
    "    return series(*a, **k)\n"
    "limitsim.qq_sup_quantile = spy\n"
    "sys.argv = ['tailband', *sys.argv[1:]]\n"
)


@pytest.mark.parametrize("entry", [
    # what `python -m tailband.cli` runs
    "import runpy\nrunpy.run_module('tailband.cli', run_name='__main__', alter_sys=True)\n",
    # what the `tailband` console script runs
    "import tailband.cli\nsys.exit(tailband.cli.main())\n",
])
def test_process_entry_freezes_the_import_time_heap(tmp_path, entry):
    proc = _run(["quantiles", "--functional", "qq-sup", "--eps", "0.05", "--level", "0.975"], tmp_path,
                script=_FREEZE_SPY + entry)
    assert proc.returncode == 0, proc.stderr
    [line] = [s for s in proc.stderr.splitlines() if s.startswith("frozen ")]
    assert int(line.split()[1]) > 10_000  # the objects import left, not a handful
    assert json.loads(proc.stdout)["estimates"][0]["source"] == "series"


def test_traced_runner_counts_the_layers_loaded_on_demand(tmp_path):
    # the runner patches module attributes, so a layer that a command imports
    # when it runs must be read from its module at call time to be traced
    def counts(xi):
        spans = tmp_path / f"spans{xi}.json"
        proc = _run([ROOT / "perfbench" / "traced.py", spans, "--", *_me_band(tmp_path, xi, f"o{xi}")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        return json.loads(spans.read_text())["counts"]

    heavy = counts(0.7)
    assert heavy["distributions.limit_quantile_calls"] == 1
    assert heavy["cfinversion.builds"] == 1
    # the heavy band's c comes from the first-passage solve: no path set, no batch
    assert heavy.get("limitsim.bridge_path_sets", 0) == 0 and heavy.get("parallel.batches", 0) == 0
    light = counts(0.25)
    assert light["limitsim.bridge_path_sets"] == 1
    assert light["parallel.batches"] > 0
