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


def _loaded(argv, tmp_path):
    """(exit code, the ON_DEMAND modules loaded) of one `tailband` command run
    in a fresh interpreter.  The interpreter sees two usable CPUs, so that
    --threads 2 starts a pool on any host."""
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import tailband.cli\n"
        "try:\n"
        "    code = tailband.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"print(code, sorted(m for m in {ON_DEMAND!r} if m in sys.modules), file=sys.stderr)\n"
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


def test_heavy_me_band_on_two_threads_loads_every_on_demand_layer(tmp_path):
    me = ["analyze", _heavy_sample(tmp_path), "--plot", "me", "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7,
          "--paths", 1000, "--grid", 1024, "--threads", 2, "--outdir", tmp_path / "o"]
    assert _loaded(me, tmp_path) == (0, repr(sorted(ON_DEMAND)))
    assert json.loads((tmp_path / "o" / "meta.json").read_text())["regime"] == "me-gt-half"


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
    spans = tmp_path / "spans.json"
    argv = [ROOT / "perfbench" / "traced.py", spans, "--", "analyze", _heavy_sample(tmp_path), "--plot", "me",
            "--k", 300, "--eps", 0.1, "--band", "--xi", 0.7, "--paths", 1000, "--grid", 1024, "--threads", 2,
            "--outdir", tmp_path / "o"]
    proc = _run(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
    assert counts["distributions.limit_quantile_calls"] == 1
    assert counts["cfinversion.builds"] == 1
    assert counts["parallel.batches"] > 0
