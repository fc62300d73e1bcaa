"""Benchmark harness for the tailband command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qq_ingest --seed 1 --seconds 50 --trace 0

Each operation is a fresh ``python -m tailband.cli ...`` process, so import
cost and per-process caches behave as they do for a user.  The load is a
closed loop with one client: the next operation starts when the previous one
has exited.  A run

1. sets up: generates the workload's inputs with ``tailband simulate`` under
   ``--seed`` three times (the reruns must be byte-identical) and runs one
   untimed warm-up operation;
2. times operations for ``--seconds`` seconds (at least ``MIN_OPS``), with
   wall time from ``perf_counter`` and CPU time and peak RSS from ``wait4``,
   and runs the fixed reference workload ``calibrate.py`` after each one;
   end-to-end times are scaled by ``REF_HOST_S`` over its mean time, so that
   they read at one host speed on a host whose speed drifts;
3. checks every operation (exit code, expected files, byte-identical data
   outputs, quantiles against ``reference.json``);
4. prints every metric by name and unit, then one JSON line with the result.

``--trace 1`` alternates operations run under ``perfbench/traced.py`` with
plain ones and reports the per-layer metrics instead of the end-to-end ones.
Full records (environment, samples, hashes, spans) go to
``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
WORK = ROOT / ".perfbench_work"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))

SETUP_REPS = 3
MIN_OPS = 3
MIN_TRACE_OPS = 4  # alternating traced and plain, so two of each
OP_TIMEOUT_S = 120.0
# Mean wall time of calibrate.py on the 2-core Intel Xeon (2.0 GHz) the
# bounds were tuned on (323 runs).  End-to-end times are scaled by REF_HOST_S
# over the run's own mean calibrate.py time, i.e. reported at that host's speed.
REF_HOST_S = 0.73
# Monte Carlo seed of the ME workload.  It is fixed, and the workload pins
# --xi, so its band quantiles do not depend on --seed and can be checked
# against one reference; --seed changes the sampled data only.
MC_SEED = "7"


@dataclass(frozen=True)
class Workload:
    simulate: list[str]            # arguments that generate input.txt (without --seed/--out)
    op: list[str]                  # CLI arguments, run in the run directory
    outputs: tuple[str, ...]       # data outputs under out/, checked byte for byte


# Why each workload exists, and why these sizes: BENCHMARK.json and README.md.
WORKLOADS = {
    "qq_ingest": Workload(
        simulate=["--dist", "nonstd", "--n", "1000000"],
        op=["analyze", "input.txt", "--plot", "qq", "--k", "20000", "--eps", "0.05", "--band",
            "--svg", "plot.svg", "--outdir", "out"],
        outputs=("plot.csv", "band.csv", "meta.json", "plot.svg"),
    ),
    "me_heavy_multi": Workload(
        simulate=["--dist", "pareto", "--xi", "0.7", "--n", "100000"],
        op=["analyze", "input.txt", "--plot", "me", "--k", "2000", "--eps", "0.1", "--band",
            "--xi", "0.7", "--multi-alpha", "--paths", "1500", "--threads", "2", "--seed", MC_SEED,
            "--svg", "plot.svg", "--outdir", "out"],
        outputs=("plot.csv", "band.csv", "meta.json", "plot.svg"),
    ),
}


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    load1_before: float
    failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    meta: dict | None = None
    layers: dict | None = None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; return (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no process behind
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def check_op(wl: Workload, name: str, rc: int, run_dir: Path, expected: dict[str, str] | None, op: Op) -> None:
    """Record every correctness miss of one operation in op.failures."""
    out = run_dir / "out"
    if rc != 0:
        op.failures.append(f"exit code {rc}: {(run_dir / 'op.log').read_text(errors='replace')[-400:]!r}")
        return
    missing = [f for f in wl.outputs + ("run_manifest.json",) if not (out / f).is_file()]
    if missing:
        op.failures.append(f"missing outputs {missing}")
        return
    op.hashes = {f: sha256(out / f) for f in wl.outputs}
    if expected:
        differing = [f for f in wl.outputs if op.hashes[f] != expected[f]]
        if differing:
            op.failures.append(f"outputs differ from the warm-up operation's: {differing}")
    op.meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    quantiles = op.meta.get("quantiles", {})
    for key, ref in REFERENCE[name].items():
        got = quantiles.get(key)
        tol = ref["std_error"] if ref["std_error"] > 0 else 1e-9 * abs(ref["value"])
        if not isinstance(got, dict) or abs(got["value"] - ref["value"]) > tol:
            op.failures.append(f"quantile {key}={got} outside {ref['value']} +- {tol}")


def run_op(wl: Workload, name: str, argv_prefix: list[str], cli_args: list[str], run_dir: Path,
           expected: dict[str, str] | None) -> Op:
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    load1 = os.getloadavg()[0]
    rc, wall, cpu, rss = run_process(argv_prefix + cli_args, run_dir, run_dir / "op.log")
    op = Op(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss, load1_before=load1)
    check_op(wl, name, rc, run_dir, expected, op)
    return op


def mc_rel_se(meta: dict | None) -> float:
    """Largest std_error/|value| among the Monte Carlo quantiles in meta.json."""
    if not meta:
        return 0.0
    ratios = [q["std_error"] / abs(q["value"]) for q in meta.get("quantiles", {}).values()
              if isinstance(q, dict) and q.get("source") == "monte-carlo"]
    return max(ratios, default=0.0)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(errors="replace").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def setup(wl: Workload, name: str, seed: int, run_dir: Path, log: list[str]) -> tuple[float, Op, list[float]]:
    """Generate inputs SETUP_REPS times, then run the warm-up operation.

    Returns (setup seconds, warm-up op, reference workload seconds).  Setup
    seconds are the median input generation time plus the warm-up
    operation's wall time.  The reference workload runs after each step.
    """
    sim_times, digests, host_s = [], set(), []
    for _ in range(SETUP_REPS):
        argv = [sys.executable, "-m", "tailband.cli", "simulate", *wl.simulate, "--seed", str(seed),
                "--out", "input.txt"]
        rc, wall, _, _ = run_process(argv, run_dir, run_dir / "simulate.log")
        if rc != 0:
            raise RuntimeError(f"simulate failed: {(run_dir / 'simulate.log').read_text(errors='replace')}")
        sim_times.append(wall)
        digests.add(sha256(run_dir / "input.txt"))
        host_s.append(host_seconds(run_dir))
    if len(digests) > 1:
        log.append("FAIL setup: simulate reruns are not byte-identical")
    warm = run_op(wl, name, [sys.executable, "-m", "tailband.cli"], wl.op, run_dir, None)
    host_s.append(host_seconds(run_dir))
    for failure in warm.failures:
        log.append(f"FAIL warm-up: {failure}")
    return statistics.median(sim_times) + warm.wall_s, warm, host_s


def host_seconds(run_dir: Path) -> float:
    """Wall seconds of one run of the fixed reference workload, calibrate.py."""
    rc, wall, _, _ = run_process([sys.executable, str(CALIBRATE)], run_dir, run_dir / "calibrate.log")
    if rc != 0:
        raise RuntimeError(f"calibrate.py failed: {(run_dir / 'calibrate.log').read_text(errors='replace')}")
    return wall


def measure(seconds: float, min_ops: int, step) -> list:
    """Call step() until `seconds` would be exceeded, at least min_ops times."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        per_op = elapsed / len(results)
        if len(results) >= min_ops and elapsed + per_op > seconds:
            return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "tailband" / "cli.py").is_file():
        print(f"perfbench: no tailband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2

    name, wl = args.workload, WORKLOADS[args.workload]
    run_dir = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
    results_dir = WORK / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)

    env = environment()
    env["load1_before"] = os.getloadavg()[0]
    log: list[str] = []
    setup_s, warm, setup_host_s = setup(wl, name, args.seed, run_dir, log)
    plain = [sys.executable, "-m", "tailband.cli"]
    record: dict = {"workload": name, "seed": args.seed, "trace": args.trace, "setup_s": setup_s,
                    "hashes": warm.hashes}

    if args.trace == 0:
        # Each operation is followed by the reference workload, so the host's
        # speed is sampled across the same window as the operations.
        host_s: list[float] = []

        def step(i):
            op = run_op(wl, name, plain, wl.op, run_dir, warm.hashes)
            host_s.append(host_seconds(run_dir))
            return op

        ops = measure(args.seconds, MIN_OPS, step)
        # A ratio of means: total operation time over total reference time
        # in the same interleaved window.  A ratio of medians tracks the
        # host less well, because the two medians fall at different moments.
        # Set-up, a few seconds before the window, is scaled by every
        # reference run.
        scale = REF_HOST_S / statistics.mean(host_s)
        setup_scale = REF_HOST_S / statistics.mean(setup_host_s + host_s)
        raw = {
            "op_s_mean": statistics.mean(o.wall_s for o in ops),
            "cpu_s_mean": statistics.mean(o.cpu_s for o in ops),
            "setup_s": setup_s,
            "op_s_p50": statistics.median(o.wall_s for o in ops),
        }
        record["host"] = {"calibrate_s": host_s, "setup_calibrate_s": setup_host_s, "scale": scale,
                          "setup_scale": setup_scale, "unscaled": raw}
        units = {"op_s_mean": "s", "cpu_s_mean": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {
            "op_s_mean": raw["op_s_mean"] * scale,
            "cpu_s_mean": raw["cpu_s_mean"] * scale,
            "peak_rss_mb": max(o.peak_rss_mb for o in ops),
            "setup_s": raw["setup_s"] * setup_scale,
        }
    else:
        spans_dir = run_dir / "spans"
        spans_dir.mkdir()
        traced_prefix = [sys.executable, str(ROOT / "perfbench" / "traced.py")]

        def step(i):
            if i % 2 == 0:
                spans = spans_dir / f"op{i}.json"
                op = run_op(wl, name, traced_prefix + [str(spans), "--"], wl.op, run_dir,
                            warm.hashes)
                op.layers = traced.summarize(json.loads(spans.read_text()), op.wall_s) if spans.exists() else None
                if op.layers is None:
                    op.failures.append("traced runner wrote no spans")
                return op
            return run_op(wl, name, plain, wl.op, run_dir, warm.hashes)

        ops = measure(args.seconds, MIN_TRACE_OPS, step)
        traced_ops = [o for i, o in enumerate(ops) if i % 2 == 0 and o.layers]
        plain_ops = [o for i, o in enumerate(ops) if i % 2 == 1]
        units = {}
        metrics = {}
        for key in traced_ops[0].layers if traced_ops else ():
            units[key] = traced.unit_of(key)
            values = [o.layers[key] for o in traced_ops]
            if units[key] != "count":
                metrics[key] = statistics.median(values)
            elif len(set(values)) == 1:
                metrics[key] = values[0]
            else:
                log.append(f"FAIL trace: count {key} differs between operations: {values}")
                metrics[key] = max(values)
        traced_p50 = statistics.median(o.wall_s for i, o in enumerate(ops) if i % 2 == 0)
        plain_p50 = statistics.median(o.wall_s for o in plain_ops)
        metrics["trace.op_s_p50"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - plain_p50
        metrics["mc_rel_se"] = mc_rel_se(warm.meta)
        units.update({"trace.op_s_p50": "s", "trace.overhead_s": "s", "mc_rel_se": "ratio"})
        if (spans_dir / "op0.json").exists():
            shutil.copy(spans_dir / "op0.json", results_dir / f"{run_dir.name}-spans.json")

    for i, o in enumerate(ops):
        for failure in o.failures:
            log.append(f"FAIL op {i}: {failure}")
    failed = sum(1 for o in ops if o.failures)
    correct = failed == 0 and not log
    env["load1_after"] = os.getloadavg()[0]

    record.update({
        "env": env,
        "metrics": metrics,
        "units": units,
        "failures": log,
        "mc_rel_se": mc_rel_se(warm.meta),
        "quantiles": (warm.meta or {}).get("quantiles"),
        "ops": [{k: v for k, v in vars(o).items() if k != "meta"} for o in ops],
    })
    (results_dir / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {name}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed, failed_ratio {failed / len(ops):.4g}")
    for line in log:
        print(line)
    for key, value in metrics.items():
        label = " (computed)" if units[key] == "count" else ""
        print(f"  {key:40s} {value:.6g} {units[key]}{label}")
    if args.trace == 0:
        print(f"  {'mc_rel_se':40s} {record['mc_rel_se']:.6g} ratio")
        host = record["host"]
        print(f"host: calibrate.py mean {statistics.mean(host['calibrate_s']):.4f} s, times scaled by "
              f"{host['scale']:.4f} (set-up by {host['setup_scale']:.4f}); unscaled: "
              + ", ".join(f"{k} {v:.4f} s" for k, v in host["unscaled"].items()))
    print("env: " + json.dumps(env, sort_keys=True))
    for fname, digest in warm.hashes.items():
        print(f"sha256 {fname} {digest}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
