"""Traced runner: run one tailband CLI command with spans around each layer.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python perfbench/traced.py SPANS.json -- analyze input.txt --plot qq ...

The runner imports ``tailband.cli``, replaces each layer's public functions
with a timing wrapper at every module that holds a reference to them (``cli``
imports names directly and ``bands`` imports from ``limitsim`` and
``distributions``, so patching only the defining module would miss calls),
then calls ``tailband.cli.main(argv)``.  Spans (name, start, end, parent) and
counters stay in memory and are written to SPANS.json when the command ends.
The program under test is not modified.

Counters are computed from call arguments and result sizes, not sampled.
Monte Carlo batches that ``--threads N`` (N > 1) sends to worker processes run
outside this process: they are seen only through the parent's
``parallel.run_batches`` span, and their CPU time only through the operation's
``wait4`` totals.

``summarize`` turns the written spans into the per-layer metrics that
``perfbench/run.py`` reports.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "data",
    "plotsets",
    "bands",
    "limitsim",
    "parallel",
    "distributions",
    "cfinversion",
    "outputs",
)


class Recorder:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, count=None, outermost_only=False):
        """Return fn wrapped in a span called name.

        count(result, *args, **kwargs) returns counter increments.  With
        outermost_only the increments are skipped when the span sits inside
        another span of the same layer (a writer that calls another writer).
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                nested = parent >= 0 and self.spans[parent][0].split(".", 1)[0] == layer
                if not (outermost_only and nested):
                    self.counts.update(count(result, *args, **kwargs))
            return result

        return traced


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _bridge_counts(result, *args, **kwargs):
    shapes = len(result[0])
    n_paths = int(_arg(args, kwargs, 2, "n_paths"))
    m = int(_arg(args, kwargs, 3, "m"))
    return {
        "limitsim.bridge_path_sets": 1,
        "limitsim.bridge_path_points": n_paths * m,
        "limitsim.bridge_shape_passes": n_paths * m * shapes,
    }


def _cdf_counts(result, self, x, *args, **kwargs):
    import numpy as np

    points = int(np.size(x))
    return {"cfinversion.cdf_points": points, "cfinversion.cdf_node_products": points * int(self.nodes.size)}


def _bytes_written(result, path, *args, **kwargs):
    return {"outputs.bytes_written": os.path.getsize(path)}


def _patch_everywhere(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions at every tailband import site."""
    from tailband import bands, cfinversion, data, distributions, limitsim, outputs, parallel, plotsets

    modules = [m for name, m in sorted(sys.modules.items()) if name == "tailband" or name.startswith("tailband.")]
    functions = [
        (data, "ingest", lambda r, *a, **k: {"data.ingest_values": r.n}),
        (data, "hill_estimate", None),
        (plotsets, "qq_set", lambda r, *a, **k: {"plotsets.points": len(r)}),
        (plotsets, "me_set", lambda r, *a, **k: {"plotsets.points": len(r)}),
        (bands, "qq_band", lambda r, *a, **k: {"bands.calls": 1}),
        (bands, "me_band", lambda r, *a, **k: {"bands.calls": 1}),
        (limitsim, "qq_sup_quantile", lambda r, *a, **k: {"limitsim.series_quantile_calls": 1}),
        (limitsim, "bridge_functional_samples", _bridge_counts),
        (parallel, "run_batches", lambda r, *a, **k: {"parallel.batches": len(r)}),
        (distributions, "limit_quantile", lambda r, *a, **k: {"distributions.limit_quantile_calls": 1}),
    ]
    for module, attr, count in functions:
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _patch_everywhere(modules, original, rec.wrap(f"{layer}.{attr}", original, count))
    for attr in ("write_plot_csv", "write_band_csv", "write_json", "write_plot_svg", "write_run_manifest"):
        original = getattr(outputs, attr)
        _patch_everywhere(modules, original, rec.wrap(f"outputs.{attr}", original, _bytes_written, outermost_only=True))

    inverter = cfinversion.GilPelaezInverter
    from_cf = inverter.from_cf.__func__
    inverter.from_cf = classmethod(
        rec.wrap(
            "cfinversion.GilPelaezInverter.from_cf",
            from_cf,
            lambda r, *a, **k: {"cfinversion.builds": 1, "cfinversion.nodes": int(r.nodes.size)},
        )
    )
    inverter.cdf = rec.wrap("cfinversion.GilPelaezInverter.cdf", inverter.cdf, _cdf_counts)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def _inclusive(spans, names) -> float:
    """Summed duration of spans named in names, not counting nested repeats."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _layer_self_times(spans) -> dict[str, float]:
    """Per layer: span durations minus the time their direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent) in enumerate(spans):
        out[name.split(".", 1)[0]] += (end - start) - child_time[i]
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_share"):
        return "ratio"
    if metric.endswith("_ns_per_path_point"):
        return "ns"
    return "s" if metric.endswith("_s") else "count"


def summarize(trace: dict, op_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    op_wall_s is the wall time of the traced process, used as the base of
    the two share metrics.
    """
    spans = trace["spans"]
    counts = Counter(trace["counts"])

    def incl(*names):
        return _inclusive(spans, names)

    bridge_s = incl("limitsim.bridge_functional_samples")
    path_points = counts["limitsim.bridge_path_points"]
    cf_s = incl("cfinversion.GilPelaezInverter.from_cf", "cfinversion.GilPelaezInverter.cdf")
    metrics = {
        "cli.import_s": incl("cli.import"),
        "data.ingest_s": incl("data.ingest"),
        "data.ingest_values": counts["data.ingest_values"],
        "data.hill_s": incl("data.hill_estimate"),
        "plotsets.set_s": incl("plotsets.qq_set", "plotsets.me_set"),
        "plotsets.points": counts["plotsets.points"],
        "bands.band_s": incl("bands.qq_band", "bands.me_band"),
        "bands.calls": counts["bands.calls"],
        "limitsim.series_quantile_s": incl("limitsim.qq_sup_quantile"),
        "limitsim.series_quantile_calls": counts["limitsim.series_quantile_calls"],
        "limitsim.bridge_s": bridge_s,
        "limitsim.bridge_path_sets": counts["limitsim.bridge_path_sets"],
        "limitsim.bridge_path_points": path_points,
        "limitsim.bridge_shape_passes": counts["limitsim.bridge_shape_passes"],
        "limitsim.bridge_ns_per_path_point": bridge_s * 1e9 / path_points if path_points else 0.0,
        "limitsim.bridge_time_share": bridge_s / op_wall_s,
        "parallel.run_batches_s": incl("parallel.run_batches"),
        "parallel.batches": counts["parallel.batches"],
        "distributions.limit_quantile_s": incl("distributions.limit_quantile"),
        "distributions.limit_quantile_calls": counts["distributions.limit_quantile_calls"],
        "cfinversion.build_s": incl("cfinversion.GilPelaezInverter.from_cf"),
        "cfinversion.builds": counts["cfinversion.builds"],
        "cfinversion.nodes": counts["cfinversion.nodes"],
        "cfinversion.cdf_s": incl("cfinversion.GilPelaezInverter.cdf"),
        "cfinversion.cdf_points": counts["cfinversion.cdf_points"],
        "cfinversion.cdf_node_products": counts["cfinversion.cdf_node_products"],
        "cfinversion.time_share": cf_s / op_wall_s,
        "outputs.write_s": incl(
            "outputs.write_plot_csv",
            "outputs.write_band_csv",
            "outputs.write_json",
            "outputs.write_plot_svg",
            "outputs.write_run_manifest",
        ),
        "outputs.bytes_written": counts["outputs.bytes_written"],
    }
    for layer, value in _layer_self_times(spans).items():
        metrics[f"{layer}.self_s"] = value
    metrics["trace.spans"] = len(spans)
    return metrics


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <tailband arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    rec = Recorder()
    start = time.perf_counter()
    import tailband.cli

    rec.spans.append(["cli.import", start, time.perf_counter(), -1])
    install(rec)
    status = rec.wrap("cli.main", tailband.cli.main)(cli_argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans, "counts": dict(rec.counts)}, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
