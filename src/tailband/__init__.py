"""tailband: heavy-tail QQ and mean-excess diagnostics with confidence bands."""

import os
import sys

# No run-time path calls BLAS (tests/test_blas_guard.py), yet OpenBLAS starts
# one worker thread per extra core when numpy (and scipy) load it, and that
# worker busy-waits for about 0.1 s of CPU before it sleeps.  It reads the
# limit once, when the library loads, so it must be set before numpy is
# first imported; once numpy is loaded the variable would change nothing
# here and only reach the caller's child processes.  threadpoolctl, which
# could limit a loaded pool, is not installed.  A value the caller set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# The package's names, each loaded from its layer on first use, so that
# importing tailband (as `tailband --help` does) loads no numpy.
_LAYER_OF = {
    "OrderedSample": "data",
    "TailIndexEstimate": "data",
    "empirical_me": "data",
    "fixed_xi": "data",
    "hill_estimate": "data",
    "ingest": "data",
    "write_sample_file": "data",
    "RngStream": "rng",
}


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)
