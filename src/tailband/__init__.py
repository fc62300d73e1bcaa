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

from .data import (  # noqa: E402, F401
    OrderedSample,
    TailIndexEstimate,
    empirical_me,
    fixed_xi,
    hill_estimate,
    ingest,
    write_sample_file,
)
from .rng import RngStream  # noqa: E402, F401
