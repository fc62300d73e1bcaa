"""tailband: heavy-tail QQ and mean-excess diagnostics with confidence bands."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    OrderedSample,
    TailIndexEstimate,
    empirical_me,
    fixed_xi,
    hill_estimate,
    ingest,
    write_sample_file,
)
from .rng import RngStream  # noqa: F401
