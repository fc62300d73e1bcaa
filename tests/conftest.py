import math

import numpy as np
import pytest


@pytest.fixture
def bridge_paths():
    """Builder of Brownian-bridge path sets for distributional checks.

    bridge_paths(n_paths, m, stream) draws an (n_paths, m) array of bridges
    on t_j = j/m, j = 1..m, from cumulative Gaussian increments of variance
    1/m as B = W - t W(1), with the endpoint pinned to exactly 0, and
    returns (t, paths).
    """

    def build(n_paths, m, stream):
        z = stream.generator().standard_normal((n_paths, m)) * math.sqrt(1.0 / m)
        np.cumsum(z, axis=1, out=z)
        t = np.arange(1, m + 1) / m
        b = z - t[None, :] * z[:, -1:]
        b[:, -1] = 0.0
        return t, b

    return build
