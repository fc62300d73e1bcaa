"""Reference workload: fixed work that samples the host's speed.

perfbench/run.py runs this as a fresh process after every timed operation and
scales the end-to-end times by its median.  It does not import tailband, so a
change to the program does not change its time; it mixes the kinds of work
the operations do (interpreter start and numpy import, a text round trip,
path-like array passes, complex exponentials), so a host slowdown that slows
the operations slows it too.
"""
import numpy as np

rng = np.random.default_rng(20261018)
# Text round trip, as in file ingest and CSV/SVG writing.
x = rng.standard_normal(200_000)
text = "\n".join(map(repr, x.tolist()))
values = np.array([float(line) for line in text.splitlines()])
values.sort()
# Path-like array passes, as in the bridge Monte Carlo.
paths = np.cumsum(rng.standard_normal((256, 4096)), axis=1)
extreme = np.abs(paths - paths[:, -1:] * np.linspace(0.0, 1.0, 4096)).max(axis=1)
# Complex exponentials, as in characteristic-function inversion.
t = np.linspace(0.0, 50.0, 20_000)
cdf = (np.exp(1j * np.outer(np.linspace(-5.0, 5.0, 100), t)).imag / (t + 1.0)).sum(axis=1)
print(f"{values[len(values) // 2]:.6f} {np.median(extreme):.6f} {cdf[0]:.6f}")
