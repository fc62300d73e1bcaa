"""What a run holds at once, measured with tracemalloc: ingest keeps little
beyond the values it returns, and the file writers' transient memory does
not grow with the row count."""
import tracemalloc

import numpy as np
import pytest

from tailband.bands import REGIME_QQ, ConfidenceBand
from tailband.data import ingest, write_sample_file
from tailband.outputs import write_band_csv, write_plot_csv, write_plot_svg
from tailband.plotsets import PlotSet


def _traced_peak(call) -> tuple[int, object]:
    """Peak bytes allocated during call() above what was allocated before it, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def test_ingest_peak_is_near_the_values(tmp_path):
    # Shuffled, so that the sort has work to do.  The parse buffer is the
    # sample: a sorted copy, an np.diff temporary and a defensive copy
    # took the peak to 3.2 times the values.
    n = 100_000
    f = tmp_path / "shuffled.txt"
    write_sample_file(np.random.default_rng(3).lognormal(0.0, 2.0, n), f)
    peak, sample = _traced_peak(lambda: ingest(f))
    assert sample.n == n
    assert peak < 2.5 * sample.values.nbytes, peak / sample.values.nbytes


def _band(rows: int) -> ConfidenceBand:
    x = np.linspace(0.0, 5.0, rows)
    plot = PlotSet(np.column_stack([x, 0.3 * x + np.sin(x)]), "qq")
    half = np.full(rows, 0.125)
    return ConfidenceBand(plot, np.zeros(rows), np.zeros(rows), -half, half, 0.95, REGIME_QQ)


_WRITERS = {
    "plot.csv": lambda path, band: write_plot_csv(path, band.base),
    "band.csv": write_band_csv,
    "plot.svg": lambda path, band: write_plot_svg(path, band.base, [band], 0.3, "qq"),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writer_peak_does_not_grow_with_rows(tmp_path, name):
    peaks = {}
    for rows in (20_000, 200_000):
        band = _band(rows)
        path = tmp_path / f"{rows}-{name}"
        peaks[rows], _ = _traced_peak(lambda: _WRITERS[name](path, band))
        assert path.stat().st_size > 20 * rows
    # Building the whole text took 330 to 760 bytes per row.
    assert peaks[200_000] < 1.2 * peaks[20_000] + 65_536, peaks
