"""Rolling latency windows (``repro.obs.slo``)."""

import math

import pytest

from repro.obs import Histogram, RollingWindow, percentile


class TestPercentileFunction:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 50.0) == pytest.approx(5.0)
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 100.0) == 10.0

    def test_matches_histogram(self):
        hist = Histogram("x", {})
        for v in (3.0, 1.0, 2.0, 4.0):
            hist.observe(v)
        assert hist.percentile(50.0) == percentile([1.0, 2.0, 3.0, 4.0], 50.0)


class TestRollingWindow:
    def test_keeps_only_the_most_recent(self):
        window = RollingWindow(maxlen=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            window.observe(v)
        assert window.values() == [2.0, 3.0, 4.0]
        assert len(window) == 3
        assert window.total_observed == 4

    def test_percentile_tracks_the_window_not_history(self):
        window = RollingWindow(maxlen=2)
        window.observe(100.0)  # will be evicted
        window.observe(1.0)
        window.observe(3.0)
        assert window.percentile(50.0) == pytest.approx(2.0)

    def test_summary_shape(self):
        window = RollingWindow(maxlen=8)
        assert window.summary() == {"total_observed": 0, "window": 0}
        for v in range(1, 6):
            window.observe(float(v))
        summary = window.summary()
        assert summary["window"] == 5
        assert summary["p50"] == pytest.approx(3.0)
        assert summary["max"] == 5.0

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            RollingWindow(maxlen=0)


def _reference_percentile(values, q):
    """Straightforward linear-interpolation percentile (numpy's default
    'linear' method), written independently of the implementation."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class TestRollingWindowPercentileEdgeCounts:
    """The bench harness leans on these percentiles; pin the edges."""

    QS = (0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0)

    def _window_with(self, values, maxlen=8):
        window = RollingWindow(maxlen=maxlen)
        for v in values:
            window.observe(v)
        return window

    def test_empty_is_nan_at_every_q(self):
        window = self._window_with([])
        for q in self.QS:
            assert math.isnan(window.percentile(q))

    def test_single_sample_is_every_percentile(self):
        window = self._window_with([7.5])
        for q in self.QS:
            assert window.percentile(q) == 7.5

    def test_two_samples_interpolate_linearly(self):
        window = self._window_with([10.0, 20.0])
        for q in self.QS:
            assert window.percentile(q) == pytest.approx(
                _reference_percentile([10.0, 20.0], q))
        assert window.percentile(50.0) == pytest.approx(15.0)

    def test_exactly_full_window_matches_reference(self):
        values = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0]
        window = self._window_with(values, maxlen=len(values))
        for q in self.QS:
            assert window.percentile(q) == pytest.approx(
                _reference_percentile(values, q))

    def test_overfull_window_matches_reference_on_the_survivors(self):
        maxlen = 4
        values = [float(v) for v in (9, 9, 9, 1, 2, 3, 4)]
        window = self._window_with(values, maxlen=maxlen)
        survivors = values[-maxlen:]
        for q in self.QS:
            assert window.percentile(q) == pytest.approx(
                _reference_percentile(survivors, q))
