"""P² streaming quantile estimator (repro.metrics.quantiles).

The production class stores its marker state in flattened scalar slots; the
reference implementation below is the textbook five-list P² algorithm
(Jain & Chlamtac 1985).  The two must agree *bit for bit* on every stream —
the flattening is a data-layout change, not an approximation.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.metrics.quantiles import P2Quantile


class ReferenceP2:
    """Verbatim textbook P² marker algorithm (five parallel lists)."""

    def __init__(self, quantile: float) -> None:
        self.quantile = quantile
        self.count = 0
        self.buffer: list = []
        self.heights: list = []
        self.positions: list = []
        self.desired: list = []
        self.increments = [0.0, quantile / 2.0, quantile, (1.0 + quantile) / 2.0, 1.0]

    def add(self, x: float) -> None:
        self.count += 1
        if self.count <= 5:
            self.buffer.append(x)
            if self.count == 5:
                self.buffer.sort()
                self.heights = list(self.buffer)
                self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.quantile
                self.desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            return
        q = self.heights
        n = self.positions
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self.desired[i] += self.increments[i]
        for i in (1, 2, 3):
            d = self.desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                step = 1.0 if d >= 0 else -1.0
                candidate = q[i] + step / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = q[i] + step * (q[i + int(step)] - q[i]) / (n[i + int(step)] - n[i])
                q[i] = candidate
                n[i] += step

    @property
    def value(self):
        if self.count == 0:
            return None
        if self.count < 5:
            return np.percentile(self.buffer, self.quantile * 100.0)
        return self.heights[2]


STREAMS = {
    "uniform": lambda rng: rng.uniform(0.0, 100.0, 2_000),
    "normal": lambda rng: rng.normal(50.0, 10.0, 2_000),
    "exponential": lambda rng: rng.exponential(5.0, 2_000),
    "ties": lambda rng: rng.integers(0, 10, 2_000).astype(float),
    "zeros": lambda rng: np.zeros(500),
    "sorted": lambda rng: np.sort(rng.uniform(0.0, 1.0, 1_000)),
}


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_quantile_out_of_range(self, bad):
        with pytest.raises(ValueError):
            P2Quantile(bad)

    def test_empty_value_is_none(self):
        assert P2Quantile(0.5).value is None


class TestSmallSamples:
    def test_under_five_is_exact(self):
        est = P2Quantile(0.5)
        for x in (9.0, 1.0, 5.0):
            est.add(x)
        assert est.value == np.percentile([9.0, 1.0, 5.0], 50.0)

    def test_exactly_five_uses_markers(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 4.0, 2.0, 3.0):
            est.add(x)
        assert est.value == 3.0  # middle marker of the sorted first five


class TestReferenceIdentity:
    @staticmethod
    def _assert_identical(data, quantile):
        est, ref = P2Quantile(quantile), ReferenceP2(quantile)
        for x in data:
            est.add(float(x))
            ref.add(float(x))
        assert est.value == ref.value
        assert est._heights == ref.heights
        assert est._positions == ref.positions

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
    def test_bitwise_equal_to_textbook(self, stream, quantile):
        # crc32, not hash(): str hashes are salted per process.
        rng = np.random.default_rng(zlib.crc32(stream.encode()))
        self._assert_identical(STREAMS[stream](rng), quantile)

    def test_linear_fallback_is_always_assigned(self):
        # Step B.3 assigns the linear estimate even when it lands on a
        # neighbouring marker: here 9.0, where a variant that keeps the old
        # height unless the estimate is strictly bracketed stays at
        # 8.999999999999998.
        self._assert_identical(STREAMS["ties"](np.random.default_rng(4)), 0.99)


class TestAccuracy:
    @pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
    def test_tracks_np_percentile(self, quantile):
        rng = np.random.default_rng(7)
        data = rng.exponential(10.0, 50_000)
        est = P2Quantile(quantile)
        for x in data:
            est.add(float(x))
        exact = np.percentile(data, quantile * 100.0)
        assert est.value == pytest.approx(exact, rel=0.05)

    def test_deterministic(self):
        data = np.random.default_rng(3).normal(0.0, 1.0, 1_000)
        values = []
        for _ in range(2):
            est = P2Quantile(0.95)
            for x in data:
                est.add(float(x))
            values.append(est.value)
        assert values[0] == values[1]
