"""Unit tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import stats  # noqa: E402
from tracer import Tracer  # noqa: E402


class TestTail:
    def test_ten_samples_lie_beyond_the_tail(self):
        values = [float(v) for v in range(1, 101)]
        pct, value, n = stats.tail(values)
        assert (pct, value, n) == (90.0, 90.0, 100)
        assert sum(v > value for v in values) == stats.TAIL_BEYOND

    def test_highest_qualifying_percentile_is_taken(self):
        assert stats.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0, 1000)
        assert stats.tail([float(v) for v in range(1, 10001)]) == (99.9, 9990.0, 10000)
        # p99 of 500 samples has only 5 above it
        assert stats.tail([float(v) for v in range(1, 501)])[:2] == (90.0, 450.0)

    def test_order_of_samples_does_not_matter(self):
        values = [float((7 * v) % 23) for v in range(23)]
        assert stats.tail(values) == stats.tail(sorted(values)) == (50.0, 11.0, 23)

    def test_twenty_samples_give_the_median(self):
        values = [float(v) for v in range(20)]
        pct, value, n = stats.tail(values)
        assert (pct, value, n) == (50.0, 9.0, 20)
        assert sum(v > value for v in values) == stats.TAIL_BEYOND

    def test_fewer_samples_have_no_tail(self):
        with pytest.raises(ValueError):
            stats.tail([1.0] * (stats.TAIL_MIN_SAMPLES - 1))

    def test_quartile_spread(self):
        assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
        assert stats.quartile_spread([2.0] * 10) == 0.0


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [(0.0, 10.0, None),   # root
                 (1.0, 3.0, 0),       # child
                 (2.0, 5.0, 0),       # overlapping child: union with the first is [1, 5]
                 (8.0, 12.0, 0),      # runs past the root: clipped to [8, 10]
                 (1.5, 2.5, 1)]       # grandchild: only its parent loses it
        assert stats.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])

    def test_tracer_view_reparents_to_nearest_kept_span(self):
        tracer = Tracer()
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 9.0, 10.0, 11.0])
        import tracer as tracer_module
        real = tracer_module.time.perf_counter
        tracer_module.time.perf_counter = lambda: next(clock)
        try:
            model = tracer.open("model.forward")          # 0 .. 11
            block = tracer.open("blocks.dual")            # 1 .. 10
            attn = tracer.open("nn.attention")            # 2 .. 9
            op = tracer.open("tensor.matmul")             # 3 .. 4
            tracer.close(op)
            op = tracer.open("tensor.gelu")               # 6 .. 7
            tracer.close(op)
            tracer.close(attn)
            tracer.close(block)
            tracer.close(model)
        finally:
            tracer_module.time.perf_counter = real
        assert [s[4] for s in tracer.spans] == [None, 0, 1, 2, 2]
        indices, rows = tracer.view(lambda name: not name.startswith("nn."))
        assert indices == [0, 1, 3, 4]
        assert [r[2] for r in rows] == [None, 0, 1, 1]
        # block [1, 10] holds matmul [3, 4] and gelu [6, 7] directly once nn is hidden
        assert stats.self_times(rows) == pytest.approx([2.0, 7.0, 1.0, 1.0])


class TestMatmulMacs:
    def test_plain_product(self):
        assert stats.matmul_macs((4, 5), (5, 6)) == 4 * 5 * 6

    def test_linear_on_batched_tokens(self):
        assert stats.matmul_macs((2, 3136, 64), (64, 512)) == 2 * 3136 * 64 * 512

    def test_batched_attention_scores_and_mix(self):
        b, h, n, m, dh = 2, 4, 49, 16, 32
        scores = stats.matmul_macs((b, h, n, dh), (b, h, dh, m))
        mix = stats.matmul_macs((b, h, n, m), (b, h, m, dh))
        assert scores == mix == b * h * n * m * dh

    def test_batch_dims_broadcast(self):
        assert stats.matmul_macs((3, 1, 4, 5), (2, 5, 6)) == 3 * 2 * 4 * 5 * 6

    @pytest.mark.parametrize("a,b", [((4, 5), (6, 7)), ((5,), (5, 2)), ((2, 4, 5), (3, 5, 6))])
    def test_non_products_are_rejected(self, a, b):
        with pytest.raises(ValueError):
            stats.matmul_macs(a, b)

    def test_counted_forward_equals_analytic_count_on_tiny(self):
        np = pytest.importorskip("numpy")
        from dualvit.complexity import count_macs
        from dualvit.model import build_model, preset_config

        import workload

        model = build_model(preset_config("tiny", seed=3))
        x = np.random.default_rng(0).random((2, 32, 32, 3), dtype=np.float32)
        _, counted = workload.counted_forward(model, x)
        assert counted == 2 * count_macs(model).macs == 2 * 994_432
