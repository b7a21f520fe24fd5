"""Arithmetic the benchmark reports with: percentiles, spans, matmul MACs.

Pure functions over plain Python values, so they can be unit-tested without
building a model.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_SAMPLES = 2 * TAIL_BEYOND  # the median of these has TAIL_BEYOND above it


def median(values):
    return statistics.median(values)


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile of ``TAIL_LADDER`` with at least ``beyond`` samples above it.

    Percentiles are nearest-rank: the value at rank ``ceil(p/100 * n)`` of the
    sorted samples, which has ``n - rank`` samples after it. Returns
    ``(percentile, value, samples)``; raises ``ValueError`` when not even the
    median has ``beyond`` samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-round(pct * 10) * n // 1000))  # exact ceil(pct * n / 100)
        if n - rank >= beyond:
            return pct, ordered[rank - 1], n
    raise ValueError(f"a tail needs at least {2 * beyond} samples, got {n}")


def quartile_spread(values):
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def broadcast_batch(a: tuple, b: tuple) -> tuple:
    """numpy broadcast of two leading-dimension tuples."""
    out = []
    for i in range(1, max(len(a), len(b)) + 1):
        x = a[-i] if i <= len(a) else 1
        y = b[-i] if i <= len(b) else 1
        if x != y and 1 not in (x, y):
            raise ValueError(f"batch dims {a} and {b} do not broadcast")
        out.append(max(x, y))
    return tuple(reversed(out))


def matmul_macs(shape_a, shape_b) -> int:
    """MACs of ``a @ b`` for >=2-d operands with numpy batch broadcasting."""
    if len(shape_a) < 2 or len(shape_b) < 2 or shape_a[-1] != shape_b[-2]:
        raise ValueError(f"not a matmul: {shape_a} @ {shape_b}")
    batch = math.prod(broadcast_batch(tuple(shape_a[:-2]), tuple(shape_b[:-2])))
    return batch * shape_a[-2] * shape_a[-1] * shape_b[-1]


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is the
    index of the enclosing span or ``None``. Children may overlap each other;
    the covered part is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
