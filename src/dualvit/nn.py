"""Parameterized neural primitives: linear, layer norm, multi-head attention, FFN.

Attention takes queries and one key/value source, from which both keys and
values are projected: self-attention when the source is the queries,
cross-attention otherwise. All four attention projections are square d×d with
bias; heads are realized by reshaping the d-wide projection into (h, d_h).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


def trunc_normal(rng: np.random.Generator, shape):
    """Normal(0, 0.02) float32 samples rejected outside ±2 std. Deterministic under rng."""
    out = rng.standard_normal(shape, dtype=T.DEFAULT_DTYPE)
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0)
    while idx.size:
        redraw = rng.standard_normal(idx.size, dtype=T.DEFAULT_DTYPE)
        flat[idx] = redraw
        idx = idx[np.abs(redraw) > 2.0]
    out *= 0.02
    return out


class Module:
    """Minimal parameter container: children discovered by attribute scan."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, val in vars(self).items():
            if isinstance(val, Tensor):
                if val.requires_grad:
                    yield prefix + name, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{prefix}{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_params(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place, dropping its grad."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.zero_grad()
        return self


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(trunc_normal(rng, (d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=T.DEFAULT_DTYPE), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, dtype=T.DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=T.DEFAULT_DTYPE), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layernorm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """MHA(q, kv) = Concat(head_1..head_h) W_O with scaled dot-product heads;
    keys and values are both projected from ``kv``."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ConfigError(f"channel dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.o_proj = Linear(dim, dim, rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        b, n, _ = x.shape
        return T.transpose(T.reshape(x, (b, n, self.heads, self.head_dim)), (0, 2, 1, 3))

    def __call__(self, q: Tensor, kv: Tensor) -> Tensor:
        b, n_q, _ = q.shape
        weights = self.attention_weights(q, kv)
        mixed = T.matmul(weights, self._split_heads(self.v_proj(kv)))
        merged = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, n_q, self.dim))
        return self.o_proj(merged)

    def attention_weights(self, q: Tensor, k: Tensor) -> Tensor:
        """Per-head attention matrix (B, heads, n_q, n_kv); rows sum to 1."""
        qh = self._split_heads(self.q_proj(q))
        kh = self._split_heads(self.k_proj(k))
        scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))),
                         1.0 / math.sqrt(self.head_dim))
        return T.softmax_lastdim(scores)


class FeedForward(Module):
    """Token-wise expand -> GELU -> contract. No token mixing."""

    def __init__(self, dim: int, ratio: int, rng: np.random.Generator):
        self.dim = dim
        self.ratio = ratio
        self.expand = Linear(dim, ratio * dim, rng)
        self.contract = Linear(ratio * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.contract(T.gelu(self.expand(x)))
