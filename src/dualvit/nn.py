"""Parameterized neural primitives: linear, layer norm, multi-head attention, FFN.

Attention takes queries and one key/value source, from which both keys and
values are projected: self-attention when the source is the queries,
cross-attention otherwise. All four attention projections are square d×d with
bias.

Each module draws its weights (``trunc_normal``) from the generator it is
given, at once. A model gives a list in its place, which puts the draws off
until ``cast_and_draw`` writes them into the model's arena.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .complexity import ffn_macs, mha_macs
from .errors import ConfigError, ContractError
from .tensor import Tensor


# The buffer of every put-off draw's placeholder: one zero, read by zero strides
_ZERO = T.DEFAULT_DTYPE(0).tobytes()


def trunc_normal(rng: np.random.Generator | list, shape):
    """Normal(0, 0.02) float32 samples rejected outside ±2 std. Deterministic under rng.

    Given a list in place of ``rng`` it puts the draw off: it returns a
    read-only zero placeholder that allocates nothing, for ``Module.astype`` to
    replace, and appends it to the list for ``cast_and_draw``.
    """
    if isinstance(rng, list):
        rng.append(np.ndarray(shape, T.DEFAULT_DTYPE, _ZERO, strides=(0,) * len(shape)))
        return rng[-1]
    out = np.empty(shape, dtype=T.DEFAULT_DTYPE)
    _fill_trunc_normal(rng, out)
    return out


def _fill_trunc_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    """Write into the float32 ``out`` the draws ``trunc_normal`` returns."""
    rng.standard_normal(dtype=T.DEFAULT_DTYPE, out=out)
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0)
    while idx.size:
        redraw = rng.standard_normal(idx.size, dtype=T.DEFAULT_DTYPE)
        flat[idx] = redraw
        idx = idx[np.abs(redraw) > 2.0]
    out *= 0.02


def cast_and_draw(module: Module, draws: list, rng: np.random.Generator) -> None:
    """Cast ``module``, built with ``draws`` in place of ``rng``, to float32, then
    draw from ``rng`` each placeholder of ``draws``, in call order, into the
    arena slice that replaced it: an eager build's values, yet no drawn array is
    copied and freed (under glibc, freed drawn arrays stayed resident and raised
    S@224 inference peak RSS by ~20 MB)."""
    owner = {id(p.data): p for p in module.parameters()}
    module.astype(T.DEFAULT_DTYPE)
    for placeholder in draws:
        _fill_trunc_normal(rng, owner[id(placeholder)].data)


class Module:
    """Minimal parameter container: children discovered by attribute scan."""

    arena: np.ndarray | None = None  # the flat parameter array, made by astype

    def named_children(self) -> Iterator[tuple[str, Tensor | Module]]:
        """Each ``Tensor`` and ``Module`` attribute by name, in ``vars`` order: the
        one level of the walk that a container holding lists overrides."""
        return ((k, v) for k, v in vars(self).items() if isinstance(v, (Tensor, Module)))

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Each ``Tensor`` attribute by dotted path, depth first over ``named_children``."""
        for name, val in self.named_children():
            if isinstance(val, Module):
                yield from val.named_parameters(f"{prefix}{name}.")
            else:
                yield prefix + name, val

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_params(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def checked_arena(self) -> np.ndarray:
        for name, p in self.named_parameters():
            if p.data.base is not self.arena:
                raise ContractError(f"parameter {name!r} was rebound out of the model's arena")
        return self.arena

    def astype(self, dtype) -> "Module":
        """Lay every parameter out in one new flat ``arena`` of ``dtype``, in
        ``named_parameters`` order, dropping its grad; return the module. Each
        ``p.data`` becomes the C-contiguous view of its slice, holding the bits
        ``p.data.astype(dtype)`` would; a put-off draw's slice is left unwritten."""
        params = self.parameters()
        self.arena = np.empty(sum(p.data.size for p in params), dtype)
        lo = 0
        for p in params:
            view = self.arena[lo:lo + p.data.size].reshape(p.data.shape)
            if p.data.base is not _ZERO:
                view[...] = p.data
            p.data = view
            p.zero_grad()
            lo += view.size
        return self


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(trunc_normal(rng, (d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=T.DEFAULT_DTYPE), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def macs(self, n: int) -> int:
        """MACs on ``n`` tokens; the bias add is excluded."""
        return n * self.weight.data.size


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, dtype=T.DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=T.DEFAULT_DTYPE), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layernorm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """MHA(q, kv) = Concat(head_1..head_h) W_O with scaled dot-product heads;
    keys and values are both projected from ``kv``. One ``T.attention`` node
    over the ``q_proj``, ``k_proj``, ``v_proj`` and ``o_proj`` parameters."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ConfigError(f"channel dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.o_proj = Linear(dim, dim, rng)

    def __call__(self, q: Tensor, kv: Tensor) -> Tensor:
        return T.attention(q, kv, self.q_proj.weight, self.q_proj.bias,
                           self.k_proj.weight, self.k_proj.bias,
                           self.v_proj.weight, self.v_proj.bias,
                           self.o_proj.weight, self.o_proj.bias, self.heads)

    def macs(self, n_q: int, n_kv: int) -> int:
        return mha_macs(n_q, n_kv, self.dim)


class FeedForward(Module):
    """Token-wise expand -> GELU -> contract, no token mixing: one
    ``T.feedforward`` node over the ``expand`` and ``contract`` parameters."""

    def __init__(self, dim: int, ratio: int, rng: np.random.Generator):
        self.dim = dim
        self.ratio = ratio
        self.expand = Linear(dim, ratio * dim, rng)
        self.contract = Linear(ratio * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.feedforward(x, self.expand.weight, self.expand.bias,
                             self.contract.weight, self.contract.bias)

    def macs(self, n: int) -> int:
        return ffn_macs(n, self.dim, self.ratio)
