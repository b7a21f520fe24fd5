"""Dense n-dimensional float tensors with reverse-mode automatic differentiation.

Storage is a flat row-major numpy buffer (float32 by default, float64 for
gradient checking). Every differentiable op records its inputs and a backward
rule on the output tensor; ``Tensor.backward()`` walks the recorded graph in
reverse topological order, summing gradients over fan-out. Only leaves keep a
``grad``: interior gradients are freed as the walk passes them, so repeated
backward calls on one graph without ``zero_grad`` accumulate.

Backward contract: a rule takes the output gradient and returns one gradient
per parent, in ``_parents`` order, or ``None`` for a parent it skips (a rule
may skip an input that does not require grad). Rules never write ``grad``:
the tape sums each returned gradient down to its parent's shape, undoing
numpy broadcasting, and adds it into zeros laid out like the parent's data.
A leaf without a ``grad`` takes that summed buffer as its ``grad``; a leaf
that has one adds the buffer into it.

Inside ``with no_grad():`` ops record no graph and return tensors that do
not require grad, so a forward for evaluation frees each activation as soon
as nothing reads it.

The token axis is the second-to-last axis throughout; ``concat`` and
``split`` always work on it. All forward results are deterministic functions
of their inputs.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

# DUALVIT_DEBUG turns on the NaN/Inf sentinel that runs after every forward
# op: unset, empty or "0" means off, any other value means on.
_debug_checks = os.environ.get("DUALVIT_DEBUG", "0") not in ("", "0")
_grad_enabled = True


class Tensor:
    """A numpy-backed array participating in the gradient tape.

    ``grad`` (leaves only) is lazily allocated and always matches ``data`` in shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``, or keep ``g`` itself as the first ``grad``."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Add this scalar's gradient to ``grad`` of every reachable leaf.

        Fan-out sums; repeated calls accumulate. Interior gradients are locals
        of the call, each freed once its node's rule has run.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.accumulate_grad(g)
                continue
            for p, pg in zip(node._parents, node._backward(g) or ()):
                if pg is not None and p.requires_grad:
                    shape = p.data.shape
                    if id(p) not in grads:
                        grads[id(p)] = np.zeros_like(p.data)
                    grads[id(p)] += pg if pg.shape == shape else _unbroadcast(pg, shape)


@contextmanager
def no_grad() -> Iterator[None]:
    """Within this block, forward ops record no graph; nests."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite value produced by forward op")
    out = Tensor(data)
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive differentiable ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style leading batch broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul requires >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    out = a.data @ b.data

    def backward(g: np.ndarray):
        return (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None)

    return _make(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition with broadcasting (used for residuals and biases)."""
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}") from exc

    return _make(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"mul shapes incompatible: {a.shape} * {b.shape}") from exc

    def backward(g: np.ndarray):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _make(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last axis."""
    if a.data.ndim == 0 or a.shape[-1] < 1:
        raise DimensionError(f"softmax needs a non-empty last dimension, got {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), backward)


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-token standardization over the last axis (epsilon 1e-6), then affine."""
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layernorm affine params must have shape ({d},), got "
            f"gamma {gamma.shape}, beta {beta.shape}"
        )
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-6)
    normed = centered * inv_std
    out = gamma.data * normed + beta.data

    def backward(g: np.ndarray):
        ga = None
        if a.requires_grad:
            gy = g * gamma.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * normed).mean(axis=-1, keepdims=True)
            ga = inv_std * (gy - m1 - normed * m2)
        return (ga, (g * normed).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))

    return _make(out, (a, gamma, beta), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³))).

    Forward and backward each own at most two full-size buffers and fill them
    with in-place ufuncs; the cube is two multiplies, not ``np.power``. The
    backward keeps ``t``; neither pass writes into ``x``, ``t`` or ``g``.
    """
    x = a.data
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def backward(g: np.ndarray):
        # local = 0.5 (1 + t) + 0.5 x (1 - t²) du,  du = C (1 + 3A x²)
        local = x * (3.0 * _GELU_A)
        local *= x
        local += 1.0
        local *= _GELU_C
        tmp = t * t
        np.subtract(1.0, tmp, out=tmp)
        tmp *= x
        tmp *= 0.5
        local *= tmp
        np.add(t, 1.0, out=tmp)
        tmp *= 0.5
        local += tmp
        return (np.multiply(g, local, out=local if g.dtype == local.dtype else None),)

    return _make(out, (a,), backward)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise DimensionError("concat requires at least one tensor")
    try:
        out = np.concatenate([t.data for t in tensors], axis=-2)
    except ValueError as exc:
        raise DimensionError(f"concat shapes incompatible: {[t.shape for t in tensors]}") from exc
    cuts = np.cumsum([t.shape[-2] for t in tensors])[:-1]
    return _make(out, tuple(tensors), lambda g: np.split(g, cuts, axis=-2))


def split(a: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    if sum(sizes) != a.shape[-2]:
        raise DimensionError(
            f"split sizes {list(sizes)} do not cover axis extent {a.shape[-2]}"
        )
    pieces: list[Tensor] = []
    offset = 0
    for size in sizes:
        idx_t = (..., slice(offset, offset + size), slice(None))
        piece_data = a.data[idx_t].copy()

        def backward(g: np.ndarray, idx_t=idx_t):
            full = np.zeros_like(a.data)
            full[idx_t] = g
            return (full,)

        pieces.append(_make(piece_data, (a,), backward))
        offset += size
    return pieces


def mean(a: Tensor, axis: int) -> Tensor:
    ax = axis if axis >= 0 else a.data.ndim + axis
    n = a.shape[ax]
    return _make(a.data.mean(axis=ax), (a,),
                 lambda g: (np.broadcast_to(np.expand_dims(g, ax) / n, a.shape),))


def sum_all(a: Tensor) -> Tensor:
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.shape),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def cross_entropy_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under ``logits`` of shape (B, C)."""
    if logits.data.ndim != 2:
        raise DimensionError(f"logits must be 2-d (batch, classes), got {logits.shape}")
    labels = np.asarray(labels)
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch size {batch}"
        )
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError("labels out of range for logits width")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    nll = logsumexp - logits.data[np.arange(batch), labels]
    out = np.asarray(nll.mean())

    def backward(g: np.ndarray):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(batch), labels] -= 1.0
        return (probs * (g / batch),)

    return _make(out, (logits,), backward)
