"""Dense n-dimensional float tensors with reverse-mode automatic differentiation.

Storage is a flat row-major numpy buffer (float32 by default, float64 for
gradient checking). An op result that records a graph gets a ``_Node``: its
parents' nodes (a leaf parent is the leaf ``Tensor`` itself, a parent that
does not require grad is ``None``), its backward rule, and the result's shape
and dtype. A rule closes over the arrays it reads and nothing else, never
over a ``Tensor``. So the graph holds only what backward reads: an op
result's data is freed once neither the caller nor a rule holds it.

``Tensor.backward()`` walks the nodes in reverse topological order, summing
gradients over fan-out. Only leaves keep a ``grad``: interior gradients are
freed as the walk passes them. A graph is walked once: each node drops its
rule as soon as the rule has run, so an array that no rule still to run keeps
is freed there, and later rules' temporaries reuse its memory. A backward that
reaches a walked node is refused before any rule runs; backward calls over new
graphs of the same leaves, without ``zero_grad``, accumulate. The order
reaches each leaf right after its last consumer's rule, so its gradient is
final and handed off there, to ``Tensor.accumulate_grad`` or to the ``take`` a
caller passes (an optimizer can fold it in and drop it before the rest of the
graph is walked).

Backward contract: a rule takes the output gradient and returns one gradient
per parent, in ``_Node.parents`` order, and the tape drops those of parents
that need none. Rules never write ``grad``: the tape sums each returned
gradient down to its parent's shape, undoing numpy broadcasting. The first
gradient a parent receives becomes the tape's buffer for it: the returned
array itself when it is writeable, of the parent's dtype and C-contiguous;
else a C-contiguous copy of the parent's dtype, so every buffer the tape
allocates is C-contiguous. Later gradients are added into that buffer, so
the tape may write into an array a rule returned. A rule therefore returns
only fresh arrays, its ``g``, or views of ``g`` that do not overlap one
another (the same array for two parents is allowed: the second gets a copy);
never an array that the forward pass or another rule still reads. A leaf's
final buffer goes to ``take``; by default a leaf without a ``grad`` takes it
as its ``grad``, and a leaf that has one adds it in. A rule that returns
another count of gradients than its node has parents raises ``ValueError``.

Three ops are composite: each records one node for what would be several
primitive nodes, and keeps less than they would.

- ``linear`` keeps its input and weight, as ``matmul`` would; the bias is
  added in place into the GEMM's output.
- ``attention`` is a whole multi-head sublayer (four projections and the
  heads) and keeps only its inputs, the queries and the key/value source: its
  backward recomputes ``q``, ``k`` and ``v`` with three GEMMs, then the (B,
  heads, n_q, n_kv) probabilities and the heads' output with two more.
- ``feedforward`` keeps only its input: its backward recomputes the
  pre-activation with one GEMM, then GELU from it.

Their forward GEMMs run through ``matmul`` under ``no_grad``, so whatever
replaces ``matmul`` to count MACs sees every forward GEMM once. Their
backwards, the recomputed projection, score, mix and pre-activation GEMMs
included, use plain numpy ``@`` and never ``matmul``, so such a count
includes no backward work.
Each takes every value and gradient with the same numpy operations, in the
same order, as a chain of primitive nodes would (``matmul``, ``add``, ``mul``,
``reshape``, ``transpose`` and nodes over the ``_softmax`` and ``_gelu``
kernels), so results are byte-identical to that chain's.

GELU runs its chain of in-place passes over tiles of ``_TILE`` elements that
stay in cache, writing into the array it returns; ``feedforward``'s backward
recomputes GELU, writes the activation over the recomputed pre-activation and
turns ``g @ w2ᵀ`` into the pre-activation gradient in one such pass. GEMMs
never run in tiles: OpenBLAS's summation order can depend on the row count.
Each element meets the numpy operations of a whole-array pass in their order,
so the bytes match. Layer norm runs in whole-array passes.

Inside ``with no_grad():`` ops record no graph and return tensors that do
not require grad, so a forward for evaluation frees each activation as soon
as nothing reads it.

The token axis is the second-to-last axis throughout; ``concat``, ``split``
and ``mean`` always work on it. All forward results are deterministic
functions of their inputs.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

# Elements per tile of a chain of in-place passes (GELU and AdamW): each
# operand's tile stays in cache across the chain (for AdamW at S, 64K beat 16K,
# 256K and whole arrays).
_TILE = 1 << 16

# DUALVIT_DEBUG turns on the NaN/Inf sentinel that runs after every forward
# op: unset, empty or "0" means off, any other value means on.
_debug_checks = os.environ.get("DUALVIT_DEBUG", "0") not in ("", "0")
_grad_enabled = True


class Tensor:
    """A numpy-backed array participating in the gradient tape.

    ``grad`` (leaves only) is lazily allocated and always matches ``data`` in shape.
    ``_node`` is the graph node of an op result that records one, else ``None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

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

    def backward(self, take=None) -> None:
        """Hand this scalar's gradient of every reachable leaf to ``take(leaf,
        g)``, by default ``Tensor.accumulate_grad``, which adds it to ``grad``.

        The walk visits the nodes reachable from this tensor's node. A node
        holds its parents' nodes, its rule and only the arrays the rule reads,
        so an op result's data is freed once neither the caller nor a rule
        holds it. Fan-out sums. The walk drops each node's rule, and the
        tape's reference to its ``g``, as soon as the rule has returned: what
        only that rule kept is freed there, while the walk goes on, and a
        graph is walked once. A backward that reaches a walked node, from this
        loss or another one built over it, raises ``ContractError`` while it
        orders the nodes, before any rule runs or any gradient is handed off;
        build the graph again instead. Interior gradients are locals of the
        call, each freed once its node's rule has run. A node's ``g`` leaves
        the tape before its rule runs, so the tape owns every buffer it takes
        from a rule (see the module docstring) and may add into it. The
        depth-first order puts a node's leaf parents before its interior ones,
        so a leaf whose last consumer's rule has just run is handed off at
        once, before any deeper node's rule: ``g`` is then final and the tape
        keeps no reference to it. A tensor that does not require grad (a
        constant, or a result made under ``no_grad``) reaches no leaf and is
        refused.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward requires a loss that records a graph")
        if take is None:  # looked up per call, so a wrapper set on the class runs
            take = Tensor.accumulate_grad
        root = self._node or self
        topo: list[_Node | Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if type(node) is _Node:
                if node.rule is None:
                    raise ContractError("backward reached a graph that was already walked: "
                                        "build the graph again")
                # leaves below interior nodes: the last pushed is walked first,
                # so it is reached last from this node in the reversed order
                ps = [p for p in node.parents if p is not None and id(p) not in visited]
                stack.extend((p, False) for p in ps if type(p) is not _Node)
                stack.extend((p, False) for p in ps if type(p) is _Node)
        grads = {id(root): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node))
            if type(node) is not _Node:
                take(node, g)
                continue
            # free what only this rule kept, and its g, before the next rule runs
            pgs, node.rule, g = node.rule(g), None, None
            taken: set[int] = set()  # ids of the arrays this node's parents own
            for p, pg in zip(node.parents, pgs, strict=True):
                if p is None:
                    continue
                src = p if type(p) is _Node else p.data  # both have shape and dtype
                shape, dtype = src.shape, src.dtype
                if pg.shape != shape:
                    pg = _unbroadcast(pg, shape)
                acc = grads.get(id(p))
                if acc is not None:
                    acc += pg
                elif (id(pg) not in taken and pg.dtype == dtype
                      and pg.flags.writeable and pg.flags.c_contiguous):
                    # add returns (g, g): only its first parent may own g
                    grads[id(p)] = pg
                    taken.add(id(pg))
                else:  # np.array copies, and unlike astype never returns a scalar
                    grads[id(p)] = np.array(pg, dtype=dtype, order="C")


class _Node:
    """The graph record of one op result (see the module docstring)."""

    __slots__ = ("parents", "rule", "shape", "dtype")

    def __init__(self, parents: tuple, rule, data: np.ndarray):
        self.parents = parents
        self.rule: Callable[[np.ndarray], Sequence[np.ndarray]] = rule
        self.shape = data.shape
        self.dtype = data.dtype


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
    out = object.__new__(Tensor)
    # a 0-d op result can be a numpy scalar; a Tensor always holds an array
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out._node = None
    if _grad_enabled:
        nodes = [p._node or (p if p.requires_grad else None) for p in parents]
        if nodes.count(None) < len(nodes):
            out.requires_grad = True
            out._node = _Node(tuple(nodes), backward, out.data)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting, into an array
    that shares no memory with ``g``. A leading axis of length 1 is indexed
    away, not summed, when ``g`` is summed over more than one element anyway:
    a sum over one element returns it, save that numpy 2 turns -0.0 into 0.0,
    and a sum over more elements gives the same bytes whatever the sign of
    its zeros."""
    summed = g.size != math.prod(shape)
    while g.ndim > len(shape):
        g = g[0] if len(g) == 1 and summed else g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive differentiable ops
# ---------------------------------------------------------------------------

def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the weight of a token-wise ``x w``: one GEMM over all
    leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


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
    ad, bd = a.data, b.data

    def backward(g: np.ndarray):
        if bd.ndim == 2:
            gb = _weight_grad(ad, g)
        else:
            gb = np.swapaxes(ad, -1, -2) @ g
        return (g @ np.swapaxes(bd, -1, -2), gb)

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

    ad, bd = a.data, b.data
    return _make(out, (a, b), lambda g: (g * bd, g * ad))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of ``x`` along the last axis, shifted by the row maximum, written
    into ``x`` itself, which it returns."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``g`` pulled back through the softmax whose output is ``p``, as a fresh array."""
    out = g - (g * p).sum(axis=-1, keepdims=True)
    out *= p
    return out


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-token standardization over the last axis (epsilon 1e-6), then affine."""
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layernorm affine params must have shape ({d},), got "
            f"gamma {gamma.shape}, beta {beta.shape}"
        )
    x, gd, bd, shape = a.data.reshape(-1, d), gamma.data, beta.data, a.shape
    normed = x - _row_mean(x)
    inv_std = _row_mean(np.square(normed))
    inv_std += 1e-6
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    normed *= inv_std
    out = gd * normed
    out += bd

    def backward(g: np.ndarray):
        g = g.reshape(-1, d)
        ga = g * gd
        m1 = _row_mean(ga)
        prod = ga * normed
        m2 = _row_mean(prod)
        ga -= m1
        ga -= np.multiply(normed, m2, out=prod)
        ga *= inv_std
        g_gamma = np.multiply(g, normed, out=prod).sum(axis=0)
        return (ga.reshape(shape), g_gamma, g.sum(axis=0))

    return _make(out.reshape(shape), (a, gamma, beta), backward)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, byte for byte, without its Python wrapper."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray, out: np.ndarray, act: np.ndarray | None = None) -> np.ndarray:
    """GELU, tanh approximation: ``0.5 x (1 + t)`` with ``t = tanh(√(2/π)(x +
    0.044715 x³))``, in one pass over tiles of ``x``. Without ``act``, GELU goes
    into ``out``, making ``t`` there. With ``act``, ``out`` holds a gradient:
    it is multiplied in place by GELU's derivative, and GELU goes into ``act``,
    making ``t`` in one scratch row and the derivative in a second; ``t`` is
    made a second time once the derivative's ``x`` terms are formed, so two
    rows suffice. Each tile's GELU is written after the derivative has read the
    tile of ``x``, so ``act`` may be ``x`` itself. ``out`` and ``act`` are
    C-contiguous; the cube is a square and a multiply, not ``np.power``.
    Returns ``out``.
    """
    xf, of = x.reshape(-1), out.reshape(-1)
    af = of if act is None else act.reshape(-1)
    if act is not None:
        scratch = np.empty((2, min(_TILE, xf.size)), x.dtype)
    for lo in range(0, xf.size, _TILE):
        hi = min(lo + _TILE, xf.size)
        xs = xf[lo:hi]
        t = of[lo:hi] if act is None else scratch[0, :hi - lo]
        _gelu_tanh(xs, t)
        if act is not None:
            # local = 0.5 (1 + t) + 0.5 x (1 - t²) du,  du = C (1 + 3A x²)
            local = scratch[1, :hi - lo]
            np.multiply(xs, 3.0 * _GELU_A, out=local)
            local *= xs
            local += 1.0
            local *= _GELU_C
            np.square(t, out=t)
            np.subtract(1.0, t, out=t)
            t *= xs
            t *= 0.5
            local *= t
            _gelu_tanh(xs, t)
        t += 1.0
        # the derivative has read the tile of x: act may be x from here on
        y = np.multiply(t, xs, out=af[lo:hi])
        y *= 0.5
        if act is not None:
            t *= 0.5
            local += t
            of[lo:hi] *= local
    return out


def _gelu_tanh(x: np.ndarray, t: np.ndarray) -> None:
    """Write ``tanh(√(2/π)(x + 0.044715 x³))`` into ``t``."""
    np.square(x, out=t)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)


# ---------------------------------------------------------------------------
# composite differentiable ops
# ---------------------------------------------------------------------------

def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x w + b`` with plain numpy, the bias added in place: a backward's
    recompute of what ``linear`` made in the forward, byte for byte."""
    y = x @ w
    y += b
    return y


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Token-wise ``x w + b`` as one node, the bias added in place into the GEMM's
    output. The GEMM runs through ``matmul`` under ``no_grad``; the backward
    takes its gradients with plain numpy, byte for byte as ``matmul`` and
    ``add`` would."""
    if w.data.ndim != 2 or b.shape != w.shape[1:]:
        raise DimensionError(f"linear needs a 2-d weight and a matching bias, got "
                             f"weight {w.shape}, bias {b.shape}")
    with no_grad():
        out = matmul(x, w).data
    out += b.data
    xd, wd = x.data, w.data

    def backward(g: np.ndarray):
        # the bias gradient is full-size: the tape sums it down
        return (g @ wd.T, _weight_grad(xd, g), g)

    return _make(out, (x, w, b), backward)


def attention(xq: Tensor, xkv: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
              wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor, heads: int) -> Tensor:
    """Multi-head attention of (B, n_q, ·) queries over a (B, n_kv, ·) key/value
    source as one node: ``q = xq wq + bq``, ``k = xkv wk + bk``, ``v = xkv wv +
    bv``, scaled dot-product heads into ``mixed``, then ``mixed wo + bo``.

    Heads are views: ``q``, ``k`` and ``v`` reshaped to (B, n, heads, d/heads)
    and transposed head-major. The four projections run through ``linear`` and
    the two head GEMMs (scores and value mix) through ``matmul``, all under
    ``no_grad``; the scale and softmax run in place in the score buffer, and the
    heads are merged back into a fresh (B, n_q, d) array. The node keeps only
    ``xq`` and ``xkv``: the backward recomputes ``q``, ``k``, ``v``, the
    probabilities and ``mixed`` with the same numpy operations and takes every
    gradient with plain numpy, byte for byte as a chain of ``linear`` nodes
    around the primitive nodes of the heads would.
    ``xkv`` is a parent twice, once for ``k`` and once for ``v``, so the tape
    sums its gradient as it would over the two projections' nodes.
    """
    d = wq.shape[-1]
    if xq.data.ndim != 3 or xkv.data.ndim != 3 or xq.shape[0] != xkv.shape[0] or \
            not wq.shape == wk.shape == wv.shape or d % heads:
        raise DimensionError(f"attention needs (B, n, d) queries and keys/values, equal-shaped "
                             f"q/k/v weights and a width divisible by {heads} heads, got "
                             f"{xq.shape}, {xkv.shape}, {wq.shape}, {wk.shape}, {wv.shape}")
    batch, n_q, n_kv, head_dim = xq.shape[0], xq.shape[1], xkv.shape[1], d // heads
    s = 1.0 / math.sqrt(head_dim)

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(batch, x.shape[1], heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (B, heads, n, d_h) -> C-contiguous (B, n, d)
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(batch, x.shape[2], d)

    with no_grad():
        q, k, v = linear(xq, wq, bq).data, linear(xkv, wk, bk).data, linear(xkv, wv, bv).data
        p = matmul(Tensor(split(q)), Tensor(split(k).swapaxes(-1, -2))).data
        p *= s
        _softmax(p)
        mixed = merge(matmul(Tensor(p), Tensor(split(v))).data)
        out = linear(Tensor(mixed), wo, bo).data
    xqd, xkvd, wod = xq.data, xkv.data, wo.data
    wqd, bqd, wkd, bkd, wvd, bvd = (t.data for t in (wq, bq, wk, bk, wv, bv))

    def backward(g: np.ndarray):
        qh = split(_affine(xqd, wqd, bqd))
        kh = split(_affine(xkvd, wkd, bkd))
        vh = split(_affine(xkvd, wvd, bvd))
        p = qh @ kh.swapaxes(-1, -2)
        p *= s
        _softmax(p)
        gwo = _weight_grad(merge(p @ vh), g)
        gm = np.ascontiguousarray(split(g @ wod.T))
        gv = merge(p.swapaxes(-1, -2) @ gm)
        gs = _softmax_grad(gm @ vh.swapaxes(-1, -2), p)
        del p, gm, vh
        gs *= s
        gq = merge(gs @ kh)
        # the score GEMM's second operand was (B, heads, d_h, n_kv)
        gk = np.ascontiguousarray((qh.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2))
        gk = gk.reshape(batch, n_kv, d)
        del gs, qh, kh
        # the bias gradients are full-size: the tape sums them down
        return (gq @ wqd.T, _weight_grad(xqd, gq), gq,
                gk @ wkd.T, _weight_grad(xkvd, gk), gk,
                gv @ wvd.T, _weight_grad(xkvd, gv), gv,
                gwo, g)

    return _make(out, (xq, wq, bq, xkv, wk, bk, xkv, wv, bv, wo, bo), backward)


def feedforward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Token-wise ``GELU(x w1 + b1) w2 + b2`` as one node.

    The forward runs ``linear``, the ``_gelu`` kernel and ``linear`` under
    ``no_grad``, so anything that patches ``matmul`` to count MACs sees both
    forward GEMMs and both biases are added in place. The node keeps only
    ``x``: the backward recomputes the pre-activation ``h = x w1 + b1`` as the
    forward made it, one GEMM more, then GELU over ``h`` into ``h`` itself,
    and takes every gradient with plain numpy, never through ``matmul``, byte
    for byte as the five primitive nodes would.
    """
    with no_grad():
        h = linear(x, w1, b1).data
        out = linear(Tensor(_gelu(h, np.empty(h.shape, h.dtype))), w2, b2).data
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data

    def backward(g: np.ndarray):
        act = _affine(xd, w1d, b1d)
        # one pass turns g @ w2ᵀ into gh in place and writes GELU over act
        gh = g @ w2d.T
        _gelu(act, gh, act)
        gw2 = _weight_grad(act, g)
        del act
        gw1 = _weight_grad(xd, gh)
        # the bias gradients are full-size: the tape sums them down
        return (gh @ w1d.T, gw1, gh, gw2, g)

    return _make(out, (x, w1, b1, w2, b2), backward)


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
    shape, dtype = a.shape, a.data.dtype
    pieces: list[Tensor] = []
    offset = 0
    for size in sizes:
        idx_t = (..., slice(offset, offset + size), slice(None))
        piece_data = a.data[idx_t].copy()

        def backward(g: np.ndarray, idx_t=idx_t):
            full = np.zeros(shape, dtype)
            full[idx_t] = g
            return (full,)

        pieces.append(_make(piece_data, (a,), backward))
        offset += size
    return pieces


def mean(a: Tensor) -> Tensor:
    shape = a.shape
    n = shape[-2]
    return _make(a.data.mean(axis=-2), (a,),
                 lambda g: (np.broadcast_to(np.expand_dims(g, -2) / n, shape),))


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc
    in_shape = a.shape
    return _make(out, (a,), lambda g: (g.reshape(in_shape),))


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
