"""Toy-scale supervised training and the finite-difference gradient checker.

The optimizer is AdamW with decoupled weight decay: the decay factor is
applied to the parameter before the bias-corrected moment update (moment
decay rates 0.9 and 0.999, eps 1e-8). It updates its module's ``arena`` (see
``Module.astype``) in place and refuses a parameter rebound out of it. The
schedule is cosine decay from the base learning rate to zero, no warmup.

Gradient checking casts the float32 module to float64, so it checks the same
weights: central differences with step 1e-5 on a random subsample of
parameters, relative error against the analytic gradient with denominator
max(|analytic|, |numeric|, 1e-8).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .blocks import DualBlock, FeatureMap, MergeBlock, SemanticTokens, TransformerBlock
from .errors import ContractError
from .model import DualViT, build_model, preset_config
from .nn import Module
from .tensor import Tensor


_B1, _B2, _EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Updates ``module.arena`` in place; ``m`` and ``v`` are laid out like it.

    A gradient reaches it one way: ``take``, handed to ``Tensor.backward``,
    folds each parameter's gradient into ``m`` and ``v`` in chunks of
    ``tensor._TILE`` elements as soon as the tape has finished it, then drops
    it, so a step never holds all of them at once. ``step`` folds a zero
    gradient into the moments of every parameter not taken since the last
    step, then applies the update to the arena in chunks. Every element meets
    the formula's operations in its order, so the result equals the formula
    evaluated out of place, bit for bit. A module never laid out by
    ``Module.astype`` is refused. ``step`` refuses, before it changes a byte,
    a parameter rebound out of the arena (by a later ``astype``, say: build a
    new AdamW) and a parameter that holds a ``grad``, which it would ignore:
    hand gradients over with ``backward(take=opt.take)``."""

    def __init__(self, module: Module, weight_decay: float = 0.05):
        if module.arena is None:
            raise ContractError(f"{type(module).__name__} has no arena: lay it out with astype")
        self.arena = module.arena
        self.params = module.parameters()
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(self.arena)
        self.v = np.zeros_like(self.arena)
        # the update's two temporaries, one chunk each; an empty arena's chunk
        # length is 1, so that its loops still have a step
        self._s, self._d = np.empty((2, min(T._TILE, self.arena.size) or 1), self.arena.dtype)
        self._offsets = dict(zip(map(id, self.params), itertools.accumulate(
            (p.data.size for p in self.params), initial=0)))
        self._taken: set[int] = set()  # ids of the parameters taken since step

    def take(self, p: Tensor, g: np.ndarray) -> None:
        """Take ``p``'s final gradient from ``Tensor.backward(take=...)``: fold it
        into ``m`` and ``v`` now, in chunks, and drop it. A second take of ``p``
        before ``step`` is refused."""
        lo = self._offsets.get(id(p))
        if lo is None:
            raise ContractError("take was handed a tensor that is not a parameter of this AdamW")
        if id(p) in self._taken:
            raise ContractError("a parameter's gradient was taken twice before step")
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        self._taken.add(id(p))
        g, tile = g.reshape(-1), len(self._s)
        for a in range(0, g.size, tile):
            b = min(a + tile, g.size)
            _adamw_moments(g[a:b], self.m[lo + a:lo + b], self.v[lo + a:lo + b], self._s[:b - a])

    def step(self, lr: float) -> None:
        for i, p in enumerate(self.params):
            if p.data.base is not self.arena:
                raise ContractError(f"parameter {i} was rebound out of the arena AdamW "
                                    "updates; build a new AdamW")
            if p.grad is not None:
                raise ContractError(f"parameter {i} holds a grad, which AdamW does not read: "
                                    "pass take=opt.take to backward")
        zero = np.zeros((), self.arena.dtype)  # literal zeros turn -0.0 moments into +0.0
        for p in self.params:
            if id(p) not in self._taken:
                self.take(p, np.broadcast_to(zero, p.data.shape))
        self._taken = set()
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1.0 - _B1 ** t, 1.0 - _B2 ** t
        decay = 1.0 - lr * self.weight_decay
        tile, n = len(self._s), self.arena.size
        for a in range(0, n, tile):
            b = min(a + tile, n)
            _adamw_apply(self.arena[a:b], self.m[a:b], self.v[a:b], self._s[:b - a],
                         self._d[:b - a], lr, decay, c1, c2)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def _adamw_moments(g, m, v, s) -> None:
    """In place, into scratch ``s``: m = b1 m + (1 - b1) g; v = b2 v + ((1 - b2) g) g."""
    m *= _B1
    np.multiply(g, 1.0 - _B1, s)
    m += s
    v *= _B2
    np.multiply(g, 1.0 - _B2, s)
    s *= g
    v += s


def _adamw_apply(p, m, v, s, d, lr, decay, c1, c2) -> None:
    """In place, into scratch ``s`` and ``d``: p *= decay;
    p -= (lr (m / c1)) / (sqrt(v / c2) + eps)."""
    p *= decay
    np.divide(m, c1, s)
    s *= lr
    np.divide(v, c2, d)
    np.sqrt(d, d)
    d += _EPS
    s /= d
    p -= s


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    frac = min(step / total_steps, 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    num_checked: int
    tolerance: float
    failures: list[tuple[str, int, float, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def gradcheck(loss_fn: Callable[[], Tensor],
              named_params: list[tuple[str, Tensor]],
              tolerance: float = 1e-4,
              samples: int = 200,
              seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild the forward graph from scratch on every call
    (parameters are perturbed in place between calls). Checks a random
    subsample of ``samples`` scalar parameters across all tensors.
    """
    for _, p in named_params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in named_params}

    flat_index = [(name, p, i) for name, p in named_params for i in range(p.data.size)]
    rng = np.random.default_rng(seed)
    if len(flat_index) > samples:
        chosen = rng.choice(len(flat_index), size=samples, replace=False)
        flat_index = [flat_index[i] for i in chosen]

    report = GradCheckReport(max_rel_error=0.0, num_checked=len(flat_index),
                             tolerance=tolerance)
    step = 1e-5
    for name, p, i in flat_index:
        orig = p.data.flat[i]
        with T.no_grad():
            p.data.flat[i] = orig + step
            plus = loss_fn().item()
            p.data.flat[i] = orig - step
            minus = loss_fn().item()
        p.data.flat[i] = orig
        numeric = (plus - minus) / (2.0 * step)
        ana = float(analytic[name].flat[i])
        err = _rel_error(ana, numeric)
        if err > report.max_rel_error:
            report.max_rel_error = err
        if err > tolerance:
            report.failures.append((name, i, ana, numeric, err))
    return report


def _block_loss(outputs: list[Tensor], probes: list[np.ndarray]) -> Tensor:
    """Scalar loss: fixed random projection of all block outputs.

    Kept at magnitude O(0.1): central differences on a larger loss carry
    float64 cancellation noise above the 1e-8 relative-error floor, which
    would falsely flag parameters whose true gradient is exactly zero.
    """
    total = None
    for out, probe in zip(outputs, probes):
        term = T.sum_all(T.mul(out, Tensor(probe / (8 * probe.size))))
        total = term if total is None else T.add(total, term)
    return total


def gradcheck_block(kind: str, tolerance: float = 1e-4, samples: int = 200,
                    seed: int = 0) -> GradCheckReport:
    """Gradcheck one block type (or the full tiny model) at desk-scale shapes."""
    rng = np.random.default_rng(seed)
    dt = np.float64
    if kind == "model":
        cfg = preset_config("tiny", seed=seed)
        model = build_model(cfg).astype(dt)
        images = rng.random((2, cfg.resolution, cfg.resolution, 3))
        labels = rng.integers(0, cfg.num_classes, size=2)

        def loss_fn() -> Tensor:
            # scaled down for the same finite-difference noise reason as above
            ce = T.cross_entropy_with_logits(model(Tensor(images)), labels)
            return T.mul(ce, Tensor(np.asarray(1.0 / 128.0, dt)))

        params = list(model.named_parameters())
        return gradcheck(loss_fn, params, tolerance, samples, seed=seed)

    dim, heads, n, m = 16, 2, 16, 4
    block_rng = np.random.default_rng(seed + 1)
    if kind == "dual":
        block = DualBlock(dim, heads, 4, 2, block_rng)
    elif kind == "merge":
        block = MergeBlock(dim, heads, 4, 2, block_rng)
    elif kind == "transformer":
        block = TransformerBlock(dim, heads, 4, block_rng)
    else:
        raise ContractError(f"unknown gradcheck target {kind!r}")
    _randomize(block.astype(dt), block_rng)
    x = rng.standard_normal((1, n, dim))
    z = rng.standard_normal((1, m, dim))
    probes = [rng.standard_normal((1, n, dim)), rng.standard_normal((1, m, dim))]

    def loss_fn() -> Tensor:
        if kind == "transformer":
            out = block(Tensor(x))
            return _block_loss([out], probes[:1])
        fm, st = block(FeatureMap(Tensor(x), 4, 4), SemanticTokens(Tensor(z)))
        return _block_loss([fm.tokens, st.tokens], probes)

    return gradcheck(loss_fn, list(block.named_parameters()), tolerance, samples,
                     seed=seed)


def _randomize(module, rng: np.random.Generator, scale: float = 0.2) -> None:
    """Give every parameter (incl. LN affines and biases) a generic value."""
    for _, p in module.named_parameters():
        p.data += scale * rng.standard_normal(p.data.shape)


# ---------------------------------------------------------------------------
# toy training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    steps: list[tuple[int, float, float]]  # (step, loss, lr)
    final_accuracy: float
    wall_clock: float
    aborted: bool = False

    @property
    def losses(self) -> list[float]:
        return [loss for _, loss, _ in self.steps]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate(model: DualViT, dataset, batch_size: int = 16) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``; a batch whose logits are not
    all finite raises ``FloatingPointError``, with no numpy warning."""
    correct = 0
    n = len(dataset.labels)
    with T.no_grad():
        for start in range(0, n, batch_size):
            batch = dataset.images[start:start + batch_size]
            logits = model(batch).data
            if not np.isfinite(logits).all():
                raise FloatingPointError("non-finite logits in evaluation")
            correct += int((logits.argmax(axis=-1) == dataset.labels[start:start + batch_size]).sum())
    return correct / n


# no numpy warnings: a diverging run is reported as a non-finite loss
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_toy(model: DualViT, dataset, steps: int, batch_size: int = 16,
              lr: float = 1e-3, weight_decay: float = 0.05,
              seed: int = 0) -> TrainReport:
    """Cross-entropy training with cosine decay; aborts on a non-finite value.

    A non-finite loss ends the run: the step is recorded, the weights that
    gave the last finite loss are restored and ``aborted`` is set. The
    ``DUALVIT_DEBUG`` sentinel stopping a step's forward counts as loss ``nan``.
    Non-finite logits in the closing evaluation, or the sentinel stopping it,
    restore those weights too, set ``aborted`` and report ``final_accuracy``
    as ``nan``.

    Each backward hands every gradient to ``AdamW.take``, which folds it into
    the moments as the tape finishes it, so a step never holds the whole
    gradient set, and no parameter keeps a ``grad`` for ``step`` to refuse.

    Deterministic under ``seed``: batch order comes from a seeded permutation
    stream, and all arithmetic is single-threaded numpy.
    """
    t0 = time.perf_counter()
    opt = AdamW(model, weight_decay=weight_decay)
    rng = np.random.default_rng(seed)
    n = len(dataset.labels)
    order = rng.permutation(n)
    cursor = 0
    history: list[tuple[int, float, float]] = []
    last_good = model.arena.copy()
    aborted = False
    for step in range(steps):
        if cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        try:
            loss = T.cross_entropy_with_logits(model(dataset.images[idx]), dataset.labels[idx])
        except FloatingPointError:
            loss = Tensor(math.nan)
        loss_val = loss.item()
        step_lr = cosine_lr(lr, step, steps)
        history.append((step, loss_val, step_lr))
        if not math.isfinite(loss_val):
            del loss  # the step's graph must not outlive it
            np.copyto(model.arena, last_good)
            aborted = True
            break
        np.copyto(last_good, model.arena)
        opt.zero_grad()
        loss.backward(take=opt.take)
        del loss
        opt.step(lr=step_lr)
    try:
        acc = evaluate(model, dataset, batch_size)
    except FloatingPointError:  # non-finite logits, or the sentinel
        np.copyto(model.arena, last_good)
        acc, aborted = math.nan, True
    return TrainReport(steps=history, final_accuracy=acc,
                       wall_clock=time.perf_counter() - t0, aborted=aborted)
