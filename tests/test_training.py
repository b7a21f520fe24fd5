import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dualvit import tensor as T
from dualvit import training
from dualvit.data import Dataset, make_synthetic
from dualvit.errors import ContractError
from dualvit.blocks import TransformerBlock
from dualvit.model import DualViT, build_model, preset_config
from dualvit.nn import Module
from dualvit.tensor import Tensor
from dualvit.training import (AdamW, cosine_lr, evaluate, gradcheck,
                              gradcheck_block, train_toy)


def _module(*arrays) -> Module:
    """A module whose parameters are ``arrays``, in order, laid out in one
    arena of the first array's dtype by ``Module.astype``."""
    module = Module()
    for i, a in enumerate(arrays):
        setattr(module, f"p{i}", Tensor(a, requires_grad=True))
    return module.astype(arrays[0].dtype if arrays else np.float32)


def test_adamw_zero_grad_is_pure_decay():
    module = _module(np.array([2.0, -3.0]))
    p = module.p0
    opt = AdamW(module, weight_decay=0.05)
    opt.take(p, np.zeros(2))
    opt.step(0.1)
    np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.1 * 0.05))


def test_adamw_first_step_is_signed_lr():
    module = _module(np.array([1.0, 1.0, 1.0]))
    p = module.p0
    opt = AdamW(module, weight_decay=0.0)
    g = np.array([0.5, -2.0, 3.0])
    opt.take(p, g)
    opt.step(0.01)
    # with zero moments the bias-corrected update is lr * g/(|g| + eps)
    np.testing.assert_allclose(p.data, 1.0 - 0.01 * np.sign(g), rtol=1e-6)


def test_adamw_three_step_oracle():
    def reference(p0, grads, lr, b1, b2, eps, wd):
        p = float(p0)
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            p *= 1 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        return p

    grads = [0.3, -0.7, 0.25]
    expected = reference(1.5, grads, 0.02, 0.9, 0.999, 1e-8, 0.05)
    module = _module(np.array([1.5]))
    p = module.p0
    opt = AdamW(module, weight_decay=0.05)
    for g in grads:
        opt.take(p, np.array([g]))
        opt.step(0.02)
    assert abs(p.data[0] - expected) <= 1e-7


def test_adamw_in_place_step_is_the_out_of_place_formula_byte_for_byte():
    """float32 parameters, one larger than a 64K-element chunk, weight decay on:
    three steps equal the formula evaluated out of place, and the flat moments
    and the parameter arrays are updated where they are."""
    rng = np.random.default_rng(0)
    module = _module(*(rng.standard_normal(shape, dtype=np.float32)
                       for shape in [(7,), (16, 24), (300, 301)]))
    params = module.parameters()
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in ref_p]
    ref_v = [np.zeros_like(p) for p in ref_p]
    opt = AdamW(module, weight_decay=0.05)
    arrays = [opt.m, opt.v, *(p.data for p in params)]
    for t, lr in enumerate([1e-2, 5e-3, 1e-3], start=1):
        for i, p in enumerate(params):
            g = rng.standard_normal(p.data.shape, dtype=np.float32)
            opt.take(p, g)
            ref_p[i] *= 1.0 - lr * 0.05
            ref_m[i] = 0.9 * ref_m[i] + (1.0 - 0.9) * g
            ref_v[i] = 0.999 * ref_v[i] + (1.0 - 0.999) * g * g
            ref_p[i] -= lr * (ref_m[i] / (1.0 - 0.9 ** t)) / (
                np.sqrt(ref_v[i] / (1.0 - 0.999 ** t)) + 1e-8)
        opt.step(lr)
        for i, p in enumerate(params):
            assert p.data.tobytes() == ref_p[i].tobytes(), (t, i)
        assert opt.m.tobytes() == np.concatenate([m.reshape(-1) for m in ref_m]).tobytes(), t
        assert opt.v.tobytes() == np.concatenate([v.reshape(-1) for v in ref_v]).tobytes(), t
    assert all(a is b for a, b in zip([opt.m, opt.v, *(p.data for p in params)], arrays))


def test_adamw_refuses_a_parameter_rebound_after_construction():
    model = build_model(preset_config("tiny"))
    opt = AdamW(model)
    model.astype(np.float64)
    with pytest.raises(ContractError, match="rebound"):
        opt.step(1e-3)
    assert opt.step_count == 0
    fresh = AdamW(model)
    assert fresh.arena is model.arena and fresh.arena.dtype == np.float64
    p = model.parameters()[0]
    before = p.data.copy()
    fresh.take(p, np.ones_like(p.data))
    fresh.step(1e-2)
    assert np.all(p.data < before)


def test_adamw_over_no_parameters_steps_as_a_no_op():
    opt = AdamW(_module())
    opt.step(1e-3)
    opt.zero_grad()
    assert opt.arena.size == 0 and opt.step_count == 1


def test_adamw_parameter_not_taken_updates_like_one_taken_with_zeros_byte_for_byte():
    """The middle parameter, which straddles a chunk boundary, is taken in the
    first step and not in the second, so its moments decay there as if its
    gradient were zeros."""
    shapes = [(5,), (300, 301), (3, 4)]
    runs = []
    for missing in (None, np.zeros(shapes[1], np.float32)):
        module = _module(*(np.arange(math.prod(s), dtype=np.float32).reshape(s) / 7
                           for s in shapes))
        params = module.parameters()
        opt = AdamW(module)
        for lr, g in ((1e-2, np.full(shapes[1], 0.25, np.float32)), (1e-3, missing)):
            opt.take(params[0], np.full(shapes[0], 0.5, np.float32))
            if g is not None:
                opt.take(params[1], g)
            opt.take(params[2], np.full(shapes[2], -1.5, np.float32))
            opt.step(lr)
        runs.append((opt.arena.tobytes(), opt.m.tobytes(), opt.v.tobytes()))
    assert runs[0] == runs[1]


def test_adamw_refuses_a_block_never_laid_out_in_an_arena():
    block = TransformerBlock(8, 2, 4, np.random.default_rng(0))
    with pytest.raises(ContractError, match="TransformerBlock has no arena: lay it out"):
        AdamW(block)
    opt = AdamW(block.astype(np.float32))
    assert opt.arena is block.arena and opt.m.shape == opt.v.shape == block.arena.shape


@pytest.mark.parametrize("take", [False, True], ids=["plain", "take"])
def test_adamw_over_parameters_above_and_below_a_tile_is_the_formula_byte_for_byte(take):
    """Parameters below, above, below, above and below a 64K-element tile, their
    gradients from a backward, whether ``take`` folds each one in the backward
    or a plain ``backward()`` leaves them all as ``grad``s, handed to ``take``
    after it: no parameter keeps a ``grad``."""
    rng = np.random.default_rng(5)
    shapes = [(5,), (300, 301), (3, 4), (70001,), (2,)]
    module = _module(*(rng.standard_normal(s, dtype=np.float32) for s in shapes))
    params = module.parameters()
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in ref_p]
    ref_v = [np.zeros_like(p) for p in ref_p]
    opt = AdamW(module, weight_decay=0.05)
    for t, lr in enumerate([1e-2, 5e-3, 1e-3], start=1):
        grads = [rng.standard_normal(s, dtype=np.float32) for s in shapes]
        loss = None
        for p, g in zip(params, grads):  # p's gradient is g, exactly
            term = T.sum_all(T.mul(p, Tensor(g)))
            loss = term if loss is None else T.add(loss, term)
        if take:
            loss.backward(take=opt.take)
        else:
            loss.backward()
            _take_grads(opt)
        assert all(p.grad is None for p in params)
        for i, g in enumerate(grads):
            ref_p[i] *= 1.0 - lr * 0.05
            ref_m[i] = 0.9 * ref_m[i] + (1.0 - 0.9) * g
            ref_v[i] = 0.999 * ref_v[i] + (1.0 - 0.999) * g * g
            ref_p[i] -= lr * (ref_m[i] / (1.0 - 0.9 ** t)) / (
                np.sqrt(ref_v[i] / (1.0 - 0.999 ** t)) + 1e-8)
        opt.step(lr)
        for i, p in enumerate(params):
            assert p.data.tobytes() == ref_p[i].tobytes(), (t, i)
        assert opt.m.tobytes() == np.concatenate([m.reshape(-1) for m in ref_m]).tobytes(), t
        assert opt.v.tobytes() == np.concatenate([v.reshape(-1) for v in ref_v]).tobytes(), t


@pytest.mark.parametrize("held", ["below", "above", "both"])
def test_step_refuses_a_grad_left_by_a_plain_backward_before_it_changes_a_byte(held):
    """AdamW reads no ``grad``, so ``step`` refuses a parameter below or above a
    64K-element tile that holds one, before the step count, the arena, ``m``
    or ``v`` change; the other parameter's gradient is handed to ``take``."""
    rng = np.random.default_rng(8)
    module = _module(*(rng.standard_normal(s, dtype=np.float32) for s in [(5,), (70001,)]))
    params = module.parameters()
    opt = AdamW(module)

    def backward(take=None):
        loss = None
        for p in params:
            term = T.sum_all(T.mul(p, Tensor(rng.standard_normal(p.data.shape, dtype=np.float32))))
            loss = term if loss is None else T.add(loss, term)
        loss.backward(take=take)

    backward(take=opt.take)
    opt.step(1e-2)  # the moments and the arena away from their first bytes
    backward()
    for p, size in zip(params, ["below", "above"]):
        if held not in (size, "both"):
            opt.take(p, p.grad)
            p.zero_grad()
    before = (opt.step_count, opt.arena.tobytes(), opt.m.tobytes(), opt.v.tobytes())
    with pytest.raises(ContractError, match="holds a grad.*take=opt.take"):
        opt.step(1e-2)
    assert (opt.step_count, opt.arena.tobytes(), opt.m.tobytes(), opt.v.tobytes()) == before


def _optimizers_made(monkeypatch) -> list[AdamW]:
    """Every AdamW built from here on, in order."""
    made, init = [], AdamW.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(AdamW, "__init__", recording)
    return made


def _take_grads(opt: AdamW) -> None:
    """Hand every ``grad`` a plain ``backward()`` left to ``opt.take``, then clear them."""
    for p in opt.params:
        if p.grad is not None:
            opt.take(p, p.grad)
    opt.zero_grad()


def _plain_backward(monkeypatch) -> None:
    """From here on ``Tensor.backward(take=opt.take)`` runs a plain ``backward()``,
    which leaves every gradient as a ``grad``, and only then hands them all to
    ``opt.take``: the whole gradient set is held before any is folded."""
    backward = Tensor.backward

    def plain(self, take):
        backward(self)
        _take_grads(take.__self__)

    monkeypatch.setattr(Tensor, "backward", plain)


@pytest.mark.parametrize("tile", [T._TILE, 61], ids=["default", "tile61"])
def test_train_toy_taking_gradients_keeps_the_bytes_of_a_plain_backward(monkeypatch, tile):
    """Folding each gradient as the tape finishes it gives the bytes of folding
    them all after the walk, at the default tile and at a tile of 61 elements,
    where most tiny gradients span several tiles."""
    monkeypatch.setattr(T, "_TILE", tile)
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 4, cfg.resolution, seed=6)
    made = _optimizers_made(monkeypatch)
    runs = []
    for plain in (False, True):
        if plain:
            _plain_backward(monkeypatch)
        report = train_toy(build_model(cfg), data, steps=3, batch_size=16, seed=1)
        opt = made[-1]
        runs.append((report.losses, opt.arena.tobytes(), opt.m.tobytes(), opt.v.tobytes()))
    assert runs[0] == runs[1]


def test_take_folds_every_gradient_and_refuses_a_second_take(monkeypatch):
    monkeypatch.setattr(T, "_TILE", 61)
    cfg = preset_config("tiny")
    model = build_model(cfg)
    images = np.random.default_rng(2).random((2, 32, 32, 3), dtype=np.float32)

    def loss_of() -> Tensor:
        return T.cross_entropy_with_logits(model(images), np.array([3, 4]))

    loss_of().backward()
    held = AdamW(model)
    _take_grads(held)
    opt = AdamW(model)
    loss_of().backward(take=opt.take)
    large = [p.data.size >= 61 for p in model.parameters()]
    assert 0 < sum(large) < len(large)
    assert all(p.grad is None for p in model.parameters())
    assert (opt.m.tobytes(), opt.v.tobytes()) == (held.m.tobytes(), held.v.tobytes())
    with pytest.raises(ContractError, match="taken twice before step"):
        loss_of().backward(take=opt.take)
    opt.step(1e-3)
    opt.zero_grad()
    loss_of().backward(take=opt.take)  # a step lets every parameter be taken again
    with pytest.raises(ContractError, match="not a parameter"):
        opt.take(Tensor(np.zeros(3), requires_grad=True), np.zeros(3))


def test_taking_gradients_lowers_an_S_train_step_peak_by_the_taken_bytes(monkeypatch):
    """Preset S at resolution 64 has S's 22.8M parameters over few tokens. One
    ``train_toy`` step that hands AdamW each gradient as the tape finishes it
    peaks below the same step over a plain ``backward()``, which holds them all
    until the walk ends, by at least 80 % of the gradients' bytes. Measured
    with tracemalloc: 291.0 MB against 366.3 MB, with 90.3 MB of gradients."""
    cfg = preset_config("S", resolution=64)
    model = build_model(cfg)
    data = Dataset(np.random.default_rng(0).random((1, 64, 64, 3), dtype=np.float32),
                   np.array([3]), cfg.num_classes)
    taken = sum(p.data.nbytes for p in model.parameters())
    peaks = []
    for plain in (False, True):
        if plain:
            _plain_backward(monkeypatch)
        tracemalloc.start()
        try:
            train_toy(model, data, steps=1, batch_size=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] >= 0.8 * taken, (peaks, taken)


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
    assert cosine_lr(1e-3, 100, 100) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(1e-3, 50, 100) == pytest.approx(5e-4)


@pytest.mark.parametrize("kind", ["transformer", "dual", "merge"])
def test_block_gradients_match_finite_differences(kind):
    report = gradcheck_block(kind, samples=120)
    assert report.passed, report.failures


def test_full_model_gradients_match_finite_differences():
    report = gradcheck_block("model", samples=120)
    assert report.passed, report.failures


@pytest.mark.parametrize("seed", [0, 3])
def test_model_gradcheck_checks_the_float64_cast_of_the_float32_model(monkeypatch, seed):
    checked = []
    monkeypatch.setattr(training, "gradcheck", lambda loss_fn, named_params, *args, **kw:
                        checked.extend((name, p.data) for name, p in named_params))
    gradcheck_block("model", seed=seed)
    want = build_model(preset_config("tiny", seed=seed)).astype(np.float64)
    assert [name for name, _ in checked] == [name for name, _ in want.named_parameters()]
    for (name, data), (_, p) in zip(checked, want.named_parameters()):
        assert data.dtype == np.float64, name
        assert data.tobytes() == p.data.tobytes(), name


def test_gradcheck_catches_wrong_gradient():
    p = Tensor(np.array([0.7, -0.3]), requires_grad=True)

    def loss_fn():
        # square via mul so the graph is rebuilt each call
        return T.mul(T.sum_all(T.mul(p, p)), Tensor(np.asarray(0.5)))

    good = gradcheck(loss_fn, [("p", p)])
    assert good.passed
    saved = T.mul

    def broken_mul(a, b):
        out = saved(a, b)
        if out._node is not None:  # None under no_grad
            out._node.rule = lambda g: (np.zeros_like(g), np.zeros_like(g))
        return out

    T.mul = broken_mul
    try:
        bad = gradcheck(loss_fn, [("p", p)])
    finally:
        T.mul = saved
    assert not bad.passed


def test_classification_loss_reaches_semantic_seed_and_both_pathways():
    cfg = preset_config("tiny")
    model = build_model(cfg)
    rng = np.random.default_rng(3)
    images = rng.random((2, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
    labels = np.array([1, 5])
    model.zero_grad()
    loss = T.cross_entropy_with_logits(model(images), labels)
    loss.backward()
    grads = dict(model.named_parameters())
    assert np.abs(grads["z0"].grad).max() > 0
    pixel = [n for n, p in grads.items() if "pix_ffn" in n and p.grad is not None]
    semantic = [n for n, p in grads.items() if "sem_ffn" in n and p.grad is not None]
    assert any(np.abs(grads[n].grad).max() > 0 for n in pixel)
    assert any(np.abs(grads[n].grad).max() > 0 for n in semantic)


def test_zero_lr_changes_nothing():
    cfg = preset_config("tiny")
    model = build_model(cfg)
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=7)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    # full-batch so every step sees the same data; with lr=0 the loss is flat
    report = train_toy(model, data, steps=3, batch_size=16, lr=0.0)
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
    losses = report.losses
    assert max(losses) - min(losses) < 1e-6


def test_initial_loss_near_uniform():
    cfg = preset_config("tiny")
    model = build_model(cfg)
    data = make_synthetic(cfg.num_classes, 4, cfg.resolution, seed=11)
    loss = T.cross_entropy_with_logits(model(data.images), data.labels).item()
    assert abs(loss - math.log(cfg.num_classes)) < 0.2


def test_training_is_bitwise_reproducible():
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 4, cfg.resolution, seed=5)
    runs = []
    for _ in range(2):
        model = build_model(cfg)
        report = train_toy(model, data, steps=5, batch_size=8, seed=9)
        runs.append((report.losses, {n: p.data.copy()
                                     for n, p in model.named_parameters()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])


def test_short_training_reduces_loss_and_reports_accuracy():
    cfg = preset_config("tiny")
    model = build_model(cfg)
    data = make_synthetic(cfg.num_classes, 4, cfg.resolution, seed=2)
    report = train_toy(model, data, steps=30, batch_size=16, seed=0)
    assert not report.aborted
    assert report.losses[-1] < report.losses[0]
    assert 0.0 <= report.final_accuracy <= 1.0
    assert report.final_accuracy == pytest.approx(evaluate(model, data))


def test_train_toy_trains_the_model_arena_where_it_is():
    """Two ``train_toy`` calls update the model's own arena: it stays the same
    object, and every parameter stays a view of it."""
    cfg = preset_config("tiny")
    model = build_model(cfg)
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=2)
    arena, before = model.arena, model.arena.copy()
    for seed in (0, 1):
        train_toy(model, data, steps=2, batch_size=8, seed=seed)
        assert model.arena is arena
        assert all(p.data.base is arena for p in model.parameters())
    assert not np.array_equal(arena, before)


@pytest.mark.parametrize("lr", [1e-3, 1e10], ids=["normal", "abort"])
def test_each_step_graph_dies_with_the_step(monkeypatch, lr):
    """An earlier step's logits are freed before the next loss or the final evaluate."""
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=4)
    earlier: list[weakref.ref] = []
    cross_entropy, evaluate_fn = T.cross_entropy_with_logits, training.evaluate

    def all_dead():
        return all(ref() is None for ref in earlier)

    def checked_cross_entropy(logits, labels):
        assert all_dead()
        earlier.append(weakref.ref(logits.data))
        return cross_entropy(logits, labels)

    def checked_evaluate(*args, **kwargs):
        assert all_dead()
        return evaluate_fn(*args, **kwargs)

    monkeypatch.setattr(T, "cross_entropy_with_logits", checked_cross_entropy)
    monkeypatch.setattr(training, "evaluate", checked_evaluate)
    report = train_toy(build_model(cfg), data, steps=3, batch_size=8, lr=lr)
    assert report.aborted == (lr > 1)
    assert len(earlier) == len(report.steps) >= 2


def test_abort_restores_the_weights_of_the_last_finite_loss(monkeypatch):
    """Step 2's loss is non-finite: the weights that gave step 1's loss come
    back, not the initial ones nor those after step 1's update."""
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=4)
    model = build_model(cfg)
    seen: list[list[np.ndarray]] = []
    cross_entropy = T.cross_entropy_with_logits

    def non_finite_third_loss(logits, labels):
        seen.append([p.data.copy() for p in model.parameters()])
        if len(seen) == 3:
            raise FloatingPointError("stopped by the test")
        return cross_entropy(logits, labels)

    monkeypatch.setattr(T, "cross_entropy_with_logits", non_finite_third_loss)
    report = train_toy(model, data, steps=5, batch_size=8)
    assert report.aborted and len(report.steps) == 3 and math.isnan(report.losses[-1])
    restored = [p.data.tobytes() for p in model.parameters()]
    assert restored == [a.tobytes() for a in seen[1]]
    assert restored != [a.tobytes() for a in seen[0]]
    assert restored != [a.tobytes() for a in seen[2]]


def test_evaluate_builds_no_graph(monkeypatch):
    """Evaluation logits carry no graph, and each GELU activation is freed by
    the time the forward that made it returns."""
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=5)
    model = build_model(cfg)
    activations: list[weakref.ref] = []
    logits_seen: list[weakref.ref] = []
    gelu, forward = T._gelu, DualViT.__call__

    def recorded_gelu(x, out, act=None):
        out = gelu(x, out, act)
        activations.append(weakref.ref(out))
        return out

    def checked_forward(self, images):
        logits = forward(self, images)
        assert not logits.requires_grad and logits._node is None
        assert activations and all(ref() is None for ref in activations)
        logits_seen.append(weakref.ref(logits.data))
        return logits

    monkeypatch.setattr(T, "_gelu", recorded_gelu)
    monkeypatch.setattr(DualViT, "__call__", checked_forward)
    evaluate(model, data, batch_size=8)
    assert len(logits_seen) == 2
    assert all(ref() is None for ref in logits_seen + activations)
