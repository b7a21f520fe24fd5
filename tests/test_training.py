import math
import weakref

import numpy as np
import pytest

from dualvit import tensor as T
from dualvit import training
from dualvit.data import make_synthetic
from dualvit.model import DualViT, build_model, preset_config
from dualvit.tensor import Tensor
from dualvit.training import (AdamW, cosine_lr, evaluate, gradcheck,
                              gradcheck_block, train_toy)


def test_adamw_zero_grad_is_pure_decay():
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    opt = AdamW([p], weight_decay=0.05)
    p.grad = np.zeros(2)
    opt.step(0.1)
    np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.1 * 0.05))


def test_adamw_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    opt = AdamW([p], weight_decay=0.0)
    p.grad = np.array([0.5, -2.0, 3.0])
    opt.step(0.01)
    # with zero moments the bias-corrected update is lr * g/(|g| + eps)
    np.testing.assert_allclose(p.data, 1.0 - 0.01 * np.sign(p.grad), rtol=1e-6)


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
    p = Tensor(np.array([1.5]), requires_grad=True)
    opt = AdamW([p], weight_decay=0.05)
    for g in grads:
        p.grad = np.array([g])
        opt.step(0.02)
    assert abs(p.data[0] - expected) <= 1e-7


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
        return T.scale(T.sum_all(T.mul(p, p)), 0.5)

    good = gradcheck(loss_fn, [("p", p)])
    assert good.passed
    saved = T.mul

    def broken_mul(a, b):
        out = saved(a, b)
        out._backward = lambda g: None
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


def test_evaluate_builds_no_graph(monkeypatch):
    """Evaluation logits carry no graph, and each GELU activation is freed by
    the time the forward that made it returns."""
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=5)
    model = build_model(cfg)
    activations: list[weakref.ref] = []
    logits_seen: list[weakref.ref] = []
    gelu, forward = T.gelu, DualViT.__call__

    def recorded_gelu(a):
        out = gelu(a)
        activations.append(weakref.ref(out.data))
        return out

    def checked_forward(self, images):
        logits = forward(self, images)
        assert not logits.requires_grad and logits._parents == ()
        assert activations and all(ref() is None for ref in activations)
        logits_seen.append(weakref.ref(logits.data))
        return logits

    monkeypatch.setattr(T, "gelu", recorded_gelu)
    monkeypatch.setattr(DualViT, "__call__", checked_forward)
    evaluate(model, data, batch_size=8)
    assert len(logits_seen) == 2
    assert all(ref() is None for ref in logits_seen + activations)
