"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and time
budget and prints a single pass/fail line. Run with ``pytest -s`` to see
the lines.
"""

import time

import numpy as np

from dualvit import complexity
from dualvit import tensor as T
from dualvit.blocks import DualBlock, FeatureMap, MergeBlock, SemanticTokens
from dualvit.data import (load_checkpoint, load_packed_dataset,
                          make_synthetic, save_checkpoint, save_packed_dataset)
from dualvit.model import build_model, preset_config
from dualvit.tensor import Tensor
from dualvit.training import gradcheck_block, train_toy
from tests.test_blocks import _randomize
from tests.test_complexity import dual_block_attention_macs, joint_attention_macs

ARCHITECTURES = {
    "S": {"depths": [3, 4, 6, 3], "heads": [2, 4, 10, 14],
          "channels": [64, 128, 320, 448], "ffn_pixel": [8, 8, 4, 3],
          "ffn_semantic": [4, 4, 2, 2], "patches": [4, 2, 2, 2]},
    "B": {"depths": [3, 4, 15, 3], "heads": [2, 4, 10, 16],
          "channels": [64, 128, 320, 512], "ffn_pixel": [8, 8, 4, 3],
          "ffn_semantic": [4, 4, 2, 2], "patches": [4, 2, 2, 2]},
    "L": {"depths": [3, 6, 21, 3], "heads": [3, 6, 12, 16],
          "channels": [96, 192, 384, 512], "ffn_pixel": [8, 8, 4, 3],
          "ffn_semantic": [4, 4, 2, 2], "patches": [4, 2, 2, 2]},
}

PUBLISHED_PARAMS = {"S": 24.6e6, "B": 42.6e6, "L": 73.0e6}


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def check(self) -> str:
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"exceeded {self.limit}s budget ({elapsed:.1f}s)"
        return f"{elapsed:.2f}s"


def test_criterion_architecture_tables():
    budget = _Budget(1.0)
    mismatches = []
    for name, want in ARCHITECTURES.items():
        cfg = preset_config(name)
        got = {
            "depths": [s.depth for s in cfg.stages],
            "heads": [s.heads for s in cfg.stages],
            "channels": [s.channels for s in cfg.stages],
            "ffn_pixel": [s.ffn_ratio_pixel for s in cfg.stages],
            "ffn_semantic": [s.ffn_ratio_semantic for s in cfg.stages],
            "patches": [s.patch_size for s in cfg.stages],
        }
        kinds = [s.kind for s in cfg.stages]
        if got != want or kinds != ["dual", "dual", "merge", "merge"]:
            mismatches.append(name)
    _verdict(not mismatches, "architecture tables",
             f"S/B/L stage tables exact ({budget.check()})")


def test_criterion_parameter_totals():
    budget = _Budget(5.0)
    details = []
    ok = True
    for name, target in PUBLISHED_PARAMS.items():
        params = complexity.count_macs(build_model(preset_config(name))).params
        rel = (params - target) / target
        details.append(f"{name}={params / 1e6:.2f}M ({rel:+.1%})")
        ok &= abs(rel) <= 0.10
    _verdict(ok, "parameter totals",
             f"{', '.join(details)} within ±10% ({budget.check()})")


def test_criterion_small_model_macs():
    budget = _Budget(5.0)
    macs = complexity.count_macs(build_model(preset_config("S"))).macs
    rel = (macs - 4.8e9) / 4.8e9
    _verdict(abs(rel) <= 0.15, "compute estimate",
             f"S at 224px = {macs / 1e9:.3f} giga-MACs vs 4.8 ({rel:+.1%}, "
             f"±15% allowed, {budget.check()})")


def test_criterion_ablation_parameter_ordering():
    budget = _Budget(10.0)
    params = {v: complexity.count_macs(build_model(preset_config("S"), variant=v)).params
              for v in "ABCD"}
    ordered = params["B"] < params["A"] < params["C"] == params["D"]
    da = params["D"] - params["A"]
    db = params["D"] - params["B"]
    deltas_ok = abs(da - 0.3e6) / 0.3e6 <= 0.30 and abs(db - 0.7e6) / 0.7e6 <= 0.30
    _verdict(ordered and deltas_ok, "variant parameter ordering",
             f"B<A<C=D with D-A={da / 1e6:.2f}M, D-B={db / 1e6:.2f}M "
             f"(targets 0.3M/0.7M ±30%, {budget.check()})")


def test_criterion_attention_cost_scaling():
    budget = _Budget(5.0)
    ns = np.array([256, 1024, 4096], dtype=float)
    m, d = 16, 64
    dual = [dual_block_attention_macs(int(n), m, d) for n in ns]
    conv = [joint_attention_macs(int(n), d) for n in ns]
    dual_slope = np.polyfit(np.log(ns), np.log(dual), 1)[0]
    conv_slope = np.polyfit(np.log(ns), np.log(conv), 1)[0]
    ok = 0.9 <= dual_slope <= 1.2 and 1.8 <= conv_slope <= 2.1
    _verdict(ok, "attention cost scaling",
             f"log-log slope dual={dual_slope:.3f} (want 0.9..1.2), "
             f"joint-attention={conv_slope:.3f} (want 1.8..2.1, {budget.check()})")


def test_criterion_gradients():
    budget = _Budget(120.0)
    worst = {}
    for kind in ("dual", "merge", "transformer", "model"):
        report = gradcheck_block(kind, tolerance=1e-4, samples=200)
        worst[kind] = report.max_rel_error
        assert report.passed, (kind, report.failures)

    cfg = preset_config("tiny")
    model = build_model(cfg)
    rng = np.random.default_rng(0)
    images = rng.random((2, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
    loss = T.cross_entropy_with_logits(model(images), np.array([0, 3]))
    loss.backward()
    grads = dict(model.named_parameters())
    reached = (np.abs(grads["z0"].grad).max() > 0
               and any(np.abs(p.grad).max() > 0 for n, p in grads.items()
                       if "pix_ffn" in n)
               and any(np.abs(p.grad).max() > 0 for n, p in grads.items()
                       if "sem_ffn" in n))
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _verdict(reached, "gradient correctness",
             f"max rel errors {detail} (< 1e-4), loss reaches the semantic "
             f"seed and both pathways ({budget.check()})")


def test_criterion_block_equivalences():
    budget = _Budget(30.0)
    rng = np.random.default_rng(7)

    # a merge block with its two output FFNs tied equals one joint-attention
    # transformer block applied to the concatenated token sequence
    from dualvit.blocks import TransformerBlock
    merge = MergeBlock(8, 2, 4, 4, np.random.default_rng(1)).astype(np.float64)
    _randomize(merge, rng)
    for src, dst in [(merge.ffn_x, merge.ffn_z), (merge.norm_x, merge.norm_z)]:
        for (_, ps), (_, pd) in zip(src.named_parameters(), dst.named_parameters()):
            pd.data[...] = ps.data
    tb = TransformerBlock(8, 2, 4, np.random.default_rng(2)).astype(np.float64)
    pairs = [(merge.norm_joint, tb.norm_attn), (merge.attn, tb.attn),
             (merge.norm_x, tb.norm_ffn), (merge.ffn_x, tb.ffn)]
    for src, dst in pairs:
        for (_, ps), (_, pd) in zip(src.named_parameters(), dst.named_parameters()):
            pd.data[...] = ps.data
    x = rng.standard_normal((1, 6, 8))
    z = rng.standard_normal((1, 2, 8))
    x_out, z_out = merge(FeatureMap(Tensor(x), 2, 3), SemanticTokens(Tensor(z)))
    joint = tb(Tensor(np.concatenate([x, z], axis=-2))).data
    tie_err = np.abs(np.concatenate([x_out.tokens.data, z_out.tokens.data],
                                    axis=-2) - joint).max()

    # 32-bit dual block: permuting pixel tokens permutes the pixel output and
    # leaves the semantic output unchanged
    blk = DualBlock(16, 2, 4, 2, np.random.default_rng(3))
    x32 = rng.standard_normal((1, 12, 16)).astype(np.float32)
    z32 = rng.standard_normal((1, 4, 16)).astype(np.float32)
    perm = rng.permutation(12)
    a_x, a_z = blk(FeatureMap(Tensor(x32), 3, 4), SemanticTokens(Tensor(z32)))
    b_x, b_z = blk(FeatureMap(Tensor(x32[:, perm]), 3, 4), SemanticTokens(Tensor(z32)))
    perm_err = max(np.abs(b_z.tokens.data - a_z.tokens.data).max(),
                   np.abs(b_x.tokens.data - a_x.tokens.data[:, perm]).max())

    # the full-featured variant is the default: byte-identical outputs
    cfg = preset_config("tiny")
    img = rng.random((1, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
    default_logits = build_model(cfg)(img).data
    variant_logits = build_model(cfg, variant="D")(img).data
    identical = np.array_equal(default_logits, variant_logits)

    ok = tie_err <= 1e-6 and perm_err <= 1e-5 and identical
    _verdict(ok, "block equivalences",
             f"tied-merge vs joint block err={tie_err:.1e} (<=1e-6), "
             f"permutation err={perm_err:.1e} (<=1e-5), default==variant D "
             f"bit-identical={identical} ({budget.check()})")


def test_criterion_toy_overfit():
    budget = _Budget(300.0)
    cfg = preset_config("tiny")
    data = make_synthetic(cfg.num_classes, 8, cfg.resolution, seed=0)
    model = build_model(cfg)
    report = train_toy(model, data, steps=500, batch_size=16, seed=0)

    losses_a = train_toy(build_model(cfg), data, steps=10, batch_size=16,
                         seed=1).losses
    losses_b = train_toy(build_model(cfg), data, steps=10, batch_size=16,
                         seed=1).losses
    ok = (not report.aborted and report.final_accuracy >= 0.99
          and losses_a == losses_b)
    _verdict(ok, "toy overfit",
             f"train accuracy {report.final_accuracy:.3f} after "
             f"{len(report.steps)} steps (>=0.99), repeat runs bitwise equal "
             f"({budget.check()})")


def test_criterion_serialization(tmp_path):
    budget = _Budget(10.0)
    data = make_synthetic(4, 3, 32, seed=5)
    ds_path = tmp_path / "toy.dvds"
    save_packed_dataset(data, str(ds_path))
    back = load_packed_dataset(str(ds_path))
    ds_exact = (np.array_equal(back.images, data.images)
                and np.array_equal(back.labels, data.labels))

    cfg = preset_config("tiny")
    model = build_model(cfg)
    _randomize(model, np.random.default_rng(9), scale=0.05)
    img = np.random.default_rng(0).random(
        (2, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
    before = model(img).data.copy()
    ck_path = tmp_path / "toy.dvcp"
    save_checkpoint(model, str(ck_path))
    fresh = load_checkpoint(str(ck_path))
    ck_exact = all(np.array_equal(p.data, q.data)
                   for (_, p), (_, q) in zip(model.named_parameters(),
                                             fresh.named_parameters()))
    fwd_exact = np.array_equal(fresh(img).data, before)

    ok = ds_exact and ck_exact and fwd_exact
    _verdict(ok, "serialization round trips",
             f"dataset bit-exact={ds_exact}, checkpoint bit-exact={ck_exact}, "
             f"reloaded forward identical={fwd_exact} ({budget.check()})")
