import numpy as np
import pytest

from dualvit import complexity
from dualvit import tensor as T
from dualvit.blocks import DUAL_VARIANTS, DualBlock, FeatureMap, MergeBlock, SemanticTokens
from dualvit.model import build_model, preset_config
from dualvit.nn import FeedForward, Linear, MultiHeadAttention
from dualvit.tensor import Tensor


def dual_block_attention_macs(n, m, d):
    """Score and value-mix MACs of a dual block: semantic self-attention plus
    the two cross-attentions."""
    return (complexity.mha_attention_macs(m, m, d) + complexity.mha_attention_macs(m, n, d)
            + complexity.mha_attention_macs(n, m, d))


def joint_attention_macs(n, d):
    """Score and value-mix MACs of self-attention over all n tokens."""
    return complexity.mha_attention_macs(n, n, d)


def test_linear_param_count_anchor():
    lin = Linear(3, 5, np.random.default_rng(0))
    assert sum(p.data.size for p in lin.parameters()) == 20


@pytest.mark.parametrize("name,variant", [
    ("tiny", "D"), ("tiny", "A"), ("tiny", "B"), ("tiny", "C"),
    ("S", "D"), ("S", "A"),
])
def test_count_params_matches_registry(name, variant):
    model = build_model(preset_config(name), variant=variant)
    report = complexity.count_macs(model)
    brute = sum(p.data.size for _, p in model.named_parameters())
    assert report.params == brute
    assert sum(p for _, p, _ in report.breakdown) == report.params


def test_breakdown_is_exhaustive():
    model = build_model(preset_config("tiny"))
    report = complexity.count_macs(model)
    assert sum(p for _, p, _ in report.breakdown) == report.params
    assert sum(m for _, _, m in report.breakdown) == report.macs
    paths = [p for p, _, _ in report.breakdown]
    assert len(paths) == len(set(paths))


def test_small_preset_macs_near_published():
    model = build_model(preset_config("S"))
    report = complexity.count_macs(model)
    assert abs(report.macs - 4.8e9) / 4.8e9 < 0.15


def test_small_preset_params_near_published():
    report = complexity.count_macs(build_model(preset_config("S")))
    assert abs(report.params - 24.6e6) / 24.6e6 < 0.10


def test_doubling_tokens_scaling():
    m, d = 16, 64
    for n in (256, 1024):
        dual_ratio = dual_block_attention_macs(2 * n, m, d) / dual_block_attention_macs(n, m, d)
        conv_ratio = joint_attention_macs(2 * n, d) / joint_attention_macs(n, d)
        assert dual_ratio < 2.2
        assert conv_ratio == pytest.approx(4.0)


def test_log_log_slopes():
    m, d = 16, 64
    ns = np.array([256, 1024, 4096], dtype=float)
    dual = np.array([dual_block_attention_macs(int(n), m, d) for n in ns])
    conv = np.array([joint_attention_macs(int(n), d) for n in ns])
    dual_slope = np.polyfit(np.log(ns), np.log(dual), 1)[0]
    conv_slope = np.polyfit(np.log(ns), np.log(conv), 1)[0]
    assert 0.9 <= dual_slope <= 1.2
    assert 1.8 <= conv_slope <= 2.1


def _count_matmul_macs(monkeypatch) -> list[int]:
    """Patch ``T.matmul`` to append each call's MACs to the returned list."""
    original, executed = T.matmul, []

    def counting(a, b):
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        executed.append(int(np.prod(batch)) * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return original(a, b)

    monkeypatch.setattr(T, "matmul", counting)
    return executed


@pytest.mark.parametrize("variant", ["A", "B", "C", "D"])
def test_executed_matmul_macs_equal_analytic(monkeypatch, variant):
    model = build_model(preset_config("tiny"), variant=variant)
    executed = _count_matmul_macs(monkeypatch)
    batch = 3
    model(np.random.default_rng(0).random((batch, 32, 32, 3), dtype=np.float32))
    assert sum(executed) == complexity.count_macs(model).macs * batch


@pytest.mark.parametrize("kind", [*DUAL_VARIANTS, "merge"])
def test_executed_matmul_macs_of_one_block_equal_its_own_count(monkeypatch, kind):
    """Per block, so that an error in one block's count cannot cancel another's."""
    rng = np.random.default_rng(0)
    dim, heads, pixel_ratio, semantic_ratio = 8, 2, 4, 2
    if kind == "merge":
        blk = MergeBlock(dim, heads, pixel_ratio, semantic_ratio, rng)
    else:
        blk = DualBlock(dim, heads, pixel_ratio, semantic_ratio, rng, variant=kind)
    batch, n, m = 3, 16, 4
    x = FeatureMap(Tensor(rng.standard_normal((batch, n, dim)).astype(np.float32)), 4, 4)
    z = SemanticTokens(Tensor(rng.standard_normal((batch, m, dim)).astype(np.float32)))
    executed = _count_matmul_macs(monkeypatch)
    blk(x, z)
    assert sum(executed) == batch * blk.macs(n, m)


def test_an_ffn_runs_its_forward_gemms_through_matmul_and_its_backward_outside_it(
        monkeypatch):
    """The executed-MAC count above patches ``T.matmul``: an FFN forward must make
    both its GEMMs there, and its backward none, or MACs go missing or count twice."""
    rng = np.random.default_rng(0)
    tokens, dim, ratio = 10, 4, 3
    ffn = FeedForward(dim, ratio, rng)
    x = Tensor(rng.standard_normal((2, tokens // 2, dim)).astype(np.float32),
               requires_grad=True)
    original, executed = T.matmul, []

    def counting(a, b):
        executed.append(a.data.size * b.shape[-1])
        return original(a, b)

    monkeypatch.setattr(T, "matmul", counting)
    loss = T.sum_all(ffn(x))
    assert len(executed) == 2
    assert sum(executed) == complexity.ffn_macs(tokens, dim, ratio)
    loss.backward()
    assert len(executed) == 2
    assert x.grad is not None and ffn.expand.weight.grad is not None


@pytest.mark.parametrize("layer", ["linear", "attention"])
def test_linear_and_attention_run_their_forward_gemms_through_matmul_and_backward_outside_it(
        monkeypatch, layer):
    """As for the FFN above: a Linear makes 1 ``matmul`` call and an attention 6
    (four projections, scores and value mix), and neither backward makes any,
    the attention's recomputed projections, scores and mix included."""
    rng = np.random.default_rng(0)
    batch, n_q, n_kv, dim, heads = 2, 5, 3, 8, 2

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    if layer == "linear":
        lin = Linear(dim, 2 * dim, rng)
        x = leaf(batch, n_q, dim)
        executed = _count_matmul_macs(monkeypatch)
        out, calls, macs, inputs = lin(x), 1, batch * lin.macs(n_q), [x, lin.weight, lin.bias]
    else:
        inputs = [leaf(batch, n_q, dim), leaf(batch, n_kv, dim)] + [
            leaf(*shape) for _ in range(4) for shape in ((dim, dim), (dim,))]
        executed = _count_matmul_macs(monkeypatch)
        out, calls = T.attention(*inputs, heads), 6
        macs = batch * complexity.mha_macs(n_q, n_kv, dim)
    loss = T.sum_all(out)
    assert len(executed) == calls
    assert sum(executed) == macs
    loss.backward()
    assert len(executed) == calls
    assert all(t.grad is not None for t in inputs)


def test_multi_head_attention_makes_six_matmul_calls_and_none_in_its_backward(monkeypatch):
    """Four projections and the attention's two GEMMs, summing to ``macs``."""
    rng = np.random.default_rng(0)
    mha = MultiHeadAttention(8, 2, rng)
    q = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32), requires_grad=True)
    kv = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32), requires_grad=True)
    executed = _count_matmul_macs(monkeypatch)
    loss = T.sum_all(mha(q, kv))
    assert len(executed) == 6 and sum(executed) == 2 * mha.macs(5, 3)
    loss.backward()
    assert len(executed) == 6
    assert q.grad is not None and kv.grad is not None


def test_ablation_deltas():
    params = {v: complexity.count_macs(build_model(preset_config("S"), variant=v)).params
              for v in "ABD"}
    d_minus_a = params["D"] - params["A"]
    d_minus_b = params["D"] - params["B"]
    assert abs(d_minus_a - 0.3e6) / 0.3e6 < 0.30
    assert abs(d_minus_b - 0.7e6) / 0.7e6 < 0.30


def test_report_serialization_forms():
    model = build_model(preset_config("tiny"))
    report = complexity.count_macs(model)
    as_json = report.to_json_dict()
    assert as_json["params"] == report.params
    assert as_json["gmacs"] == pytest.approx(report.macs / 1e9)
    text = report.to_text()
    assert "total" in text and str(report.params) in text
