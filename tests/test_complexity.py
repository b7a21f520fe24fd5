import numpy as np
import pytest

from dualvit import complexity
from dualvit import tensor as T
from dualvit.model import build_model, preset_config
from dualvit.nn import Linear


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


@pytest.mark.parametrize("variant", ["A", "B", "C", "D"])
def test_executed_matmul_macs_equal_analytic(monkeypatch, variant):
    model = build_model(preset_config("tiny"), variant=variant)
    original, executed = T.matmul, []

    def counting(a, b):
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        executed.append(int(np.prod(batch)) * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return original(a, b)

    monkeypatch.setattr(T, "matmul", counting)
    batch = 3
    model(np.random.default_rng(0).random((batch, 32, 32, 3), dtype=np.float32))
    assert sum(executed) == complexity.count_macs(model).macs * batch


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
