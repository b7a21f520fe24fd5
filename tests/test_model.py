import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvit import tensor as T
from dualvit.errors import ConfigError, FormatError, InputError
from dualvit.model import ModelConfig, StageSpec, build_model, preset_config

# published per-stage architecture table: depth, heads, channels, E^x, E^z, patch
ARCH_TABLE = {
    "S": [(3, 2, 64, 8, 4, 4), (4, 4, 128, 8, 4, 2),
          (6, 10, 320, 4, 2, 2), (3, 14, 448, 3, 2, 2)],
    "B": [(3, 2, 64, 8, 4, 4), (4, 4, 128, 8, 4, 2),
          (15, 10, 320, 4, 2, 2), (3, 16, 512, 3, 2, 2)],
    "L": [(3, 3, 96, 8, 4, 4), (6, 6, 192, 8, 4, 2),
          (21, 12, 384, 4, 2, 2), (3, 16, 512, 3, 2, 2)],
}


@pytest.mark.parametrize("name", ["S", "B", "L"])
def test_preset_matches_architecture_table(name):
    cfg = preset_config(name)
    for spec, expected in zip(cfg.stages, ARCH_TABLE[name]):
        assert (spec.depth, spec.heads, spec.channels,
                spec.ffn_ratio_pixel, spec.ffn_ratio_semantic,
                spec.patch_size) == expected
    assert [s.kind for s in cfg.stages] == ["dual", "dual", "merge", "merge"]


@pytest.mark.parametrize("name", ["S", "B", "L", "tiny"])
def test_head_divisibility(name):
    for spec in preset_config(name).stages:
        assert spec.channels % spec.heads == 0


def test_s_token_schedule_at_224():
    cfg = preset_config("S")
    assert cfg.token_counts() == [3136, 784, 196, 49]


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("X")


def test_resolution_stride_validated():
    with pytest.raises(ConfigError):
        preset_config("S", resolution=225)


def test_tiny_builds_and_runs_fast(rng):
    start = time.perf_counter()
    model = build_model(preset_config("tiny"))
    logits = model(rng.random((2, 32, 32, 3)))
    assert time.perf_counter() - start < 1.0
    assert logits.shape == (2, 8)


def test_forward_deterministic(rng):
    images = rng.random((2, 32, 32, 3))
    a = build_model(preset_config("tiny"))(images).data
    b = build_model(preset_config("tiny"))(images).data
    np.testing.assert_array_equal(a, b)


def test_wrong_resolution_rejected(rng):
    model = build_model(preset_config("tiny"))
    with pytest.raises(InputError):
        model(rng.random((1, 64, 64, 3)))


def test_wrong_layout_rejected(rng):
    model = build_model(preset_config("tiny"))
    with pytest.raises(InputError):
        model(rng.random((1, 3, 32, 32)))


@pytest.mark.parametrize("name", ["S", "B", "L"])
def test_logits_finite_at_reduced_resolution(name, rng):
    cfg = preset_config(name, resolution=64)
    model = build_model(cfg)
    images = rng.random((1, 64, 64, 3)).astype(np.float32)
    logits = model(images).data
    assert np.all(np.isfinite(logits))
    assert logits.shape == (1, cfg.num_classes)
    # the same weights and images in float64 agree with the float32 forward
    with T.no_grad():
        logits64 = model.astype(np.float64)(images).data
    assert np.abs(logits - logits64).max() <= 1e-4 * max(1.0, np.abs(logits64).max())


class TestAblations:
    def test_param_ordering(self):
        # reduced variants shed parameters at any width; the strict B < A
        # ordering needs realistic channel widths and is checked on the S
        # preset in the acceptance suite
        params = {v: build_model(preset_config("tiny"), variant=v).num_params()
                  for v in "ABCD"}
        assert params["A"] < params["D"]
        assert params["B"] < params["D"]
        assert params["C"] == params["D"]

    def test_variant_d_is_bit_identical_to_unmodified(self, rng):
        images = rng.random((1, 32, 32, 3))
        base = build_model(preset_config("tiny"))(images).data
        var_d = build_model(preset_config("tiny"), variant="D")(images).data
        np.testing.assert_array_equal(base, var_d)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            build_model(preset_config("tiny"), variant="E")

    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    def test_variants_forward(self, variant, rng):
        model = build_model(preset_config("tiny"), variant=variant)
        logits = model(rng.random((1, 32, 32, 3)))
        assert np.all(np.isfinite(logits.data))


def test_config_roundtrips_through_dict():
    cfg = preset_config("S", m=16, seed=3)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_pos_embed_flag_removes_parameter():
    with_pe = build_model(preset_config("tiny"))
    without = build_model(preset_config("tiny", pos_embed=False))
    names = dict(without.named_parameters())
    assert "pos_embed" not in names
    assert "pos_embed" in dict(with_pe.named_parameters())


def test_model_permutation_properties_without_pos_embed(rng):
    """Semantic invariance / pixel equivariance also holds through a full
    dual stage when the positional embedding is disabled."""
    model = build_model(preset_config("tiny", pos_embed=False)).astype(np.float64)
    images = rng.random((1, 32, 32, 3))
    fm = model.patch_embeds[0](_image_featuremap(model, images))
    from dualvit.blocks import FeatureMap, SemanticTokens
    from dualvit.model import _tile_batch
    z = SemanticTokens(_tile_batch(model.z0, 1))
    blk = model.stage_blocks[0][0]
    x_out, z_out = blk(fm, z)
    perm = rng.permutation(fm.tokens.shape[-2])
    from dualvit.tensor import Tensor
    fm_p = FeatureMap(Tensor(fm.tokens.data[:, perm]), fm.height, fm.width)
    x_out_p, z_out_p = blk(fm_p, z)
    np.testing.assert_allclose(z_out_p.tokens.data, z_out.tokens.data, atol=1e-5)
    np.testing.assert_allclose(x_out_p.tokens.data, x_out.tokens.data[:, perm],
                               atol=1e-5)


def _image_featuremap(model, images):
    from dualvit.blocks import FeatureMap
    from dualvit import tensor as T
    from dualvit.tensor import Tensor
    x = Tensor(images, dtype=model.z0.data.dtype)
    b, h, w, _ = x.shape
    return FeatureMap(T.reshape(x, (b, h * w, 3)), h, w)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)
_VALUES = st.integers(-1, 64) | _JSON
_TOP_KEYS = [f.name for f in fields(ModelConfig)] + ["mystery"]
_STAGE_KEYS = [f.name for f in fields(StageSpec)] + ["mystery"]


@st.composite
def _config_dicts(draw):
    """The tiny preset's dict with a few schema keys set to JSON values or removed."""
    raw = preset_config("tiny").to_dict()
    for _ in range(draw(st.integers(0, 4))):
        stages = raw.get("stages")
        targets = [raw] + (stages if isinstance(stages, list) else [])
        target = draw(st.sampled_from([t for t in targets if isinstance(t, dict)]))
        key = draw(st.sampled_from(_TOP_KEYS if target is raw else _STAGE_KEYS))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_VALUES)
    return raw


@settings(max_examples=100, deadline=None)
@given(raw=_config_dicts())
def test_config_parser_accepts_valid_or_raises_config_errors(raw):
    try:
        cfg = ModelConfig.from_dict(raw)
    except (ConfigError, FormatError):
        return
    cfg.validate()


def test_no_grad_forward_gives_the_same_logits_without_a_graph():
    cfg = preset_config("tiny", seed=3)
    model = build_model(cfg)
    images = np.random.default_rng(3).random((2, cfg.resolution, cfg.resolution, 3))
    recorded = model(images)
    with T.no_grad():
        quiet = model(images)
    assert recorded.requires_grad and recorded._parents
    assert not quiet.requires_grad and quiet._parents == ()
    assert quiet.data.dtype == recorded.data.dtype
    assert quiet.data.tobytes() == recorded.data.tobytes()


def test_float64_cast_holds_the_float32_weights_and_no_grads():
    cfg = preset_config("tiny", seed=5)
    images = np.random.default_rng(5).random((2, cfg.resolution, cfg.resolution, 3))
    model = build_model(cfg)
    T.cross_entropy_with_logits(model(images), np.array([0, 1])).backward()
    assert all(p.grad is not None for p in model.parameters())
    assert model.astype(np.float64) is model
    want = list(build_model(cfg).named_parameters())
    got = list(model.named_parameters())
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, p), (_, q) in zip(got, want):
        assert p.data.dtype == np.float64 and p.grad is None, name
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
    # numpy images follow the parameters' float type
    assert model(images.astype(np.float32)).data.dtype == np.float64
