import hashlib
import os
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvit import tensor as T
from dualvit.blocks import DUAL_VARIANTS
from dualvit.complexity import count_macs
from dualvit.data import load_checkpoint, save_checkpoint
from dualvit.errors import ConfigError, FormatError, InputError
from dualvit.model import (DualViT, ModelConfig, StageSpec, _tile_batch, build_model,
                           preset_config)
from dualvit.nn import Module

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


def test_a_built_models_config_cannot_change(tmp_path, rng):
    cfg = preset_config("tiny")
    model = build_model(cfg)
    images = rng.random((1, cfg.resolution, cfg.resolution, 3))
    macs, logits = count_macs(model).macs, model(images).data
    save_checkpoint(model, str(tmp_path / "before.dvcp"))
    for target, name in ((cfg, "resolution"), (cfg, "m"), (cfg.stages[0], "heads")):
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, 64)
    with pytest.raises(ConfigError):  # a varied copy is validated too
        replace(cfg, resolution=48)
    with pytest.raises(ConfigError):  # and its stages cannot be a mutable list
        replace(cfg, stages=list(cfg.stages))
    assert count_macs(model).macs == macs
    assert model(images).data.tobytes() == logits.tobytes()
    save_checkpoint(model, str(tmp_path / "after.dvcp"))
    assert (tmp_path / "after.dvcp").read_bytes() == (tmp_path / "before.dvcp").read_bytes()
    reloaded = load_checkpoint(str(tmp_path / "after.dvcp"))
    assert reloaded.config == cfg
    assert reloaded(images).data.tobytes() == logits.tobytes()


def test_logits_are_the_head_of_the_mean_of_pixel_and_semantic_tokens(rng):
    model = build_model(preset_config("tiny")).astype(np.float64)
    images = rng.random((2, 32, 32, 3))
    fm, z = model.features(images)
    expected = model.head(model.head_norm(T.mean(T.concat([fm.tokens, z.tokens]))))
    np.testing.assert_array_equal(model(images).data, expected.data)


def test_a_batch_in_the_models_dtype_is_read_in_place(monkeypatch, rng):
    """A float32 batch reaches the first reshape as the caller's array, not a
    copy, and the forward leaves its bytes as they were."""
    model = build_model(preset_config("tiny"))
    images = rng.random((2, 32, 32, 3)).astype(np.float32)
    before = images.tobytes()
    seen, reshape = [], T.reshape

    def spy(x, shape):
        seen.append(x.data)
        return reshape(x, shape)

    monkeypatch.setattr(T, "reshape", spy)
    model(images)
    assert np.shares_memory(seen[0], images) and images.tobytes() == before


def test_a_float64_batch_gives_the_float32_logits_of_its_float32_cast(rng):
    model = build_model(preset_config("tiny"))
    images = rng.random((2, 32, 32, 3))
    logits = model(images).data
    assert logits.dtype == np.float32
    assert logits.tobytes() == model(images.astype(np.float32)).data.tobytes()


@pytest.mark.parametrize("batch", [1, 3])
def test_tile_batch_holds_z0_in_every_row(batch):
    model = build_model(preset_config("tiny"))
    tiled = _tile_batch(model.z0, batch)
    assert tiled.shape == (batch, *model.z0.shape[1:])
    for row in tiled.data:
        assert row.tobytes() == model.z0.data[0].tobytes()


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
    assert recorded.requires_grad and recorded._node.parents
    assert not quiet.requires_grad and quiet._node is None
    assert quiet.data.dtype == recorded.data.dtype
    assert quiet.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_astype_lays_each_parameter_out_in_its_arena_slice_in_order(dtype):
    """A built model holds its float32 parameters in one arena; a cast lays
    them out in a new one of its dtype, with the same values."""
    model = build_model(preset_config("tiny"))
    before = [p.data.copy() for p in model.parameters()]
    if dtype is not np.float32:
        model.astype(dtype)
    arena = model.arena
    assert arena.dtype == dtype
    lo = 0
    for p, want in zip(model.parameters(), before):
        assert p.data.base is arena and p.data.flags.c_contiguous
        assert p.data.ctypes.data == arena.ctypes.data + lo * arena.itemsize
        assert p.data.tobytes() == want.astype(dtype).tobytes()
        lo += p.data.size
    assert lo == arena.size


# sha256 of ``build_model(preset_config("tiny")).arena``: the bits of the seeded init
TINY_ARENA_SHA256 = "28a19461456211120b7156b379584de9b05728f2beeeaa0b028bbdb34cd187e1"


@pytest.mark.parametrize("build", [DualViT, build_model], ids=["DualViT", "build_model"])
def test_a_build_draws_the_pinned_tiny_init(build):
    """Both builds put each weight's draw off until the arena is laid out and
    run the draws in call order: the pinned bits are those of a build that drew
    each weight as it was made."""
    arena = build(preset_config("tiny")).arena
    assert hashlib.sha256(arena.tobytes()).hexdigest() == TINY_ARENA_SHA256


@pytest.mark.parametrize("build", [DualViT, build_model], ids=["DualViT", "build_model"])
def test_a_build_peaks_near_its_arena(build):
    """Each weight is drawn straight into its arena slice, so no drawn array
    is made, copied and freed: a build's traced peak stays near the arena. The
    build traced is the second, as numpy loads its random module on first use."""
    build(preset_config("tiny"))
    tracemalloc.start()
    try:
        model = build(preset_config("tiny"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * model.arena.nbytes


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


def _module_paths(module, prefix=""):
    for name, child in module.named_children():
        if isinstance(child, Module):
            yield id(child), prefix + name
            yield from _module_paths(child, f"{prefix}{name}.")


@pytest.mark.parametrize("variant", DUAL_VARIANTS)
def test_perfbench_module_paths_agree_with_the_walk(monkeypatch, variant):
    """perfbench's tracer spells the module paths itself; every module must get
    the path that a walk over ``named_children`` gives it."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from tracer import module_paths
    model = build_model(preset_config("tiny"), variant=variant)
    assert module_paths(model) == dict(_module_paths(model))
