import copy
import hashlib
import io
import json
import pickle
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvit import data as D
from dualvit import nn
from dualvit import tensor as T
from dualvit.complexity import count_macs
from dualvit.data import (Dataset, class_means, load_checkpoint, load_packed_dataset,
                          make_synthetic, save_checkpoint, save_packed_dataset)
from dualvit.errors import ConfigError, ContractError, FormatError
from dualvit.model import build_model, preset_config
from dualvit.training import AdamW, _randomize, train_toy
from tests.test_model import TINY_ARENA_SHA256


def test_synthetic_is_balanced_and_in_range():
    data = make_synthetic(num_classes=5, per_class=4, resolution=16, seed=0)
    assert data.images.shape == (20, 16, 16, 3)
    assert data.images.dtype == np.float32
    assert data.images.min() >= 0.0 and data.images.max() <= 1.0
    counts = np.bincount(data.labels, minlength=5)
    np.testing.assert_array_equal(counts, 4)


def test_synthetic_is_deterministic():
    a = make_synthetic(4, 3, 16, seed=42)
    b = make_synthetic(4, 3, 16, seed=42)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = make_synthetic(4, 3, 16, seed=43)
    assert not np.array_equal(a.images, c.images)


def test_nearest_mean_classifier_is_perfect():
    """The class signal dominates the noise: nearest clean mean recovers labels."""
    data = make_synthetic(num_classes=6, per_class=8, resolution=16, seed=1)
    means = class_means(6, 16, seed=1).reshape(6, -1)
    flat = data.images.reshape(len(data.labels), -1)
    dists = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
    predicted = dists.argmin(axis=1)
    np.testing.assert_array_equal(predicted, data.labels)


def test_dataset_rejects_bad_labels():
    images = np.zeros((2, 4, 4, 3), dtype=np.float32)
    with pytest.raises(FormatError):
        Dataset(images=images, labels=np.array([0, 3]), num_classes=3)


def test_load_handcrafted_minimal_file(tmp_path):
    """One 2x2 image written byte by byte against the documented layout."""
    pixels = bytes(range(12))
    blob = struct.pack("<4sIIHHHH", b"DVDS", 1, 1, 2, 2, 3, 4)
    blob += struct.pack("<H", 3) + pixels
    path = tmp_path / "one.dvds"
    path.write_bytes(blob)
    data = load_packed_dataset(str(path))
    assert data.num_classes == 4
    assert data.labels.tolist() == [3]
    expected = np.frombuffer(pixels, dtype=np.uint8).reshape(2, 2, 3) / 255.0
    np.testing.assert_array_equal(data.images[0], expected.astype(np.float32))


def test_dataset_roundtrip_is_bit_exact(tmp_path):
    data = make_synthetic(3, 5, 8, seed=9)
    path = tmp_path / "set.dvds"
    save_packed_dataset(data, str(path))
    back = load_packed_dataset(str(path))
    np.testing.assert_array_equal(back.images, data.images)
    np.testing.assert_array_equal(back.labels, data.labels)
    assert back.num_classes == data.num_classes


def test_truncated_file_error_names_lengths(tmp_path):
    data = make_synthetic(2, 2, 8, seed=0)
    path = tmp_path / "cut.dvds"
    save_packed_dataset(data, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError, match=f"expected {len(blob)}.*got {len(blob) - 10}"):
        load_packed_dataset(str(path))


def test_every_byte_value_loads_as_its_float64_quotient(tmp_path):
    """Pixel value = byte / 255, computed in float64 and rounded to float32."""
    pixels = np.arange(256, dtype=np.uint8).tobytes() + bytes(2)
    blob = struct.pack("<4sIIHHHH", b"DVDS", 1, 1, 1, 86, 3, 1) + bytes(2) + pixels
    path = tmp_path / "bytes.dvds"
    path.write_bytes(blob)
    loaded = load_packed_dataset(str(path)).images.reshape(-1)
    expected = (np.frombuffer(pixels, dtype=np.uint8) / 255.0).astype(np.float32)
    assert loaded.dtype == np.float32
    np.testing.assert_array_equal(loaded.view(np.uint32), expected.view(np.uint32))


def test_oversized_image_header_is_format_error(tmp_path):
    path = tmp_path / "huge.dvds"
    path.write_bytes(struct.pack("<4sIIHHHH", b"DVDS", 1, 1, 65535, 65535, 3, 2))
    with pytest.raises(FormatError):
        load_packed_dataset(str(path))


@pytest.fixture(scope="module")
def dvds_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "set.dvds"
    save_packed_dataset(make_synthetic(2, 2, 4, seed=0), str(path))
    return path, path.read_bytes()


def _truncate_or_flip(blob: bytes, data) -> bytes:
    """``blob`` cut short, or with one byte XORed by a nonzero mask."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, len(blob) - 1), label="offset")] ^= data.draw(
        st.integers(1, 255), label="mask")
    return bytes(flipped)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_dvds_raises_format_error_or_loads(dvds_file, data):
    """A truncated or single-byte-flipped file is rejected cleanly or still parses."""
    path, blob = dvds_file
    path.write_bytes(_truncate_or_flip(blob, data))
    try:
        loaded = load_packed_dataset(str(path))
    except FormatError:
        return
    assert isinstance(loaded, Dataset)


def test_bad_magic_and_version_rejected(tmp_path):
    path = tmp_path / "bad.dvds"
    path.write_bytes(struct.pack("<4sIIHHHH", b"NOPE", 1, 0, 2, 2, 3, 1))
    with pytest.raises(FormatError, match="magic"):
        load_packed_dataset(str(path))
    path.write_bytes(struct.pack("<4sIIHHHH", b"DVDS", 9, 0, 2, 2, 3, 1))
    with pytest.raises(FormatError, match="version"):
        load_packed_dataset(str(path))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = preset_config("tiny")
    model = build_model(cfg)
    _randomize(model, np.random.default_rng(4), scale=0.05)
    path = tmp_path / "m.dvcp"
    save_checkpoint(model, str(path))
    restored = load_checkpoint(str(path))
    for (name, p), (name2, q) in zip(model.named_parameters(),
                                     restored.named_parameters()):
        assert name == name2
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


def test_checkpoint_forward_identical_after_reload(tmp_path):
    cfg = preset_config("tiny")
    model = build_model(cfg)
    _randomize(model, np.random.default_rng(8), scale=0.05)
    images = np.random.default_rng(0).random((2, cfg.resolution, cfg.resolution, 3))
    images = images.astype(np.float32)
    before = model(images).data.copy()
    path = tmp_path / "m.dvcp"
    save_checkpoint(model, str(path))
    fresh = load_checkpoint(str(path))
    np.testing.assert_array_equal(fresh(images).data, before)


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "m.dvcp"
    save_checkpoint(build_model(preset_config("tiny")), str(path))
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(str(path))


def test_checkpoint_crc_spans_chunk_boundaries(tmp_path, monkeypatch):
    """A file many CRC buffers long loads bit-exactly, and a flip in its last
    buffer is still caught."""
    monkeypatch.setattr(D, "_CRC_CHUNK", 4096)
    model = build_model(preset_config("tiny"))
    path = tmp_path / "m.dvcp"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    assert len(blob) > 8 * 4096
    restored = load_checkpoint(str(path))
    for (_, p), (_, q) in zip(model.named_parameters(), restored.named_parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    path.write_bytes(blob[:-5] + bytes([blob[-5] ^ 1]) + blob[-4:])
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(str(path))


def test_read_floats_converts_little_endian_payload_into_another_byte_order():
    values = np.array([1.5, -0.0, 3e38, -2.25e-5], dtype=np.float32)
    out = np.empty(4, dtype=">f4")
    D._read_floats(io.BytesIO(values.astype("<f4").tobytes()), out)
    assert out.astype(np.float32).tobytes() == values.tobytes()


def test_checkpoint_detects_a_changed_head_count(tmp_path):
    """The checksum covers the manifest: stage 1's heads 2 -> 4 still parses
    and fits every parameter shape, but must not load."""
    path = tmp_path / "m.dvcp"
    save_checkpoint(build_model(preset_config("tiny")), str(path))
    blob = path.read_bytes()
    assert b'"heads": 2' in blob
    path.write_bytes(blob.replace(b'"heads": 2', b'"heads": 4', 1))
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(str(path))


def _dvcp(manifest: bytes, payload: bytes) -> bytes:
    """The DVCP v2 layout of the README: header, manifest, payload, CRC32 of all."""
    body = b"DVCP" + struct.pack("<II", 2, len(manifest)) + manifest + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _split_dvcp(blob: bytes) -> tuple[bytes, bytes]:
    """The manifest and payload bytes of a DVCP v2 file."""
    (manifest_len,) = struct.unpack_from("<I", blob, 8)
    return blob[12:12 + manifest_len], blob[12 + manifest_len:-4]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_bytes_follow_the_documented_layout(tmp_path, dtype):
    """Saved bytes equal the README layout rendered here: a float64 model is
    stored as the float32 values it was cast from."""
    model = build_model(preset_config("tiny"), variant="B")
    _randomize(model, np.random.default_rng(2), scale=0.05)
    payload = b"".join(p.data.astype("<f4").tobytes() for _, p in model.named_parameters())
    save_checkpoint(model.astype(dtype), str(tmp_path / "m.dvcp"))
    blob = (tmp_path / "m.dvcp").read_bytes()
    manifest, _ = _split_dvcp(blob)
    assert json.loads(manifest) == {
        "config": model.config.to_dict(),
        "variant": "B",
        "entries": [{"name": name, "shape": list(p.data.shape)}
                    for name, p in model.named_parameters()],
    }
    assert blob == _dvcp(manifest, payload)


def test_checkpoint_payload_is_the_arena_bytes_both_ways(tmp_path):
    """The saved payload is the model's arena as bytes, and a loaded model's
    arena holds those bytes."""
    model = build_model(preset_config("tiny"))
    _randomize(model, np.random.default_rng(3), scale=0.05)
    path = tmp_path / "m.dvcp"
    save_checkpoint(model, str(path))
    _, payload = _split_dvcp(path.read_bytes())
    assert payload == model.arena.tobytes()
    assert load_checkpoint(str(path)).arena.tobytes() == payload


def test_save_refuses_a_parameter_rebound_out_of_the_arena(tmp_path):
    """A rebound parameter is not in the arena the payload is written from."""
    model = build_model(preset_config("tiny"))
    model.head.bias.data = model.head.bias.data + 1.0
    path = tmp_path / "m.dvcp"
    with pytest.raises(ContractError, match="'head.bias' was rebound"):
        save_checkpoint(model, str(path))
    assert not path.exists()
    save_checkpoint(model.astype(np.float32), str(path))
    assert load_checkpoint(str(path)).head.bias.data.tobytes() == model.head.bias.data.tobytes()


TINY_ROWS = ["z0", "pos_embed",
             "stages.0.patch_embed", "stages.1.patch_embed", "stages.2.patch_embed",
             "stages.3.patch_embed", "stages.1.transition", "stages.2.transition",
             "stages.3.transition", "stages.0.blocks.0", "stages.1.blocks.0",
             "stages.2.blocks.0", "stages.3.blocks.0", "head_norm", "head"]


def test_cost_rows_parameters_and_checkpoint_entries_follow_one_order(tmp_path):
    """The cost rows are the model's children in manifest order, each parameter
    lies under its row's path with the rows in order, and the checkpoint lists
    the parameters in that order."""
    model = build_model(preset_config("tiny"))
    rows = [path for path, _, _ in count_macs(model).breakdown]
    assert rows == TINY_ROWS
    assert rows == [path for path, _ in model.named_children()]
    names = [name for name, _ in model.named_parameters()]
    row_of = [next(i for i, row in enumerate(rows) if name == row or name.startswith(row + "."))
              for name in names]
    assert row_of == sorted(row_of) and set(row_of) == set(range(len(rows)))
    save_checkpoint(model, str(tmp_path / "m.dvcp"))
    manifest, _ = _split_dvcp((tmp_path / "m.dvcp").read_bytes())
    assert [entry["name"] for entry in json.loads(manifest)["entries"]] == names


@pytest.mark.parametrize("change, side", [(-4, "shorter"), (4, "longer")])
def test_payload_one_float_off_the_manifest_is_refused(tmp_path, change, side):
    """A payload one float short or long, under a valid CRC, is refused: the
    load must not read the CRC as the last parameter value."""
    path = tmp_path / "m.dvcp"
    save_checkpoint(build_model(preset_config("tiny")), str(path))
    manifest, payload = _split_dvcp(path.read_bytes())
    payload = payload[:change] if change < 0 else payload + bytes(change)
    path.write_bytes(_dvcp(manifest, payload))
    with pytest.raises(FormatError, match=f"payload {side} than manifest"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("edit, error, match", [
    (lambda m: m["entries"][-1].update(shape=[11]), ConfigError, "shape mismatch"),
    (lambda m: m["entries"][3].update(name="stages.0.nope"), FormatError, "entry 3"),
    (lambda m: m.update(variant="Z"), ConfigError, "variant"),
    (None, FormatError, "checksum"),
], ids=["shape", "name", "variant-mid-build", "checksum"])
def test_failed_load_leaves_the_random_init_on(tmp_path, edit, error, match):
    """Loading skips the random init only inside ``load_checkpoint``: after a
    load that fails, even in the middle of the build, a fresh build draws the
    same weights as one made before."""
    before = [p.data.copy() for p in build_model(preset_config("tiny")).parameters()]
    path = tmp_path / "m.dvcp"
    save_checkpoint(build_model(preset_config("tiny", seed=5)), str(path))
    blob = path.read_bytes()
    if edit is None:
        blob = blob[:-1] + bytes([blob[-1] ^ 1])
    else:
        manifest, payload = _split_dvcp(blob)
        parsed = json.loads(manifest)
        edit(parsed)
        blob = _dvcp(json.dumps(parsed).encode(), payload)
    path.write_bytes(blob)
    with pytest.raises(error, match=match):
        load_checkpoint(str(path))
    after = build_model(preset_config("tiny")).parameters()
    assert [p.data.tobytes() for p in after] == [b.tobytes() for b in before]


def test_loaded_parameters_are_owned_writable_float32_and_train_like_the_saved_ones(tmp_path):
    """The loader's parameters are writable float32 views of the loaded
    model's arena: two training steps on a loaded model match the same steps
    on the model that was saved."""
    cfg = preset_config("tiny")
    saved = build_model(cfg)
    path = tmp_path / "m.dvcp"
    save_checkpoint(saved, str(path))
    loaded = load_checkpoint(str(path))
    for name, p in loaded.named_parameters():
        flags = p.data.flags
        assert p.data.base is loaded.arena, name
        assert (flags.writeable, flags.c_contiguous) == (True, True), name
        assert p.data.dtype == np.float32, name
    data = make_synthetic(cfg.num_classes, 2, cfg.resolution, seed=3)
    reports = [train_toy(model, data, steps=2, batch_size=8) for model in (saved, loaded)]
    assert reports[0].losses == reports[1].losses
    for (name, p), (_, q) in zip(saved.named_parameters(), loaded.named_parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name


def test_a_load_or_a_copy_draws_no_init(tmp_path, monkeypatch):
    """``load_checkpoint``, ``copy.deepcopy`` and ``pickle`` build their model
    without drawing a weight: each returns the saved bytes while drawing raises."""
    path = tmp_path / "m.dvcp"
    saved = build_model(preset_config("tiny", seed=5))
    save_checkpoint(saved, str(path))

    def refuse(rng, out):
        raise AssertionError("a rebuild drew a random init")
    monkeypatch.setattr(nn, "_fill_trunc_normal", refuse)
    with pytest.raises(AssertionError, match="drew"):
        build_model(preset_config("tiny"))
    rebuilt = [load_checkpoint(str(path)), copy.deepcopy(saved), pickle.loads(pickle.dumps(saved))]
    for model in rebuilt:
        assert model.arena.tobytes() == saved.arena.tobytes()


def test_a_build_that_raises_midway_leaves_the_next_build_to_draw_the_pinned_init():
    with pytest.raises(ConfigError, match="variant"):
        build_model(preset_config("tiny"), variant="Z")
    arena = build_model(preset_config("tiny")).arena
    assert hashlib.sha256(arena.tobytes()).hexdigest() == TINY_ARENA_SHA256


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda m: pickle.loads(pickle.dumps(m)),
           "pickle5": lambda m: pickle.loads(pickle.dumps(m, protocol=5))}


@pytest.mark.parametrize("copier", sorted(COPIERS))
@pytest.mark.parametrize("source", ["built", "loaded", "float64"])
def test_a_copied_model_holds_its_own_arena_and_saves_and_steps_like_the_original(
        tmp_path, source, copier):
    """A deep copy or unpickled model has every parameter as a view of its
    own arena, of the original's dtype and bytes, and no grads."""
    model = build_model(preset_config("tiny", seed=3))
    if source == "loaded":
        save_checkpoint(model, str(tmp_path / "m.dvcp"))
        model = load_checkpoint(str(tmp_path / "m.dvcp"))
    elif source == "float64":
        model.astype(np.float64)
    images = np.random.default_rng(3).random((2, 32, 32, 3)).astype(np.float32)
    labels = np.array([0, 1])
    T.cross_entropy_with_logits(model(images), labels).backward()
    twin = COPIERS[copier](model)
    for name, p in twin.named_parameters():
        assert p.data.base is twin.arena and p.grad is None, name
    assert twin.arena.dtype == model.arena.dtype
    assert twin.arena.tobytes() == model.arena.tobytes()
    assert not np.shares_memory(twin.arena, model.arena)
    assert twin(images).data.tobytes() == model(images).data.tobytes()
    for m, name in ((model, "a.dvcp"), (twin, "b.dvcp")):
        save_checkpoint(m, str(tmp_path / name))
    assert (tmp_path / "a.dvcp").read_bytes() == (tmp_path / "b.dvcp").read_bytes()
    for m in (model, twin):
        m.zero_grad()
        opt = AdamW(m)
        T.cross_entropy_with_logits(m(images), labels).backward(take=opt.take)
        opt.step(1e-3)
    assert twin.arena.tobytes() == model.arena.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_copy_is_laid_out_over_the_array_the_copier_made(dtype):
    """A copy's parameters are views of the array ``copy.deepcopy`` or
    ``pickle.loads`` made, not of a second arena. Measured with tracemalloc on
    tiny float32: a deep copy peaked at 2.11 arenas and an unpickling, its
    pickle counted, at 3.12 while the rebuild copied that array; 1.11 and
    2.12 once the model is laid out over it. (``pickle.dumps`` under protocol
    4 peaks at 2.5 arenas by itself: numpy's ``tobytes`` and the pickle.)"""
    model = build_model(preset_config("tiny")).astype(dtype)
    copy.deepcopy(model)  # the first copy imports what copying needs
    for protocol in (None, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        tracemalloc.start()
        try:
            if protocol is None:
                twin, bound = copy.deepcopy(model), 1.2
            else:
                pickled = pickle.dumps(model, protocol)
                tracemalloc.reset_peak()
                twin, bound = pickle.loads(pickled), 2.2
                del pickled
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * model.arena.nbytes, (protocol, peak / model.arena.nbytes)
        assert twin.arena.dtype == dtype and twin.arena.tobytes() == model.arena.tobytes()
        assert all(p.data.base is twin.arena for p in twin.parameters())


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_copying_refuses_a_parameter_rebound_out_of_the_arena(copier):
    """A copy is rebuilt from the arena, which does not hold a rebound
    parameter's values: copying is refused, as saving is."""
    model = build_model(preset_config("tiny"))
    model.head.bias.data = model.head.bias.data + 1.0
    with pytest.raises(ContractError, match="'head.bias' was rebound"):
        COPIERS[copier](model)


@pytest.fixture(scope="module")
def dvcp_file(tmp_path_factory):
    model = build_model(preset_config("tiny"))
    _randomize(model, np.random.default_rng(6), scale=0.05)
    path = tmp_path_factory.mktemp("fuzz") / "m.dvcp"
    save_checkpoint(model, str(path))
    return path, path.read_bytes(), model


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_dvcp_raises_format_error_or_loads_the_saved_model(dvcp_file, data):
    """A truncated or single-byte-flipped checkpoint is rejected cleanly, or
    loads exactly the saved config, variant and parameters."""
    path, blob, saved = dvcp_file
    path.write_bytes(_truncate_or_flip(blob, data))
    try:
        loaded = load_checkpoint(str(path))
    except FormatError:
        return
    assert (loaded.config, loaded.variant) == (saved.config, saved.variant)
    got, want = list(loaded.named_parameters()), list(saved.named_parameters())
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, p), (_, q) in zip(got, want):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
