import json
import math
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

import dualvit
from dualvit import nn, training
from dualvit.cli import build_parser, main
from dualvit.complexity import count_macs
from dualvit.data import load_checkpoint, make_synthetic, save_checkpoint, save_packed_dataset
from dualvit.model import build_model, preset_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_small_matches_architecture_table(capsys):
    code, out, _ = run_cli(capsys, "describe", "--preset", "S", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["resolution"] == 224
    assert [s["depth"] for s in info["stages"]] == [3, 4, 6, 3]
    assert [s["heads"] for s in info["stages"]] == [2, 4, 10, 14]
    assert [s["channels"] for s in info["stages"]] == [64, 128, 320, 448]
    assert [s["ffn_ratio_pixel"] for s in info["stages"]] == [8, 8, 4, 3]
    assert [s["ffn_ratio_semantic"] for s in info["stages"]] == [4, 4, 2, 2]
    assert [s["patch_size"] for s in info["stages"]] == [4, 2, 2, 2]
    assert [s["kind"] for s in info["stages"]] == ["dual", "dual", "merge", "merge"]
    assert [s["tokens"] for s in info["stages"]] == [3136, 784, 196, 49]


def test_describe_text_renders_table(capsys):
    code, out, _ = run_cli(capsys, "describe", "--preset", "tiny")
    assert code == 0
    assert "stage" in out and "channels" in out
    assert len(out.strip().splitlines()) == 6  # summary + header + 4 stages


def test_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--preset", "XL"])
    assert exc.value.code == 2


def test_count_matches_library(capsys):
    code, out, _ = run_cli(capsys, "count", "--preset", "tiny", "--json")
    assert code == 0
    got = json.loads(out)
    cfg = preset_config("tiny")
    report = count_macs(build_model(cfg))
    assert got["params"] == report.params
    assert got["macs"] == report.macs


def test_count_rejects_bad_resolution(capsys):
    code, _, err = run_cli(capsys, "count", "--preset", "S", "--res", "225")
    assert code == 2
    assert "225" in err


def test_gradcheck_command_passes(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--block", "transformer",
                           "--samples", "40")
    assert code == 0
    assert out.startswith("[PASS]")


def test_ablate_orders_variants(capsys):
    code, out, _ = run_cli(capsys, "ablate", "--preset", "S", "--json")
    assert code == 0
    rows = {r["variant"]: r for r in json.loads(out)}
    assert set(rows) == {"A", "B", "C", "D"}
    assert rows["B"]["params"] < rows["A"]["params"] < rows["C"]["params"]
    assert rows["C"]["params"] == rows["D"]["params"]


def test_train_then_eval_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "train", "--preset", "tiny",
                           "--steps", "5", "--batch", "8", "--per-class", "2",
                           "--out", str(out_dir))
    assert code == 0
    csv_path = out_dir / "loss.csv"
    ckpt_path = out_dir / "model.dvcp"
    assert csv_path.exists() and ckpt_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,loss,lr"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 0 and np.isfinite(float(first[1]))

    model = load_checkpoint(str(ckpt_path))
    assert model.config.num_classes == 8

    code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(ckpt_path),
                           "--data", "synthetic", "--per-class", "2", "--json")
    assert code == 0
    result = json.loads(out)
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["samples"] == 16


def test_eval_scores_the_synthetic_set_of_the_checkpoints_seed(tmp_path, capsys):
    """Each seed draws other class blobs: a model trained on seed 5's set scores
    below chance on seed 0's, so a plain ``eval`` must take the config's seed."""
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "train", "--preset", "tiny", "--seed", "5", "--steps", "60",
                         "--out", str(out_dir))
    assert code == 0
    accuracy = {}
    for flags in ([], ["--seed", "5"], ["--seed", "0"]):
        code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(out_dir / "model.dvcp"),
                               "--json", *flags)
        assert code == 0
        accuracy[tuple(flags)] = json.loads(out)["accuracy"]
    assert accuracy[()] == accuracy[("--seed", "5")] > accuracy[("--seed", "0")]


def test_eval_missing_checkpoint_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--checkpoint", "/nope/model.dvcp")
    assert code == 2
    assert "not found" in err


def test_eval_empty_dataset_is_usage_error(tmp_path, capsys):
    cfg = preset_config("tiny")
    ckpt = tmp_path / "m.dvcp"
    save_checkpoint(build_model(cfg), str(ckpt))
    empty = tmp_path / "empty.dvds"
    empty.write_bytes(struct.pack("<4sIIHHHH", b"DVDS", 1, 0, cfg.resolution,
                                  cfg.resolution, 3, cfg.num_classes))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(empty))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("classes,res,fragment", [(20, 32, "20 classes"), (8, 64, "64x64")],
                         ids=["classes", "resolution"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_that_does_not_fit_the_model_is_usage_error(tmp_path, capsys, command,
                                                            classes, res, fragment):
    cfg = preset_config("tiny")
    dataset = tmp_path / "set.dvds"
    save_packed_dataset(make_synthetic(classes, 1, res), str(dataset))
    if command == "train":
        argv = ["train", "--preset", "tiny", "--steps", "1", "--out", str(tmp_path / "run")]
    else:
        ckpt = tmp_path / "m.dvcp"
        save_checkpoint(build_model(cfg), str(ckpt))
        argv = ["eval", "--checkpoint", str(ckpt)]
    code, _, err = run_cli(capsys, *argv, "--data", str(dataset))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert fragment in err


def test_train_abort_keeps_initial_parameters(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "train", "--preset", "tiny", "--steps", "5",
                           "--lr", "1e10", "--per-class", "2", "--out", str(out_dir))
    assert code == 1
    assert "aborted" in err
    initial = build_model(preset_config("tiny")).named_parameters()
    saved = dict(load_checkpoint(str(out_dir / "model.dvcp")).named_parameters())
    for name, p in initial:
        np.testing.assert_array_equal(saved[name].data, p.data, err_msg=name)


def _python(*argv, **env_vars) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this ``dualvit``, with ``env_vars``
    set and DUALVIT_DEBUG and the BLAS thread variables otherwise unset."""
    env = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DUALVIT_DEBUG")}
    src = os.path.dirname(os.path.dirname(dualvit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env={**env, **env_vars},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_dualvit_threads_pins_blas():
    """Importing the CLI pins BLAS before numpy loads, so a GEMM runs on one thread."""
    probe = ("import os, dualvit.cli, numpy as np\n"
             "a = np.ones((1024, 1024), np.float32)\n"
             "a @ a\n"
             "print(len(os.listdir('/proc/self/task')))\n")
    done = _python("-c", probe, DUALVIT_THREADS="1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


@pytest.mark.parametrize("value, on", [(None, False), ("", False), ("0", False),
                                       ("1", True), ("yes", True)])
def test_debug_switch_is_off_only_when_unset_empty_or_0(value, on):
    env = {} if value is None else {"DUALVIT_DEBUG": value}
    done = _python("-c", "import dualvit.tensor as T; print(T._debug_checks)", **env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(on)


def test_debug_switch_makes_a_non_finite_op_result_raise():
    probe = ("import numpy as np, dualvit.tensor as T\n"
             "x = T.Tensor(np.array([1e30], np.float32))\n"
             "with np.errstate(over='ignore'):\n"
             "    T.mul(x, x)\n")
    done = _python("-c", probe, DUALVIT_DEBUG="1")
    assert done.returncode == 1
    assert "FloatingPointError: non-finite value produced by forward op" in done.stderr
    assert _python("-c", probe).returncode == 0


def test_debug_switch_of_any_value_runs_the_cli():
    done = _python("-m", "dualvit.cli", "describe", "--preset", "tiny", DUALVIT_DEBUG="yes")
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert "semantic tokens m=4" in done.stdout


def test_debug_sentinel_stop_is_an_error_line(tmp_path):
    done = _python("-m", "dualvit.cli", "train", "--preset", "tiny", "--steps", "3",
                   "--lr", "1e10", "--per-class", "2", "--out", str(tmp_path / "run"),
                   DUALVIT_DEBUG="1")
    assert done.returncode == 1
    assert "error: non-finite value" in done.stderr and "Traceback" not in done.stderr


def test_debug_sentinel_stop_writes_the_files_of_a_plain_abort(tmp_path):
    """Stopped by the sentinel or by its non-finite loss, a diverging run
    writes the same loss.csv and last-good checkpoint."""
    argv = ["-m", "dualvit.cli", "train", "--preset", "tiny", "--steps", "3",
            "--lr", "1e10", "--per-class", "2", "--out"]
    plain = _python(*argv, str(tmp_path / "plain"))
    debug = _python(*argv, str(tmp_path / "debug"), DUALVIT_DEBUG="1")
    for done in (plain, debug):
        assert done.returncode == 1 and "Traceback" not in done.stderr
    for name in ("loss.csv", "model.dvcp"):
        assert (tmp_path / "debug" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("lr, debug", [("1e38", ""), ("1e30", ""), ("1e30", "1")],
                         ids=["1e38", "1e30", "1e30-debug"])
def test_an_update_whose_forward_overflows_aborts_with_the_weights_of_the_last_loss(
        tmp_path, lr, debug):
    """Step 0's loss is finite, but its update puts ``inf`` in the arena (1e38)
    or keeps it finite with non-finite logits (1e30). The closing evaluation
    aborts the run, with or without the DUALVIT_DEBUG sentinel, and the run
    saves the initial weights, the ones that gave that loss."""
    out_dir = tmp_path / "run"
    done = _python("-m", "dualvit.cli", "train", "--preset", "tiny", "--steps", "1",
                   "--lr", lr, "--per-class", "2", "--out", str(out_dir), DUALVIT_DEBUG=debug)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "error: non-finite value in training; run aborted, checkpoint holds last good state"]
    rows = (out_dir / "loss.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and np.isfinite(float(rows[0].split(",")[1]))
    saved = load_checkpoint(str(out_dir / "model.dvcp"))
    assert saved.arena.tobytes() == build_model(preset_config("tiny")).arena.tobytes()


def test_eval_of_a_checkpoint_whose_forward_overflows_is_one_error_line(tmp_path):
    model = build_model(preset_config("tiny"))
    model.arena *= 1e20
    assert np.isfinite(model.arena).all()
    save_checkpoint(model, str(tmp_path / "model.dvcp"))
    done = _python("-m", "dualvit.cli", "eval", "--checkpoint", str(tmp_path / "model.dvcp"))
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


def test_ablate_prints_a_row_for_each_variant_when_one_run_aborts(capsys, monkeypatch):
    """Variant B's update overflows its closing evaluation: its row reads
    ``nan``, and the other variants' rows are scored as usual."""
    train_toy = training.train_toy

    def diverging_b(model, *args, **kwargs):
        return train_toy(model, *args, **kwargs, **({"lr": 1e38} if model.variant == "B" else {}))

    monkeypatch.setattr(training, "train_toy", diverging_b)
    code, out, _ = run_cli(capsys, "ablate", "--preset", "tiny", "--train-steps", "1",
                           "--per-class", "2", "--json")
    assert code == 0
    rows = {row["variant"]: row["train_accuracy"] for row in json.loads(out)}
    assert list(rows) == ["A", "B", "C", "D"]
    assert math.isnan(rows.pop("B")) and all(0 <= acc <= 1 for acc in rows.values())


def test_diverging_train_prints_only_its_error_line(tmp_path):
    out_dir = tmp_path / "run"
    done = _python("-W", "error::RuntimeWarning", "-m", "dualvit.cli", "train",
                   "--preset", "tiny", "--steps", "3", "--lr", "1e10", "--per-class", "2",
                   "--out", str(out_dir))
    assert done.returncode == 1
    assert (out_dir / "loss.csv").exists() and (out_dir / "model.dvcp").exists()
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


@pytest.mark.parametrize("case", ["count-config", "eval-checkpoint", "train-data", "train-out"])
def test_path_that_cannot_be_opened_is_usage_error(tmp_path, capsys, case):
    a_file = tmp_path / "file"
    a_file.write_text("")
    argv = {
        "count-config": ["count", "--config", str(tmp_path)],
        "eval-checkpoint": ["eval", "--checkpoint", str(tmp_path)],
        "train-data": ["train", "--preset", "tiny", "--steps", "1", "--data", str(tmp_path),
                       "--out", str(tmp_path / "run")],
        "train-out": ["train", "--preset", "tiny", "--steps", "1", "--per-class", "1",
                      "--out", str(a_file)],
    }[case]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_config_file_load_and_rejection(tmp_path, capsys):
    cfg = preset_config("tiny").to_dict()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "describe", "--config", str(good), "--json")
    assert code == 0
    assert json.loads(out)["m"] == 4

    cfg["mystery_knob"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "describe", "--config", str(bad), "--json")
    assert code == 2
    assert "mystery_knob" in err


def _tiny_config_with(path, edit):
    cfg = preset_config("tiny").to_dict()
    edit(cfg)
    path.write_text(json.dumps(cfg))
    return str(path)


def _set_stage(key, value):
    def edit(cfg):
        cfg["stages"][0][key] = value
    return edit


def _set(key, value):
    def edit(cfg):
        cfg[key] = value
    return edit


def _stage_as_int(cfg):
    cfg["stages"][1] = 3


def _drop_kinds(cfg):
    for stage in cfg["stages"]:
        del stage["kind"]


@pytest.mark.parametrize("edit,fragment", [
    (_set_stage("heads", 0), "heads"),
    (_set_stage("patch_size", 0), "patch_size"),
    (_set_stage("depth", "1"), "depth"),
    (_set_stage("depth", -1), "depth"),
    (_set_stage("channels", True), "channels"),
    (_set("m", 2.5), "m must be"),
    (_set("num_classes", 0), "num_classes"),
    (_set("pos_embed", 1), "pos_embed"),
    (_set("seed", "0"), "seed"),
    (_set("stages", 5), "stages"),
    (_stage_as_int, "stages"),
    (_set_stage("kind", "merge"), "kind"),
    (_drop_kinds, None),
], ids=["heads-0", "patch-0", "depth-str", "depth-neg", "channels-bool", "m-float",
        "classes-0", "pos-embed-int", "seed-str", "stages-int", "stage-int", "wrong-kind",
        "no-kind"])
def test_config_file_field_checks(tmp_path, capsys, edit, fragment):
    path = _tiny_config_with(tmp_path / "cfg.json", edit)
    code, out, err = run_cli(capsys, "describe", "--config", path, "--json")
    if fragment is None:  # kind is optional: derived from the stage index
        assert code == 0
        kinds = [s["kind"] for s in json.loads(out)["stages"]]
        assert kinds == ["dual", "dual", "merge", "merge"]
    else:
        assert code == 2
        assert fragment in err and "Traceback" not in err


def test_a_config_files_seed_also_seeds_the_data_and_batch_order(tmp_path, capsys):
    path = _tiny_config_with(tmp_path / "cfg.json", _set("seed", 5))
    logs = []
    for i, flags in enumerate([[], ["--seed", "5"]]):
        out_dir = tmp_path / f"run{i}"
        code, _, _ = run_cli(capsys, "train", "--config", path, "--steps", "3", "--batch", "4",
                             "--per-class", "2", "--out", str(out_dir), *flags)
        assert code == 0
        logs.append((out_dir / "loss.csv").read_text())
    assert logs[0] == logs[1]


def _dvcp(manifest: bytes, payload: bytes = b"") -> bytes:
    body = b"DVCP" + struct.pack("<II", 2, len(manifest)) + manifest + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _manifest_with(**changes) -> bytes:
    manifest = {"config": preset_config("tiny").to_dict(), "variant": "D",
                "entries": [{"name": "z0", "shape": [1, 4, 16]}]}
    manifest.update(changes)
    return json.dumps({k: v for k, v in manifest.items() if v is not None}).encode()


def _tiny_dvcp_with(edit) -> bytes:
    """A tiny-model checkpoint whose list of (entry, payload bytes) ``edit`` rewrites."""
    model = build_model(preset_config("tiny"))
    items = edit([({"name": name, "shape": list(p.shape)}, p.data.astype("<f4").tobytes())
                  for name, p in model.named_parameters()])
    manifest = json.dumps({"config": model.config.to_dict(), "variant": model.variant,
                           "entries": [entry for entry, _ in items]}).encode()
    return _dvcp(manifest, b"".join(payload for _, payload in items))


def _drop_head_bias(items):
    return [(entry, payload) for entry, payload in items if entry["name"] != "head.bias"]


def _beta_named_gamma(items):
    return [({**entry, "name": "head_norm.gamma"} if entry["name"] == "head_norm.beta"
             else entry, payload) for entry, payload in items]


@pytest.mark.parametrize("blob", [
    b"DVCP\x01\x00",
    _dvcp(b"{}")[:14],
    b"DVCP" + struct.pack("<II", 2, 1000) + b"{}",
    _dvcp(b"\xff\xfe{}"),
    _dvcp(b"{not json"),
    _dvcp(b"[1, 2]"),
    _dvcp(_manifest_with(config=None)),
    _dvcp(_manifest_with(variant=None)),
    _dvcp(_manifest_with(entries=None)),
    _dvcp(_manifest_with(config=5)),
    _dvcp(_manifest_with(config={"mystery_knob": 1})),
    _dvcp(_manifest_with(variant=["D"])),
    _dvcp(_manifest_with(entries="z0")),
    _dvcp(_manifest_with(entries=[{"name": ["z0"], "shape": [1]}])),
    _dvcp(_manifest_with(entries=[{"name": "z0", "shape": 64}])),
    _dvcp(_manifest_with(), b"\x00" * 4),
    _dvcp(_manifest_with(), b"\x00" * 5),
    _tiny_dvcp_with(_drop_head_bias),
    _tiny_dvcp_with(_beta_named_gamma),
], ids=["short-header", "short-file", "manifest-past-end", "not-utf8", "not-json",
        "not-object", "no-config", "no-variant", "no-entries", "config-int",
        "config-unknown-key", "variant-list", "entries-str", "entry-name-list",
        "entry-shape-int", "payload-short", "payload-not-f32", "entry-missing",
        "entry-repeated"])
def test_malformed_checkpoint_is_usage_error(tmp_path, capsys, blob):
    path = tmp_path / "bad.dvcp"
    path.write_bytes(blob)
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_version_1_checkpoint_is_usage_error_naming_the_version(tmp_path, capsys):
    """A DVCP v1 file (its CRC covers the payload only) is not read."""
    path = tmp_path / "m.dvcp"
    save_checkpoint(build_model(preset_config("tiny")), str(path))
    blob = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<I", blob, 8)
    payload = blob[12 + manifest_len:-4]
    path.write_bytes(b"DVCP" + struct.pack("<I", 1) + blob[8:-4]
                     + struct.pack("<I", zlib.crc32(payload)))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(path))
    assert code == 2
    assert err.startswith("error: ") and "version 1" in err and "Traceback" not in err


# numpy refuses each shape case before allocating: too_big's bytes exceed the
# address space; the others exceed 2**63 in one dimension (positional
# embeddings of (2**38)**2 tokens, z0 of 1e23 semantic tokens)
ALLOCATION_FAILURES = ["too_big", "resolution_2_40", "m_1e23", "out_of_memory"]


def _fail_allocation(failure, cfg, monkeypatch):
    """Make building ``cfg`` fail the way numpy fails an allocation."""
    if failure == "too_big":  # numpy refuses stage 2 at 2**62 channels before allocating
        cfg["stages"][1]["channels"] = 2**62
    elif failure == "resolution_2_40":
        cfg["resolution"] = 2**40
    elif failure == "m_1e23":
        cfg["m"] = 10**23
    else:
        def refuse(rng, shape):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        monkeypatch.setattr(nn, "trunc_normal", refuse)


def _assert_one_allocation_error(code, err):
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: config cannot be allocated")


@pytest.mark.parametrize("failure", ALLOCATION_FAILURES)
@pytest.mark.parametrize("command", ["count", "train", "ablate"])
def test_a_config_numpy_cannot_allocate_is_usage_error(
        tmp_path, monkeypatch, capsys, command, failure):
    path = _tiny_config_with(tmp_path / "cfg.json",
                             lambda cfg: _fail_allocation(failure, cfg, monkeypatch))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, command, "--config", path, *(
        ["--steps", "1", "--out", str(out_dir)] if command == "train" else []))
    _assert_one_allocation_error(code, err)
    assert not out_dir.exists()


def test_a_res_override_numpy_cannot_represent_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--preset", "tiny", "--res", str(2**40))
    _assert_one_allocation_error(code, err)


@pytest.mark.parametrize("failure", ALLOCATION_FAILURES)
def test_a_checkpoint_whose_config_numpy_cannot_allocate_is_usage_error(
        tmp_path, monkeypatch, capsys, failure):
    config = preset_config("tiny").to_dict()
    _fail_allocation(failure, config, monkeypatch)
    path = tmp_path / "big.dvcp"
    path.write_bytes(_dvcp(_manifest_with(config=config)))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(path))
    _assert_one_allocation_error(code, err)


@pytest.mark.parametrize("failure", ["too_big", "out_of_memory"])
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_a_synthetic_set_numpy_cannot_allocate_is_usage_error(
        tmp_path, monkeypatch, capsys, command, failure):
    per_class = 10**18  # numpy refuses its noise array before allocating
    if failure == "out_of_memory":
        per_class = 2

        def refuse(num_classes, resolution, seed=0):
            raise MemoryError("Unable to allocate the class means")
        monkeypatch.setattr(dualvit.data, "class_means", refuse)
    out_dir = tmp_path / "run"
    argv = {"train": ["train", "--preset", "tiny", "--steps", "1", "--out", str(out_dir)],
            "eval": ["eval", "--checkpoint", str(tmp_path / "m.dvcp")],
            "ablate": ["ablate", "--preset", "tiny", "--train-steps", "1"]}[command]
    save_checkpoint(build_model(preset_config("tiny")), str(tmp_path / "m.dvcp"))
    code, out, err = run_cli(capsys, *argv, "--per-class", str(per_class))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: synthetic set of {per_class} images per class "
                          "cannot be allocated")
    assert not out_dir.exists()


def test_a_value_error_that_is_not_numpys_size_refusal_propagates(monkeypatch):
    def bug(rng, shape):
        raise ValueError("a bug in a block's init")
    monkeypatch.setattr(nn, "trunc_normal", bug)
    with pytest.raises(ValueError, match="a bug"):
        build_model(preset_config("tiny"))


@pytest.mark.parametrize("argv", [
    ["train", "--preset", "tiny", "--steps", "1", "--batch", "0"],
    ["train", "--preset", "tiny", "--steps", "1", "--batch", "-2"],
    ["train", "--preset", "tiny", "--steps", "-3"],
    ["train", "--preset", "tiny", "--steps", "1", "--per-class", "-1"],
    ["gradcheck", "--samples", "0"],
    ["gradcheck", "--samples", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["eval", "--seed", "-1"],
    ["eval", "--per-class", "-1"],
    ["ablate", "--preset", "tiny", "--train-steps", "-1"],
], ids=["train-batch-0", "train-batch-negative", "train-steps-negative",
        "train-per-class-negative", "gradcheck-samples-0", "gradcheck-samples-negative",
        "gradcheck-seed-negative", "eval-seed-negative", "eval-per-class-negative",
        "ablate-train-steps-negative"])
def test_out_of_range_count_or_seed_is_usage_error(tmp_path, capsys, argv):
    if argv[0] == "train":
        argv = argv + ["--out", str(tmp_path / "run")]
    if argv[0] == "eval":
        ckpt = tmp_path / "m.dvcp"
        save_checkpoint(build_model(preset_config("tiny")), str(ckpt))
        argv = argv + ["--checkpoint", str(ckpt)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--tol", "nan"],
    ["gradcheck", "--tol", "inf"],
    ["gradcheck", "--tol", "0"],
    ["gradcheck", "--tol", "-1"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--lr", "-0.001"],
    ["train", "--wd", "nan"],
    ["train", "--wd", "inf"],
    ["train", "--wd", "-0.05"],
], ids=lambda argv: f"{argv[0]}-{argv[1][2:]}-{argv[2]}")
def test_a_float_flag_that_is_not_finite_or_out_of_range_is_usage_error(
        tmp_path, capsys, argv):
    """Refused at parse time: a bad ``--tol`` never reads as a failed check, nor a
    bad ``--lr``/``--wd`` as a diverged run."""
    out_dir = tmp_path / "run"
    if argv[0] == "train":
        argv = argv + ["--preset", "tiny", "--steps", "1", "--out", str(out_dir)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_float_flags_accept_their_bounds():
    parser = build_parser()
    args = parser.parse_args(["train", "--preset", "tiny", "--lr", "0", "--wd", "0"])
    assert (args.lr, args.wd) == (0.0, 0.0)
    assert parser.parse_args(["gradcheck", "--tol", "1e-300"]).tol == 1e-300


def test_preset_help_lists_each_preset_once(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert "{s,b,l,tiny}" in capsys.readouterr().out


def test_preset_name_is_read_in_either_case(capsys):
    upper, lower = (run_cli(capsys, "describe", "--preset", name, "--json")
                    for name in ("S", "s"))
    assert upper == lower and upper[0] == 0
    assert [s["channels"] for s in json.loads(upper[1])["stages"]] == [64, 128, 320, 448]
