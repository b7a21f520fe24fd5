import json
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

import dualvit
from dualvit.cli import main
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
