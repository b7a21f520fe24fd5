"""Command-line surface: describe / count / gradcheck / train / eval / ablate.

Exit codes: 0 success, 1 check failure, 2 usage or input error, including an
input or output path that cannot be opened.
Set DUALVIT_THREADS to cap BLAS worker threads (the ``dualvit`` package
applies it on import, before numpy loads; it also makes runs reproducible
across machines with different core counts). A non-finite loss or logit
already ends ``train`` and ``eval`` with exit 1; DUALVIT_DEBUG (any value but
empty or ``0``) only says where a value went non-finite, by stopping at the
first forward op that makes a NaN or Inf. ``train`` still writes both files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

from . import complexity, data, training
from .blocks import DUAL_VARIANTS
from .errors import (ConfigError, DualVitError, FormatError, InputError,
                     allocation_refused_as)
from .model import ModelConfig, PRESET_NAMES, build_model, preset_config

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _finite_float(positive: bool):
    """An argparse ``type``: a finite float, > 0 if ``positive``, else >= 0."""
    def number(text: str) -> float:  # argparse names it in "invalid number value"
        value = float(text)
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if positive else '>='} 0, got {text}")
        return value
    return number


def _add_model_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", type=str.lower, choices=[n.lower() for n in PRESET_NAMES],
                   help="named architecture preset (any case)")
    g.add_argument("--config", help="path to a JSON model config")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override config seed")
    p.add_argument("--res", type=int, default=None)


def _load_config_file(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"config is not UTF-8 JSON: {exc}") from exc
    return ModelConfig.from_dict(raw)


def _resolve_config(args) -> ModelConfig:
    cfg = _load_config_file(args.config) if args.config else preset_config(args.preset)
    overrides = {"seed": args.seed, "resolution": args.res}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _describe_dict(cfg: ModelConfig) -> dict:
    info = cfg.to_dict()
    del info["seed"]
    info["stages"] = [{"stage": i + 1, **s, "tokens": tokens}
                      for i, (s, tokens) in enumerate(zip(info["stages"], cfg.token_counts()))]
    return info


def cmd_describe(args) -> int:
    cfg = _resolve_config(args)
    info = _describe_dict(cfg)
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print(f"resolution {cfg.resolution}  semantic tokens m={cfg.m}  "
          f"classes {cfg.num_classes}  pos_embed {cfg.pos_embed}")
    header = f"{'stage':>5} {'kind':>6} {'depth':>5} {'heads':>5} {'channels':>8} " \
             f"{'E^x':>4} {'E^z':>4} {'patch':>5} {'tokens':>7}"
    print(header)
    for s in info["stages"]:
        print(f"{s['stage']:>5} {s['kind']:>6} {s['depth']:>5} {s['heads']:>5} "
              f"{s['channels']:>8} {s['ffn_ratio_pixel']:>4} {s['ffn_ratio_semantic']:>4} "
              f"{s['patch_size']:>5} {s['tokens']:>7}")
    return 0


def cmd_count(args) -> int:
    cfg = _resolve_config(args)
    model = build_model(cfg, variant=args.variant)
    report = complexity.count_macs(model)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return 0


def cmd_gradcheck(args) -> int:
    report = training.gradcheck_block(args.block, tolerance=args.tol,
                                      samples=args.samples, seed=args.seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] gradcheck {args.block}: max relative error "
          f"{report.max_rel_error:.3e} over {report.num_checked} parameters "
          f"(tolerance {report.tolerance:g})")
    for name, idx, ana, num, err in report.failures[:20]:
        print(f"  offending: {name}[{idx}] analytic={ana:.6e} "
              f"numeric={num:.6e} rel={err:.3e}")
    return 0 if report.passed else CHECK_FAILURE


def _load_dataset(spec: str, cfg: ModelConfig, per_class: int, seed: int) -> data.Dataset:
    if spec == "synthetic":
        with allocation_refused_as(InputError, f"synthetic set of {per_class} images per class"):
            return data.make_synthetic(cfg.num_classes, per_class, cfg.resolution, seed=seed)
    if not os.path.exists(spec):
        raise InputError(f"dataset file not found: {spec}")
    dataset = data.load_packed_dataset(spec)
    h, w = dataset.images.shape[1:3]
    res = cfg.resolution
    if dataset.num_classes > cfg.num_classes or (h, w) != (res, res):
        raise InputError(f"dataset of {dataset.num_classes} classes at {h}x{w} does not fit "
                         f"model of {cfg.num_classes} classes at {res}x{res}")
    return dataset


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    model = build_model(cfg, variant=args.variant)
    dataset = _load_dataset(args.data, cfg, args.per_class, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    report = training.train_toy(model, dataset, steps=args.steps,
                                batch_size=args.batch, lr=args.lr,
                                weight_decay=args.wd, seed=cfg.seed)
    csv_path = os.path.join(args.out, "loss.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr"])
        writer.writerows(report.steps)
    ckpt_path = os.path.join(args.out, "model.dvcp")
    data.save_checkpoint(model, ckpt_path)
    print(f"trained {len(report.steps)} steps in {report.wall_clock:.1f}s, "
          f"train accuracy {report.final_accuracy:.4f}")
    print(f"wrote {csv_path} and {ckpt_path}")
    if report.aborted:
        print("error: non-finite value in training; run aborted, "
              "checkpoint holds last good state", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def cmd_eval(args) -> int:
    if not os.path.exists(args.checkpoint):
        raise InputError(f"checkpoint not found: {args.checkpoint}")
    model = data.load_checkpoint(args.checkpoint)
    seed = model.config.seed if args.seed is None else args.seed
    dataset = _load_dataset(args.data, model.config, args.per_class, seed)
    acc = training.evaluate(model, dataset)
    if args.json:
        print(json.dumps({"accuracy": acc, "samples": len(dataset.labels)}))
    else:
        print(f"accuracy {acc:.4f} on {len(dataset.labels)} samples")
    return 0


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    if args.train_steps:
        dataset = _load_dataset("synthetic", cfg, args.per_class, cfg.seed)
    rows = []
    for variant in DUAL_VARIANTS:
        model = build_model(cfg, variant=variant)
        report = complexity.count_macs(model)
        row = {"variant": variant, "params": report.params,
               "gmacs": report.macs / 1e9}
        if args.train_steps:
            row["train_accuracy"] = training.train_toy(
                model, dataset, steps=args.train_steps, seed=cfg.seed
            ).final_accuracy
        rows.append(row)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    cols = list(rows[0].keys())
    print("  ".join(f"{c:>14}" for c in cols))
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(f"{v:>14.4f}" if isinstance(v, float) else f"{v:>14}")
        print("  ".join(cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualvit",
                                     description="Two-pathway vision transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print the per-stage architecture table")
    _add_model_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("count", help="analytic parameter and MAC report")
    _add_model_args(p)
    p.add_argument("--variant", choices=DUAL_VARIANTS, default="D")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--block", choices=("dual", "merge", "transformer", "model"),
                   default="dual")
    p.add_argument("--tol", type=_finite_float(positive=True), default=1e-4)
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train", help="toy-scale training run")
    _add_model_args(p)
    p.add_argument("--variant", choices=DUAL_VARIANTS, default="D")
    p.add_argument("--data", default="synthetic",
                   help="'synthetic' or path to a DVDS file")
    p.add_argument("--steps", type=_int_at_least(0), default=500)
    p.add_argument("--batch", type=_int_at_least(1), default=16)
    p.add_argument("--lr", type=_finite_float(positive=False), default=1e-3)
    p.add_argument("--wd", type=_finite_float(positive=False), default=0.05)
    p.add_argument("--per-class", type=_int_at_least(1), default=8)
    p.add_argument("--out", default="runs/toy")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default="synthetic")
    p.add_argument("--per-class", type=_int_at_least(1), default=8)
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override config seed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="compare dual-block variants A-D")
    _add_model_args(p)
    p.add_argument("--train-steps", type=_int_at_least(0), default=0,
                   help="optionally toy-train each variant this many steps")
    p.add_argument("--per-class", type=_int_at_least(1), default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DualVitError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
