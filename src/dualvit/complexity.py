"""Analytic parameter and MAC accounting for built models.

Conventions (the published tables report "GFLOPs"; here 1 GFLOP == 1e9 MACs):
- linear layer on n tokens: n * d_in * d_out MACs, bias adds excluded
- attention: score and value-mix each cost n_q * n_kv * d across all heads
- LayerNorm, GELU, softmax and residual adds are excluded (element-wise,
  <2% of totals at these shapes)
- MACs are reported per single image (batch size 1)

Parameter totals come from an exact walk over the model's parameter registry,
so the breakdown always sums to the brute-force count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blocks import SEMANTIC_STEPS
from .model import DualViT


@dataclass
class CostReport:
    params: int
    macs: int
    breakdown: list[tuple[str, int, int]]  # (path, params, macs)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "macs": self.macs,
            "gmacs": self.macs / 1e9,
            "breakdown": [
                {"path": p, "params": pp, "macs": mm} for p, pp, mm in self.breakdown
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        width = max([len(p) for p, _, _ in self.breakdown] + [len("module")])
        lines = [f"{'module':<{width}}  {'params':>12}  {'macs':>14}"]
        for path, pp, mm in self.breakdown:
            lines.append(f"{path:<{width}}  {pp:>12}  {mm:>14}")
        lines.append(f"{'total':<{width}}  {self.params:>12}  {self.macs:>14}")
        lines.append(f"params: {self.params / 1e6:.2f}M  giga-MACs: {self.macs / 1e9:.3f}")
        return "\n".join(lines)


def mha_attention_macs(n_q: int, n_kv: int, dim: int) -> int:
    """Score matrix plus value mix, summed over heads."""
    return 2 * n_q * n_kv * dim


def mha_macs(n_q: int, n_kv: int, dim: int) -> int:
    projections = (2 * n_q + 2 * n_kv) * dim * dim
    return projections + mha_attention_macs(n_q, n_kv, dim)


def ffn_macs(n: int, dim: int, ratio: int) -> int:
    return 2 * n * ratio * dim * dim


def dual_block_macs(n: int, m: int, dim: int, pixel_ratio: int,
                    semantic_ratio: int, variant: str) -> int:
    total = mha_macs(n, m, dim) + ffn_macs(n, dim, pixel_ratio)
    for _, _, source in SEMANTIC_STEPS[variant]:
        if source is None:
            total += ffn_macs(m, dim, semantic_ratio)
        else:
            total += mha_macs(m, n if source == "x" else m, dim)
    return total


def merge_block_macs(n: int, m: int, dim: int, pixel_ratio: int,
                     semantic_ratio: int) -> int:
    joint = n + m
    return (mha_macs(joint, joint, dim)
            + ffn_macs(n, dim, pixel_ratio)
            + ffn_macs(m, dim, semantic_ratio))


def count_macs(model: DualViT) -> CostReport:
    """Analytic MACs (and params) for one forward pass at the model's resolution."""
    cfg = model.config
    counts = cfg.token_counts()
    entries: list[tuple[str, int, int]] = [("z0", model.z0.data.size, 0)]
    if cfg.pos_embed:
        entries.append(("pos_embed", model.pos_embed.data.size, 0))
    in_ch = 3
    for i, spec in enumerate(cfg.stages):
        n = counts[i]
        pe_macs = n * (spec.patch_size ** 2 * in_ch) * spec.channels
        entries.append((f"stages.{i}.patch_embed", model.patch_embeds[i].num_params(),
                        pe_macs))
        if i > 0:
            entries.append((f"stages.{i}.transition", model.transitions[i - 1].num_params(),
                            cfg.m * in_ch * spec.channels))
        for j, blk in enumerate(model.stage_blocks[i]):
            if spec.kind == "dual":
                blk_macs = dual_block_macs(n, cfg.m, spec.channels, spec.ffn_ratio_pixel,
                                           spec.ffn_ratio_semantic, model.variant)
            else:
                blk_macs = merge_block_macs(n, cfg.m, spec.channels, spec.ffn_ratio_pixel,
                                            spec.ffn_ratio_semantic)
            entries.append((f"stages.{i}.blocks.{j}", blk.num_params(), blk_macs))
        in_ch = spec.channels
    entries.append(("head_norm", model.head_norm.num_params(), 0))
    entries.append(("head", model.head.num_params(), in_ch * cfg.num_classes))
    return CostReport(params=sum(p for _, p, _ in entries),
                      macs=sum(m for _, _, m in entries),
                      breakdown=entries)
