"""Analytic parameter and MAC accounting for built models.

Each layer and block reports its own MACs (its ``macs`` method, built on the
three sublayer formulas below); ``count_macs`` reports them with each child's exact
parameter count, per path of ``model.named_children()``, so params sum to the model's.

Conventions (the published tables report "GFLOPs"; here 1 GFLOP == 1e9 MACs):
- linear layer on n tokens: n * d_in * d_out MACs, bias adds excluded
- attention: score and value-mix each cost n_q * n_kv * d across all heads
- LayerNorm, GELU, softmax and residual adds are excluded (element-wise,
  <2% of totals at these shapes)
- MACs are reported per single image (batch size 1)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .tensor import Tensor

if TYPE_CHECKING:
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


def count_macs(model: DualViT) -> CostReport:
    """Analytic MACs and params of one forward at the model's resolution, per child."""
    cfg = model.config
    macs = {model.head: model.head.macs(1)}
    for i, n in enumerate(cfg.token_counts()):
        macs[model.patch_embeds[i]] = model.patch_embeds[i].proj.macs(n)
        macs.update((blk, blk.macs(n, cfg.m)) for blk in model.stage_blocks[i])
    macs.update((tr, tr.proj.macs(cfg.m)) for tr in model.transitions)
    entries = [(path, child.data.size if isinstance(child, Tensor) else child.num_params(),
                macs.get(child, 0)) for path, child in model.named_children()]
    return CostReport(sum(p for _, p, _ in entries), sum(m for _, _, m in entries), entries)
