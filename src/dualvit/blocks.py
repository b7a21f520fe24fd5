"""The three block types of the backbone plus stage-boundary plumbing.

- TransformerBlock: pre-LN self-attention + pre-LN FFN, both residual.
- DualBlock: a semantic pathway (in the full variant D: self-attention over m
  semantic tokens, then cross-attention pulling from the pixel tokens, then
  FFN; ``SEMANTIC_STEPS`` lists the steps of every variant) feeding a pixel
  pathway (cross-attention of pixel tokens against the updated semantic
  tokens, then FFN). The pixel pathway consumes the UPDATED semantic tokens.
- MergeBlock: joint self-attention over the concatenated pixel+semantic
  sequence with two separate per-pathway FFNs.

All token tensors are batched: (B, tokens, channels). Each normalization site
in the block equations has its own LayerNorm instance, including the ones
that re-normalize a tensor already normalized elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, InputError
from .nn import FeedForward, LayerNorm, Linear, Module, MultiHeadAttention
from .tensor import Tensor

# The semantic pathway of each dual-block variant: its residual steps in
# order, each (norm attr, sublayer attr, key/value source). The source is "x"
# (normed pixel tokens), "z" (the step's normed semantic tokens) or None (FFN).
# D: full block. A: no semantic self-attention. B: no semantic FFN.
# C: cross-attention before self-attention.
SEMANTIC_STEPS = {
    "A": (("norm_z_mid", "sem_cross", "x"), ("norm_z_ffn", "sem_ffn", None)),
    "B": (("norm_z", "sem_self", "z"), ("norm_z_mid", "sem_cross", "x")),
    "C": (("norm_z", "sem_cross", "x"), ("norm_z_mid", "sem_self", "z"),
          ("norm_z_ffn", "sem_ffn", None)),
    "D": (("norm_z", "sem_self", "z"), ("norm_z_mid", "sem_cross", "x"),
          ("norm_z_ffn", "sem_ffn", None)),
}
DUAL_VARIANTS = tuple(SEMANTIC_STEPS)


@dataclass
class FeatureMap:
    """Pixel-pathway tokens with their spatial extent (tokens = height*width)."""

    tokens: Tensor
    height: int
    width: int

    def __post_init__(self):
        if self.tokens.shape[-2] != self.height * self.width:
            raise DimensionError(
                f"feature map has {self.tokens.shape[-2]} tokens but "
                f"{self.height}x{self.width} spatial extent"
            )

    @property
    def channels(self) -> int:
        return self.tokens.shape[-1]


@dataclass
class SemanticTokens:
    """The m compressed semantic tokens."""

    tokens: Tensor

    @property
    def count(self) -> int:
        return self.tokens.shape[-2]

    @property
    def channels(self) -> int:
        return self.tokens.shape[-1]


class TransformerBlock(Module):
    def __init__(self, dim: int, heads: int, ffn_ratio: int, rng: np.random.Generator):
        self.norm_attn = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.norm_ffn = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_ratio, rng)

    def __call__(self, x: Tensor) -> Tensor:
        xn = self.norm_attn(x)
        x = T.add(self.attn(xn, xn), x)
        return T.add(self.ffn(self.norm_ffn(x)), x)


class DualBlock(Module):
    """Two-pathway block; ``variant`` selects the semantic-pathway rewrite
    from ``SEMANTIC_STEPS``."""

    def __init__(self, dim: int, heads: int, pixel_ratio: int, semantic_ratio: int,
                 rng: np.random.Generator, variant: str = "D"):
        if variant not in DUAL_VARIANTS:
            raise ConfigError(f"unknown dual-block variant {variant!r}")
        self.steps = SEMANTIC_STEPS[variant]
        # semantic pathway: only the sublayers the steps name, built in this
        # fixed order whatever the step order, so C and D draw identical init
        self.norm_x_sem = LayerNorm(dim)
        sublayers = {
            "norm_z": lambda: LayerNorm(dim),
            "sem_self": lambda: MultiHeadAttention(dim, heads, rng),
            "norm_z_mid": lambda: LayerNorm(dim),
            "sem_cross": lambda: MultiHeadAttention(dim, heads, rng),
            "norm_z_ffn": lambda: LayerNorm(dim),
            "sem_ffn": lambda: FeedForward(dim, semantic_ratio, rng),
        }
        used = {attr for step in self.steps for attr in step[:2]}
        for attr, make in sublayers.items():
            if attr in used:
                setattr(self, attr, make())
        # pixel pathway
        self.norm_x_pix = LayerNorm(dim)
        self.norm_z_out = LayerNorm(dim)
        self.pix_cross = MultiHeadAttention(dim, heads, rng)
        self.norm_x_ffn = LayerNorm(dim)
        self.pix_ffn = FeedForward(dim, pixel_ratio, rng)

    def _semantic_pathway(self, x: Tensor, z: Tensor) -> Tensor:
        xn = self.norm_x_sem(x)
        for norm, sublayer, source in self.steps:
            zn = getattr(self, norm)(z)
            layer = getattr(self, sublayer)
            if source is None:
                update = layer(zn)
            else:
                update = layer(zn, xn if source == "x" else zn)
            z = T.add(update, z)
        return z

    def __call__(self, x: FeatureMap, z: SemanticTokens) -> tuple[FeatureMap, SemanticTokens]:
        if x.channels != z.channels:
            raise ConfigError(
                f"pathway channel mismatch: pixel {x.channels} vs semantic {z.channels}"
            )
        z_next = self._semantic_pathway(x.tokens, z.tokens)
        xn = self.norm_x_pix(x.tokens)
        zn = self.norm_z_out(z_next)
        x_mid = T.add(self.pix_cross(xn, zn), x.tokens)
        x_next = T.add(self.pix_ffn(self.norm_x_ffn(x_mid)), x_mid)
        return FeatureMap(x_next, x.height, x.width), SemanticTokens(z_next)


class MergeBlock(Module):
    def __init__(self, dim: int, heads: int, pixel_ratio: int, semantic_ratio: int,
                 rng: np.random.Generator):
        self.norm_joint = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.norm_x = LayerNorm(dim)
        self.ffn_x = FeedForward(dim, pixel_ratio, rng)
        self.norm_z = LayerNorm(dim)
        self.ffn_z = FeedForward(dim, semantic_ratio, rng)

    def __call__(self, x: FeatureMap, z: SemanticTokens) -> tuple[FeatureMap, SemanticTokens]:
        n, m = x.tokens.shape[-2], z.count
        joint = T.concat([x.tokens, z.tokens])
        yn = self.norm_joint(joint)
        mixed = T.add(self.attn(yn, yn), joint)
        x_mid, z_mid = T.split(mixed, [n, m])
        x_next = T.add(self.ffn_x(self.norm_x(x_mid)), x_mid)
        z_next = T.add(self.ffn_z(self.norm_z(z_mid)), z_mid)
        return FeatureMap(x_next, x.height, x.width), SemanticTokens(z_next)


class PatchEmbed(Module):
    """Flatten non-overlapping p×p patches, project to the new width, LN."""

    def __init__(self, in_channels: int, patch: int, out_channels: int,
                 rng: np.random.Generator):
        self.patch = patch
        self.proj = Linear(patch * patch * in_channels, out_channels, rng)
        self.norm = LayerNorm(out_channels)

    def __call__(self, x: FeatureMap) -> FeatureMap:
        p = self.patch
        if x.height % p != 0 or x.width % p != 0:
            raise InputError(
                f"spatial extent {x.height}x{x.width} not divisible by patch size {p}"
            )
        b = x.tokens.shape[0]
        h_out, w_out = x.height // p, x.width // p
        c = x.channels
        grid = T.reshape(x.tokens, (b, h_out, p, w_out, p, c))
        patches = T.transpose(grid, (0, 1, 3, 2, 4, 5))
        flat = T.reshape(patches, (b, h_out * w_out, p * p * c))
        return FeatureMap(self.norm(self.proj(flat)), h_out, w_out)


class SemanticTransition(Module):
    """Carry semantic tokens across a stage boundary: linear projection + LN."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.proj = Linear(in_channels, out_channels, rng)
        self.norm = LayerNorm(out_channels)

    def __call__(self, z: SemanticTokens) -> SemanticTokens:
        return SemanticTokens(self.norm(self.proj(z.tokens)))
