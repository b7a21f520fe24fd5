"""Full four-stage backbones: stage specs, named presets, forward pass, ablations.

Stages 1-2 stack DualBlocks (threading the semantic tokens block to block),
stages 3-4 stack MergeBlocks. Every stage starts with a patch embedding;
stage boundaries also project the semantic tokens to the new channel width.
Classification pools over the concatenated pixel+semantic output tokens,
then LN, then a linear head.

Preset channel/head/depth/ratio tables follow the published S/B/L variants;
``tiny`` is a desk-scale config for tests. The default input resolution is
224: the cumulative patch stride is 32, so the resolution must be a multiple
of it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import tensor as T
from .blocks import (DualBlock, FeatureMap, MergeBlock, PatchEmbed, SemanticTokens,
                     SemanticTransition)
from .errors import ConfigError, FormatError, InputError
from .nn import LayerNorm, Linear, Module, trunc_normal
from .tensor import Tensor


def _kind(index: int) -> str:
    """Block kind of stage ``index`` (0-based): dual for stages 1-2, merge after."""
    return "dual" if index < 2 else "merge"


def _check_positive_ints(obj, names, where: str = "") -> None:
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int or value < 1:
            raise ConfigError(f"{where}{name} must be a positive integer, got {value!r}")


@dataclass
class StageSpec:
    depth: int
    heads: int
    channels: int
    ffn_ratio_pixel: int
    ffn_ratio_semantic: int
    patch_size: int
    kind: str = "dual"  # "dual" or "merge"

    def validate(self, index: int) -> None:
        _check_positive_ints(self, [f.name for f in fields(self) if f.name != "kind"],
                             f"stage {index + 1}: ")
        if self.channels % self.heads != 0:
            raise ConfigError(
                f"stage {index + 1}: channels {self.channels} not divisible by "
                f"{self.heads} heads"
            )
        if self.kind != _kind(index):
            raise ConfigError(
                f"stage {index + 1}: kind must be {_kind(index)!r}, got {self.kind!r}"
            )


@dataclass
class ModelConfig:
    stages: list[StageSpec]
    m: int = 32
    num_classes: int = 1000
    resolution: int = 224
    pos_embed: bool = True
    seed: int = 0

    def validate(self) -> None:
        if len(self.stages) != 4:
            raise ConfigError(f"expected 4 stages, got {len(self.stages)}")
        for i, s in enumerate(self.stages):
            s.validate(i)
        _check_positive_ints(self, ("m", "num_classes", "resolution"))
        if type(self.pos_embed) is not bool:
            raise ConfigError(f"pos_embed must be true or false, got {self.pos_embed!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.resolution % self.total_stride() != 0:
            raise ConfigError(
                f"resolution {self.resolution} not divisible by cumulative "
                f"stride {self.total_stride()}"
            )

    def total_stride(self) -> int:
        return math.prod(s.patch_size for s in self.stages)

    def token_counts(self) -> list[int]:
        res = self.resolution
        counts = []
        for s in self.stages:
            res //= s.patch_size
            counts.append(res * res)
        return counts

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw) -> "ModelConfig":
        """Parse and validate a JSON-style config: the only way from a dict.

        Structural faults (not an object, unknown or missing keys, stages not
        a list of objects) raise FormatError; bad values raise ConfigError.
        A stage's ``kind`` may be omitted: it follows from the stage index.
        """
        if not isinstance(raw, dict):
            raise FormatError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise FormatError(f"unknown config keys: {sorted(unknown)}")
        stages = raw.get("stages")
        if not isinstance(stages, list) or not all(isinstance(s, dict) for s in stages):
            raise FormatError("config 'stages' must be a list of objects")
        stage_keys = {f.name for f in fields(StageSpec)}
        specs = []
        for i, s in enumerate(stages):
            extra = set(s) - stage_keys
            if extra:
                raise FormatError(f"stage {i + 1}: unknown keys {sorted(extra)}")
            missing = stage_keys - {"kind"} - set(s)
            if missing:
                raise FormatError(f"stage {i + 1}: missing keys {sorted(missing)}")
            specs.append(StageSpec(**{"kind": _kind(i), **s}))
        cfg = cls(**{**raw, "stages": specs})
        cfg.validate()
        return cfg


# Stage columns of each preset, one value per stage: depth, heads, channels,
# pixel FFN ratio, semantic FFN ratio, patch size. Then the top-level fields
# that differ from the ModelConfig defaults.
_PRESETS = {
    "S": (((3, 4, 6, 3), (2, 4, 10, 14), (64, 128, 320, 448),
           (8, 8, 4, 3), (4, 4, 2, 2), (4, 2, 2, 2)), {}),
    "B": (((3, 4, 15, 3), (2, 4, 10, 16), (64, 128, 320, 512),
           (8, 8, 4, 3), (4, 4, 2, 2), (4, 2, 2, 2)), {}),
    "L": (((3, 6, 21, 3), (3, 6, 12, 16), (96, 192, 384, 512),
           (8, 8, 4, 3), (4, 4, 2, 2), (4, 2, 2, 2)), {}),
    "tiny": (((1, 1, 1, 1), (2, 2, 4, 4), (16, 32, 48, 64),
              (4, 4, 4, 4), (2, 2, 2, 2), (4, 2, 2, 2)),
             {"m": 4, "num_classes": 8, "resolution": 32}),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str, **overrides) -> ModelConfig:
    """A named preset, with any top-level ``ModelConfig`` field overridden."""
    presets = {key.lower(): preset for key, preset in _PRESETS.items()}
    if name.lower() not in presets:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESET_NAMES)}")
    columns, top_level = presets[name.lower()]
    unknown = set(overrides) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    stages = [StageSpec(*row, kind=_kind(i)) for i, row in enumerate(zip(*columns))]
    cfg = replace(ModelConfig(stages, **top_level), **overrides)
    cfg.validate()
    return cfg


class DualViT(Module):
    def __init__(self, config: ModelConfig, variant: str = "D"):
        config.validate()
        self.config = config
        self.variant = variant
        rng = np.random.default_rng(config.seed)

        self.patch_embeds: list[PatchEmbed] = []
        self.transitions: list[SemanticTransition] = []
        self.stage_blocks: list[list[Module]] = []
        in_ch = 3
        for i, spec in enumerate(config.stages):
            self.patch_embeds.append(PatchEmbed(in_ch, spec.patch_size, spec.channels, rng))
            if i == 0:
                self.z0 = Tensor(trunc_normal(rng, (1, config.m, spec.channels)),
                                 requires_grad=True)
                if config.pos_embed:
                    self.pos_embed = Tensor(trunc_normal(
                        rng, (1, config.token_counts()[0], spec.channels)), requires_grad=True)
            else:
                self.transitions.append(SemanticTransition(in_ch, spec.channels, rng))
            blocks: list[Module] = []
            for _ in range(spec.depth):
                if spec.kind == "dual":
                    blocks.append(DualBlock(spec.channels, spec.heads,
                                            spec.ffn_ratio_pixel, spec.ffn_ratio_semantic,
                                            rng, variant=variant))
                else:
                    blocks.append(MergeBlock(spec.channels, spec.heads,
                                             spec.ffn_ratio_pixel, spec.ffn_ratio_semantic,
                                             rng))
            self.stage_blocks.append(blocks)
            in_ch = spec.channels
        self.head_norm = LayerNorm(in_ch)
        self.head = Linear(in_ch, config.num_classes, rng)

    def named_parameters(self, prefix: str = ""):
        # explicit ordering: stable paths for checkpoints and cost breakdowns
        yield prefix + "z0", self.z0
        if self.config.pos_embed:
            yield prefix + "pos_embed", self.pos_embed
        for i, pe in enumerate(self.patch_embeds):
            yield from pe.named_parameters(f"{prefix}stages.{i}.patch_embed.")
        for i, tr in enumerate(self.transitions):
            yield from tr.named_parameters(f"{prefix}stages.{i + 1}.transition.")
        for i, blocks in enumerate(self.stage_blocks):
            for j, blk in enumerate(blocks):
                yield from blk.named_parameters(f"{prefix}stages.{i}.blocks.{j}.")
        yield from self.head_norm.named_parameters(prefix + "head_norm.")
        yield from self.head.named_parameters(prefix + "head.")

    def features(self, images) -> tuple[FeatureMap, SemanticTokens]:
        """Run the stage pipeline, returning final pixel and semantic tokens."""
        x = images if isinstance(images, Tensor) else Tensor(images, dtype=self.z0.data.dtype)
        if x.data.ndim != 4 or x.shape[-1] != 3:
            raise InputError(f"expected images of shape (B, H, W, 3), got {x.shape}")
        b, h, w, _ = x.shape
        if h != self.config.resolution or w != self.config.resolution:
            raise InputError(
                f"model built for {self.config.resolution}x{self.config.resolution} "
                f"input, got {h}x{w}"
            )
        fm = FeatureMap(T.reshape(x, (b, h * w, 3)), h, w)
        z: SemanticTokens | None = None
        for i in range(4):
            fm = self.patch_embeds[i](fm)
            if i == 0:
                if self.config.pos_embed:
                    fm = FeatureMap(T.add(fm.tokens, self.pos_embed), fm.height, fm.width)
                z = SemanticTokens(_tile_batch(self.z0, b))
            else:
                z = self.transitions[i - 1](z)
            for blk in self.stage_blocks[i]:
                fm, z = blk(fm, z)
        return fm, z

    def __call__(self, images) -> Tensor:
        fm, z = self.features(images)
        pooled = T.mean(T.concat([fm.tokens, z.tokens]), axis=-2)
        return self.head(self.head_norm(pooled))


def _tile_batch(t: Tensor, batch: int) -> Tensor:
    """Broadcast a (1, m, d) parameter across the batch, keeping gradients."""
    zeros = Tensor(np.zeros((batch,) + t.shape[1:], dtype=t.data.dtype))
    return T.add(t, zeros)


def build_model(config: ModelConfig, variant: str = "D") -> DualViT:
    return DualViT(config, variant=variant)
