"""Datasets and serialization: synthetic data, the DVDS container, checkpoints.

DVDS v1 (packed image dataset, little-endian throughout):
    magic "DVDS" | u32 version=1 | u32 N | u16 H | u16 W | u16 channels=3
    | u16 classes | N records of (u16 label + H*W*3 bytes, row-major,
    pixel value = byte / 255)

DVCP v2 (checkpoint):
    magic "DVCP" | u32 version=2 | u32 manifest_len | manifest JSON (UTF-8:
    model config echo, ablation variant, ordered entries of name + shape)
    | concatenated raw little-endian float32 payloads in entry order
    | u32 CRC32 of every preceding byte (header, manifest and payload)

Only v2 is read: the v1 CRC left the manifest unchecked. The payload is the
bytes of the model's parameter arena (``Module.astype``): saving writes it once
under the CRC. Loading checks the CRC through a fixed 1 MiB buffer, then reads
the payload in one read into the arena of a model built without drawing a
weight, as the payload overwrites every parameter.

Both round trips are bit-exact. Synthetic images are quantized to the
byte grid so that a DVDS round trip reproduces them exactly.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import ConfigError, FormatError, allocation_refused_as
from .model import DualViT, ModelConfig, _unfilled

DVDS_MAGIC = b"DVDS"
DVCP_MAGIC = b"DVCP"
DVCP_VERSION = 2


@dataclass
class Dataset:
    images: np.ndarray  # (N, H, W, 3) float32 in [0, 1]
    labels: np.ndarray  # (N,) int
    num_classes: int

    def __post_init__(self):
        if len(self.labels) < 1:
            raise FormatError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise FormatError("labels out of range for class count")


def class_means(num_classes: int, resolution: int, seed: int = 0) -> np.ndarray:
    """Clean per-class mean images: one Gaussian blob per class.

    Blob center, radius and channel color are drawn per class from the seeded
    generator, so distinct classes get distinct patterns.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:resolution, 0:resolution].astype(np.float64)
    means = np.zeros((num_classes, resolution, resolution, 3), dtype=np.float64)
    for c in range(num_classes):
        cy, cx = rng.uniform(0.2, 0.8, size=2) * resolution
        sigma = rng.uniform(0.12, 0.25) * resolution
        color = rng.uniform(0.3, 1.0, size=3)
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        means[c] = 0.1 + 0.8 * blob[..., None] * color
    return means.astype(np.float32)


def make_synthetic(num_classes: int, per_class: int, resolution: int,
                   seed: int = 0) -> Dataset:
    """Class-conditional blob images plus Gaussian noise (std 0.1), byte-quantized."""
    rng = np.random.default_rng(seed)
    means = class_means(num_classes, resolution, seed)
    images = []
    labels = []
    for c in range(num_classes):
        noise = 0.1 * rng.standard_normal((per_class, resolution, resolution, 3))
        imgs = np.clip(means[c] + noise, 0.0, 1.0)
        images.append(imgs)
        labels.extend([c] * per_class)
    stacked = np.concatenate(images, axis=0)
    quantized = np.round(stacked * 255.0).astype(np.uint8)
    return Dataset(images=(quantized / 255.0).astype(np.float32),
                   labels=np.asarray(labels, dtype=np.int64),
                   num_classes=num_classes)


# ---------------------------------------------------------------------------
# DVDS packed dataset container
# ---------------------------------------------------------------------------

_DVDS_HEADER = struct.Struct("<4sIIHHHH")


def _dvds_record(h: int, w: int) -> np.dtype:
    """One DVDS record: a u16 label, then the H x W x 3 pixel bytes."""
    try:
        return np.dtype([("label", "<u2"), ("pixels", "u1", (h, w, 3))])
    except ValueError as exc:
        raise FormatError(f"DVDS images of {h}x{w} pixels do not fit a record: {exc}") from exc


def save_packed_dataset(dataset: Dataset, path: str) -> None:
    n, h, w, c = dataset.images.shape
    if c != 3:
        raise FormatError(f"DVDS v1 stores 3-channel images, got {c}")
    header = _DVDS_HEADER.pack(DVDS_MAGIC, 1, n, h, w, 3, dataset.num_classes)
    records = np.empty(n, dtype=_dvds_record(h, w))
    records["label"] = dataset.labels
    records["pixels"] = np.round(dataset.images * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(header + records.tobytes())


def load_packed_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _DVDS_HEADER.size:
        raise FormatError(
            f"truncated DVDS header: need {_DVDS_HEADER.size} bytes, got {len(blob)}"
        )
    magic, version, n, h, w, c, classes = _DVDS_HEADER.unpack_from(blob, 0)
    if magic != DVDS_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {DVDS_MAGIC!r}")
    if version != 1:
        raise FormatError(f"unsupported DVDS version {version} at byte 4")
    if c != 3:
        raise FormatError(f"DVDS v1 requires 3 channels, file declares {c}")
    record = _dvds_record(h, w)
    expected = _DVDS_HEADER.size + n * record.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"DVDS payload length mismatch: expected {expected} bytes, "
            f"got {len(blob)} (first bad offset {min(expected, len(blob))})"
        )
    records = np.frombuffer(blob, dtype=record, count=n, offset=_DVDS_HEADER.size)
    # A float32 quotient of a byte by 255 equals the float64 one rounded to
    # float32, without a float64 copy of the whole set.
    return Dataset(images=records["pixels"] / np.float32(255.0),
                   labels=records["label"].astype(np.int64), num_classes=classes)


# ---------------------------------------------------------------------------
# DVCP checkpoint container
# ---------------------------------------------------------------------------

def save_checkpoint(model: DualViT, path: str) -> None:
    params = list(model.named_parameters())
    manifest = json.dumps({
        "config": model.config.to_dict(),
        "variant": model.variant,
        "entries": [{"name": name, "shape": list(p.data.shape)} for name, p in params],
    }).encode("utf-8")
    head = DVCP_MAGIC + struct.pack("<II", DVCP_VERSION, len(manifest)) + manifest
    payload = np.asarray(model.checked_arena(), "<f4")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


_CRC_CHUNK = 1 << 20


def _read_checkpoint(fh) -> tuple[dict, int]:
    """Check the header, CRC and manifest of the DVCP file open as ``fh``.

    Returns the manifest and the payload's float32 count and leaves ``fh`` at
    the payload. The CRC pass streams the file through one fixed buffer, so
    the payload is never held in memory here.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12:
        raise FormatError(f"truncated DVCP header: need 12 bytes, got {len(head)}")
    if head[:4] != DVCP_MAGIC:
        raise FormatError(f"bad magic {head[:4]!r}, expected {DVCP_MAGIC!r}")
    version, manifest_len = struct.unpack_from("<II", head, 4)
    if version != DVCP_VERSION:
        raise FormatError(f"unsupported DVCP version {version}: this reader reads "
                          f"version {DVCP_VERSION} only")
    manifest_end = 12 + manifest_len
    if size < manifest_end + 4:
        raise FormatError(
            f"truncated DVCP file: a {manifest_len}-byte manifest needs at least "
            f"{manifest_end + 4} bytes, got {size}"
        )
    raw = fh.read(manifest_len)
    crc = zlib.crc32(raw, zlib.crc32(head))
    buf = memoryview(bytearray(_CRC_CHUNK))
    for start in range(manifest_end, size - 4, _CRC_CHUNK):
        n = fh.readinto(buf[:min(_CRC_CHUNK, size - 4 - start)])
        crc = zlib.crc32(buf[:n], crc)
    if fh.read(4) != struct.pack("<I", crc):
        raise FormatError("checkpoint checksum mismatch")
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"checkpoint manifest is not UTF-8 JSON: {exc}") from exc
    _check_manifest(manifest)
    payload_len = size - 4 - manifest_end
    if payload_len % 4:
        raise FormatError(f"checkpoint payload of {payload_len} bytes is not float32 data")
    fh.seek(manifest_end)
    return manifest, payload_len // 4


def _read_floats(fh, out: np.ndarray) -> None:
    """Fill ``out`` with the next ``out.size`` little-endian float32 values of ``fh``."""
    direct = out.dtype == np.dtype("<f4") and out.flags.c_contiguous
    raw = out if direct else np.empty(out.shape, "<f4")
    if fh.readinto(raw) != raw.nbytes:
        raise FormatError("checkpoint payload shorter than manifest describes")
    if not direct:
        out[...] = raw


def _check_manifest(manifest) -> None:
    if not isinstance(manifest, dict):
        raise FormatError("checkpoint manifest must be a JSON object")
    missing = {"config", "variant", "entries"} - set(manifest)
    if missing:
        raise FormatError(f"checkpoint manifest missing keys {sorted(missing)}")
    if not isinstance(manifest["variant"], str):
        raise FormatError(f"checkpoint variant must be a string, got {manifest['variant']!r}")
    entries = manifest["entries"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list) for e in entries):
        raise FormatError("checkpoint entries must be a list of {name, shape} objects")


def load_checkpoint(path: str) -> DualViT:
    """Rebuild the model described by the checkpoint's config echo.

    The model is built with no weight drawn: it is returned only once the
    checks below have passed and the payload has overwritten every parameter.
    """
    with open(path, "rb") as fh:
        manifest, count = _read_checkpoint(fh)
        with allocation_refused_as(ConfigError, "config"):
            model = _unfilled(ModelConfig.from_dict(manifest["config"]),
                              manifest["variant"]).astype(np.float32)
        params = list(model.named_parameters())
        listed = [entry["name"] for entry in manifest["entries"]]
        names = [name for name, _ in params]
        if listed != names:
            i, got, want = next((i, got, want) for i, (got, want)
                                in enumerate(zip_longest(listed, names)) if got != want)
            raise FormatError(f"checkpoint entry {i} is {got!r}, expected {want!r}: entries "
                              "must name every model parameter once, in model order")
        for entry, (name, p) in zip(manifest["entries"], params):
            shape = tuple(entry["shape"])
            if p.data.shape != shape:
                raise ConfigError(
                    f"shape mismatch for {name!r}: checkpoint {shape}, model {p.data.shape}"
                )
        if count != model.arena.size:
            side = "shorter" if count < model.arena.size else "longer"
            raise FormatError(f"checkpoint payload {side} than manifest describes")
        _read_floats(fh, model.arena)
    return model
