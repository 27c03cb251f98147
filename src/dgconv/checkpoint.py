"""Checkpoint persistence: versioned header, JSON manifest, float64 blob.

File layout:

    line 1: ``DGCKPT 1``                      version header
    line 2: manifest byte length (decimal)
    manifest: one JSON object (see below)
    blob: little-endian float64 values, tightly packed

The manifest holds the serialized config (which carries the epoch count
and target prune rate), the epoch counter, the global-threshold state,
the RNG state, the per-channel ``mean`` and ``std`` that standardized the
training images (evaluation standardizes its inputs with them), and a
parameter table of ``[name, shape, offset]`` rows whose offsets
partition the blob exactly. Other keys, such as the ``schedule`` entry
older files carry, are ignored.
Model parameters, optimizer velocities (``opt.`` prefix), and batch-norm
running statistics (``state.`` prefix) all live in the same blob.

Writes go through a temporary file and an atomic rename, so a crashed
save never leaves a partial checkpoint behind.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig, parse_config, serialize_config
from .core import SGD
from .global_threshold import GlobalThresholdState
from .model import DgcNetwork

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint",
           "restore_network", "restore_optimizer", "restore_threshold"]

MAGIC = b"DGCKPT 1\n"
_MANIFEST_KEYS = ("config", "epoch", "bn_batches_tracked", "threshold",
                  "threshold_last_update", "rng_state", "mean", "std",
                  "params", "blob_elements")


@dataclass
class Checkpoint:
    config: TrainConfig
    epoch: int
    arrays: dict[str, np.ndarray]
    bn_batches_tracked: list[int]
    threshold: float | None
    threshold_last_update: int | None
    rng_state: dict
    stats: tuple[np.ndarray, np.ndarray]    # training (mean, std) per channel


def save_checkpoint(path: str, net: DgcNetwork, optimizer: SGD, epoch: int,
                    rng: np.random.Generator,
                    threshold_state: GlobalThresholdState | None = None, *,
                    stats: tuple[np.ndarray, np.ndarray]) -> None:
    """Serialize the full training state; atomic on POSIX rename. stats is
    the (mean, std) per image channel that standardized the training
    data."""
    arrays: dict[str, np.ndarray] = dict(net.parameters())
    arrays.update({f"opt.{k}": v for k, v in optimizer.velocities.items()})
    arrays.update({f"state.{k}": v for k, v in net.bn_state().items()})

    table, chunks, offset = [], [], 0
    for name, arr in arrays.items():
        table.append([name, list(arr.shape), offset])
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").ravel())
        offset += arr.size

    manifest = {
        "config": serialize_config(net.config),
        "epoch": int(epoch),
        "threshold": None if threshold_state is None else threshold_state.threshold,
        "threshold_last_update": None if threshold_state is None
        else threshold_state.last_update_epoch,
        "bn_batches_tracked": net.bn_batches_tracked(),
        "rng_state": rng.bit_generator.state,
        "mean": [float(v) for v in stats[0]],
        "std": [float(v) for v in stats[1]],
        "params": table,
        "blob_elements": offset,
    }
    payload = json.dumps(manifest).encode("ascii")

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(f"{len(payload)}\n".encode("ascii"))
            fh.write(payload)
            if chunks:
                fh.write(np.concatenate(chunks).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and validate a checkpoint file; any inconsistency between the
    manifest and the blob is rejected before state is handed out."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MAGIC:
            raise ValueError(f"{path}: bad header {magic!r}, expected "
                             f"{MAGIC.strip().decode()} checkpoint")
        try:
            length = int(fh.readline().strip())
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable manifest length") from exc
        if not 0 <= length <= os.fstat(fh.fileno()).st_size:
            raise ValueError(f"{path}: manifest length {length} out of range")
        payload = fh.read(length)
        if len(payload) != length:
            raise ValueError(f"{path}: truncated manifest")
        manifest = json.loads(payload)
        blob = fh.read()
    missing = [key for key in _MANIFEST_KEYS
               if not isinstance(manifest, dict) or key not in manifest]
    if missing:
        raise ValueError(f"{path}: manifest lacks {', '.join(missing)}")
    _check_manifest(path, manifest)

    elements = manifest["blob_elements"]
    if len(blob) != 8 * elements:
        raise ValueError(f"{path}: blob holds {len(blob)} bytes, manifest "
                         f"declares {8 * elements}")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)

    arrays: dict[str, np.ndarray] = {}
    expect = 0
    for name, shape, offset in manifest["params"]:
        if offset != expect:
            raise ValueError(f"{path}: manifest offsets do not partition the "
                             f"blob at {name!r} (offset {offset}, expected "
                             f"{expect})")
        expect = offset + math.prod(shape)
        if expect > elements:
            raise ValueError(f"{path}: parameter {name!r} ends at element "
                             f"{expect}, past the blob's {elements}")
        arrays[name] = flat[offset:expect].reshape(shape).copy()
    if expect != elements:
        raise ValueError(f"{path}: manifest covers {expect} of {elements} "
                         f"blob elements")

    mean, std = (np.array(manifest[key], dtype=np.float64)
                 for key in ("mean", "std"))
    if mean.size == 0 or std.shape != mean.shape or not np.all(std > 0):
        raise ValueError(f"{path}: manifest mean and std must be non-empty "
                         f"equal-length lists with std > 0")

    return Checkpoint(
        config=parse_config(manifest["config"]),
        epoch=manifest["epoch"],
        arrays=arrays,
        bn_batches_tracked=manifest["bn_batches_tracked"],
        threshold=manifest["threshold"],
        threshold_last_update=manifest["threshold_last_update"],
        rng_state=manifest["rng_state"],
        stats=(mean, std),
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        return False


def _check_manifest(path: str, manifest: dict) -> None:
    """Reject a manifest value of the wrong type or range with a
    ValueError naming its key; the RNG state must restore a PCG64."""
    def count(v):
        return _is_int(v) and v >= 0

    def counts(v):
        return isinstance(v, list) and all(count(e) for e in v)

    def finite_list(v):
        return isinstance(v, list) and all(_is_finite(e) for e in v)

    def param_row(row):
        return (isinstance(row, list) and len(row) == 3
                and isinstance(row[0], str) and counts(row[1])
                and count(row[2]))

    rules = {
        "config": ("config text", lambda v: isinstance(v, str)),
        "epoch": ("an integer >= 0", count),
        "bn_batches_tracked": ("a list of integers >= 0", counts),
        "threshold": ("null or a finite number",
                      lambda v: v is None or _is_finite(v)),
        "threshold_last_update": ("null or an integer",
                                  lambda v: v is None or _is_int(v)),
        "mean": ("a list of finite numbers", finite_list),
        "std": ("a list of finite numbers", finite_list),
        "params": ("a list of [name, shape, offset] rows",
                   lambda v: isinstance(v, list)
                   and all(param_row(r) for r in v)),
        "blob_elements": ("an integer >= 0", count),
    }
    for key, (want, ok) in rules.items():
        if not ok(manifest[key]):
            raise ValueError(f"{path}: manifest {key} must be {want}, got "
                             f"{manifest[key]!r:.60}")
    try:
        np.random.default_rng(0).bit_generator.state = manifest["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ValueError(f"{path}: manifest rng_state does not restore a "
                         f"PCG64 generator: {exc}") from exc


def _restore_arrays(ckpt: Checkpoint, targets: dict[str, np.ndarray],
                    what: str) -> None:
    """Copy the checkpoint array of each name in targets into it in place;
    a missing name or another shape raises ValueError naming it."""
    missing = [k for k in targets if k not in ckpt.arrays]
    if missing:
        raise ValueError(f"checkpoint lacks {what}: {missing[:3]}")
    for name, dst in targets.items():
        src = ckpt.arrays[name]
        if src.shape != dst.shape:
            raise ValueError(f"checkpoint array {name} has shape "
                             f"{src.shape}, model expects {dst.shape}")
        dst[...] = src


def restore_network(ckpt: Checkpoint) -> DgcNetwork:
    """Build the network declared by the checkpoint's config and load its
    parameters and batch-norm statistics in place."""
    net = DgcNetwork(ckpt.config, np.random.default_rng(ckpt.config.seed))
    targets = dict(net.parameters())
    targets.update({f"state.{k}": v for k, v in net.bn_state().items()})
    _restore_arrays(ckpt, targets, "parameters")
    net.set_bn_batches_tracked(ckpt.bn_batches_tracked)
    return net


def restore_optimizer(ckpt: Checkpoint, net: DgcNetwork) -> SGD:
    """An SGD over net's parameters with the checkpoint's velocities, which
    a bit-exact resume needs: missing or misshapen ones raise."""
    cfg = ckpt.config
    opt = SGD(params=net.parameters(), lr=cfg.lr, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay, no_decay=net.no_decay_names())
    _restore_arrays(ckpt, {f"opt.{k}": v for k, v in opt.velocities.items()},
                    "optimizer velocities")
    return opt


def restore_threshold(ckpt: Checkpoint) -> GlobalThresholdState:
    state = GlobalThresholdState(
        collection_iterations=ckpt.config.collection_iterations,
        batch_size=ckpt.config.batch_size)
    state.threshold = ckpt.threshold
    state.last_update_epoch = ckpt.threshold_last_update
    return state
