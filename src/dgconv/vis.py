"""Plot-ready data export for gating behaviour on an image set.

Collects per-head saliency matrices, boolean keep/prune decision maps,
per-channel deactivation probabilities, per-layer realized pruning
rates, and optional input-to-output contribution matrices from a
trained network, then writes them as CSV matrices and binary PGM
images.  Readers for both formats are provided so every emitted file
round-trips losslessly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import im2col
from .dgc import GlobalGating, HeadwiseGating, shuffled_filters
from .model import DgcNetwork

__all__ = [
    "VisualizationBundle",
    "collect_bundle",
    "contribution_matrix",
    "export_bundle",
    "read_matrix_csv",
    "read_pgm",
    "write_matrix_csv",
    "write_pgm",
]


def write_matrix_csv(path: str, matrix: np.ndarray,
                     comments: tuple[str, ...] | list[str] = ()) -> None:
    """Write a 2-D float matrix as comma-separated rows.

    Comment lines are prefixed with '# '.  Values are written with
    repr so reading the file back reproduces them bit for bit.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {arr.shape}")
    with open(path, "w", encoding="ascii") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path: str) -> tuple[np.ndarray, list[str]]:
    """Read a matrix written by write_matrix_csv; returns (matrix, comments)."""
    comments, rows = [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}: bad number on line {lineno}") from exc
    if not rows:
        raise ValueError(f"{path}: no matrix rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} values, "
                             f"expected {width}")
    return np.array(rows, dtype=float), comments


def write_pgm(path: str, bits: np.ndarray,
              comments: tuple[str, ...] | list[str] = ()) -> None:
    """Write a boolean map as a binary PGM (P5) image.

    True (kept channel) maps to white (255), False (pruned) to black.
    """
    arr = np.asarray(bits)
    if arr.ndim != 2 or arr.size == 0 or arr.dtype != np.bool_:
        raise ValueError(
            f"expected a non-empty 2-D boolean map, got {arr.dtype} "
            f"shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        for line in comments:
            fh.write(f"# {line}\n".encode("ascii"))
        fh.write(f"{w} {h}\n255\n".encode("ascii"))
        fh.write((arr.astype(np.uint8) * 255).tobytes())


def read_pgm(path: str) -> tuple[np.ndarray, list[str]]:
    """Read a PGM written by write_pgm; returns (boolean map, comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    comments: list[str] = []
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise ValueError(f"{path}: unterminated PGM comment")
            comments.append(data[pos + 1:end].decode("ascii").strip())
            pos = end + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    w, h, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1
    pixels = data[pos:]
    if len(pixels) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, found {len(pixels)}")
    raw = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    bad = np.setdiff1d(np.unique(raw), [0, 255])
    if bad.size:
        raise ValueError(f"{path}: non-boolean pixel values {bad.tolist()}")
    return raw == 255, comments


@dataclass
class VisualizationBundle:
    """Arrays backing the exported files.

    saliencies[b] is (images, heads, channels); decisions[b] the
    matching boolean keep map; deactivation_probability[b] is
    (heads, channels) with the fraction of images that pruned the
    channel in that head; contributions[b] is (out_channels,
    in_channels) mean single-pair activation.
    """
    block_indices: tuple[int, ...]
    saliencies: dict[int, np.ndarray]
    decisions: dict[int, np.ndarray]
    deactivation_probability: dict[int, np.ndarray]
    realized_rates: dict[int, float]
    contributions: dict[int, np.ndarray]
    sample_count: int


def _contribution_bank(net: DgcNetwork, block: int) -> np.ndarray:
    """Full (C', C, k, k) filter bank for a conv or dgc block; row o of
    a dgc block's bank produces output channel o after the shuffle."""
    valid = [i for i, blk in enumerate(net.blocks)
             if blk.spec.kind in ("conv", "dgc")]
    if block not in valid:
        raise ValueError(f"block {block} has no contribution matrix; "
                         f"valid indices: {valid}")
    blk = net.blocks[block]
    if blk.spec.kind == "conv":
        return blk.weights
    return shuffled_filters(blk.dgc)


def contribution_matrix(net: DgcNetwork, block: int,
                        block_input: np.ndarray) -> np.ndarray:
    """Mean input-to-output channel contributions for one block.

    Entry (o, i) is the average value of the activation map obtained
    by convolving input channel i with the single filter slice that
    feeds output channel o, averaged over the image set.
    """
    bank = _contribution_bank(net, block)
    spec = net.blocks[block].spec
    cols, oh, ow = im2col(block_input, spec.kernel_size, spec.stride,
                          spec.padding)
    cout, cin, k, _ = bank.shape
    # The map of (o, i) is linear in the patches, so its mean is the
    # filter slice applied to the mean patch.
    patch_sum = cols.sum(axis=(0, 2)).reshape(cin, k * k)
    sums = np.einsum("ik,oik->oi", patch_sum, bank.reshape(cout, cin, k * k))
    return sums / (cols.shape[0] * oh * ow)


def collect_bundle(net: DgcNetwork, images: np.ndarray,
                   gating: HeadwiseGating | GlobalGating,
                   contribution_blocks: tuple[int, ...] = (),
                   batch_size: int = 64) -> VisualizationBundle:
    """Run the network in inference mode and collect gating statistics."""
    if images.ndim != 4 or images.shape[0] == 0:
        raise ValueError(f"expected a non-empty (N, C, H, W) image set, "
                         f"got shape {images.shape}")
    for block in contribution_blocks:
        _contribution_bank(net, block)
    dgc_blocks = tuple(net.dgc_indices)
    sal_parts: dict[int, list[np.ndarray]] = {i: [] for i in dgc_blocks}
    mask_parts: dict[int, list[np.ndarray]] = {i: [] for i in dgc_blocks}
    contrib_sums: dict[int, np.ndarray] = {}
    contrib_counts: dict[int, int] = {}
    for start in range(0, images.shape[0], batch_size):
        batch = images[start:start + batch_size]
        fwd = net.forward(batch, gating=gating, training=False)
        for i in dgc_blocks:
            layer_fwd = fwd.dgc_fwds[i]
            sal_parts[i].append(np.stack(layer_fwd.saliencies, axis=1))
            mask_parts[i].append(np.stack(layer_fwd.masks, axis=1))
        for block in contribution_blocks:
            x_in = fwd.block_inputs[block]
            part = contribution_matrix(net, block, x_in)
            if block in contrib_sums:
                contrib_sums[block] += part * x_in.shape[0]
                contrib_counts[block] += x_in.shape[0]
            else:
                contrib_sums[block] = part * x_in.shape[0]
                contrib_counts[block] = x_in.shape[0]
    saliencies = {i: np.concatenate(sal_parts[i]) for i in dgc_blocks}
    decisions = {i: np.concatenate(mask_parts[i]) for i in dgc_blocks}
    probs = {i: 1.0 - decisions[i].mean(axis=0) for i in dgc_blocks}
    rates = {i: float(1.0 - decisions[i].mean()) for i in dgc_blocks}
    contribs = {b: contrib_sums[b] / contrib_counts[b]
                for b in contribution_blocks}
    return VisualizationBundle(dgc_blocks, saliencies, decisions, probs,
                               rates, contribs, int(images.shape[0]))


def export_bundle(bundle: VisualizationBundle, out_dir: str,
                  seed: int) -> list[str]:
    """Write the bundle under out_dir; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = [f"seed={seed}", f"images={bundle.sample_count}"]
    written = []

    def emit_csv(name: str, matrix: np.ndarray, desc: str) -> None:
        path = os.path.join(out_dir, name)
        write_matrix_csv(path, matrix, comments=[desc] + base)
        written.append(path)

    for i in bundle.block_indices:
        sal = bundle.saliencies[i]
        n, h, c = sal.shape
        layout = f"rows=image-major, {h} head rows per image; cols=channels"
        emit_csv(f"layer{i:02d}_saliency.csv", sal.reshape(n * h, c),
                 f"saliency block={i} {layout}")
        path = os.path.join(out_dir, f"layer{i:02d}_decisions.pgm")
        write_pgm(path, bundle.decisions[i].reshape(n * h, c),
                  comments=[f"decisions block={i} white=kept {layout}"] + base)
        written.append(path)
        emit_csv(f"layer{i:02d}_deactivation.csv",
                 bundle.deactivation_probability[i],
                 f"deactivation probability block={i} rows=heads cols=channels")
    rates = np.array([[float(i), bundle.realized_rates[i]]
                      for i in bundle.block_indices])
    emit_csv("realized_rates.csv", rates,
             "realized pruning rate per block; cols=block_index,rate")
    for block in sorted(bundle.contributions):
        emit_csv(f"layer{block:02d}_contributions.csv",
                 bundle.contributions[block],
                 f"mean contribution block={block} rows=output channels "
                 f"cols=input channels")
    return written
