"""Reference computations the benchmark checks the program against.

Nothing here calls into dgconv: the convolution sums the k*k kernel taps
with einsum (no im2col), the saliency MLP, both gating rules, the channel
shuffle, the pruning schedule and the MAC count are written from the
method's definition.  Gated layers are computed in the dense masked form
(unselected channels zeroed, kept ones scaled by their saliency), which
equals the program's gathered form up to summation order.
"""

from __future__ import annotations

import math

import numpy as np


def rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference as a share of the largest |expected|."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return math.inf
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    diff = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    if not np.all(np.isfinite(actual)):
        return math.inf
    return diff / scale if scale > 0 else diff


def direct_conv(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Cross-correlation of x (N, C, H, W) with w (C', C, k, k), one
    einsum per kernel tap."""
    n, c, h, wd = x.shape
    k = w.shape[2]
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, w.shape[0], oh, ow))
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i:i + stride * (oh - 1) + 1:stride,
                     j:j + stride * (ow - 1) + 1:stride]
            y += np.einsum("nchw,oc->nohw", tap, w[:, :, i, j], optimize=True)
    return y


def saliency(x: np.ndarray, head, keep_sign: bool) -> np.ndarray:
    """Squeeze-expand scores (N, C) of one head from pooled channel means."""
    pooled = x.sum(axis=(2, 3)) / (x.shape[2] * x.shape[3])
    hidden = np.maximum(pooled @ head.w_squeeze.T + head.b_squeeze, 0.0)
    g = hidden @ head.w_expand.T + head.b_expand
    return g if keep_sign else np.maximum(g, 0.0)


def kept_count(channels: int, prune_rate: float) -> int:
    """ceil((1 - r) * C), with float noise below 1e-9 rounded away."""
    return math.ceil(round((1.0 - prune_rate) * channels, 9))


def topk_mask(g: np.ndarray, keep: int) -> np.ndarray:
    """Keep the `keep` largest scores of each row; ties go to the lower
    channel index.  A channel's rank counts the scores above it plus the
    equal scores at lower indices."""
    c = g.shape[1]
    above = (g[:, None, :] > g[:, :, None]).sum(axis=2)
    lower = np.tril(np.ones((c, c), dtype=bool), k=-1)
    tied_before = ((g[:, None, :] == g[:, :, None]) & lower).sum(axis=2)
    return above + tied_before < keep


def shuffle(head_outputs: list[np.ndarray]) -> np.ndarray:
    """Head h's output slot s lands on channel s * heads + h."""
    heads = len(head_outputs)
    n, co, oh, ow = head_outputs[0].shape
    out = np.empty((n, co * heads, oh, ow))
    for h, y in enumerate(head_outputs):
        out[:, h::heads] = y
    return out


def gated_layer(x: np.ndarray, layer, gate) -> tuple[np.ndarray, list[np.ndarray]]:
    """Output and per-head keep masks of one gated layer.

    ``gate`` is ("topk", prune_rate) or ("threshold", t).
    """
    cfg = layer.config
    keep_sign = gate[0] == "threshold"
    outs, masks = [], []
    for head in layer.heads:
        g = saliency(x, head, keep_sign)
        if keep_sign:
            mask = np.abs(g) >= gate[1]
        else:
            mask = topk_mask(g, kept_count(g.shape[1], gate[1]))
        scaled = x * np.where(mask, g, 0.0)[:, :, None, None]
        outs.append(direct_conv(scaled, head.filters, cfg.stride, cfg.padding))
        masks.append(mask)
    return shuffle(outs), masks


def batchnorm_eval(y: np.ndarray, bn) -> np.ndarray:
    scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    return (y - bn.running_mean[None, :, None, None]) * scale[None, :, None, None] \
        + bn.beta[None, :, None, None]


def network_eval(net, x: np.ndarray, gate) -> tuple[np.ndarray, dict[int, list[np.ndarray]]]:
    """Inference logits of a conv/dgc network and its gated-layer masks,
    keyed by block index."""
    masks = {}
    for i, blk in enumerate(net.blocks):
        spec = blk.spec
        if blk.dgc is not None:
            y, masks[i] = gated_layer(x, blk.dgc, gate)
        elif spec.kind == "conv":
            y = direct_conv(x, blk.weights, spec.stride, spec.padding)
        else:
            raise ValueError(f"oracle has no {spec.kind!r} block")
        x = np.maximum(batchnorm_eval(y, blk.bn), 0.0)
    pooled = x.mean(axis=(2, 3))
    return pooled @ net.fc_weight + net.fc_bias, masks


def grouped_conv(x: np.ndarray, w: np.ndarray, groups: int, stride: int,
                 pad: int) -> np.ndarray:
    """Group convolution as one direct convolution with a block-diagonal
    filter bank."""
    co, cig, k, _ = w.shape
    full = np.zeros((co, cig * groups, k, k))
    cog = co // groups
    for g in range(groups):
        full[g * cog:(g + 1) * cog, g * cig:(g + 1) * cig] = w[g * cog:(g + 1) * cog]
    return direct_conv(x, full, stride, pad)


def schedule_rate(epoch: int, epochs: int, target: float) -> float:
    """Three-stage sparsity schedule: 0 before E/12, a linear ramp to the
    target until 3E/4, then the target."""
    start, end = epochs / 12.0, 3.0 * epochs / 4.0
    if epoch < start:
        return 0.0
    if epoch >= end:
        return target
    return target * (epoch - start) / (end - start)


def gated_macs(c: int, cp: int, k: int, out_hw: int, heads: int, squeeze: int,
               kept_per_head: list[float]) -> int:
    """k^2 * kept * C'/heads * H'W' per head plus heads * 2C^2/d saliency
    MACs, each term rounded to an integer as the cost model reports it."""
    conv = sum(k * k * kept * (cp // heads) * out_hw for kept in kept_per_head)
    return round(conv) + heads * round(2 * c * c / squeeze)
