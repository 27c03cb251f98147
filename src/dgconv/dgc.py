"""Dynamic group convolution: multi-head saliency-gated sparse convolution.

A DGC layer splits its output channels across several heads. Each head
scores every input channel with a small squeeze-expand saliency generator,
keeps only the highest-scoring channels, amplifies the survivors by their
saliency, and convolves them with the matching slices of its filter bank.
Head h writes output channels h, h + heads, h + 2 * heads, ..., so the
layer's output is already channel-shuffled and downstream layers mix
information across heads.

Two gating modes exist:

* head-wise: each head keeps exactly ceil((1 - prune_rate) * C) channels,
  chosen per sample by top-k over non-negative saliencies;
* global: a single network-wide threshold on absolute saliency decides,
  so heads may keep uneven (possibly empty) channel sets and saliencies
  keep their sign (see dgconv.global_threshold).

Training folds the gate into per-sample filters W * g_hat (g_hat: the
saliency on kept channels, 0 elsewhere) and runs one im2col (the
channel-major (N, C*k*k, H'*W') patch matrix), one GEMM per sample for
all heads, wn[n] @ cols[n], whose output is already NCHW and, backward,
one col2im; the saliency gradient follows from
<col2im(G), x> = <G, im2col(x)>. The gate is repeated over the k*k taps
once per layer, so the gated filters and the filter gradient are
products along the contiguous C*k*k axis; both gradients are einsum
contractions of M[n] = grad_out[n] @ cols[n]^T. The per-sample work
runs in blocks of samples (GATED_BLOCK_ELEMENTS) so that a block's
filters wn and its M stay in cache through every operation on them; wn
is rebuilt in the backward, not kept. Filter slices of channels no
sample selected get exactly zero gradient. Evaluation runs three phases, each
timed by the batch-1 benchmark: saliency (pool once, every head's MLP),
index (gate; per head and kept count the sample rows, channel indices
and amplifications) and conv (per group the gathered banks and one
gathered_conv: a core.batched_conv with one bank per sample whose
per-sample GEMMs keep the batch-1 shape, shifted taps or im2col by core's
rule, the saliency scaling the slices as they are padded).

A forward's per-head saliencies and masks are the one record of its gate
decisions: dgc_backward reads the masks, and runtime.plan_from_forward
builds an index plan from one sample's rows and calls gathered_conv on
a stack of one, so plans reproduce evaluation bit for bit.

The standard group convolution baseline, sgc_forward, is
core.conv2d_forward with groups; its backward is core.conv2d_backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ConvFilter, batched_conv, col2im, conv2d_forward,
                   conv_output_size, im2col)

__all__ = [
    "DgcLayerConfig",
    "HeadParams",
    "DgcLayer",
    "HeadwiseGating",
    "GlobalGating",
    "init_dgc_layer",
    "gather_filters",
    "gathered_conv",
    "shuffled_filters",
    "channel_shuffle",
    "dgc_forward",
    "dgc_backward",
    "DgcForward",
    "DgcGrads",
    "lasso_loss_and_grad",
    "sgc_forward",
]

# Guards float representation error in expressions like (1 - 2/3) * 6 so the
# integer-valued cases of ceil/floor land on the mathematical answer.
_RANK_EPS = 1e-9


def kept_channels(in_channels: int, prune_rate: float) -> int:
    """Number of channels a head keeps: ceil((1 - prune_rate) * C)."""
    return int(math.ceil((1.0 - prune_rate) * in_channels - _RANK_EPS))


@dataclass(frozen=True)
class DgcLayerConfig:
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int = 0
    heads: int = 4
    squeeze: int = 16
    prune_rate: float = 0.75

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "kernel_size", "stride",
                     "heads", "squeeze"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.out_channels % self.heads != 0:
            raise ValueError(f"out_channels {self.out_channels} not divisible by "
                             f"heads {self.heads}")
        if self.in_channels % self.squeeze != 0:
            raise ValueError(f"in_channels {self.in_channels} not divisible by "
                             f"squeeze rate {self.squeeze}")
        if not 0.0 <= self.prune_rate < 1.0:
            raise ValueError(f"prune_rate must be in [0, 1), got {self.prune_rate}")
        if kept_channels(self.in_channels, self.prune_rate) < 1:
            raise ValueError("target prune rate keeps no channels")

    @property
    def head_out_channels(self) -> int:
        return self.out_channels // self.heads

    @property
    def squeezed(self) -> int:
        return self.in_channels // self.squeeze


@dataclass
class HeadParams:
    """One head: squeeze-expand saliency generator plus its filter bank."""

    w_squeeze: np.ndarray   # (C/d, C)
    b_squeeze: np.ndarray   # (C/d,)
    w_expand: np.ndarray    # (C, C/d)
    b_expand: np.ndarray    # (C,), the saliency bias
    filters: np.ndarray     # (C'/heads, C, k, k)


@dataclass
class DgcLayer:
    config: DgcLayerConfig
    heads: list[HeadParams]


def init_dgc_layer(config: DgcLayerConfig, rng: np.random.Generator) -> DgcLayer:
    """Fan-in-scaled normal init; the saliency bias starts at 0.1, so
    initial saliencies are non-degenerate."""
    c, cd, k = config.in_channels, config.squeezed, config.kernel_size
    heads = []
    for _ in range(config.heads):
        heads.append(HeadParams(
            w_squeeze=rng.normal(size=(cd, c)) * math.sqrt(2.0 / c),
            b_squeeze=np.zeros(cd),
            w_expand=rng.normal(size=(c, cd)) * math.sqrt(2.0 / cd),
            b_expand=np.full(c, 0.1),
            filters=rng.normal(size=(config.head_out_channels, c, k, k))
            * math.sqrt(2.0 / (c * k * k)),
        ))
    return DgcLayer(config, heads)


# ---------------------------------------------------------------------------
# Saliency generation
# ---------------------------------------------------------------------------

def _saliency(p: np.ndarray, head: HeadParams, keep_sign: bool):
    """Saliency MLP on pooled channel means p (N, C); returns the
    intermediates training caches, (z1, a1, z2, g), g last."""
    z1 = p @ head.w_squeeze.T + head.b_squeeze
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ head.w_expand.T + head.b_expand
    return z1, a1, z2, (z2 if keep_sign else np.maximum(z2, 0.0))


# ---------------------------------------------------------------------------
# Gating
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadwiseGating:
    prune_rate: float


@dataclass(frozen=True)
class GlobalGating:
    threshold: float


def _topk_mask(g: np.ndarray, k: int) -> np.ndarray:
    """Boolean keep-mask of the k largest entries per row, ties to lower index."""
    order = np.argsort(-g, axis=1, kind="stable")
    mask = np.zeros(g.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def gather_filters(filters: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Restrict a filter bank (C_out, C, k, k) to the given in-channel
    indices along axis 1. A plan's 1-D indices (kc,) give one C-contiguous
    bank (C_out, kc, k, k). 2-D indices (r, kc) give (C_out, r, kc, k, k),
    which _conv_phase moves to an (r, C_out, kc, k, k) view that is not
    C-contiguous: batched_conv's GEMMs read it with a row stride, and its
    shifted taps copy every bank into per-tap order either way."""
    if filters.ndim != 4:
        raise ValueError(f"filter bank must be 4-D, got {filters.shape}")
    return np.take(filters, np.asarray(indices, dtype=np.int64), axis=1)


def gathered_conv(x: np.ndarray, rows: np.ndarray | int,
                  indices: np.ndarray, amplify: np.ndarray,
                  banks: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """The sparse DGC kernel, (r, C_out, H', W') out: entry j of the stack
    is x[rows[j]] restricted to channels indices[j] (r, kc), scaled by
    amplify[j] (r, kc) and convolved with banks[j] (r, C_out, kc, k, k).
    core.batched_conv convolves the stack with one bank per entry; each
    entry's GEMMs keep the shape and C order a stack of one gives, so its
    output does not depend on the rest of the stack; kc = 0 gives zeros."""
    xs = x[np.reshape(rows, (-1, 1)), indices]
    return batched_conv(xs, banks, stride, padding, scale=amplify)


def shuffled_filters(layer: DgcLayer) -> np.ndarray:
    """The heads' filter banks stacked in output-channel order,
    (C', C, k, k): row o * heads + h is head h's filter o, the filter of
    output channel o * heads + h after the channel shuffle."""
    return np.stack([head.filters for head in layer.heads], axis=1).reshape(
        layer.config.out_channels, *layer.heads[0].filters.shape[1:])


def channel_shuffle(x: np.ndarray, heads: int) -> np.ndarray:
    """Interleave channels across head groups: (head h, slot s) -> s*heads + h."""
    n, c, h, w = x.shape
    if c % heads != 0:
        raise ValueError(f"channel count {c} not divisible by {heads} heads")
    return np.ascontiguousarray(
        x.reshape(n, heads, c // heads, h, w).transpose(0, 2, 1, 3, 4)).reshape(n, c, h, w)


# ---------------------------------------------------------------------------
# Layer forward / backward
# ---------------------------------------------------------------------------

@dataclass
class DgcForward:
    """Output of one DGC layer pass. saliencies and masks are the only
    record of the gate decisions: the backward pass, index plans and
    logging all read them."""

    output: np.ndarray
    saliencies: list[np.ndarray]        # per head, (N, C)
    masks: list[np.ndarray]             # per head, (N, C) bool
    keep_sign: bool
    _cache: dict | None = field(default=None, repr=False)

    @property
    def realized_prune_rate(self) -> float:
        kept = sum(int(m.sum()) for m in self.masks)
        total = sum(m.size for m in self.masks)
        return 1.0 - kept / total


def _gate_masks(g: np.ndarray, gating: HeadwiseGating | GlobalGating) -> np.ndarray:
    """Keep-masks of the saliency rows g (N, C): the top-k of each row
    (ties to the lower index) or every |saliency| at or above the global
    threshold."""
    if isinstance(gating, HeadwiseGating):
        if not 0.0 <= gating.prune_rate < 1.0:
            raise ValueError(f"prune_rate must be in [0, 1), got {gating.prune_rate}")
        return _topk_mask(g, kept_channels(g.shape[1], gating.prune_rate))
    # Global threshold keeps every |saliency| at or above it; may be empty.
    if not (np.isfinite(gating.threshold) and gating.threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {gating.threshold}")
    return np.abs(g) >= gating.threshold


def _saliency_phase(x: np.ndarray, layer: DgcLayer, keep_sign: bool):
    """Pool x once and run every head's saliency MLP on the channel means;
    returns the means and, per head, _saliency's (z1, a1, z2, g)."""
    p = x.mean(axis=(2, 3))
    return p, [_saliency(p, head, keep_sign) for head in layer.heads]


def _index_phase(layer: DgcLayer, saliencies: list[np.ndarray],
                 gating: HeadwiseGating | GlobalGating):
    """Gate every head; returns the masks and, per head, one
    (rows, indices, amplify) group per kept count: the samples, their
    kept channels (rows.size, kc) and those channels' saliencies."""
    masks = [_gate_masks(g, gating) for g in saliencies]
    groups = []
    for g, mask in zip(saliencies, masks):
        counts = mask.sum(axis=1)
        head_groups = []
        for kc in np.unique(counts):
            rows = np.flatnonzero(counts == kc)
            idx = np.nonzero(mask[rows])[1].reshape(rows.size, kc)
            head_groups.append((rows, idx, g[rows[:, None], idx]))
        groups.append(head_groups)
    return masks, groups


def _empty_output(x: np.ndarray, cfg: DgcLayerConfig) -> np.ndarray:
    k, stride, pad = cfg.kernel_size, cfg.stride, cfg.padding
    return np.empty((x.shape[0], cfg.out_channels,
                     conv_output_size(x.shape[2], k, stride, pad),
                     conv_output_size(x.shape[3], k, stride, pad)))


def _conv_phase(x: np.ndarray, layer: DgcLayer, groups) -> np.ndarray:
    """Per group of _index_phase, gather the filter banks and make one
    gathered_conv call, written into the head's shuffled output
    channels; a group that kept nothing writes zeros. Banks are gathered
    one group at a time, so a layer never holds every head's at once."""
    cfg = layer.config
    stride, pad = cfg.stride, cfg.padding
    out = _empty_output(x, cfg)
    for h, (head, head_groups) in enumerate(zip(layer.heads, groups)):
        dst = out[:, h::cfg.heads]      # head h's channels after the shuffle
        for rows, idx, amp in head_groups:
            if idx.shape[1] == 0:
                dst[rows] = 0.0
                continue
            banks = np.moveaxis(gather_filters(head.filters, idx), 1, 0)
            dst[rows] = gathered_conv(x, rows, idx, amp, banks, stride, pad)
    return out


# The training pass works through the batch in sample blocks, so a
# block's per-sample filters wn (and, backward, its M) stay in the 2 MiB
# L2 while every operation that reads them runs. Sweep of the block size:
# ms per step inside the desk model's 4-epoch fit (perfbench train_desk,
# batch 64, 1 BLAS thread; median of 5 fresh processes per variant, each
# the median of 8 epochs, variants shuffled; "unblocked" is the code
# before blocking, which kept the whole batch's wn for the backward):
#
#   unblocked   2^15   2^16   2^17   2^18   one block
#     40.8      38.5   36.7   37.8   37.8     38.5
#
# The spread between processes is about 1.5 ms, so 2^16 to 2^18 are
# level. At 2^17 doubles (1 MiB) the desk layers at batch 64 run in 1, 3
# and 10 blocks; the 32->64 layer's whole-batch wn is 9.4 MB. Timed alone
# in a fresh process a layer is no guide: there glibc returns its large
# temporaries to the kernel between calls, and the page faults on
# reallocating them outweigh the cache effect (inside fit: ~0 per step).
GATED_BLOCK_ELEMENTS = 2 ** 17     # doubles of wn (or M) per sample block


def _sample_blocks(n: int, per_sample: int) -> list[slice]:
    """Consecutive sample blocks of a batch of n whose per-sample filters,
    per_sample = C' * C * k * k doubles each, fill about
    GATED_BLOCK_ELEMENTS; the block length reads the layer's shape, never
    the batch size."""
    step = max(1, GATED_BLOCK_ELEMENTS // per_sample)
    return [slice(s, s + step) for s in range(0, n, step)]


def _gated_filters(w: np.ndarray, ghat_r: np.ndarray) -> np.ndarray:
    """Per-sample filters wn (r, C', C*k*k) of the stacked filters w
    (C'/heads, heads, C*k*k) and a block's repeated gates ghat_r
    (r, heads, C*k*k); row o * heads + h of wn[n] is head h's filter o."""
    return (w * ghat_r[:, None]).reshape(ghat_r.shape[0], -1, w.shape[2])


def dgc_forward(x: np.ndarray, layer: DgcLayer,
                gating: HeadwiseGating | GlobalGating, *,
                training: bool = True) -> DgcForward:
    """Full DGC layer pass: saliency, gate, amplify, convolve, shuffle.

    Output shape is (N, C', H', W') regardless of how many channels each
    head kept. Training runs one GEMM per sample of the gated filters and
    im2col(x), building the filters one sample block at a time, and
    caches intermediates for dgc_backward; evaluation runs
    the saliency, index and conv phases, one gathered_conv per head and
    kept count.
    """
    cfg = layer.config
    if x.ndim != 4 or x.shape[1] != cfg.in_channels:
        raise ValueError(f"dgc input must be (N, {cfg.in_channels}, H, W), got {x.shape}")
    keep_sign = isinstance(gating, GlobalGating)
    p, mlps = _saliency_phase(x, layer, keep_sign)
    saliencies = [g for *_, g in mlps]
    if not training:
        masks, groups = _index_phase(layer, saliencies, gating)
        return DgcForward(_conv_phase(x, layer, groups), saliencies, masks,
                          keep_sign)

    # The GEMM's output buffer, allocated before im2col: allocating it
    # after the patch matrix slowed the desk model's 8->16 training
    # forward at batch 256 from 9.5 to 11.4 ms.
    out = _empty_output(x, cfg)
    masks = [_gate_masks(g, gating) for g in saliencies]
    n, co = x.shape[0], cfg.head_out_channels
    k, stride, pad = cfg.kernel_size, cfg.stride, cfg.padding
    # ghat (N, heads, C): the saliency on kept channels, exactly 0 elsewhere;
    # ghat_r repeats it over the k*k taps, along the patch matrix's rows.
    ghat = np.where(np.stack(masks, axis=1), np.stack(saliencies, axis=1), 0.0)
    ghat_r = np.repeat(ghat, k * k, axis=2)
    # Row o * heads + h of w is head h's filter o: the output lands shuffled.
    w = shuffled_filters(layer).reshape(co, cfg.heads, -1)
    # cols[n] is (C*k*k, H'*W'), so wn[n] @ cols[n] writes NCHW directly.
    cols = im2col(x, k, stride, pad)[0]
    out3 = out.reshape(n, cfg.out_channels, -1)
    for b in _sample_blocks(n, w.size):
        np.matmul(_gated_filters(w, ghat_r[b]), cols[b], out=out3[b])
    return DgcForward(out, saliencies, masks, keep_sign,
                      {"x": x, "cols": cols, "ghat_r": ghat_r, "w": w,
                       "p": p, "mlps": mlps})


@dataclass
class DgcGrads:
    grad_input: np.ndarray | None
    grad_filters: list[np.ndarray]
    grad_w_squeeze: list[np.ndarray]
    grad_b_squeeze: list[np.ndarray]
    grad_w_expand: list[np.ndarray]
    grad_b_expand: list[np.ndarray]


def dgc_backward(fwd: DgcForward, layer: DgcLayer, grad_out: np.ndarray,
                 saliency_grad: list[np.ndarray] | None = None,
                 input_grad: bool = True) -> DgcGrads:
    """Backward pass with the masked-gradient rule.

    Selection indices are treated as constants: gradients flow through the
    multiplicative amplification and the saliency generator, while filter
    slices for channels no sample selected receive exactly zero gradient
    (their g_hat column is exactly zero). Both the filter and the saliency
    gradients are weighted sums of M[n] = grad_out[n] @ im2col(x)[n].T.
    Each sample block of the forward forms its M, adds its share of the
    filter gradient, writes its rows of the saliency gradient and, with
    input_grad, rebuilds its gated filters wn to write its rows of
    gcols = wn^T @ grad_out; one col2im then maps the assembled gcols.

    saliency_grad, when given, holds one (N, C) array per head: the
    gradient of the saliency penalties (lasso, angle) w.r.t. the
    saliencies, added to the task loss's. With input_grad false,
    grad_input is None and neither gcols nor the col2im is computed.
    """
    cache = fwd._cache
    if cache is None:
        raise ValueError("dgc_backward needs a training-mode forward cache")
    cfg = layer.config
    if grad_out.shape != fwd.output.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match output "
                         f"{fwd.output.shape}")
    x, cols, ghat_r, w = cache["x"], cache["cols"], cache["ghat_r"], cache["w"]
    n, hw = x.shape[0], x.shape[2] * x.shape[3]
    co, heads, kk = w.shape[0], cfg.heads, cfg.kernel_size ** 2

    # Rows of gy match those of _gated_filters: o * heads + h.
    gy = grad_out.reshape(n, cfg.out_channels, -1)
    grad_w = np.zeros_like(w)
    gg_heads = np.empty((n, heads, cfg.in_channels))
    gcols = np.empty_like(cols) if input_grad else None
    for b in _sample_blocks(n, w.size):
        # m is (block, C'/heads, heads, C*k*k); contract it with no
        # temporary its size. The saliency gradient sums over o along the
        # contiguous C*k*k axis, then over the taps: 30% faster than one
        # einsum over (o, tap).
        m = np.matmul(gy[b], cols[b].transpose(0, 2, 1)).reshape(
            -1, co, heads, w.shape[2])
        grad_w += np.einsum("nohj,nhj->ohj", m, ghat_r[b])
        gg_heads[b] = np.einsum("nohj,ohj->nhj", m, w).reshape(
            -1, heads, cfg.in_channels, kk).sum(axis=3)
        if input_grad:
            np.matmul(_gated_filters(w, ghat_r[b]).transpose(0, 2, 1), gy[b],
                      out=gcols[b])
    grads = DgcGrads(None, [], [], [], [], [])
    gp = np.zeros((n, cfg.in_channels))     # gradient w.r.t. the pooled means
    for i, (head, (z1, a1, z2, _)) in enumerate(zip(layer.heads,
                                                    cache["mlps"])):
        gg = gg_heads[:, i] * fwd.masks[i]
        if saliency_grad is not None:
            gg = gg + saliency_grad[i]
        gz2 = gg if fwd.keep_sign else gg * (z2 > 0)
        ga1 = gz2 @ head.w_expand
        gz1 = ga1 * (z1 > 0)
        gp += gz1 @ head.w_squeeze

        grads.grad_filters.append(grad_w[:, i].reshape(head.filters.shape))
        grads.grad_w_expand.append(gz2.T @ a1)
        grads.grad_b_expand.append(gz2.sum(axis=0))
        grads.grad_w_squeeze.append(gz1.T @ cache["p"])
        grads.grad_b_squeeze.append(gz1.sum(axis=0))
    if input_grad:
        grads.grad_input = col2im(gcols, x.shape, cfg.kernel_size, cfg.stride,
                                  cfg.padding)
        grads.grad_input += (gp / hw)[:, :, None, None]
    return grads


# ---------------------------------------------------------------------------
# Losses and baselines
# ---------------------------------------------------------------------------

def lasso_loss_and_grad(per_layer: list[list[np.ndarray]], coeff: float
                        ) -> tuple[float, list[list[np.ndarray]]]:
    """L1 sparsity penalty with its gradient: coeff times the mean, over
    (layer, head) entries, of the batch-mean L1 norm of the (N, C)
    saliencies per_layer[l][h]. The gradient, nested like the input, is
    coeff / (entries * N) * sign(g)."""
    flat = [g for heads in per_layer for g in heads]
    if not flat:
        raise ValueError("lasso loss needs at least one saliency batch")
    total = sum(float(np.abs(g).sum(axis=1).mean()) for g in flat)
    scale = coeff / (len(flat) * flat[0].shape[0])
    return coeff * total / len(flat), [[scale * np.sign(g) for g in heads]
                                       for heads in per_layer]


def sgc_forward(x: np.ndarray, weights: np.ndarray, groups: int,
                stride: int = 1, padding: int = 0) -> np.ndarray:
    """Standard group convolution of weights (C_out, C_in // groups, k, k):
    core.conv2d_forward with groups."""
    return conv2d_forward(x, ConvFilter(weights, stride, padding), groups)
