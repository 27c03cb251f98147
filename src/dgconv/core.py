"""Dense numeric kernels: convolution, batch norm, linear, pooling, SGD.

Everything operates on float64 numpy arrays in NCHW layout (batch,
channels, height, width). Backward passes are hand-written per layer;
there is no autodiff graph. Convolution is cross-correlation (no kernel
flip), the universal deep-learning convention.

conv2d_forward and conv2d_backward take groups; groups = 1 is the
dense convolution. Every forward convolution (dense, grouped, and the
gated layers' evaluation) goes through batched_conv, which runs it as
shifted taps or as one take (im2col) and a GEMM. Stride 1 with at most
SHIFTED_TAPS_MAX_CHANNELS output channels on a map of at least
SHIFTED_TAPS_MIN_PIXELS output pixels runs as k^2 GEMMs on shifted
slices of the padded, flattened input, with no patch matrix and the
output already in NCHW order; other shapes, and every backward pass,
use im2col/col2im. The constants sit next to the timings they come
from.

The patch matrix is channel-major: im2col(x) is (N, C*k*k, H'*W'), row
c*k*k + a*k + b of sample n holding tap (a, b) of channel c at every
output pixel, and a GEMM W (C', C*k*k) @ cols[n] gives sample n's output
already in NCHW order. It is one np.take of the unpadded planes, each
with a zero sentinel appended, through a memoized index of each entry's
position in its plane; padding taps read the sentinel, so no padded copy
is made. col2im, the adjoint, is one np.bincount over the same index,
equal bit for bit to the loop of k^2 strided slice additions it
replaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvFilter",
    "conv2d_forward",
    "conv2d_backward",
    "batched_conv",
    "im2col",
    "col2im",
    "conv_output_size",
    "BatchNorm2d",
    "global_avg_pool",
    "global_avg_pool_backward",
    "linear_forward",
    "linear_backward",
    "relu_forward",
    "relu_backward",
    "softmax_cross_entropy",
    "SGD",
    "cosine_lr",
]


def _check_4d(x: np.ndarray, name: str) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ValueError(f"{name} must be a 4-D array (N, C, H, W), got "
                         f"{getattr(x, 'shape', type(x))}")


@dataclass
class ConvFilter:
    """Weights plus geometry for one convolution.

    weights has shape (out_channels, in_channels, k, k); stride and
    padding apply symmetrically to both spatial dims.
    """

    weights: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if self.weights.ndim != 4:
            raise ValueError(f"filter weights must be 4-D, got shape {self.weights.shape}")
        if self.weights.shape[2] != self.weights.shape[3]:
            raise ValueError(f"only square kernels are supported, got {self.weights.shape[2:]}")
        if self.kernel_size < 1:
            raise ValueError("kernel size must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("filter weights contain non-finite values")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ValueError(f"convolution geometry yields empty output: input "
                         f"{size}, k={k}, stride={stride}, pad={pad}")
    return out


def im2col(x: np.ndarray, k: int, stride: int, pad: int,
           scale: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """Unfold x into the channel-major patch matrix (N, C*k*k, H'*W').

    cols[n, c*k*k + a*k + b, i*W' + j] = xpad[n, c, i*stride + a,
    j*stride + b], xpad being x zero-padded by pad: rows are channel-major
    then kernel row/col, which fixes the accumulation order of the
    matmul-based convolution. scale (N, C), when given, multiplies input
    channel c of sample n. x is copied once, times scale, into planes of
    H*W + 1 doubles whose last entry is +0.0, and one np.take through
    _patch_index reads every entry, each padding tap from that zero.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, pad)
    ow = conv_output_size(w, k, stride, pad)
    planes = np.empty((n, c, h * w + 1))
    # A view: the reshape only splits the contiguous last axis.
    inner = planes[:, :, :-1].reshape(n, c, h, w)
    np.multiply(x, 1.0 if scale is None else scale[:, :, None, None], out=inner)
    planes[:, :, -1] = 0.0
    cols = np.take(planes, _patch_index(h, w, k, stride, pad), axis=2)
    return cols.reshape(n, c * k * k, oh * ow), oh, ow


def col2im(gcols: np.ndarray, x_shape: tuple[int, ...], k: int, stride: int,
           pad: int) -> np.ndarray:
    """Scatter-add patch-matrix gradients (N, C*k*k, H'*W') back to input
    layout: the adjoint of im2col.

    One np.bincount over _patch_index, offset to each plane of H*W + 1
    positions; the padding taps land on each plane's last position, which
    is dropped. bincount starts each position at zero and adds its entries
    in array order, tap (a, b) by tap, so the sums are those of a loop of
    k^2 strided slice additions, bit for bit.
    """
    n, c, h, w = x_shape
    plane = h * w + 1
    index = (_patch_index(h, w, k, stride, pad)
             + np.arange(0, n * c * plane, plane)[:, None]).ravel()
    gx = np.bincount(index, weights=gcols.ravel(), minlength=n * c * plane)
    return gx.reshape(n, c, plane)[:, :, :-1].reshape(n, c, h, w)


@functools.lru_cache(maxsize=64)
def _patch_index(h: int, w: int, k: int, stride: int, pad: int) -> np.ndarray:
    """Flat position in one (H, W) plane of each entry of its rows of the
    patch matrix, in (a, b, i, j) order, with every tap that falls in the
    padding pointing at position H*W; read-only, as it is shared between
    calls. It holds no channel count, so one index serves every channel
    count and stack of a geometry: im2col takes through it plane by
    plane, and col2im offsets it to each plane of the batch."""
    oh = conv_output_size(h, k, stride, pad)
    ow = conv_output_size(w, k, stride, pad)
    # Unpadded row and column of tap a (b) at output row i (column j).
    rows = np.arange(k)[:, None] + stride * np.arange(oh)[None, :] - pad   # (k, H')
    cols = np.arange(k)[:, None] + stride * np.arange(ow)[None, :] - pad   # (k, W')
    inside = (((rows >= 0) & (rows < h))[:, None, :, None]
              & ((cols >= 0) & (cols < w))[None, :, None, :])
    index = np.where(inside, rows[:, None, :, None] * w + cols[None, :, None, :],
                     h * w).ravel()
    index.flags.writeable = False
    return index


def _conv_output_shape(x: np.ndarray, filt: ConvFilter,
                       groups: int) -> tuple[int, int, int, int]:
    """Validate x against a filter of the given groups and return the
    output shape (N, out_channels, H', W')."""
    _check_4d(x, "conv input")
    n, c, h, w = x.shape
    co, k = filt.out_channels, filt.kernel_size
    if groups < 1 or c % groups or co % groups:
        raise ValueError(f"channels ({c} in, {co} out) not divisible by "
                         f"{groups} groups")
    if c // groups != filt.in_channels:
        raise ValueError(f"conv input has {c} channels but filter expects "
                         f"{filt.in_channels} per group of {groups}")
    return (n, co, conv_output_size(h, k, filt.stride, filt.padding),
            conv_output_size(w, k, filt.stride, filt.padding))


def conv2d_forward(x: np.ndarray, filt: ConvFilter,
                   groups: int = 1) -> np.ndarray:
    """Cross-correlate x with the filter bank in groups: group g convolves
    its C/G input channels with its C'/G filter rows, so the bank is
    (C', C/G, k, k). Output (N, C', H', W'), H' = floor((H + 2*pad - k) /
    stride) + 1. Each group is one batched_conv call into its output
    slice: one call on the (N*G, C/G, H, W) stack builds full-width
    temporaries instead of L2-sized ones, 5.1 against 3.8 ms at 4 groups,
    64 @ 56x56, batch 1, 1 BLAS thread (2-core Xeon).
    """
    shape = _conv_output_shape(x, filt, groups)
    w, stride, pad = filt.weights, filt.stride, filt.padding
    if groups == 1:
        return np.ascontiguousarray(batched_conv(x, w, stride, pad))
    ci, co = x.shape[1] // groups, shape[1] // groups
    out = np.empty(shape)
    for g in range(groups):
        out[:, g * co:(g + 1) * co] = batched_conv(
            x[:, g * ci:(g + 1) * ci], w[g * co:(g + 1) * co], stride, pad)
    return out


# Which stride-1 convolutions run as shifted taps (_shifted_taps) rather
# than im2col + one GEMM per sample. The constants were chosen against a
# former row-major unfold, (N*H'*W', C*k*k) with one GEMM and a
# transposed output, which the taps beat on exactly these shapes.
# Re-timed against the channel-major im2col: batched_conv on each path,
# 1 BLAS thread, k = 3, pad 1, C = C' (2-core Xeon, numpy 2.4 / OpenBLAS
# 0.3.31); medians of three runs, each interleaving the paths call by
# call:
#
#   C @ map      samples               im2col   taps   ms
#   16 @ 56x56   1                       0.86   0.46   gated head
#   32 @ 28x28   1                       0.87   0.92   slices at
#   64 @ 14x14   1                       0.37   0.52   rate 0.75
#   64 @ 56x56   1                       5.96   6.42   dense layers
#   128 @ 28x28  1                       6.21   7.12
#   128 @ 14x14  1                       1.74   2.18
#   192 @ 14x14  1                       3.28   4.64
#   256 @ 14x14  1                       4.39   7.35
#   256 @ 20x20  1                       8.66  11.65
#   16 @ 4x4     256, one bank each      1.12   4.23   desk model's
#   16 @ 5x5     256, one bank each      1.89   5.37   gated heads
#   32 @ 6x6     32, one bank each       0.87   1.90
#   32 @ 7x7     32, one bank each       1.13   2.20
#   16 @ 8x8     256, one bank each      4.18   8.81
#
# The channel-major im2col copies k^2 * C values per output pixel, and
# its GEMM writes NCHW. The taps make k^2 GEMMs per sample and k^2 - 1
# passes over its output: with many output channels those passes and the
# cropped pad columns cost more than the copy saves, and on small maps
# the k^2 BLAS calls per sample of a stack cost more than the whole
# im2col. Against the channel-major unfold the taps win only on thin
# large maps (16 @ 56x56; 32 @ 28x28 is a tie), so the constants below
# send shapes such as 64 @ 56x56 and 16 @ 8x8 stacks to the slower path.
# End to end the taps still pay: with them removed, perfbench layer_b1
# fell from 1.146 to 0.991 images_per_probe (median of 4 alternating
# pairs), and with SHIFTED_TAPS_MAX_CHANNELS = 16 it moved from 1.083
# to 1.092, less than the quartile distance of its runs (4 pairs), so
# moving these limits is a performance change to measure there. The rule
# reads the shape of one sample, never the stack size, so a stack of one
# and a stack of many take the same path and give the same bits.
SHIFTED_TAPS_MAX_CHANNELS = 128     # output channels C'
SHIFTED_TAPS_MIN_PIXELS = 64        # output pixels H' * W'


def batched_conv(x: np.ndarray, weights: np.ndarray, stride: int, pad: int,
                 scale: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlate x (N, C, H, W) with weights (C', C, k, k) shared by
    every sample, or (N, C', C, k, k), one bank per sample; returns
    (N, C', H', W'), possibly a strided view.

    scale (N, C), when given, multiplies input channel c of sample n; it
    is applied in the one copy of x each path makes anyway (the taps'
    zero-padded buffer, im2col's planes). Stride 1 runs shifted-tap
    GEMMs when C' <= SHIFTED_TAPS_MAX_CHANNELS and H' * W' >=
    SHIFTED_TAPS_MIN_PIXELS; everything else runs im2col and one GEMM per
    sample, W @ cols[n], whose output is already NCHW.
    """
    n = x.shape[0]
    co, k = weights.shape[-4], weights.shape[-1]
    oh = conv_output_size(x.shape[2], k, stride, pad)
    ow = conv_output_size(x.shape[3], k, stride, pad)
    if (stride == 1 and co <= SHIFTED_TAPS_MAX_CHANNELS
            and oh * ow >= SHIFTED_TAPS_MIN_PIXELS):
        return _shifted_taps(_padded(x, pad, scale), weights, oh, ow)
    cols, _, _ = im2col(x, k, stride, pad, scale)
    y = np.matmul(weights.reshape(*weights.shape[:-4], co, -1), cols)
    return y.reshape(n, co, oh, ow)


def _padded(x: np.ndarray, pad: int, scale: np.ndarray | None) -> np.ndarray:
    """x zero-padded by pad on each spatial side, times scale (N, C) when
    given: _shifted_taps' input."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    np.multiply(x, 1.0 if scale is None else scale[:, :, None, None],
                out=xp[:, :, pad:pad + h, pad:pad + w])
    return xp


def _shifted_taps(xp: np.ndarray, weights: np.ndarray, oh: int,
                  ow: int) -> np.ndarray:
    """Stride-1 convolution of the padded input xp without a patch matrix
    (low-memory GEMM convolution): flatten each sample's padded planes;
    tap (a, b) then reads the contiguous slice that starts a * W_pad + b
    further on, and output pixel (i, j) is flat position i * W_pad + j of
    the sum of k^2 GEMMs W[:, :, a, b] @ slice. The W_pad - W' positions
    past each output row are computed and cropped."""
    n, c, hp, wp = xp.shape
    co, k = weights.shape[-4], weights.shape[-1]
    xp = xp.reshape(n, c, hp * wp)
    # taps[a * k + b]: tap (a, b)'s (C', C) or (N, C', C) bank, C-contiguous
    # so that BLAS takes it without a copy.
    taps = np.ascontiguousarray(
        np.moveaxis(weights.reshape(*weights.shape[:-2], k * k), -1, 0))
    span = (oh - 1) * wp + ow
    y = np.empty((n, co, oh * wp))
    acc, part = y[:, :, :span], np.empty((n, co, span))
    for t in range(k * k):
        off = t // k * wp + t % k
        if t == 0:
            np.matmul(taps[t], xp[:, :, off:off + span], out=acc)
        else:
            np.matmul(taps[t], xp[:, :, off:off + span], out=part)
            acc += part
    return y.reshape(n, co, oh, wp)[:, :, :, :ow]


def conv2d_backward(x: np.ndarray, filt: ConvFilter, grad_out: np.ndarray,
                    input_grad: bool = True,
                    groups: int = 1) -> tuple[np.ndarray | None, np.ndarray]:
    """Exact gradients of conv2d_forward w.r.t. input and weights; the
    input gradient is None when input_grad is false.

    All groups go at once: one im2col of the (N*G, C/G, H, W) view of x,
    one stacked GEMM pair over (N, G) and one col2im.
    """
    _check_4d(grad_out, "conv grad_out")
    n, co, oh, ow = expect = _conv_output_shape(x, filt, groups)
    if grad_out.shape != expect:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match forward "
                         f"output shape {expect}")
    k, stride, pad = filt.kernel_size, filt.stride, filt.padding
    xg_shape = (n * groups, x.shape[1] // groups) + x.shape[2:]
    cols = im2col(x.reshape(xg_shape), k, stride, pad)[0]
    cols = cols.reshape(n, groups, -1, oh * ow)
    gy = grad_out.reshape(n, groups, co // groups, oh * ow)
    w = filt.weights.reshape(groups, co // groups, -1)
    grad_w = np.matmul(gy, cols.transpose(0, 1, 3, 2)).sum(axis=0)
    grad_x = None
    if input_grad:
        gcols = np.matmul(w.transpose(0, 2, 1), gy)
        grad_x = col2im(gcols, xg_shape, k, stride, pad).reshape(x.shape)
    return grad_x, grad_w.reshape(filt.weights.shape)


class BatchNorm2d:
    """Per-channel batch normalization with running statistics.

    Training mode normalizes with batch statistics (biased variance) and
    blends them into the running buffers as
    ``running = (1 - momentum) * running + momentum * batch``.
    Evaluation mode uses the running buffers and refuses to run before
    any batch has been seen.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        if eps <= 0:
            raise ValueError("eps must be > 0")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.batches_tracked = 0
        self._cache = None
        self.grad_gamma = None
        self.grad_beta = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        _check_4d(x, "batchnorm input")
        if x.shape[1] != self.channels:
            raise ValueError(
                f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        if training:
            # One pass for the mean, one to centre, the variance from the
            # centred values (never E[x^2] - mean^2), normalised in place.
            mean = x.mean(axis=(0, 2, 3))
            xhat = x - mean[None, :, None, None]
            var = np.einsum("nchw,nchw->c", xhat, xhat) / (x.size // self.channels)
            std = np.sqrt(var + self.eps)
            xhat /= std[None, :, None, None]
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
            self.batches_tracked += 1
            self._cache = (xhat, std)
            y = self.gamma[None, :, None, None] * xhat
        else:
            if self.batches_tracked == 0:
                raise ValueError("batchnorm evaluation requested before any "
                                 "training batch set the running statistics")
            # (x - mean) * (gamma / std) + beta: one allocating pass and two
            # in place. Folding the mean into the shift, x * a + b, saves
            # one more but cancels: it was 3.5e-11 off the exact output on
            # a channel of mean 1e4 and sd 1e-2.
            scale = self.gamma / np.sqrt(self.running_var + self.eps)
            y = x - self.running_mean[None, :, None, None]
            y *= scale[None, :, None, None]
            self._cache = None
        y += self.beta[None, :, None, None]
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ValueError("batchnorm backward requires a cached training-mode forward")
        xhat, std = self._cache
        m = grad_out.size // self.channels
        self.grad_gamma = np.einsum("nchw,nchw->c", grad_out, xhat)
        self.grad_beta = grad_out.sum(axis=(0, 2, 3))
        # With g = gamma * grad_out, the sums of g and of g * xhat are
        # gamma * grad_beta and gamma * grad_gamma, so
        # grad_x = gamma / std * (grad_out - grad_beta / m - xhat * grad_gamma / m).
        gx = xhat * (-self.grad_gamma / m)[None, :, None, None]
        gx += grad_out
        gx -= (self.grad_beta / m)[None, :, None, None]
        gx *= (self.gamma / std)[None, :, None, None]
        return gx


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Reduce each feature map to its spatial mean; output (N, C, 1, 1)."""
    _check_4d(x, "pool input")
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ValueError(f"global_avg_pool needs non-empty spatial dims, got {x.shape}")
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(grad_out: np.ndarray, h: int, w: int) -> np.ndarray:
    return np.broadcast_to(grad_out / (h * w),
                           grad_out.shape[:2] + (h, w)).copy()


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map x @ weight + bias with weight shaped (in_features, out_features)."""
    if x.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ValueError(f"linear expects (N, {weight.shape[0]}) input, got "
                         f"{getattr(x, 'shape', None)}")
    return x @ weight + bias


def linear_backward(x: np.ndarray, weight: np.ndarray,
                    grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if grad_out.shape != (x.shape[0], weight.shape[1]):
        raise ValueError(f"linear grad_out shape {grad_out.shape} does not match "
                         f"({x.shape[0]}, {weight.shape[1]})")
    return grad_out @ weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient at exactly 0 is taken as 0.
    return grad_out * (x > 0)


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(f"logits (N, K) and labels (N,) required, got "
                         f"{logits.shape} / {labels.shape}")
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    logp = z - np.log(e.sum(axis=1, keepdims=True))
    loss = -logp[np.arange(n), labels].mean()
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


@dataclass
class SGD:
    """SGD with Nesterov momentum and classical (gradient-coupled) weight decay.

    Update recurrence, per parameter p with gradient g:

        d = g + weight_decay * p
        v = momentum * v - lr * d
        p = p + momentum * v - lr * d

    Parameters whose names are in ``no_decay`` skip the decay term.
    """

    params: dict[str, np.ndarray]
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    no_decay: frozenset[str] = frozenset()
    velocities: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.no_decay = frozenset(self.no_decay)
        for name, p in self.params.items():
            if name not in self.velocities:
                self.velocities[name] = np.zeros_like(p)
            elif self.velocities[name].shape != p.shape:
                raise ValueError(f"velocity shape mismatch for {name!r}")

    def step(self, grads: dict[str, np.ndarray], lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter "
                                 f"{name!r} of shape {p.shape}")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient for parameter {name!r}")
            wd = 0.0 if name in self.no_decay else self.weight_decay
            d = g + wd * p if wd else g
            v = self.velocities[name]
            v *= self.momentum
            v -= lr * d
            p += self.momentum * v - lr * d


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Cosine-annealed learning rate, evaluated per epoch."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    if lr0 <= 0:
        raise ValueError("base learning rate must be > 0")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / total_epochs))
