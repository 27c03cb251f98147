"""Shared oracles and helpers: naive convolution loops, the tap-loop
col2im, finite differences and checkpoint manifest edits."""

import json

import numpy as np
import pytest

from dgconv.checkpoint import MAGIC
from dgconv.core import conv_output_size


def naive_conv2d(x, weights, stride=1, pad=0):
    """Seven-nested-loop cross-correlation reference. Slow, obviously correct."""
    n, c, h, w = x.shape
    co, ci, k, _ = weights.shape
    assert c == ci
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    y = np.zeros((n, co, oh, ow))
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ch in range(ci):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (x[b, ch, i * stride + ki, j * stride + kj]
                                        * weights[o, ch, ki, kj])
                    y[b, o, i, j] = acc
    return y


def tap_loop_col2im(gcols, x_shape, k, stride, pad):
    """col2im as k^2 strided slice additions into a zeroed padded array,
    tap (a, b) by tap."""
    n, c, h, w = x_shape
    oh = conv_output_size(h, k, stride, pad)
    ow = conv_output_size(w, k, stride, pad)
    g = gcols.reshape(n, c, k, k, oh, ow)
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for a in range(k):
        for b in range(k):
            gx[:, :, a:a + oh * stride:stride, b:b + ow * stride:stride] += g[:, :, a, b]
    return gx[:, :, pad:pad + h, pad:pad + w]


def numerical_grad(f, x, eps=1e-5):
    """Central finite differences of a scalar function w.r.t. every entry of x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def rel_error(a, b, floor=1e-8):
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), floor))


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


def rewrite_manifest(path, edit):
    """Apply edit to the manifest dict of a saved checkpoint in place."""
    with open(path, "rb") as fh:
        assert fh.readline() == MAGIC
        length = int(fh.readline())
        manifest = json.loads(fh.read(length))
        blob = fh.read()
    edit(manifest)
    payload = json.dumps(manifest).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + f"{len(payload)}\n".encode() + payload + blob)
