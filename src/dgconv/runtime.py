"""Inference path: dynamic index plans, MAC accounting, micro-benchmarks.

An index plan freezes one sample's gating decisions, read from the
masks and saliencies of a finished dgc_forward, into pre-gathered filter
slices so the sparse convolution runs as a dense one on a reduced
channel set. Plan execution reproduces the reference evaluation forward
bit for bit because both call the same kernel, dgc.gathered_conv, whose
per-sample GEMMs have the same shape in a stack of one as in a batch.
The batch-1 benchmark times dense and grouped convolutions next to the
evaluation forward's own saliency, index and conv phases.

MAC counts follow the standard conv cost k^2*C'*C*H'*W' and the DGC
decomposition into per-head saliency cost 2*C^2/d and reduced conv cost
k^2*kept*(C'/H)*H'*W'.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import ConvFilter, conv2d_forward, conv_output_size
from .dgc import (
    DgcForward,
    DgcLayer,
    HeadwiseGating,
    _conv_phase,
    _index_phase,
    _saliency_phase,
    gather_filters,
    gathered_conv,
    kept_channels,
    sgc_forward,
)

__all__ = ["LayerShape", "MacReport", "mac_dense", "mac_sgc", "mac_dgc",
           "IndexPlan", "plan_from_forward",
           "execute_plan", "BenchResult", "run_benchmark",
           "BENCH_CSV_HEADER", "bench_csv_rows", "read_bench_csv"]


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerShape:
    in_channels: int
    out_channels: int
    kernel_size: int
    out_h: int
    out_w: int

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "kernel_size", "out_h",
                     "out_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_input(cls, in_channels: int, out_channels: int, kernel_size: int,
                   h: int, w: int, stride: int = 1,
                   padding: int = 0) -> "LayerShape":
        return cls(in_channels, out_channels, kernel_size,
                   conv_output_size(h, kernel_size, stride, padding),
                   conv_output_size(w, kernel_size, stride, padding))

    @property
    def spatial(self) -> int:
        return self.out_h * self.out_w


def mac_dense(shape: LayerShape) -> int:
    """Multiply-accumulates of a dense convolution: k^2 * C' * C * H' * W'."""
    return (shape.kernel_size ** 2 * shape.out_channels * shape.in_channels
            * shape.spatial)


def mac_sgc(shape: LayerShape, groups: int) -> int:
    if shape.in_channels % groups or shape.out_channels % groups:
        raise ValueError(f"{groups} groups do not divide the channel counts")
    return mac_dense(shape) // groups


@dataclass(frozen=True)
class MacReport:
    dense_macs: int
    saliency_macs: int
    conv_macs: int

    def __post_init__(self) -> None:
        if min(self.dense_macs, self.saliency_macs, self.conv_macs) < 0:
            raise ValueError("MAC counts must be non-negative")

    @property
    def total_macs(self) -> int:
        return self.saliency_macs + self.conv_macs

    @property
    def saving_ratio(self) -> float:
        return self.dense_macs / self.total_macs


def mac_dgc(shape: LayerShape, prune_rate: float, heads: int, squeeze: int,
            measured_kept: list[float] | None = None) -> MacReport:
    """DGC cost model. Head-wise mode derives the kept-channel count from
    the pruning rate; global mode passes the measured per-head averages."""
    c, cp = shape.in_channels, shape.out_channels
    if cp % heads:
        raise ValueError(f"{heads} heads do not divide {cp} output channels")
    saliency = heads * round(2 * c * c / squeeze)
    if measured_kept is None:
        kept = [kept_channels(c, prune_rate)] * heads
    else:
        if len(measured_kept) != heads:
            raise ValueError(f"need one measured count per head, got "
                             f"{len(measured_kept)} for {heads} heads")
        kept = list(measured_kept)
    conv = round(sum(shape.kernel_size ** 2 * kc * (cp // heads) * shape.spatial
                     for kc in kept))
    return MacReport(mac_dense(shape), saliency, conv)


# ---------------------------------------------------------------------------
# Index plans
# ---------------------------------------------------------------------------

@dataclass
class IndexPlan:
    """One sample's frozen gating for one DGC layer: sorted channel indices,
    amplifications, and pre-gathered filter banks, per head."""

    indices: list[np.ndarray]
    amplify: list[np.ndarray]
    filters: list[np.ndarray]
    in_channels: int
    stride: int
    padding: int

    @property
    def heads(self) -> int:
        return len(self.indices)


def plan_from_forward(layer: DgcLayer, fwd: DgcForward,
                      sample: int) -> IndexPlan:
    """Plan for one sample of a completed dgc_forward pass: per head, the
    sample's kept channels (its mask row), their saliencies and the
    layer's filter banks gathered to them."""
    cfg = layer.config
    shapes = {m.shape[1] for m in fwd.masks}
    if len(fwd.masks) != cfg.heads or shapes != {cfg.in_channels}:
        raise ValueError(f"forward has {len(fwd.masks)} heads over "
                         f"{sorted(shapes)} channels; the layer has "
                         f"{cfg.heads} heads over {cfg.in_channels}")
    indices = [np.flatnonzero(m[sample]) for m in fwd.masks]
    amplify = [g[sample, idx] for g, idx in zip(fwd.saliencies, indices)]
    filters = [gather_filters(head.filters, idx)
               for head, idx in zip(layer.heads, indices)]
    return IndexPlan(indices, amplify, filters, cfg.in_channels, cfg.stride,
                     cfg.padding)


def execute_plan(plan: IndexPlan, x_sample: np.ndarray) -> np.ndarray:
    """Run the planned sparse convolution on a (C, H, W) sample.

    Calls the evaluation forward's kernel on a stack of one, so outputs
    are equal to it bit for bit.
    """
    if x_sample.ndim != 3 or x_sample.shape[0] != plan.in_channels:
        raise ValueError(f"plan expects ({plan.in_channels}, H, W) input, "
                         f"got {x_sample.shape}")
    co, k = plan.filters[0].shape[0], plan.filters[0].shape[-1]
    s, p = plan.stride, plan.padding
    out = np.empty((plan.heads * co, conv_output_size(x_sample.shape[1], k, s, p),
                    conv_output_size(x_sample.shape[2], k, s, p)))
    for h, (idx, amp, bank) in enumerate(zip(plan.indices, plan.amplify,
                                             plan.filters)):
        # head h fills channels h, h + heads, ..., its slots after the shuffle
        out[h::plan.heads] = gathered_conv(x_sample[None], 0, idx[None],
                                           amp[None], bank[None], s, p)[0]
    return out


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

MIN_SAMPLE_SECONDS = 2e-4


@dataclass
class BenchResult:
    variant: str
    shape: str
    threads: int
    repeats: int
    inner_loops: int
    median_s: float
    iqr_s: float
    mean_s: float
    components_s: dict[str, float] = field(default_factory=dict)
    note: str = ""


@functools.cache
def _bundled_openblas():
    """(get, set) thread-count functions of the OpenBLAS shipped inside
    the numpy wheel (``numpy.libs`` or ``numpy/.dylibs``), or None."""
    pkg = os.path.dirname(np.__file__)
    for libdir in (pkg + ".libs", os.path.join(pkg, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in ("scipy_openblas_{}_num_threads64_",
                         "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_",
                         "openblas_{}_num_threads"):
                get = getattr(lib, name.format("get"), None)
                set_ = getattr(lib, name.format("set"), None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    return None


@contextlib.contextmanager
def _limit_threads(threads: int | None):
    """Cap BLAS threads inside the block and yield the count read back
    from BLAS, or 0 when nothing was pinned (``threads`` is None, or
    neither threadpoolctl nor numpy's bundled OpenBLAS is available)."""
    if threads is None:
        yield 0
        return
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        threadpool_limits = None
    if threadpool_limits is not None:
        with threadpool_limits(limits=threads):
            yield max((pool["num_threads"] for pool in threadpool_info()
                       if pool["user_api"] == "blas"), default=0)
        return
    blas = _bundled_openblas()
    if blas is None:
        yield 0
        return
    get, set_ = blas
    previous = get()
    set_(threads)
    try:
        yield get()
    finally:
        set_(previous)


def _calibrate(fn, warmup: int) -> int:
    """Warm up, then double the inner loop until one sample exceeds the
    timer floor; return the inner-loop count."""
    for _ in range(warmup):
        fn()
    inner = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        if time.perf_counter() - t0 >= MIN_SAMPLE_SECONDS or inner >= 4096:
            return inner
        inner *= 2


def _time_interleaved(fns, repeats: int, warmup: int):
    """Per-call seconds of each callable, shape (len(fns), repeats).

    Each callable is warmed up and gets its own inner-loop count, then
    the repetitions run round-robin (a, b, c, a, b, c, ...) so a passing
    host slowdown falls on every variant alike.  Also returns the
    inner-loop counts and, per callable, the non-None values it returned
    while timed.
    """
    inners = [_calibrate(fn, warmup) for fn in fns]
    samples = np.empty((len(fns), repeats))
    returned = [[] for _ in fns]
    for i in range(repeats):
        for j, (fn, inner) in enumerate(zip(fns, inners)):
            keep = returned[j].append
            t0 = time.perf_counter()
            for _ in range(inner):
                out = fn()
                if out is not None:
                    keep(out)
            samples[j, i] = (time.perf_counter() - t0) / inner
    return samples, inners, returned


def _median_iqr(samples: np.ndarray) -> tuple[float, float]:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return float(med), float(q3 - q1)


_VARIANTS = ("dense", "sgc", "dgc")


def run_benchmark(shapes: list[tuple[int, int, int, int]],
                  variants: list[str] | None = None,
                  threads: int | None = 1, repeats: int = 30,
                  warmup: int = 5, seed: int = 0) -> list[BenchResult]:
    """Time dense, SGC, and DGC batch-1 forwards on (C, C', H, k) shapes.

    SGC runs 4 groups; DGC runs DgcLayerConfig's defaults, 4 heads at
    prune rate 0.75, under head-wise gating.  All variants of a shape see
    the same input tensor, and their repetitions are interleaved.  The
    DGC variant runs the evaluation forward's own saliency, index and
    conv phases (dgc_forward with training=False) and times each, so the
    reported components partition the measured call.  Rows record the
    BLAS thread count that actually ran (0: unpinned).
    """
    from .dgc import DgcLayerConfig, init_dgc_layer

    if variants is None:
        variants = list(_VARIANTS)
    for variant in variants:
        if variant not in _VARIANTS:
            raise ValueError(f"unknown benchmark variant {variant!r}")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    groups = 4
    rng = np.random.default_rng(seed)
    results = []
    with _limit_threads(threads) as pinned:
        for c, cp, hw, k in shapes:
            pad = k // 2
            desc = f"{c}x{cp}x{hw}x{hw}k{k}"
            x = rng.normal(size=(1, c, hw, hw))
            squeeze = max(d for d in (16, 8, 4, 2, 1) if c % d == 0)
            layer = None
            if "dgc" in variants:
                layer = init_dgc_layer(
                    DgcLayerConfig(c, cp, k, 1, pad, squeeze=squeeze), rng)
                gating = HeadwiseGating(layer.config.prune_rate)
            dense_filt = ConvFilter(rng.normal(size=(cp, c, k, k)), 1, pad)
            group_w = rng.normal(size=(cp, c // groups, k, k))

            def dense():
                conv2d_forward(x, dense_filt)

            def sgc():
                sgc_forward(x, group_w, groups, 1, pad)

            def dgc():
                t0 = time.perf_counter()
                mlps = _saliency_phase(x, layer, False)[1]
                t1 = time.perf_counter()
                stacks = _index_phase(layer, [g for *_, g in mlps], gating)[1]
                t2 = time.perf_counter()
                _conv_phase(x, layer, stacks)
                return t1 - t0, t2 - t1, time.perf_counter() - t2

            fns = {"dense": dense, "sgc": sgc, "dgc": dgc}
            samples, inners, returned = _time_interleaved(
                [fns[v] for v in variants], repeats, warmup)
            for variant, row, inner, phases in zip(variants, samples, inners,
                                                   returned):
                med, iqr = _median_iqr(row)
                components = {}
                if phases:
                    components = dict(zip(("saliency", "index", "conv"),
                                          map(float, np.mean(phases, axis=0))))
                note = (f"inner loop scaled to {inner} for timer resolution"
                        if inner > 1 else "")
                results.append(BenchResult(variant, desc, pinned, repeats,
                                           inner, med, iqr,
                                           float(row.mean()), components,
                                           note))
    return results


BENCH_CSV_HEADER = ("variant,shape,threads,repeats,inner_loops,median_s,"
                    "iqr_s,mean_s,saliency_s,index_s,conv_s,note")


def bench_csv_rows(results: list[BenchResult]) -> list[str]:
    rows = []
    for r in results:
        comp = [r.components_s.get(key, float("nan"))
                for key in ("saliency", "index", "conv")]
        rows.append(f"{r.variant},{r.shape},{r.threads},{r.repeats},"
                    f"{r.inner_loops},{r.median_s!r},{r.iqr_s!r},"
                    f"{r.mean_s!r},"
                    + ",".join(repr(float(v)) for v in comp) + f",{r.note}")
    return rows


def read_bench_csv(lines: list[str]) -> list[BenchResult]:
    """Parse bench_csv_rows output (header and comment lines skipped)."""
    out = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("variant,"):
            continue
        parts = line.split(",")
        if len(parts) != len(BENCH_CSV_HEADER.split(",")):
            raise ValueError(f"benchmark row has {len(parts)} columns: {line}")
        comp_vals = [float(v) for v in parts[8:11]]
        components = {k: v for k, v in zip(("saliency", "index", "conv"),
                                           comp_vals) if not math.isnan(v)}
        out.append(BenchResult(parts[0], parts[1], int(parts[2]),
                               int(parts[3]), int(parts[4]), float(parts[5]),
                               float(parts[6]), float(parts[7]), components,
                               parts[11]))
    return out
