"""The four benchmark workloads: inputs, one timed round, output checks.

Every workload builds its inputs from the seed alone and reaches the
program only through ``dgconv``'s public functions, looked up on the
package at call time so the traced run sees the same calls.  A round is
the unit the timed loop repeats; ``ops`` is the number of operations one
round attempts.  ``check`` returns the failed checks, empty when the
outputs are right.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import dgconv as D

import oracle

IMAGES = 2000
CLASSES = 2
TRAIN_EPOCHS = 4           # as in DESK_CONFIG
EVAL_BATCH = 256
# Batch-norm priming: 40 training-mode batches bring the running
# statistics within 0.9**40 = 1.5% of their start, so inference-mode
# saliencies match the training-mode ones the threshold is calibrated
# on, and global mode keeps about half the channels on every seed (with
# 5 batches it pruned 80% and the kept count moved 13% between seeds).
PRIME_STEPS = 40
PRIME_BATCHES = 5          # = collection_iterations: the library's batches
PRIME_BATCH_SIZE = 64
B1_SHAPES = ((64, 56), (128, 28), (256, 14))
B1_VARIANTS = ("gated", "plan", "dense", "grouped")
B1_HEADS, B1_RATE, B1_GROUPS, B1_SQUEEZE = 4, 0.75, 4, 16
TOL = 1e-10
# Per-layer metric names and units of layer_b1; other workloads read 0.
B1_METRICS = {
    **{f"b1.{c}x{hw}.{field}": unit for c, hw in B1_SHAPES for field, unit in (
        ("gated_ms", "ms"), ("gated_p90_ms", "ms"), ("plan_ms", "ms"),
        ("dense_ms", "ms"), ("grouped_ms", "ms"), ("mac_saving", "ratio"),
        ("time_saving", "ratio"))},
    **{f"b1_{v}_ms": "ms" for v in B1_VARIANTS},
    "b1.samples": "count",
}
PROBES = 5                 # host probes between rounds (epochs in train_desk)

# A copy of the desk model config, so that edits to configs/desk.cfg do
# not move the benchmark.
DESK_CONFIG = """\
model = conv:3:8:3:2:1, dgc:8:16:3:2:1, dgc:16:32:3:2:1, dgc:32:64:3:1:1
classes = 2
batch_size = 64
epochs = 4
lr = 0.05
momentum = 0.9
weight_decay = 1e-4
lasso = 1e-5
prune_rate = 0.5
heads = 4
squeeze = 8
gating = {gating}
collection_iterations = 5
seed = 0
"""


def desk_config(gating: str):
    return D.parse_config(DESK_CONFIG.format(gating=gating))


class Inputs:
    """Seeded class-separable 3x32x32 images: each class owns a smooth
    4x4-block template in [0.1, 0.9]; a sample is its class template plus
    Gaussian noise of sd 0.2, clipped to [0, 1]."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = self.rng("templates")
        coarse = rng.uniform(0.1, 0.9, size=(CLASSES, 3, 4, 4))
        self.templates = coarse.repeat(8, axis=2).repeat(8, axis=3)

    def rng(self, stream: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream.encode()])

    def images(self, stream: str, count: int) -> tuple[np.ndarray, np.ndarray]:
        rng = self.rng(stream)
        labels = rng.integers(0, CLASSES, size=count)
        noise = 0.2 * rng.normal(size=(count, 3, 32, 32))
        return np.clip(self.templates[labels] + noise, 0.0, 1.0), labels


class HostProbe:
    """A fixed numpy-only computation, timed between the workload's own
    calls: a 3x3 patch copy of a 64x58x58 tensor, its product with a
    576x64 matrix, and 200 small array operations, about 10 ms in all.
    It shares no code with dgconv, so its time follows only the speed of
    the host, which other tenants of a shared machine move by up to 30%
    over tens of seconds; the program's time divided by it does not."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(1, 64, 58, 58))
        self.w = rng.normal(size=(576, 64))
        self.v = rng.normal(size=64)
        self.seconds: list[float] = []
        for _ in range(PROBES):
            self()
        self.seconds.clear()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        win = sliding_window_view(self.x, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 576)
        cols @ self.w
        v = self.v
        for _ in range(200):
            v = np.maximum(v * 0.5, -1.0) + 0.1
        self.seconds.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return float(np.median(self.seconds))


# ---------------------------------------------------------------------------
# train_desk
# ---------------------------------------------------------------------------

class TrainDesk:
    """fit() on the desk model under head-wise gating, writing metrics and
    a checkpoint each epoch; one round is one whole fit."""

    # Central differences at eps 1e-6 matched backward to 1.2e-8 absolute
    # on gradients of order 0.01-7 (seeds 1-3).
    FD_EPS = 1e-6
    FD_TOL_ABS, FD_TOL_REL = 1e-7, 1e-7

    def __init__(self, seed: int, workdir: str):
        self.inputs = Inputs(seed)
        self.workdir = workdir

    def setup(self) -> None:
        self.config = desk_config("headwise")
        images, labels = self.inputs.images("train", IMAGES)
        self.data = D.DatasetSource.from_arrays(images, labels)
        self.ops = TRAIN_EPOCHS * math.ceil(IMAGES / self.config.batch_size)
        self.metrics_path = os.path.join(self.workdir, "metrics.csv")
        self.ckpt_path = os.path.join(self.workdir, "model.ckpt")
        self.epoch_s: list[float] = []
        self.probe = HostProbe()
        self.result = None

    def run_round(self) -> None:
        if os.path.exists(self.metrics_path):
            os.remove(self.metrics_path)
        resumed = [time.perf_counter()]

        def between_epochs(*_):
            self.epoch_s.append(time.perf_counter() - resumed[0])
            for _ in range(PROBES):
                self.probe()
            resumed[0] = time.perf_counter()

        self.result = D.fit(self.config, self.data,
                            metrics_path=self.metrics_path,
                            checkpoint_path=self.ckpt_path,
                            epoch_hook=between_epochs)

    def images_per_s(self) -> float:
        return float(np.median(IMAGES / np.array(self.epoch_s)))

    def check(self) -> list[str]:
        errors = []
        cfg, history = self.config, self.result.history
        layers = [blk.dgc.config.in_channels for blk in self.result.net.blocks
                  if blk.dgc is not None]
        if len(history) != TRAIN_EPOCHS:
            errors.append(f"fit returned {len(history)} epochs")
        for m in history:
            rate = oracle.schedule_rate(m.epoch, TRAIN_EPOCHS, cfg.prune_rate)
            want = float(np.mean([1 - oracle.kept_count(c, rate) / c
                                  for c in layers]))
            if abs(m.active_prune_rate - rate) > 1e-12:
                errors.append(f"epoch {m.epoch}: active rate "
                              f"{m.active_prune_rate!r}, schedule gives {rate!r}")
            if abs(m.realized_prune_rate - want) > 1e-12:
                errors.append(f"epoch {m.epoch}: realized rate "
                              f"{m.realized_prune_rate!r}, expected {want!r}")
            losses = (m.loss_total, m.loss_ce, m.loss_lasso, m.loss_angle)
            if not all(math.isfinite(v) for v in losses):
                errors.append(f"epoch {m.epoch}: non-finite loss {losses}")
        if history and not history[-1].loss_ce < math.log(CLASSES):
            errors.append(f"last cross-entropy {history[-1].loss_ce!r} is not "
                          f"below ln({CLASSES})")
        with open(self.metrics_path, encoding="ascii") as fh:
            rows = [line for line in fh if line.strip()]
        if len(rows) != TRAIN_EPOCHS + 1:
            errors.append(f"metrics file has {len(rows)} lines, expected "
                          f"header + {TRAIN_EPOCHS}")

        held, _ = self.inputs.images("held_out", 128)
        x = self.data.standardized(held)
        gating = D.HeadwiseGating(cfg.prune_rate)
        fitted = self.result.net.forward(x, gating, training=False).logits
        reloaded = D.restore_network(D.load_checkpoint(self.ckpt_path))
        if not np.array_equal(
                reloaded.forward(x, gating, training=False).logits, fitted):
            errors.append("reloaded checkpoint's eval logits differ from the "
                          "fitted network's")
        errors += self.check_gradients(reloaded, gating)
        return errors

    def check_gradients(self, net, gating) -> list[str]:
        """Central differences on filter and saliency-weight coordinates of
        every gated layer, at points where no keep mask and no relu
        pattern changes within +-eps, against DgcNetwork.backward."""
        images, _ = self.inputs.images("fd", 32)
        x = self.data.standardized(images)
        rng = self.inputs.rng("fd_coords")
        params = net.parameters()
        # A random linear read-out of the logits keeps gradients of order
        # one, where a saturated cross-entropy would shrink them.
        readout = rng.normal(size=(len(x), net.config.classes))

        def loss_and_region():
            fwd = net.forward(x, gating, training=True)
            region = [y > 0 for y in fwd.pre_relu]
            for i in net.dgc_indices:
                dfwd, layer = fwd.dgc_fwds[i], net.blocks[i].dgc
                region += list(dfwd.masks)
                region += [g > 0 for g in dfwd.saliencies]
                pooled = fwd.block_inputs[i].mean(axis=(2, 3))
                region += [pooled @ h.w_squeeze.T + h.b_squeeze > 0
                           for h in layer.heads]
            return fwd, float((fwd.logits * readout).sum()), region

        fwd, _, base = loss_and_region()
        grads = net.backward(fwd, readout)
        errors = []
        for b in net.dgc_indices:
            for field in ("filters", "w_squeeze", "w_expand"):
                name = f"b{b}.h{rng.integers(net.config.heads)}.{field}"
                p, g = params[name], grads[name]
                coords = [np.unravel_index(np.argmax(np.abs(g)), g.shape)]
                coords += [tuple(rng.integers(0, s) for s in g.shape)
                           for _ in range(3)]
                done = 0
                for coord in coords:
                    coord = tuple(int(i) for i in coord)
                    old = p[coord]
                    p[coord] = old + self.FD_EPS
                    _, up, region_up = loss_and_region()
                    p[coord] = old - self.FD_EPS
                    _, down, region_down = loss_and_region()
                    p[coord] = old
                    if not all(np.array_equal(a, r) for a, r in
                               zip(base + base, region_up + region_down)):
                        continue
                    fd = (up - down) / (2 * self.FD_EPS)
                    an = float(g[coord])
                    if abs(fd - an) > self.FD_TOL_ABS + self.FD_TOL_REL * abs(an):
                        errors.append(f"{name}{coord}: backward {an!r}, "
                                      f"finite difference {fd!r}")
                    done += 1
                    if done == 2:
                        break
                if done == 0:
                    errors.append(f"{name}: no coordinate with stable masks")
        return errors


# ---------------------------------------------------------------------------
# eval_headwise / eval_global
# ---------------------------------------------------------------------------

class EvalDesk:
    """evaluate() at batch 256 on 2000 images with the untrained desk
    model, batch-norm statistics primed by training-mode forwards; one
    round is one evaluate() over all images."""

    def __init__(self, gating: str, seed: int, workdir: str):
        self.mode = gating
        self.inputs = Inputs(seed)

    def setup(self) -> None:
        self.config = desk_config(self.mode)
        images, labels = self.inputs.images("eval", IMAGES)
        self.data = D.DatasetSource.from_arrays(images, labels)
        self.ops = IMAGES
        self.net = D.build_network(self.config)
        self.threshold_state = None
        if self.mode == "global":
            # fit's first collection epoch: threshold 0 keeps everything,
            # and the library holds the epoch's last batches.
            gating = D.GlobalGating(0.0)
            row = sum(self.config.heads * self.net.blocks[i].dgc.config.in_channels
                      for i in self.net.dgc_indices)
            self.library = D.SaliencyLibrary(
                capacity=PRIME_BATCHES * PRIME_BATCH_SIZE, row_length=row)
        else:
            gating = D.HeadwiseGating(self.config.prune_rate)
        for step in range(PRIME_STEPS):
            prime, _ = self.inputs.images(f"prime{step}", PRIME_BATCH_SIZE)
            fwd = self.net.forward(self.data.standardized(prime), gating,
                                   training=True)
            if self.mode == "global" and step >= PRIME_STEPS - PRIME_BATCHES:
                self.library.append_batch(np.concatenate(
                    [g for heads in fwd.saliencies_per_layer() for g in heads],
                    axis=1))
        if self.mode == "global":
            threshold = D.compute_global_threshold(self.library,
                                                   self.config.prune_rate)
            self.threshold_state = D.GlobalThresholdState(
                threshold=threshold, collection_iterations=PRIME_BATCHES,
                batch_size=PRIME_BATCH_SIZE)
            self.gate = ("threshold", threshold)
            self.gating = D.GlobalGating(threshold)
        else:
            self.gate = ("topk", self.config.prune_rate)
            self.gating = D.HeadwiseGating(self.config.prune_rate)
        warm = D.DatasetSource.from_arrays(images[:EVAL_BATCH],
                                           labels[:EVAL_BATCH],
                                           stats=self.data.stats)
        D.evaluate(self.net, warm, self.threshold_state, batch_size=EVAL_BATCH)
        self.round_s: list[float] = []
        self.probe = HostProbe()
        self.result = None

    def run_round(self) -> None:
        t0 = time.perf_counter()
        self.result = D.evaluate(self.net, self.data, self.threshold_state,
                                 batch_size=EVAL_BATCH)
        self.round_s.append(time.perf_counter() - t0)
        for _ in range(PROBES):
            self.probe()

    def images_per_s(self) -> float:
        return float(np.median(IMAGES / np.array(self.round_s)))

    def check(self) -> list[str]:
        errors = []
        net, cfg, res = self.net, self.config, self.result
        if self.mode == "global":
            flat = np.sort(np.abs(self.library.rows).ravel())
            want = flat[int(math.floor(cfg.prune_rate * flat.size + 1e-9))]
            if self.gate[1] != want:
                errors.append(f"threshold {self.gate[1]!r}, rank statistic {want!r}")

        x_all = self.data.standardized()
        first = net.forward(x_all[:EVAL_BATCH], self.gating, training=False)
        logits, masks = [], {b: [] for b in net.dgc_indices}
        for start in range(0, IMAGES, EVAL_BATCH):
            lo, m = oracle.network_eval(net, x_all[start:start + EVAL_BATCH], self.gate)
            logits.append(lo)
            for b in net.dgc_indices:
                masks[b].append(np.stack(m[b]))       # (heads, N, C)
        logits = np.concatenate(logits)
        masks = {b: np.concatenate(v, axis=1) for b, v in masks.items()}

        err = oracle.rel_error(first.logits, logits[:EVAL_BATCH])
        if not err <= TOL:
            errors.append(f"logits differ from the oracle by {err:.3g} relative")
        for b in net.dgc_indices:
            if not np.array_equal(np.stack(first.dgc_fwds[b].masks),
                                  masks[b][:, :EVAL_BATCH]):
                errors.append(f"block {b}: keep masks differ from the oracle")

        correct = int((logits.argmax(axis=1) == self.data.labels).sum())
        if res.samples != IMAGES or res.accuracy != correct / IMAGES:
            errors.append(f"accuracy {res.accuracy!r} on {res.samples} images, "
                          f"oracle {correct / IMAGES!r} on {IMAGES}")
        want_rates = [1.0 - masks[b].sum() / masks[b].size for b in net.dgc_indices]
        if len(res.per_layer_prune_rates) != len(want_rates) or any(
                abs(a - w) > 1e-12 for a, w in zip(res.per_layer_prune_rates, want_rates)):
            errors.append(f"prune rates {res.per_layer_prune_rates}, oracle "
                          f"{want_rates}")

        macs, h = 0, 32
        for i, blk in enumerate(net.blocks):
            s = blk.spec
            oh = (h + 2 * s.padding - s.kernel_size) // s.stride + 1
            if blk.dgc is None:
                macs += s.kernel_size ** 2 * s.out_channels * s.in_channels * oh * oh
            else:
                if self.mode == "global":
                    kept = list(masks[i].sum(axis=2).mean(axis=1))
                else:
                    kept = [oracle.kept_count(s.in_channels, cfg.prune_rate)] * cfg.heads
                macs += oracle.gated_macs(s.in_channels, s.out_channels,
                                          s.kernel_size, oh * oh, cfg.heads,
                                          cfg.squeeze, kept)
            h = oh
        if res.macs_per_sample != macs:
            errors.append(f"macs_per_sample {res.macs_per_sample}, expected {macs}")

        if self.mode == "global":
            empty = sum(int((m.sum(axis=1) == 0).sum())
                        for b in net.dgc_indices for m in first.dgc_fwds[b].masks)
            if empty == 0:
                errors.append("no head slice is empty: the empty path is not run")
        return errors


# ---------------------------------------------------------------------------
# layer_b1
# ---------------------------------------------------------------------------

class LayerB1:
    """One gated layer at batch 1 on three ResNet-like shapes, next to its
    index plan, a dense convolution and a 4-group convolution; one round
    times each of the twelve calls once, round-robin."""

    def __init__(self, seed: int, workdir: str):
        self.inputs = Inputs(seed)

    def setup(self) -> None:
        rng = self.inputs.rng("layer_b1")
        self.cases = []
        for c, hw in B1_SHAPES:
            layer = D.init_dgc_layer(
                D.DgcLayerConfig(c, c, 3, 1, 1, heads=B1_HEADS,
                                 squeeze=B1_SQUEEZE, prune_rate=B1_RATE), rng)
            x = rng.normal(size=(1, c, hw, hw))
            dense = D.core.ConvFilter(rng.normal(size=(c, c, 3, 3)), 1, 1)
            grouped = rng.normal(size=(c, c // B1_GROUPS, 3, 3))
            gating = D.HeadwiseGating(B1_RATE)
            plan = D.plan_from_forward(
                layer, D.dgc_forward(x, layer, gating, training=False), 0)
            calls = {
                "gated": lambda x=x, layer=layer, gating=gating:
                    D.dgc_forward(x, layer, gating, training=False),
                "plan": lambda x=x, plan=plan: D.execute_plan(plan, x[0]),
                "dense": lambda x=x, f=dense: D.core.conv2d_forward(x, f),
                "grouped": lambda x=x, w=grouped:
                    D.dgc.sgc_forward(x, w, B1_GROUPS, 1, 1),
            }
            self.cases.append({"name": f"{c}x{hw}", "c": c, "hw": hw,
                               "x": x, "layer": layer, "dense": dense,
                               "grouped": grouped, "calls": calls,
                               "ms": {v: [] for v in B1_VARIANTS},
                               "out": {}})
        for case in self.cases:
            for _ in range(3):
                for fn in case["calls"].values():
                    fn()
        self.probe = HostProbe()
        self.ops = len(B1_SHAPES) * len(B1_VARIANTS)

    def run_round(self) -> None:
        for case in self.cases:
            for variant in B1_VARIANTS:
                fn = case["calls"][variant]
                t0 = time.perf_counter()
                out = fn()
                case["ms"][variant].append((time.perf_counter() - t0) * 1e3)
                case["out"][variant] = out
            self.probe()

    def median_ms(self, variant: str) -> float:
        return float(sum(np.median(c["ms"][variant]) for c in self.cases))

    def images_per_s(self) -> float:
        """Batch-1 images per second through the three gated layers."""
        return 1e3 / self.median_ms("gated")

    def per_layer(self) -> dict[str, float]:
        """Values of B1_METRICS."""
        out = {}
        for case in self.cases:
            c, hw, ms = case["c"], case["hw"], case["ms"]
            key = f"b1.{case['name']}"
            med = {v: float(np.median(ms[v])) for v in B1_VARIANTS}
            for v in B1_VARIANTS:
                out[f"{key}.{v}_ms"] = med[v]
            out[f"{key}.gated_p90_ms"] = float(np.percentile(ms["gated"], 90))
            shape = D.runtime.LayerShape(c, c, 3, hw, hw)
            out[f"{key}.mac_saving"] = D.mac_dgc(shape, B1_RATE, B1_HEADS,
                                                 B1_SQUEEZE).saving_ratio
            out[f"{key}.time_saving"] = med["dense"] / med["gated"]
        for v in B1_VARIANTS:
            out[f"b1_{v}_ms"] = self.median_ms(v)
        out["b1.samples"] = len(self.cases[0]["ms"]["gated"])
        return out

    def check(self) -> list[str]:
        errors = []
        for case in self.cases:
            name, x, layer, out = case["name"], case["x"], case["layer"], case["out"]
            gated = out["gated"]
            want, masks = oracle.gated_layer(x, layer, ("topk", B1_RATE))
            pairs = (("dgc_forward", gated.output, want),
                     ("conv2d_forward", out["dense"],
                      oracle.direct_conv(x, case["dense"].weights, 1, 1)),
                     ("sgc_forward", out["grouped"],
                      oracle.grouped_conv(x, case["grouped"], B1_GROUPS, 1, 1)))
            for label, got, ref in pairs:
                err = oracle.rel_error(got, ref)
                if not err <= TOL:
                    errors.append(f"{name}: {label} differs from the direct "
                                  f"convolution by {err:.3g} relative")
            if not np.array_equal(out["plan"], gated.output[0]):
                errors.append(f"{name}: execute_plan differs from dgc_forward")
            keep = oracle.kept_count(case["c"], B1_RATE)
            for h, m in enumerate(gated.masks):
                if not np.all(m.sum(axis=1) == keep):
                    errors.append(f"{name}: head {h} keeps {m.sum(axis=1)} "
                                  f"channels, expected {keep}")
                if not np.array_equal(m, masks[h]):
                    errors.append(f"{name}: head {h} mask differs from the oracle")
        return errors


WORKLOADS = {
    "train_desk": TrainDesk,
    "eval_headwise": lambda seed, workdir: EvalDesk("headwise", seed, workdir),
    "eval_global": lambda seed, workdir: EvalDesk("global", seed, workdir),
    "layer_b1": LayerB1,
}
