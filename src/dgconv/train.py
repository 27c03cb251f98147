"""Training harness: pruning schedule, loss assembly, epoch loop, evaluation.

Training minimizes cross-entropy plus the saliency lasso penalty (plus the
angle enlargement loss under global gating). The pruning rate follows a
three-stage schedule: zero for the first twelfth of the epochs, a linear
ramp to the target until three quarters, then constant for the final
quarter. The learning rate is cosine-annealed per epoch.

Metrics stream as CSV, one line per epoch, columns:

    epoch, lr, active_prune_rate, realized_prune_rate, loss_total,
    loss_ce, loss_lasso, loss_angle, train_accuracy, threshold

``threshold`` is nan outside global-gating mode (and before calibration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (
    load_checkpoint,
    restore_network,
    restore_optimizer,
    restore_threshold,
    save_checkpoint,
)
from .config import TrainConfig, serialize_config
from .core import SGD, conv_output_size, cosine_lr, softmax_cross_entropy
from .data import DatasetSource
from .dgc import GlobalGating, HeadwiseGating, lasso_loss
from .global_threshold import (
    GlobalThresholdState,
    SaliencyLibrary,
    angle_loss,
    angle_loss_and_grad,
    collect_saliencies,
    is_update_epoch,
    maybe_update_threshold,
)
from .model import DgcNetwork, build_network
from .runtime import LayerShape, mac_dgc, mac_sgc

__all__ = ["PruneSchedule", "prune_rate_at", "EpochMetrics", "METRICS_HEADER",
           "train_epoch", "fit", "FitResult", "EvalMetrics",
           "inference_gating", "evaluate",
           "read_metrics_csv", "read_eval_csv"]


@dataclass(frozen=True)
class PruneSchedule:
    """Three-stage schedule: warm-up, linear ramp, fine-tune."""

    total_epochs: int
    target: float

    def __post_init__(self) -> None:
        if self.total_epochs < 1:
            raise ValueError("schedule needs at least one epoch")
        if not 0.0 <= self.target < 1.0:
            raise ValueError(f"target rate must be in [0, 1), got {self.target}")
        if not 0 <= self.warmup_end < self.finetune_start <= self.total_epochs:
            raise ValueError("schedule stages out of order")

    @property
    def warmup_end(self) -> float:
        return self.total_epochs / 12.0

    @property
    def finetune_start(self) -> float:
        return 3.0 * self.total_epochs / 4.0


def prune_rate_at(epoch: int, schedule: PruneSchedule) -> float:
    """Active pruning rate for an epoch: 0, linear ramp, or the target."""
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.total_epochs})")
    if epoch < schedule.warmup_end:
        return 0.0
    if epoch >= schedule.finetune_start:
        return schedule.target
    span = schedule.finetune_start - schedule.warmup_end
    return schedule.target * (epoch - schedule.warmup_end) / span


METRICS_HEADER = ("epoch,lr,active_prune_rate,realized_prune_rate,loss_total,"
                  "loss_ce,loss_lasso,loss_angle,train_accuracy,threshold")


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    active_prune_rate: float
    realized_prune_rate: float
    loss_total: float
    loss_ce: float
    loss_lasso: float
    loss_angle: float
    train_accuracy: float
    threshold: float = float("nan")

    def csv_line(self) -> str:
        return ",".join([str(self.epoch)] + [repr(v) for v in (
            self.lr, self.active_prune_rate, self.realized_prune_rate,
            self.loss_total, self.loss_ce, self.loss_lasso, self.loss_angle,
            self.train_accuracy, self.threshold)])


def read_metrics_csv(path: str) -> list[EpochMetrics]:
    """Parse a metrics stream written during fit; exact inverse of csv_line."""
    ncols = len(METRICS_HEADER.split(","))
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line == METRICS_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != ncols:
                raise ValueError(f"{path}: line {lineno} has {len(parts)} "
                                 f"columns, expected {ncols}")
            out.append(EpochMetrics(int(parts[0]),
                                    *(float(v) for v in parts[1:])))
    return out


def _make_gating(config: TrainConfig,
                 active_rate: float,
                 threshold_state: GlobalThresholdState | None):
    if config.gating == "global":
        t = threshold_state.threshold if (threshold_state is not None
                                          and threshold_state.initialized) else 0.0
        return GlobalGating(t)
    return HeadwiseGating(active_rate)


def train_epoch(net: DgcNetwork, optimizer: SGD, data: DatasetSource,
                epoch: int, schedule: PruneSchedule, config: TrainConfig,
                rng: np.random.Generator,
                threshold_state: GlobalThresholdState | None = None,
                library: SaliencyLibrary | None = None) -> EpochMetrics:
    """One shuffled pass of minibatch SGD; aborts on a non-finite loss,
    naming the batch. Under global gating on an update epoch, saliency
    rows from the last collection_iterations batches land in the library."""
    lr = cosine_lr(epoch, config.epochs, config.lr) if config.lr > 0 else 0.0
    active = prune_rate_at(epoch, schedule)
    gating = _make_gating(config, active, threshold_state)
    n_dgc = len(net.dgc_indices)
    heads = config.heads

    n_batches = math.ceil(len(data) / config.batch_size)
    collect_from = max(0, n_batches - config.collection_iterations) \
        if (library is not None and is_update_epoch(epoch)) else n_batches

    seen = correct = 0
    sums = {"ce": 0.0, "lasso": 0.0, "angle": 0.0, "total": 0.0, "rate": 0.0}
    for i, (x, y) in enumerate(data.batches(config.batch_size, rng,
                                            augment=config.augment)):
        nb = x.shape[0]
        fwd = net.forward(x, gating if n_dgc else None, training=True)
        ce, dlogits = softmax_cross_entropy(fwd.logits, y)

        lasso_val = angle_val = 0.0
        lasso_elem = 0.0
        extra = None
        per_layer = fwd.saliencies_per_layer()
        if n_dgc and config.lasso > 0:
            flat = [g for heads_g in per_layer for g in heads_g]
            lasso_val = lasso_loss(flat, config.lasso)
            lasso_elem = config.lasso / (n_dgc * heads * nb)
        if n_dgc and config.gating == "global" and config.angle > 0:
            angle_val, angle_grads = angle_loss_and_grad(per_layer,
                                                         config.angle)
            extra = dict(zip(net.dgc_indices, angle_grads))
        total = ce + lasso_val + angle_val
        if not np.isfinite(total):
            raise RuntimeError(f"non-finite loss {total} at epoch {epoch}, "
                               f"batch {i}")

        grads = net.backward(fwd, dlogits, lasso_coeff=lasso_elem,
                             saliency_grad_extra=extra)
        optimizer.step(grads, lr)

        if i >= collect_from:
            if i == collect_from:
                library.clear()
            library.append_batch(collect_saliencies(per_layer))

        seen += nb
        correct += int((fwd.logits.argmax(axis=1) == y).sum())
        sums["ce"] += ce * nb
        sums["lasso"] += lasso_val * nb
        sums["angle"] += angle_val * nb
        sums["total"] += total * nb
        if n_dgc:
            sums["rate"] += nb * float(np.mean(
                [fwd.dgc_fwds[b].realized_prune_rate for b in net.dgc_indices]))

    thr = threshold_state.threshold if (threshold_state is not None
                                        and threshold_state.initialized) \
        else float("nan")
    return EpochMetrics(epoch, lr, active, sums["rate"] / seen,
                        sums["total"] / seen, sums["ce"] / seen,
                        sums["lasso"] / seen, sums["angle"] / seen,
                        correct / seen, thr)


@dataclass
class FitResult:
    net: DgcNetwork
    optimizer: SGD
    history: list[EpochMetrics]
    threshold_state: GlobalThresholdState | None
    rng: np.random.Generator


def fit(config: TrainConfig, data: DatasetSource, *,
        metrics_path: str | None = None, checkpoint_path: str | None = None,
        resume_from: str | None = None, epoch_hook=None) -> FitResult:
    """Full training loop with per-epoch metrics, checkpointing, and
    (global mode) threshold recalibration every third epoch.

    Resuming restores parameters, optimizer velocities, batch-norm
    statistics, threshold state, and the data-order RNG, so a resumed run
    is bit-identical to the uninterrupted one.
    """
    data.check_classes(config.classes)
    schedule = PruneSchedule(config.epochs, config.prune_rate)
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if serialize_config(ckpt.config) != serialize_config(config):
            raise ValueError("resume config differs from checkpoint config")
        if not all(np.array_equal(a, b) for a, b in zip(data.stats, ckpt.stats)):
            raise ValueError(
                f"resume data statistics differ from the checkpoint's: data "
                f"mean {data.stats[0].tolist()} std {data.stats[1].tolist()}, "
                f"checkpoint mean {ckpt.stats[0].tolist()} std "
                f"{ckpt.stats[1].tolist()}")
        net = restore_network(ckpt)
        optimizer = restore_optimizer(ckpt, net)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = ckpt.rng_state
        start_epoch = ckpt.epoch
        threshold_state = restore_threshold(ckpt) \
            if config.gating == "global" else None
    else:
        net = build_network(config)
        optimizer = SGD(params=net.parameters(), lr=config.lr,
                        momentum=config.momentum,
                        weight_decay=config.weight_decay,
                        no_decay=net.no_decay_names())
        rng = np.random.default_rng(config.seed + 1)
        start_epoch = 0
        threshold_state = GlobalThresholdState(
            collection_iterations=config.collection_iterations,
            batch_size=config.batch_size) if config.gating == "global" else None

    library = None
    if config.gating == "global" and net.dgc_indices:
        row_length = sum(config.heads * net.blocks[i].dgc.config.in_channels
                         for i in net.dgc_indices)
        library = SaliencyLibrary(
            capacity=config.collection_iterations * config.batch_size,
            row_length=row_length)

    mfh = None
    if metrics_path is not None:
        mfh = open(metrics_path, "a", encoding="ascii")
        if start_epoch == 0:
            mfh.write(METRICS_HEADER + "\n")

    history: list[EpochMetrics] = []
    try:
        for epoch in range(start_epoch, config.epochs):
            metrics = train_epoch(net, optimizer, data, epoch, schedule,
                                  config, rng, threshold_state, library)
            if threshold_state is not None and library is not None:
                threshold_state = maybe_update_threshold(
                    threshold_state, epoch, library,
                    prune_rate_at(epoch, schedule))
                metrics.threshold = threshold_state.threshold \
                    if threshold_state.initialized else float("nan")
            history.append(metrics)
            if mfh is not None:
                mfh.write(metrics.csv_line() + "\n")
                mfh.flush()
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, net, optimizer, epoch + 1,
                                rng, threshold_state, stats=data.stats)
            if epoch_hook is not None:
                epoch_hook(epoch, metrics, net)
    finally:
        if mfh is not None:
            mfh.close()
    return FitResult(net, optimizer, history, threshold_state, rng)


@dataclass
class EvalMetrics:
    accuracy: float
    per_layer_prune_rates: list[float]
    macs_per_sample: int
    mean_abs_cos: float
    samples: int
    threshold: float = float("nan")

    def csv_lines(self) -> list[str]:
        head = "samples,accuracy,macs_per_sample,mean_abs_cos,threshold"
        rates = ",".join(repr(r) for r in self.per_layer_prune_rates)
        return [head,
                f"{self.samples},{self.accuracy!r},{self.macs_per_sample},"
                f"{self.mean_abs_cos!r},{self.threshold!r}",
                "per_layer_prune_rates," + rates]


def read_eval_csv(lines: list[str]) -> EvalMetrics:
    """Parse EvalMetrics.csv_lines output; exact inverse."""
    values = rates = None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("samples,"):
            continue
        if line.startswith("per_layer_prune_rates,"):
            rates = [float(v) for v in line.split(",")[1:] if v]
        else:
            values = line.split(",")
    if values is None or rates is None or len(values) != 5:
        raise ValueError("not an evaluation table")
    return EvalMetrics(accuracy=float(values[1]), per_layer_prune_rates=rates,
                       macs_per_sample=int(values[2]),
                       mean_abs_cos=float(values[3]), samples=int(values[0]),
                       threshold=float(values[4]))


def inference_gating(config: TrainConfig,
                     threshold_state: GlobalThresholdState | None):
    """The gating of a trained model: the calibrated global threshold in
    global mode, else head-wise at the target rate. (Training's own rule,
    _make_gating, gates at threshold 0 before the first calibration.)"""
    if config.gating == "global":
        if threshold_state is None or not threshold_state.initialized:
            raise ValueError("global gating needs a calibrated threshold")
        return GlobalGating(threshold_state.threshold)
    return HeadwiseGating(config.prune_rate)


def evaluate(net: DgcNetwork, data: DatasetSource,
             threshold_state: GlobalThresholdState | None = None,
             batch_size: int = 256) -> EvalMetrics:
    """Deterministic evaluation pass: batch-norm in inference mode, gating
    at the target rate (head-wise) or the frozen threshold (global).

    MACs per sample cover the convolutional blocks only: dense cost for
    plain/SGC blocks, saliency + reduced conv cost for DGC blocks, with
    the realized channel counts measured on this data in global mode.
    """
    config = net.config
    data.check_classes(config.classes)
    gating = inference_gating(config, threshold_state)

    n_dgc = len(net.dgc_indices)
    seen = correct = 0
    rate_sums = {b: 0.0 for b in net.dgc_indices}
    kept_sums = {b: np.zeros(config.heads) for b in net.dgc_indices}
    cos_sum = 0.0
    for x, y in data.batches(batch_size):
        nb = x.shape[0]
        fwd = net.forward(x, gating if n_dgc else None, training=False)
        correct += int((fwd.logits.argmax(axis=1) == y).sum())
        seen += nb
        for b in net.dgc_indices:
            dfwd = fwd.dgc_fwds[b]
            rate_sums[b] += nb * dfwd.realized_prune_rate
            kept_sums[b] += nb * np.array([m.sum(axis=1).mean()
                                           for m in dfwd.masks])
        if n_dgc:
            cos_sum += nb * angle_loss(fwd.saliencies_per_layer(), 1.0)
    if seen == 0:
        raise ValueError("evaluation dataset is empty")

    rates = [rate_sums[b] / seen for b in net.dgc_indices]
    h, w = data.images.shape[2:]
    macs = 0
    for i, blk in enumerate(net.blocks):
        spec = blk.spec
        shape = LayerShape.from_input(spec.in_channels, spec.out_channels,
                                      spec.kernel_size, h, w, spec.stride,
                                      spec.padding)
        if blk.dgc is not None:
            measured = list(kept_sums[i] / seen) \
                if config.gating == "global" else None
            macs += mac_dgc(shape, config.prune_rate, config.heads,
                            config.squeeze, measured).total_macs
        else:
            macs += mac_sgc(shape, spec.groups)
        h, w = shape.out_h, shape.out_w

    thr = threshold_state.threshold if (threshold_state is not None
                                        and threshold_state.initialized) \
        else float("nan")
    return EvalMetrics(correct / seen, rates, macs,
                       cos_sum / seen if n_dgc else float("nan"), seen, thr)
