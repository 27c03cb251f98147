"""Network-wide gating: saliency library, global threshold, angle loss.

Instead of each head keeping a fixed top-k, this variant prunes any channel
whose absolute saliency falls strictly below a single network-wide threshold.
The threshold is the exact rank statistic of a rolling library of signed
saliency rows collected during training, recomputed every third epoch from
the last N iterations, and frozen after the final update for inference.

Because heads may now keep uneven channel sets, an angle enlargement loss
pushes the per-layer head saliency vectors apart so heads specialize on
different channel subsets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dgc import _RANK_EPS

__all__ = [
    "SaliencyLibrary",
    "GlobalThresholdState",
    "collect_saliencies",
    "compute_global_threshold",
    "is_update_epoch",
    "maybe_update_threshold",
    "angle_loss",
    "angle_loss_and_grad",
]

_NORM_EPS = 1e-12

# Epochs between threshold recomputations (update fires on the third epoch
# of each period, i.e. epoch % PERIOD == PERIOD - 1).
UPDATE_PERIOD = 3


def is_update_epoch(epoch: int) -> bool:
    """Whether the threshold is recomputed at the end of this epoch, the
    last of each UPDATE_PERIOD-epoch period; training fills the saliency
    library during such epochs."""
    return epoch % UPDATE_PERIOD == UPDATE_PERIOD - 1


@dataclass
class SaliencyLibrary:
    """FIFO buffer of network-wide saliency rows.

    Each row concatenates every head's signed saliency vector in layer-major,
    head-minor order; capacity is collection_iterations * batch_size rows.
    """

    capacity: int
    row_length: int
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1 or self.row_length < 1:
            raise ValueError("library capacity and row length must be positive")
        self._rows = np.empty((0, self.row_length))

    def __len__(self) -> int:
        return self._rows.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def size(self) -> int:
        """Total scalar entry count."""
        return self._rows.size

    def append_batch(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.row_length:
            raise ValueError(f"library rows have length {self.row_length}, "
                             f"got {rows.shape[1]}")
        self._rows = np.concatenate([self._rows, rows])[-self.capacity:]

    def clear(self) -> None:
        self._rows = np.empty((0, self.row_length))


def collect_saliencies(per_layer: list[list[np.ndarray]]) -> np.ndarray:
    """Concatenate per-(layer, head) saliency batches into library rows.

    ``per_layer[l][h]`` is the (N, C_l) signed saliency batch of head h in
    layer l; the result is (N, sum_l heads_l * C_l), one row per sample.
    """
    if not per_layer or any(not heads for heads in per_layer):
        raise ValueError("every layer must supply at least one head saliency")
    flat = [np.atleast_2d(g) for heads in per_layer for g in heads]
    n = flat[0].shape[0]
    if any(g.shape[0] != n for g in flat):
        raise ValueError("head saliencies disagree on batch size")
    return np.concatenate(flat, axis=1)


def compute_global_threshold(library: SaliencyLibrary, prune_rate: float) -> float:
    """Exact rank statistic: the (floor(prune_rate * M) + 1)-th smallest
    absolute entry of the library, M being the total entry count.

    Channels strictly below the result are pruned, so the realized
    strictly-below fraction is the largest value <= prune_rate the library
    admits. No interpolation between order statistics.
    """
    if len(library) == 0:
        raise ValueError("cannot compute a threshold from an empty library")
    if not 0.0 <= prune_rate < 1.0:
        raise ValueError(f"prune_rate must be in [0, 1), got {prune_rate}")
    flat = np.abs(library.rows).ravel()
    rank = int(math.floor(prune_rate * flat.size + _RANK_EPS))
    return float(np.partition(flat, rank)[rank])


@dataclass
class GlobalThresholdState:
    threshold: float | None = None
    collection_iterations: int = 5
    batch_size: int = 256
    last_update_epoch: int | None = None

    @property
    def initialized(self) -> bool:
        return self.threshold is not None


def maybe_update_threshold(state: GlobalThresholdState, epoch: int,
                           library: SaliencyLibrary,
                           prune_rate: float) -> GlobalThresholdState:
    """Epoch-end hook: recompute the threshold on the third epoch of every
    three-epoch period, otherwise leave the state untouched. An empty
    library keeps the previous threshold and emits a warning."""
    if not is_update_epoch(epoch):
        return state
    if len(library) == 0:
        warnings.warn(f"threshold update at epoch {epoch} skipped: "
                      "saliency library is empty", RuntimeWarning,
                      stacklevel=2)
        return state
    state.threshold = compute_global_threshold(library, prune_rate)
    state.last_update_epoch = epoch
    return state


def _unit_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize along the last axis; zero-norm rows map to zero vectors."""
    norm = np.linalg.norm(g, axis=-1)
    safe = np.where(norm > _NORM_EPS, norm, 1.0)
    unit = g / safe[..., None]
    unit[norm <= _NORM_EPS] = 0.0
    return unit, norm


def angle_loss(per_layer: list[list[np.ndarray]], coeff: float) -> float:
    """Mean absolute cosine between head saliency vectors within each layer:
    coeff * 2/(L*H*(H-1)) * sum over layers and head pairs, batch-averaged.
    Layers with a single head (and zero-norm vectors) contribute 0."""
    return _angle(per_layer, coeff, with_grad=False)[0]


def angle_loss_and_grad(per_layer: list[list[np.ndarray]],
                        coeff: float) -> tuple[float, list[list[np.ndarray]]]:
    """Angle loss together with its gradient w.r.t. every saliency batch,
    in the same [layer][head] nesting as the input."""
    return _angle(per_layer, coeff, with_grad=True)


def _angle(per_layer, coeff, with_grad):
    if not per_layer:
        raise ValueError("angle loss needs at least one layer")
    total = 0.0
    grads: list[list[np.ndarray]] = []
    layers = len(per_layer)
    for heads in per_layer:
        g = np.stack([np.atleast_2d(h).astype(np.float64) for h in heads])
        h, n, _ = g.shape
        if h < 2:
            total += 0.0
            grads.append([np.zeros_like(x, dtype=np.float64) for x in g])
            continue
        unit, norm = _unit_rows(g)
        cos = np.einsum("inc,jnc->ijn", unit, unit)
        sgn = np.sign(cos)
        sgn[np.arange(h), np.arange(h)] = 0.0
        pair_scale = 2.0 / (h * (h - 1))
        total += pair_scale * float((np.abs(cos) * (sgn != 0)).sum(axis=(0, 1)).mean()) / 2
        if with_grad:
            scale = coeff * pair_scale / (layers * n)
            term1 = np.einsum("ijn,jnc->inc", sgn, unit)
            term2 = np.einsum("ijn,ijn->in", sgn, cos)
            raw = term1 - term2[:, :, None] * unit
            safe = np.where(norm > _NORM_EPS, norm, 1.0)
            gg = scale * raw / safe[:, :, None]
            gg[norm <= _NORM_EPS] = 0.0
            grads.append(list(gg))
    loss = coeff * total / layers
    return (loss, grads) if with_grad else (loss, None)
