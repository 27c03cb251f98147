"""Dynamic group convolution toolkit.

Input-conditioned multi-head channel gating for convolutions: saliency
generators score input channels per head, a head-wise top-k rule or a
network-wide calibrated threshold selects which to keep, and the kept
channels are amplified and convolved with the matching filter slices.
Includes the training loop (sparsity schedule, lasso and head-angle
penalties), an index-plan inference path, MAC accounting, benchmarks,
a CLI, and plot-ready data export.
"""

from .config import LayerSpec, TrainConfig, parse_config, parse_config_file
from .data import DatasetSource, load_cifar10, synth_dataset, write_cifar10
from .dgc import (
    DgcLayer,
    DgcLayerConfig,
    GlobalGating,
    HeadwiseGating,
    dgc_backward,
    dgc_forward,
    init_dgc_layer,
    kept_channels,
)
from .global_threshold import (
    GlobalThresholdState,
    SaliencyLibrary,
    angle_loss,
    compute_global_threshold,
)
from .model import DgcNetwork, build_network
from .checkpoint import load_checkpoint, restore_network, save_checkpoint
from .runtime import (
    IndexPlan,
    MacReport,
    execute_plan,
    mac_dense,
    mac_dgc,
    plan_from_forward,
    run_benchmark,
)
from .train import (
    EpochMetrics,
    EvalMetrics,
    PruneSchedule,
    evaluate,
    fit,
    prune_rate_at,
)
from .vis import collect_bundle, export_bundle

__version__ = "0.1.0"

__all__ = [
    "LayerSpec", "TrainConfig", "parse_config", "parse_config_file",
    "DatasetSource", "load_cifar10", "synth_dataset", "write_cifar10",
    "DgcLayer", "DgcLayerConfig", "GlobalGating", "HeadwiseGating",
    "dgc_backward", "dgc_forward", "init_dgc_layer", "kept_channels",
    "GlobalThresholdState", "SaliencyLibrary", "angle_loss",
    "compute_global_threshold",
    "DgcNetwork", "build_network",
    "load_checkpoint", "restore_network", "save_checkpoint",
    "IndexPlan", "MacReport", "execute_plan",
    "mac_dense", "mac_dgc", "plan_from_forward", "run_benchmark",
    "EpochMetrics", "EvalMetrics", "PruneSchedule", "evaluate", "fit",
    "prune_rate_at",
    "collect_bundle", "export_bundle",
    "__version__",
]
