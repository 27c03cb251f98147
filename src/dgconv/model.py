"""Network assembly: conv/SGC/DGC blocks with batch norm and relu, ending
in global average pooling and a linear classifier.

A conv block and an SGC block are one kind of block: core.conv2d_forward
and conv2d_backward with the spec's groups (1 for conv). A DGC block runs
dgc_forward and dgc_backward.

The topology comes from TrainConfig.model; nothing here is hard-coded to a
particular depth. Parameters live in numpy arrays shared by reference with
the optimizer's parameter dict, so in-place SGD updates are visible to the
network without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LayerSpec, TrainConfig
from .core import (
    BatchNorm2d,
    ConvFilter,
    conv2d_backward,
    conv2d_forward,
    global_avg_pool,
    global_avg_pool_backward,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
)
from .dgc import (
    DgcForward,
    DgcLayer,
    DgcLayerConfig,
    GlobalGating,
    HeadwiseGating,
    dgc_backward,
    dgc_forward,
    init_dgc_layer,
)

__all__ = ["Block", "DgcNetwork", "NetForward", "build_network"]

SALIENCY_FIELDS = ("w_squeeze", "b_squeeze", "w_expand", "b_expand")
HEAD_FIELDS = ("filters",) + SALIENCY_FIELDS    # DgcGrads names: grad_<field>


@dataclass
class Block:
    spec: LayerSpec
    bn: BatchNorm2d
    weights: np.ndarray | None = None      # conv / sgc, (C', C/groups, k, k)
    dgc: DgcLayer | None = None            # dgc only


@dataclass
class NetForward:
    logits: np.ndarray
    block_inputs: list[np.ndarray]
    pre_relu: list[np.ndarray]
    dgc_fwds: dict[int, DgcForward]
    pooled: np.ndarray
    feat_hw: tuple[int, int]

    def saliencies_per_layer(self) -> list[list[np.ndarray]]:
        """Per DGC block (in depth order), the per-head saliency batches."""
        return [self.dgc_fwds[i].saliencies for i in sorted(self.dgc_fwds)]


class DgcNetwork:
    """Sequential conv network over the declared layer list."""

    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        self.config = config
        self.blocks: list[Block] = []
        for spec in config.model:
            bn = BatchNorm2d(spec.out_channels)
            if spec.kind == "dgc":
                layer_cfg = DgcLayerConfig(
                    spec.in_channels, spec.out_channels, spec.kernel_size,
                    spec.stride, spec.padding, heads=config.heads,
                    squeeze=config.squeeze, prune_rate=config.prune_rate)
                self.blocks.append(Block(spec, bn,
                                         dgc=init_dgc_layer(layer_cfg, rng)))
            else:
                fan_in = spec.in_channels * spec.kernel_size ** 2
                w = rng.normal(size=(spec.out_channels,
                                     spec.in_channels // spec.groups,
                                     spec.kernel_size, spec.kernel_size))
                self.blocks.append(Block(spec, bn,
                                         weights=w * math.sqrt(2.0 / fan_in)))
        feat = config.model[-1].out_channels
        self.fc_weight = rng.normal(size=(feat, config.classes)) \
            * math.sqrt(1.0 / feat)
        self.fc_bias = np.zeros(config.classes)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for i, blk in enumerate(self.blocks):
            if blk.dgc is not None:
                for j, head in enumerate(blk.dgc.heads):
                    for name in HEAD_FIELDS:
                        params[f"b{i}.h{j}.{name}"] = getattr(head, name)
            else:
                params[f"b{i}.weights"] = blk.weights
            params[f"b{i}.bn.gamma"] = blk.bn.gamma
            params[f"b{i}.bn.beta"] = blk.bn.beta
        params["fc.weight"] = self.fc_weight
        params["fc.bias"] = self.fc_bias
        return params

    def no_decay_names(self) -> frozenset[str]:
        """Saliency generators learn gating scales; decaying them fights
        the lasso objective, so they are exempt."""
        return frozenset(name for name in self.parameters()
                         if name.split(".")[-1] in SALIENCY_FIELDS)

    def bn_state(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, blk in enumerate(self.blocks):
            out[f"b{i}.bn.running_mean"] = blk.bn.running_mean
            out[f"b{i}.bn.running_var"] = blk.bn.running_var
        return out

    def bn_batches_tracked(self) -> list[int]:
        return [blk.bn.batches_tracked for blk in self.blocks]

    def set_bn_batches_tracked(self, counts: list[int]) -> None:
        for blk, n in zip(self.blocks, counts):
            blk.bn.batches_tracked = int(n)

    @property
    def dgc_indices(self) -> list[int]:
        return [i for i, blk in enumerate(self.blocks) if blk.dgc is not None]

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray,
                gating: HeadwiseGating | GlobalGating | None,
                training: bool) -> NetForward:
        if self.dgc_indices and gating is None:
            raise ValueError("model contains DGC layers but no gating given")
        block_inputs, pre_relu, dgc_fwds = [], [], {}
        for i, blk in enumerate(self.blocks):
            block_inputs.append(x)
            if blk.dgc is not None:
                fwd = dgc_forward(x, blk.dgc, gating, training=training)
                dgc_fwds[i] = fwd
                y = fwd.output
            else:
                filt = ConvFilter(blk.weights, blk.spec.stride, blk.spec.padding)
                y = conv2d_forward(x, filt, blk.spec.groups)
            y = blk.bn.forward(y, training)
            pre_relu.append(y)
            x = relu_forward(y)
        feat_hw = x.shape[2:]
        pooled = global_avg_pool(x)[:, :, 0, 0]
        logits = linear_forward(pooled, self.fc_weight, self.fc_bias)
        return NetForward(logits, block_inputs, pre_relu, dgc_fwds, pooled,
                          feat_hw)

    def backward(self, fwd: NetForward, grad_logits: np.ndarray,
                 saliency_grads: list[list[np.ndarray]] | None = None,
                 ) -> dict[str, np.ndarray]:
        """Gradients for every parameter, keyed like parameters().

        saliency_grads, nested like fwd.saliencies_per_layer(), holds
        the saliency penalties' gradient of every DGC block's heads.
        """
        sal = {} if saliency_grads is None else dict(
            zip(self.dgc_indices, saliency_grads, strict=True))
        grads: dict[str, np.ndarray] = {}
        gx, gw, gb = linear_backward(fwd.pooled, self.fc_weight, grad_logits)
        grads["fc.weight"], grads["fc.bias"] = gw, gb
        gx = global_avg_pool_backward(gx[:, :, None, None], *fwd.feat_hw)
        for i in reversed(range(len(self.blocks))):
            blk = self.blocks[i]
            input_grad = i > 0      # nothing consumes the images' gradient
            gx = relu_backward(fwd.pre_relu[i], gx)
            gx = blk.bn.backward(gx)
            grads[f"b{i}.bn.gamma"] = blk.bn.grad_gamma
            grads[f"b{i}.bn.beta"] = blk.bn.grad_beta
            x_in = fwd.block_inputs[i]
            if blk.dgc is not None:
                dgrads = dgc_backward(fwd.dgc_fwds[i], blk.dgc, gx, sal.get(i),
                                      input_grad=input_grad)
                for j in range(len(blk.dgc.heads)):
                    for name in HEAD_FIELDS:
                        grads[f"b{i}.h{j}.{name}"] = \
                            getattr(dgrads, f"grad_{name}")[j]
                gx = dgrads.grad_input
            else:
                filt = ConvFilter(blk.weights, blk.spec.stride, blk.spec.padding)
                gx, gw = conv2d_backward(x_in, filt, gx, input_grad,
                                         blk.spec.groups)
                grads[f"b{i}.weights"] = gw
        return grads


def build_network(config: TrainConfig) -> DgcNetwork:
    """Fresh network seeded from config.seed (parameter init only)."""
    return DgcNetwork(config, np.random.default_rng(config.seed))
