"""Flat key-value training configuration.

Config files hold one `key = value` pair per line; `#` starts a comment.
Unknown and duplicate keys are rejected so typos fail loudly. The `model`
key declares the convolutional topology as a comma-separated layer list;
each layer is a colon-separated token:

    conv:IN:OUT:K:STRIDE:PAD        plain convolution
    dgc:IN:OUT:K:STRIDE:PAD         dynamic group convolution
    sgc:IN:OUT:K:STRIDE:PAD:GROUPS  standard group convolution

Every conv block is followed by batch norm and relu; the network ends in
global average pooling and a linear classifier sized by `classes`.

Recognized keys (defaults in parentheses):

    model               layer list, required
    classes             output classes, required
    batch_size (64)     minibatch size
    epochs (60)         total training epochs
    lr (0.1)            base learning rate, cosine-annealed per epoch
    momentum (0.9)      SGD momentum
    weight_decay (1e-4) L2 coefficient, saliency generators exempt
    lasso (1e-5)        saliency L1 coefficient
    angle (0.0)         angle enlargement coefficient (global gating)
    prune_rate (0.75)   target pruning rate, ramped by the schedule
    heads (4)           gating heads per DGC layer
    squeeze (8)         saliency squeeze ratio
    gating (headwise)   `headwise` or `global`
    collection_iterations (5)  library window for global thresholding
    seed (0)            RNG seed for init, shuffling, augmentation
    augment (0)         1 enables pad-4 random crop + horizontal flip
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["LayerSpec", "TrainConfig", "parse_config", "parse_config_file",
           "serialize_config"]

LAYER_KINDS = ("conv", "dgc", "sgc")
GATING_MODES = ("headwise", "global")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int = 1
    groups: int = 1

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("in_channels", "out_channels", "kernel_size", "groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"layer {name} must be positive")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("layer stride must be >= 1 and padding >= 0")
        if self.groups != 1 and self.kind != "sgc":
            raise ValueError(f"a {self.kind} layer has groups 1, got "
                             f"{self.groups}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(f"layer channels ({self.in_channels} in, "
                             f"{self.out_channels} out) not divisible by "
                             f"{self.groups} groups")

    def token(self) -> str:
        base = (f"{self.kind}:{self.in_channels}:{self.out_channels}:"
                f"{self.kernel_size}:{self.stride}:{self.padding}")
        return f"{base}:{self.groups}" if self.kind == "sgc" else base


def _parse_layer(token: str) -> LayerSpec:
    parts = token.strip().split(":")
    kind = parts[0]
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r} in {token!r}")
    want = 7 if kind == "sgc" else 6
    if len(parts) != want:
        raise ValueError(f"layer token {token!r} needs {want - 1} fields after "
                         f"the kind, got {len(parts) - 1}")
    try:
        nums = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError(f"non-integer field in layer token {token!r}") from exc
    return LayerSpec(kind, *nums)


@dataclass(frozen=True)
class TrainConfig:
    model: tuple[LayerSpec, ...]
    classes: int
    batch_size: int = 64
    epochs: int = 60
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lasso: float = 1e-5
    angle: float = 0.0
    prune_rate: float = 0.75
    heads: int = 4
    squeeze: int = 8
    gating: str = "headwise"
    collection_iterations: int = 5
    seed: int = 0
    augment: bool = False

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("model must declare at least one layer")
        if self.gating not in GATING_MODES:
            raise ValueError(f"gating must be one of {GATING_MODES}, "
                             f"got {self.gating!r}")
        for name in ("classes", "batch_size", "epochs", "heads", "squeeze",
                     "collection_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("lr", "momentum", "weight_decay", "lasso", "angle"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.prune_rate < 1.0:
            raise ValueError(f"prune_rate must be in [0, 1), "
                             f"got {self.prune_rate}")
        for prev, cur in zip(self.model, self.model[1:]):
            if cur.in_channels != prev.out_channels:
                raise ValueError(f"layer {cur.token()!r} expects "
                                 f"{cur.in_channels} input channels but the "
                                 f"previous layer emits {prev.out_channels}")


_INT_KEYS = {"classes", "batch_size", "epochs", "heads", "squeeze",
             "collection_iterations", "seed"}
_FLOAT_KEYS = {"lr", "momentum", "weight_decay", "lasso", "angle",
               "prune_rate"}
_BOOL_KEYS = {"augment"}
_STR_KEYS = {"gating"}
_ALL_KEYS = {"model"} | _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS


def parse_config(text: str) -> TrainConfig:
    """Parse config text; unknown, duplicate, or malformed keys raise
    ValueError naming the offending line."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', "
                             f"got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "model":
                seen[key] = tuple(_parse_layer(t) for t in value.split(","))
            elif key in _INT_KEYS:
                seen[key] = int(value)
            elif key in _FLOAT_KEYS:
                seen[key] = float(value)
            elif key in _BOOL_KEYS:
                if value not in ("0", "1"):
                    raise ValueError("expected 0 or 1")
                seen[key] = value == "1"
            else:
                seen[key] = value
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") \
                from exc
    for required in ("model", "classes"):
        if required not in seen:
            raise ValueError(f"missing required key {required!r}")
    return TrainConfig(**seen)


def parse_config_file(path: str) -> TrainConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())


def serialize_config(config: TrainConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = ["model = " + ",".join(spec.token() for spec in config.model)]
    for f in fields(config):
        if f.name == "model":
            continue
        value = getattr(config, f.name)
        if f.name in _BOOL_KEYS:
            value = int(value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
