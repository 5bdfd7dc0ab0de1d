"""Switchable channel attention.

A feature map is squeezed to a per-channel descriptor, a per-layer
decision network produces a soft weight for each enabled excitation
branch (fully-connected bottleneck, channel 1-D convolution, instance
enhance), and the switch multiplies the sigmoid-activated, weighted
branch outputs into a single attention map that rescales the input
channels. The conventional single-branch gates (SE, ECA, IE) are this
layer with one operator and no decision network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngState
from .tensor import (
    Tensor,
    activation,
    affine,
    conv1d_channel,
    global_avg_pool,
    mul,
    relu,
    reshape,
    sigmoid,
    take_column,
)

# Canonical branch order; decision-vector index i always refers to the
# i-th enabled member in this order.
OPERATOR_FC = "fc"
OPERATOR_CNN = "cnn"
OPERATOR_IE = "ie"
ALL_OPERATORS = (OPERATOR_FC, OPERATOR_CNN, OPERATOR_IE)


def normalize_operator_set(operators) -> tuple[str, ...]:
    """Validate and order an excitation-operator subset."""
    ops = tuple(operators)
    if not ops:
        raise ValueError("operator set must be non-empty")
    unknown = [o for o in ops if o not in ALL_OPERATORS]
    if unknown:
        raise ValueError(f"unknown operators {unknown}; valid: {ALL_OPERATORS}")
    if len(set(ops)) != len(ops):
        raise ValueError(f"duplicate operators in {ops}")
    return tuple(o for o in ALL_OPERATORS if o in ops)


def eca_kernel_size(channels: int) -> int:
    """Adaptive odd kernel length for the channel convolution.

    t = (log2(C) + 1) / 2, truncated toward zero; an even result is bumped
    up to the next odd number.
    """
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    k = int((math.log2(channels) + 1) / 2)
    return k + 1 if k % 2 == 0 else k


@dataclass
class SemParams:
    """Learnable state of one attention layer.

    Only the entries needed by the enabled operators (and the decision
    network, when present) are allocated; the rest stay None.
    """

    operators: tuple[str, ...]
    reduction: int = 16
    switch_activation: str = "sigmoid"
    decision_weight: Tensor | None = None   # (N, C); None means unit decision
    reduce_weight: Tensor | None = None     # (hidden, C)
    expand_weight: Tensor | None = None     # (C, hidden)
    conv_kernel: Tensor | None = None       # (k,), k odd
    ie_scale: Tensor | None = None          # (1, 1)
    ie_shift: Tensor | None = None          # (1, 1)

    def named_tensors(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        names = ("decision_weight", "reduce_weight", "expand_weight",
                 "conv_kernel", "ie_scale", "ie_shift")
        return [(prefix + n, getattr(self, n)) for n in names
                if getattr(self, n) is not None]

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


def hidden_width(channels: int, reduction: int) -> int:
    """Bottleneck width of the FC branch, clamped to at least 1."""
    if reduction < 1:
        raise ValueError("reduction must be a positive integer")
    return max(1, channels // reduction)


def _uniform_fan_in(rng: np.random.Generator, shape: tuple, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_sem_params(channels: int,
                    operators=ALL_OPERATORS,
                    *,
                    reduction: int = 16,
                    switch_activation: str = "sigmoid",
                    rng: RngState | np.random.Generator = RngState(0),
                    dtype=np.float32,
                    with_decision: bool = True) -> SemParams:
    """Allocate and initialise parameters for one attention layer.

    Weights use fan-in-scaled uniform initialisation; the instance-enhance
    scale/shift start at 0 and -1. The convolution kernel length follows
    the adaptive rule.
    """
    ops = normalize_operator_set(operators)
    gen = rng.generator() if isinstance(rng, RngState) else rng
    params = SemParams(operators=ops, reduction=reduction,
                       switch_activation=switch_activation)
    if with_decision:
        params.decision_weight = Tensor(
            _uniform_fan_in(gen, (len(ops), channels), channels, dtype), requires_grad=True)
    if OPERATOR_FC in ops:
        hidden = hidden_width(channels, reduction)
        params.reduce_weight = Tensor(
            _uniform_fan_in(gen, (hidden, channels), channels, dtype), requires_grad=True)
        params.expand_weight = Tensor(
            _uniform_fan_in(gen, (channels, hidden), hidden, dtype), requires_grad=True)
    if OPERATOR_CNN in ops:
        k = eca_kernel_size(channels)
        params.conv_kernel = Tensor(
            _uniform_fan_in(gen, (k,), k, dtype), requires_grad=True)
    if OPERATOR_IE in ops:
        params.ie_scale = Tensor(np.zeros((1, 1), dtype=dtype), requires_grad=True)
        params.ie_shift = Tensor(np.full((1, 1), -1.0, dtype=dtype), requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def squeeze(x: Tensor) -> Tensor:
    """Global average pooling to a per-channel descriptor: (B,C,H,W) -> (B,C)."""
    pooled = global_avg_pool(x)
    return reshape(pooled, (x.shape[0], x.shape[1]))


def decide(m: Tensor, decision_weight: Tensor) -> Tensor:
    """Per-sample soft selection weights in (0,1)^N from the descriptor."""
    return sigmoid(affine(m, decision_weight))


def excite_fc(m: Tensor, reduce_weight: Tensor, expand_weight: Tensor) -> Tensor:
    """Bottleneck of two fully connected layers around a ReLU; no output
    activation here; the switch applies it."""
    return affine(relu(affine(m, reduce_weight)), expand_weight)


def excite_cnn(m: Tensor, conv_kernel: Tensor) -> Tensor:
    """Shared odd-length kernel slid along the channel axis; no bias, no
    output activation."""
    return conv1d_channel(m, conv_kernel)


def excite_ie(m: Tensor, ie_scale: Tensor, ie_shift: Tensor) -> Tensor:
    """Scalar affine enhancement of the descriptor (starts at constant -1)."""
    return mul(m, ie_scale) + ie_shift


def switch(branches: list[Tensor], weights: Tensor | None,
           switch_activation: str = "sigmoid") -> Tensor:
    """Combine branch outputs into the attention map.

    Each branch is scaled by its per-sample decision weight, passed through
    the activation, and the results are multiplied elementwise. ``weights``
    of None means unit weights (the decision-removal configuration) and
    skips the scaling entirely.
    """
    if not branches:
        raise ValueError("switch needs at least one branch")
    if weights is not None and weights.shape[1] != len(branches):
        raise ValueError(
            f"decision width {weights.shape[1]} != number of branches {len(branches)}")
    v = None
    for i, branch in enumerate(branches):
        scaled = branch if weights is None else mul(branch, take_column(weights, i))
        gated = activation(scaled, switch_activation)
        v = gated if v is None else mul(v, gated)
    return v


def recalibrate(x: Tensor, v: Tensor) -> Tensor:
    """Rescale each channel of (B,C,H,W) by the per-sample map v (B,C)."""
    if v.shape != x.shape[:2]:
        raise ValueError(f"attention map {v.shape} incompatible with input {x.shape}")
    return mul(x, reshape(v, (x.shape[0], x.shape[1], 1, 1)))


def _branch_outputs(m: Tensor, params: SemParams) -> list[Tensor]:
    branches = []
    for op in params.operators:
        if op == OPERATOR_FC:
            branches.append(excite_fc(m, params.reduce_weight, params.expand_weight))
        elif op == OPERATOR_CNN:
            branches.append(excite_cnn(m, params.conv_kernel))
        else:
            branches.append(excite_ie(m, params.ie_scale, params.ie_shift))
    return branches


def sem_forward(x: Tensor, params: SemParams, *,
                capture: dict | None = None) -> Tensor:
    """Full attention layer: squeeze, decide, excite each enabled branch,
    switch, recalibrate.

    Params built without a decision network run with w = 1 for every
    branch; with one operator and a sigmoid switch that is the conventional
    SE / ECA / IE gate. ``capture`` receives the raw decision and
    attention-map arrays when provided.
    """
    m = squeeze(x)
    weights = None
    if params.decision_weight is not None:
        weights = decide(m, params.decision_weight)
    branches = _branch_outputs(m, params)
    v = switch(branches, weights, params.switch_activation)
    if capture is not None:
        capture["decision"] = None if weights is None else weights.data.copy()
        capture["attention"] = v.data.copy()
    return recalibrate(x, v)


# ---------------------------------------------------------------------------
# Decision-weight reporting
# ---------------------------------------------------------------------------

DECISION_CSV_HEADER = ("layer_index,stage,channels,"
                       "w_fc_mean,w_cnn_mean,w_ie_mean,w_fc_std,w_cnn_std,w_ie_std")


@dataclass
class DecisionRecord:
    """Decision-vector batch statistics for one attention layer."""

    layer_index: int
    stage: int
    channels: int
    operators: tuple[str, ...]
    weights: np.ndarray | None = field(repr=False, default=None)  # (B, N)

    def stats(self) -> dict[str, tuple[float, float]]:
        out = {}
        if self.weights is None:
            return out
        for i, op in enumerate(self.operators):
            col = self.weights[:, i]
            out[op] = (float(col.mean()), float(col.std()))
        return out


def decision_summary_csv(records: list[DecisionRecord]) -> str:
    """Per-layer mean/std of the decision weights as comma-separated rows.

    Operators outside a layer's enabled set produce empty cells.
    """
    lines = [DECISION_CSV_HEADER]
    for rec in records:
        stats = rec.stats()
        means, stds = [], []
        for op in ALL_OPERATORS:
            if op in stats:
                mean, std = stats[op]
                means.append(f"{mean:.8g}")
                stds.append(f"{std:.8g}")
            else:
                means.append("")
                stds.append("")
        lines.append(",".join([str(rec.layer_index), str(rec.stage),
                               str(rec.channels), *means, *stds]))
    return "\n".join(lines) + "\n"
