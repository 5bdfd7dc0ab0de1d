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
    _ACTIVATION_RULES,
    ChannelGate,
    PreActivation,
    Tensor,
    _channel_conv,
    _channel_conv_backward,
    _row_products,
    _stable_sigmoid,
    activation,
    affine,
    channel_gate,
    conv1d_channel,
    conv2d,
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
    switch_activation: str = "sigmoid"
    decision_weight: Tensor | None = None   # (N, C); None means unit decision
    reduce_weight: Tensor | None = None     # (hidden, C)
    expand_weight: Tensor | None = None     # (C, hidden)
    conv_kernel: Tensor | None = None       # (k,), k odd
    ie_scale: Tensor | None = None          # (1, 1)
    ie_shift: Tensor | None = None          # (1, 1)


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
    params = SemParams(operators=ops, switch_activation=switch_activation)
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
# Stages, one tape node each: the reference the one-node gate is tested
# against
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


def attention_map(x: Tensor, params: SemParams, decisions: list | None = None) -> Tensor:
    """The attention map v (B, C) of x: squeeze, decide, excite each enabled
    branch, switch.

    Params built without a decision network run with w = 1 for every
    branch; with one operator and a sigmoid switch that is the conventional
    SE / ECA / IE gate. ``decisions``, when given, receives the gate's raw
    (B, N) decision weights, not a copy; a gate without a decision network
    appends nothing.
    """
    m = squeeze(x)
    weights = None
    if params.decision_weight is not None:
        weights = decide(m, params.decision_weight)
        if decisions is not None:
            decisions.append(weights.data)
    return switch(_branch_outputs(m, params), weights, params.switch_activation)


# ---------------------------------------------------------------------------
# The gate as one node
# ---------------------------------------------------------------------------

def gate_params(params: SemParams) -> list[Tensor]:
    """The gate's allocated parameters, in ``SemParams`` field order."""
    return [t for t in (params.decision_weight, params.reduce_weight, params.expand_weight,
                        params.conv_kernel, params.ie_scale, params.ie_shift) if t is not None]


def _gate_terms(m: np.ndarray, params: SemParams) -> tuple:
    """(decision weights, FC hidden layer, branch outputs, their scaled
    inputs to the switch, the switch's activations, v) of the gate for the
    descriptor m (B, C), with the stages' arithmetic, so v has their bits.
    Each sample's terms depend on its row of m alone."""
    weights = hidden = None
    if params.decision_weight is not None:
        weights = _stable_sigmoid(_row_products(m, params.decision_weight.data))
    act = _ACTIVATION_RULES[params.switch_activation][0]
    shape = (len(m), len(params.operators), m.shape[1])
    branches, scaled, gated = (np.empty(shape, m.dtype) for _ in range(3))
    v = None
    for i, op in enumerate(params.operators):
        if op == OPERATOR_FC:
            hidden = np.maximum(_row_products(m, params.reduce_weight.data), 0)
            branches[:, i] = _row_products(hidden, params.expand_weight.data)
        elif op == OPERATOR_CNN:
            branches[:, i] = _channel_conv(m, params.conv_kernel.data)
        else:
            branches[:, i] = m * params.ie_scale.data + params.ie_shift.data
        scaled[:, i] = branches[:, i] if weights is None else branches[:, i] * weights[:, i:i + 1]
        gated[:, i] = act(scaled[:, i])
        v = gated[:, i].copy() if v is None else v * gated[:, i]
    return weights, hidden, branches, scaled, gated, v


def _gate_forward(m: np.ndarray, params: SemParams, decisions: list | None) -> np.ndarray:
    """The gate's v for the descriptor m; the decision weights go to ``decisions``."""
    weights, *_, v = _gate_terms(m, params)
    if decisions is not None and weights is not None:
        decisions.append(weights)
    return v


def _gate_backward(params: SemParams, m: np.ndarray, dv: np.ndarray) -> tuple:
    """(dm, gradients of ``gate_params``) for the gradient dv at the v of
    the descriptor m, from the gate's terms computed again."""
    weights, hidden, branches, scaled, gated, _ = _gate_terms(m, params)
    rule = _ACTIVATION_RULES[params.switch_activation][1]
    n = len(params.operators)
    dscaled = np.empty_like(scaled)
    for i in range(n):
        others = dv
        for j in range(n):
            if j != i:
                others = others * gated[:, j]
        dscaled[:, i] = rule(others, scaled[:, i], gated[:, i])
    p, grads = params, {}
    dm = np.zeros_like(m)
    dbranches = dscaled
    if weights is not None:
        dweights = np.einsum("bnc,bnc->bn", dscaled, branches)
        dbranches = dscaled * weights[:, :, None]
        dlogits = dweights * weights * (1.0 - weights)
        grads[p.decision_weight] = dlogits.T @ m
        dm += dlogits @ p.decision_weight.data
    for i, op in enumerate(p.operators):
        g = dbranches[:, i]
        if op == OPERATOR_FC:
            grads[p.expand_weight] = g.T @ hidden
            dhidden = (g @ p.expand_weight.data) * (hidden > 0)
            grads[p.reduce_weight] = dhidden.T @ m
            dm += dhidden @ p.reduce_weight.data
        elif op == OPERATOR_CNN:
            dm_cnn, grads[p.conv_kernel] = _channel_conv_backward(m, p.conv_kernel.data, g)
            dm += dm_cnn
        else:
            grads[p.ie_scale] = np.sum(m * g, dtype=m.dtype).reshape(1, 1)
            grads[p.ie_shift] = np.sum(g, dtype=m.dtype).reshape(1, 1)
            dm += g * p.ie_scale.data
    return dm, [grads[t] for t in gate_params(p)]


def sem_forward(x: Tensor, params: SemParams, *,
                conv: tuple[Tensor, PreActivation | None] | None = None,
                decisions: list | None = None) -> Tensor:
    """The full attention layer as one tape node: squeeze, decide, excite
    each enabled branch, switch and recalibrate, bit for bit the stages'
    forward. ``decisions``, when given, receives the gate's raw (B, N)
    decision weights, not a copy; a gate without a decision network
    appends nothing.

    Without ``conv`` the gate reads x (``tensor.channel_gate``). With
    ``conv = (kernel, pre)``, a 1x1 kernel (C, Cin, 1, 1) and an optional
    pre-activation unit, x is the input of that conv and the gate runs
    inside the conv's node (``tensor.conv2d(..., gate=...)``), which keeps
    no conv output.
    """
    gate = ChannelGate(tuple(gate_params(params)),
                       lambda m: _gate_forward(m, params, decisions),
                       lambda m, dv: _gate_backward(params, m, dv))
    if conv is None:
        return channel_gate(x, gate)
    kernel, pre = conv
    return conv2d(x, kernel, pre=pre, gate=gate)


# ---------------------------------------------------------------------------
# Decision-weight reporting
# ---------------------------------------------------------------------------

DECISION_CSV_HEADER = ",".join(["layer_index", "stage", "channels"] + [
    f"w_{op}_{stat}" for stat in ("mean", "std") for op in ALL_OPERATORS])


@dataclass
class DecisionRecord:
    """Decision-vector batch statistics for one attention layer."""

    layer_index: int
    stage: int
    channels: int
    operators: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # (B, N)

    def stats(self) -> dict[str, tuple[float, float]]:
        return {op: (float(self.weights[:, i].mean()), float(self.weights[:, i].std()))
                for i, op in enumerate(self.operators)}


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
