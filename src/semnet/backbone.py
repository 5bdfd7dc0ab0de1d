"""Pre-activation bottleneck ResNet for 32x32 inputs.

Depth d uses (d - 2) / 9 bottleneck blocks per stage across three stages
with base widths 16/32/64 (x4 at the block output). An attention gate,
when configured, transforms the residual branch output of every block
immediately before the skip addition.

A forward of at least ``2 * _MIN_SHARD_SAMPLES`` samples, in training or
under ``no_grad`` in eval, runs the batch in two contiguous sample shards at
once: shard 0 on the calling thread, shard 1 in the model's worker process,
forked from this one (``semnet.shards``). The gates act per sample. In training,
batch norm sums its statistics, and in backward its gradient sums, over
both shards, and the model's logits are one tape node whose rule runs both
shards' reverse sweeps at once and adds their parameter gradients in shard
order (``tensor.join_shards``). In eval, batch norm uses the caller's
running statistics, so each sample's logits are bit for bit those of the
whole batch. The shard count follows from the batch size alone, so a run's
numbers do not depend on the machine's CPUs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import attention as att
from .attention import DecisionRecord, SemParams
from .rng import RngState
from . import shards
from .tensor import (PreActivation, Tensor, add, affine, batch_norm, conv2d, current_shard,
                     global_avg_pool, is_grad_enabled, join_shards, layer_scope, reshape)
# Unused here since every ReLU is fused into its batch norm; imported so
# perfbench's tracer, which patches ``semnet.backbone.relu``, finds it.
from .tensor import relu  # noqa: F401

if TYPE_CHECKING:
    from .training import RunConfig

STAGE_WIDTHS = (16, 32, 64)
BLOCK_EXPANSION = 4
ATTENTION_MODES = ("none", "se", "eca", "ie", "sem", "random_single", "random_double")
# Conventional gates: one excitation operator, no decision network, and a
# sigmoid switch (RunConfig.resolved pins it) whatever the configured one.
SINGLE_OPERATOR_MODES = {"se": att.OPERATOR_FC, "eca": att.OPERATOR_CNN, "ie": att.OPERATOR_IE}
_SHARDS = 2  # sample shards of a large forward: the caller's and the worker's
# Samples each shard needs, the fewest at which two shards beat the whole
# batch. Measured in-process on 2 vCPUs: two training shards of 4 won at
# depths 20 and 164 (B=8, 5 of 5 rounds each, 1.15-1.7x); two of 2 won 5 of
# 10 rounds and two of 1 won 1 of 4. With so few samples a step is bound by
# Python op dispatch, and the shards' all-reduces cost as much as they save.
_MIN_SHARD_SAMPLES = 4


def depth_to_blocks(depth: int) -> int:
    """Blocks per stage for a bottleneck depth: n = (depth - 2) / 9."""
    if depth < 11 or (depth - 2) % 9 != 0:
        lower = depth - (depth - 2) % 9
        if lower < 11:
            lower = 11
        raise ValueError(
            f"invalid depth {depth}: need (depth - 2) divisible by 9; "
            f"nearest valid depths are {lower} and {lower + 9}")
    return (depth - 2) // 9


def assign_random_operators(n_blocks: int, arity: int, seed: int) -> list[tuple[str, ...]]:
    """Uniform i.i.d. per-block operator choice, reproducible from the seed.

    Arity 1 draws one of the three operators; arity 2 draws one of the
    three unordered pairs.
    """
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    gen = RngState(seed, stream=arity).generator()
    if arity == 1:
        pool = [(op,) for op in att.ALL_OPERATORS]
    else:
        pool = [("fc", "cnn"), ("fc", "ie"), ("cnn", "ie")]
    picks = gen.integers(0, len(pool), size=n_blocks)
    return [pool[i] for i in picks]


def sem_block_param_count(channels: int, n_operators: int = 3, reduction: int = 16) -> int:
    """Closed-form parameter overhead of one full attention layer:
    N*C for the decision network, 2*C*floor(C/r) for the bottleneck,
    k for the channel kernel, and 2 for the enhance scale/shift."""
    k = att.eca_kernel_size(channels)
    return (n_operators * channels + 2 * channels * (channels // reduction) + k + 2)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class _Conv:
    def __init__(self, cin: int, cout: int, k: int, stride: int, pad: int,
                 gen: np.random.Generator, dtype):
        fan_in = cin * k * k
        std = math.sqrt(2.0 / fan_in)
        self.weight = Tensor(gen.normal(0.0, std, size=(cout, cin, k, k)).astype(dtype),
                             requires_grad=True)
        self.stride = stride
        self.pad = pad

    def __call__(self, x: Tensor, pre: PreActivation | None = None) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, pad=self.pad, pre=pre)


class _BatchNorm:
    """Pre-activation batch norm: every one in the backbone feeds a ReLU,
    so the pair runs as one fused node, and where one conv alone reads it,
    inside that conv's node (``pre``)."""

    def __init__(self, channels: int, dtype):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, training: bool, inplace: bool = False) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training, relu=True, inplace=inplace)

    def pre(self, training: bool) -> PreActivation:
        return PreActivation(self.gamma, self.beta, self.running_mean, self.running_var,
                             training)


class _Linear:
    def __init__(self, cin: int, cout: int, gen: np.random.Generator, dtype):
        self.weight = Tensor(att._uniform_fan_in(gen, (cout, cin), cin, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class _Bottleneck:
    """BN-ReLU-1x1 / BN-ReLU-3x3 / BN-ReLU-1x1 with pre-activation skip."""

    def __init__(self, cin: int, width: int, stride: int, attention: SemParams | None,
                 gen: np.random.Generator, dtype):
        cout = width * BLOCK_EXPANSION
        self.bn1 = _BatchNorm(cin, dtype)
        self.conv1 = _Conv(cin, width, 1, 1, 0, gen, dtype)
        self.bn2 = _BatchNorm(width, dtype)
        self.conv2 = _Conv(width, width, 3, stride, 1, gen, dtype)
        self.bn3 = _BatchNorm(width, dtype)
        self.conv3 = _Conv(width, cout, 1, 1, 0, gen, dtype)
        self.downsample = None
        if stride != 1 or cin != cout:
            self.downsample = _Conv(cin, cout, 1, stride, 0, gen, dtype)
        self.attention = attention
        self.out_channels = cout

    def __call__(self, x: Tensor, training: bool, decisions: list | None = None) -> Tensor:
        if self.downsample is None:
            out = self.conv1(x, self.bn1.pre(training))
        else:  # conv1 and the projection shortcut both read bn1's output
            pre = self.bn1(x, training)
            out = self.conv1(pre)
        out = self.conv2(out, self.bn2.pre(training))
        if self.attention is None:
            out = self.conv3(out, self.bn3.pre(training))
        else:  # the gate runs inside conv3's node
            # Looked up on the module so perfbench's patch of it applies.
            out = att.sem_forward(out, self.attention, decisions=decisions,
                                  conv=(self.conv3.weight, self.bn3.pre(training)))
        # No conv2d rule reads its own output: sum into it. The projection
        # runs last and adds each chunk into it, so its output is never whole.
        if self.downsample is None:
            return add(out, x, inplace=True)
        return conv2d(pre, self.downsample.weight, self.downsample.stride, add_to=out)


_LAYERS = (_Conv, _BatchNorm, _Linear, _Bottleneck, SemParams)


def named_state(layer, prefix: str, kind=(Tensor, np.ndarray)):
    """``(name, value)`` for every ``kind`` under ``layer``, depth first in
    attribute order: the Tensors are its parameters, the ndarrays its batch
    norm buffers. The name joins the attribute path to ``prefix`` with dots."""
    for attr, value in vars(layer).items():
        name = f"{prefix}.{attr}"
        if isinstance(value, kind):
            yield name, value
        elif isinstance(value, _LAYERS):
            yield from named_state(value, name, kind)


class Model:
    """Stem, three bottleneck stages, BN-ReLU head, linear classifier, built
    from the network fields of a ``RunConfig``."""

    def __init__(self, cfg: RunConfig, rng: RngState, dtype=np.float32):
        cfg = cfg.resolved()
        self.cfg = cfg
        gen = rng.generator() if isinstance(rng, RngState) else rng
        n = depth_to_blocks(cfg.depth)
        per_block_ops = self._operator_plan(n)
        self.stem = _Conv(3, STAGE_WIDTHS[0], 3, 1, 1, gen, dtype)
        self.stages: list[list[_Bottleneck]] = []
        cin = STAGE_WIDTHS[0]
        block_index = 0
        for stage_idx, width in enumerate(STAGE_WIDTHS):
            blocks = []
            for b in range(n):
                stride = 2 if stage_idx > 0 and b == 0 else 1
                gate = None
                if cfg.attention != "none":
                    gate = att.init_sem_params(
                        width * BLOCK_EXPANSION, per_block_ops[block_index],
                        reduction=cfg.reduction, switch_activation=cfg.switch_activation,
                        rng=gen, dtype=dtype,
                        with_decision=cfg.attention == "sem" and not cfg.unit_decision)
                blocks.append(_Bottleneck(cin, width, stride, gate, gen, dtype))
                cin = width * BLOCK_EXPANSION
                block_index += 1
            self.stages.append(blocks)
        self.head_bn = _BatchNorm(cin, dtype)
        self.classifier = _Linear(cin, cfg.num_classes, gen, dtype)

    def _operator_plan(self, n: int) -> list[tuple[str, ...]]:
        total = 3 * n
        mode = self.cfg.attention
        if mode == "random_single":
            return assign_random_operators(total, 1, self.cfg.attention_seed)
        if mode == "random_double":
            return assign_random_operators(total, 2, self.cfg.attention_seed)
        if mode == "sem":
            return [self.cfg.operator_set] * total
        if mode in SINGLE_OPERATOR_MODES:
            return [(SINGLE_OPERATOR_MODES[mode],)] * total
        return [att.ALL_OPERATORS] * total  # "none": unused

    def forward(self, x: Tensor, training: bool = False,
                decisions: list[np.ndarray] | None = None) -> Tensor:
        """Logits (B, num_classes). ``decisions`` receives each decision
        gate's raw (B, N) weights; ``decision_records`` reads them.

        A training forward, or an eval forward under ``no_grad``, of at least
        ``_SHARDS * _MIN_SHARD_SAMPLES`` samples runs two contiguous sample
        shards at once, the second in the model's worker process
        (``semnet.shards``), and returns the logits concatenated in sample
        order, in training as one node (``join_shards``); the weights reach
        ``decisions`` shard after shard. A smaller batch, a recording eval
        forward, an ``x`` that requires a gradient, a forward inside a shard
        and a machine without the worker (``shards.AVAILABLE``) keep the
        whole batch."""
        if (x.requires_grad or current_shard() is not None or not shards.AVAILABLE
                or x.shape[0] < _SHARDS * _MIN_SHARD_SAMPLES
                or (not training and is_grad_enabled())):
            return self._forward(x, training, decisions)
        return self._forward_in_shards(x, training, decisions)

    def _forward_in_shards(self, x: Tensor, training: bool,
                           decisions: list[np.ndarray] | None) -> Tensor:
        """A forward in two sample shards, the second in the worker."""
        b = x.shape[0]
        split = b // 2
        params = self.parameters()
        own = None if decisions is None else []
        logits, rest, theirs, sweep_rest = shards.forward(
            self, params, lambda: self._forward(Tensor(x.data[:split]), training, own),
            x.data[split:], training, decisions is not None, b)
        if decisions is not None:
            decisions.extend(own)
            decisions.extend(theirs)
        return join_shards(logits, rest, params, sweep_rest)

    def _forward(self, x: Tensor, training: bool,
                 decisions: list[np.ndarray] | None) -> Tensor:
        with layer_scope("stem"):
            out = self.stem(x)
        for scope, _, block in self._blocks():
            with layer_scope(scope):
                out = block(out, training, decisions)
        with layer_scope("head"):
            out = self.head_bn(out, training, inplace=True)  # the last block's own sum
            pooled = global_avg_pool(out)
            return self.classifier(reshape(pooled, (x.shape[0], pooled.shape[1])))

    def decision_records(self, decisions: list[np.ndarray]) -> list[DecisionRecord]:
        """One record per decision gate, in layer order, from the weights
        that forwards appended to ``decisions``.

        Each forward appends one array per gate, so forwards over
        consecutive sample ranges (a forward's shards, an export's batches)
        join here, gate by gate, in sample order.
        """
        if not decisions:
            return []
        gates = [(layer, stage, block) for layer, (_, stage, block) in enumerate(self._blocks())
                 if block.attention is not None and block.attention.decision_weight is not None]
        if len(decisions) % len(gates):
            raise ValueError(f"{len(decisions)} decision arrays for {len(gates)} gates")
        return [DecisionRecord(layer_index=layer, stage=stage, channels=block.out_channels,
                               operators=block.attention.operators,
                               weights=np.concatenate(decisions[i :: len(gates)]))
                for i, (layer, stage, block) in enumerate(gates)]

    def __call__(self, x: Tensor, training: bool = False, **kw) -> Tensor:
        return self.forward(x, training, **kw)

    # -- parameter and state plumbing ------------------------------------

    def _blocks(self) -> list[tuple[str, int, _Bottleneck]]:
        """``(scope, stage, block)`` for every block in layer order; the
        scope names the block's layer scope, state keys and gate record."""
        return [(f"stage{s + 1}.block{b}", s + 1, block)
                for s, blocks in enumerate(self.stages) for b, block in enumerate(blocks)]

    def _state(self, kind):
        yield from named_state(self.stem, "stem", kind)
        for scope, _, block in self._blocks():
            yield from named_state(block, scope, kind)
        yield from named_state(self.head_bn, "head.bn", kind)
        yield from named_state(self.classifier, "head.fc", kind)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._state(Tensor))

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return list(self._state(np.ndarray))

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {name: t.data for name, t in self.named_parameters()}
        state.update(self.named_buffers())
        return state

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        own = self.state_arrays()
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} "
                             f"unexpected={sorted(extra)}")
        for name, arr in state.items():
            target = own[name]
            if target.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {target.shape} vs {arr.shape}")
            target[...] = arr.astype(target.dtype, copy=False)


def build_network(cfg: RunConfig, rng: RngState, dtype=np.float32) -> Model:
    """Construct the configured backbone with deterministic initialisation."""
    return Model(cfg, rng, dtype)
