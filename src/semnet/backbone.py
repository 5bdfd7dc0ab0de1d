"""Pre-activation bottleneck ResNet for 32x32 inputs.

Depth d uses (d - 2) / 9 bottleneck blocks per stage across three stages
with base widths 16/32/64 (x4 at the block output). An attention gate,
when configured, transforms the residual branch output of every block
immediately before the skip addition.

A training forward of at least ``2 * _MIN_SHARD_SAMPLES`` samples runs the
batch in two contiguous sample shards at once: the gates act per sample,
and batch norm sums its statistics, and in backward its gradient sums, over
both shards. The model's logits are one tape node whose rule runs both
shards' reverse sweeps at once and adds their parameter gradients in shard
order (``tensor.join_shards``). The shard count follows from the batch size
alone, so a run's numbers do not depend on the machine's CPUs.

Under ``no_grad`` an eval forward treats every sample on its own (the gates
act per sample, batch norm uses its running statistics), so it runs in
contiguous sample slices, one per CPU, at once. Each slice's logits are
bit for bit those of the whole batch.

This module decides only how many shards a batch gets, where it splits and
how the shards' records join; ``tensor.ShardGroup.run`` runs them, on the
calling thread and a pool that ``semnet.tensor`` owns. numpy releases the
interpreter lock inside its kernels, so shards run in parallel.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from . import attention as att
from .attention import DecisionRecord, SemParams
from .rng import RngState
from .tensor import (ShardGroup, Tensor, add, affine, batch_norm, conv2d, global_avg_pool,
                     is_grad_enabled, join_shards, layer_scope, reshape)
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
_TRAIN_SHARDS = 2  # sample shards of a training forward
# Samples each training shard needs: with fewer, the step is bound by Python
# op dispatch, not by numpy's kernels, and two shards that take turns on the
# interpreter lock at every kernel and batch norm barrier run slower, and far
# less steadily, than the whole batch on one thread.
_MIN_SHARD_SAMPLES = 64


def eval_shard_count() -> int:
    """Slices a large eval batch is split into: the CPUs in this process's
    affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, pad=self.pad)

    def named(self, prefix):
        yield prefix + ".weight", self.weight


class _BatchNorm:
    """Pre-activation batch norm: every one in the backbone feeds a ReLU,
    so the pair runs as one fused node."""

    def __init__(self, channels: int, dtype):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, training: bool, inplace: bool = False) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training, relu=True, inplace=inplace)

    def named(self, prefix):
        yield prefix + ".gamma", self.gamma
        yield prefix + ".beta", self.beta

    def named_buffers(self, prefix):
        yield prefix + ".running_mean", self.running_mean
        yield prefix + ".running_var", self.running_var


class _Linear:
    def __init__(self, cin: int, cout: int, gen: np.random.Generator, dtype):
        self.weight = Tensor(att._uniform_fan_in(gen, (cout, cin), cin, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def named(self, prefix):
        yield prefix + ".weight", self.weight
        yield prefix + ".bias", self.bias


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

    def __call__(self, x: Tensor, training: bool, capture: dict | None = None) -> Tensor:
        # x is the caller's; bn2, bn3 and the gate may overwrite conv outputs.
        pre = self.bn1(x, training)
        residual = self.downsample(pre) if self.downsample is not None else x
        out = self.conv1(pre)
        del pre  # without a tape nothing else holds it
        out = self.conv2(self.bn2(out, training, inplace=True))
        out = self.conv3(self.bn3(out, training, inplace=True))
        if self.attention is not None:
            # Looked up on the module so perfbench's patch of it applies.
            out = att.sem_forward(out, self.attention, capture=capture, inplace=True)
        # Neither a conv2d nor a mul rule reads its own output: sum into it.
        return add(out, residual, inplace=True)

    def named(self, prefix):
        parts = [("bn1", self.bn1), ("conv1", self.conv1), ("bn2", self.bn2),
                 ("conv2", self.conv2), ("bn3", self.bn3), ("conv3", self.conv3)]
        if self.downsample is not None:
            parts.append(("downsample", self.downsample))
        for name, layer in parts:
            yield from layer.named(f"{prefix}.{name}")
        if self.attention is not None:
            yield from self.attention.named_tensors(f"{prefix}.attention.")

    def named_buffers(self, prefix):
        for name, bn in (("bn1", self.bn1), ("bn2", self.bn2), ("bn3", self.bn3)):
            yield from bn.named_buffers(f"{prefix}.{name}")


class Model:
    """Stem, three bottleneck stages, BN-ReLU head, linear classifier, built
    from the network fields of a ``RunConfig``."""

    def __init__(self, cfg: RunConfig, rng: RngState, dtype=np.float32):
        cfg = cfg.resolved()
        self.cfg = cfg
        gen = rng.generator() if isinstance(rng, RngState) else rng
        n = depth_to_blocks(cfg.depth)
        self.blocks_per_stage = n

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
                capture_decisions: list[DecisionRecord] | None = None) -> Tensor:
        """Logits (B, num_classes). ``capture_decisions`` receives one record
        per gate.

        A training forward runs ``min(_TRAIN_SHARDS, B // _MIN_SHARD_SAMPLES)``
        contiguous sample shards (a smaller batch, or an ``x`` that requires
        a gradient, keeps the whole batch); under ``no_grad`` with
        ``training=False`` the batch runs in up to ``eval_shard_count()``
        slices. Either way they run at once as one ``ShardGroup``, their
        logits and records are concatenated in sample order, and a
        recording forward returns the logits as one node (``join_shards``)."""
        b = x.shape[0]
        if training:
            n = 1 if x.requires_grad else min(_TRAIN_SHARDS, b // _MIN_SHARD_SAMPLES)
        else:
            n = 1 if is_grad_enabled() else min(eval_shard_count(), b)
        if n <= 1:
            return self._forward(x, training, capture_decisions)
        bounds = [b * i // n for i in range(n + 1)]
        captures = [None if capture_decisions is None else [] for _ in range(n)]
        outs = ShardGroup(n, b).run(
            lambda i: self._forward(Tensor(x.data[bounds[i] : bounds[i + 1]]), training,
                                    captures[i]))
        if capture_decisions is not None:
            for records in zip(*captures):
                weights = [r.weights for r in records]
                capture_decisions.append(dataclasses.replace(
                    records[0], weights=None if weights[0] is None else np.concatenate(weights)))
        return join_shards(outs, self.parameters())

    def _forward(self, x: Tensor, training: bool,
                 capture_decisions: list[DecisionRecord] | None) -> Tensor:
        with layer_scope("stem"):
            out = self.stem(x)
        layer_index = 0
        for stage_idx, blocks in enumerate(self.stages):
            for b, block in enumerate(blocks):
                capture = None
                if capture_decisions is not None and block.attention is not None:
                    capture = {}
                with layer_scope(f"stage{stage_idx + 1}.block{b}"):
                    out = block(out, training, capture)
                if capture is not None:
                    capture_decisions.append(DecisionRecord(
                        layer_index=layer_index,
                        stage=stage_idx + 1,
                        channels=block.out_channels,
                        operators=block.attention.operators,
                        weights=capture.get("decision")))
                layer_index += 1
        with layer_scope("head"):
            out = self.head_bn(out, training, inplace=True)  # the last block's own sum
            pooled = global_avg_pool(out)
            return self.classifier(reshape(pooled, (x.shape[0], pooled.shape[1])))

    def __call__(self, x: Tensor, training: bool = False, **kw) -> Tensor:
        return self.forward(x, training, **kw)

    # -- parameter and state plumbing ------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = list(self.stem.named("stem"))
        for s, blocks in enumerate(self.stages):
            for b, block in enumerate(blocks):
                out.extend(block.named(f"stage{s + 1}.block{b}"))
        out.extend(self.head_bn.named("head.bn"))
        out.extend(self.classifier.named("head.fc"))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for s, blocks in enumerate(self.stages):
            for b, block in enumerate(blocks):
                out.extend(block.named_buffers(f"stage{s + 1}.block{b}"))
        out.extend(self.head_bn.named_buffers("head.bn"))
        return out

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {name: t.data for name, t in self.named_parameters()}
        state.update({name: buf for name, buf in self.named_buffers()})
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
