"""Backbone construction, parameter audits, attention insertion,
random operator assignment, and the checkpoint container."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

from semnet import backbone, shards, tensor
from semnet.backbone import (
    ATTENTION_MODES,
    STAGE_WIDTHS,
    assign_random_operators,
    build_network,
    depth_to_blocks,
    sem_block_param_count,
)
from semnet.checkpoint import read_checkpoint, write_checkpoint
from semnet.errors import CheckpointError
from semnet.optim import SGD
from semnet.rng import RngState
from semnet.tensor import Tensor, backward, no_grad, set_debug_checks, softmax_cross_entropy
from semnet.training import RunConfig, train_run

import oracles
from conftest import SRC, live_children, running


def small_input(gen, b=2):
    return Tensor(gen.standard_normal((b, 3, 32, 32)).astype(np.float32))


def run_isolated(script, cwd, timeout=120):
    """Run ``script`` in a fresh interpreter and require exit 0. A thread
    left waiting at a barrier then fails the test after ``timeout`` seconds
    instead of hanging the suite."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr


class TestDepthRule:
    @pytest.mark.parametrize("depth,n", [(11, 1), (20, 2), (47, 5), (164, 18),
                                         (272, 30), (362, 40)])
    def test_blocks_per_stage(self, depth, n):
        assert depth_to_blocks(depth) == n

    @pytest.mark.parametrize("depth", [10, 12, 50, 100])
    def test_invalid_depth_names_neighbours(self, depth):
        with pytest.raises(ValueError, match="nearest valid"):
            depth_to_blocks(depth)


class TestRandomAssignment:
    def test_deterministic_in_seed(self):
        a = assign_random_operators(30, 1, seed=5)
        b = assign_random_operators(30, 1, seed=5)
        c = assign_random_operators(30, 1, seed=6)
        assert a == b
        assert a != c

    def test_single_frequencies_uniform(self):
        picks = assign_random_operators(3000, 1, seed=123)
        counts = [sum(1 for p in picks if p == (op,)) for op in ("fc", "cnn", "ie")]
        stat = oracles.chi_square_stat(counts, [1000.0] * 3)
        assert stat < oracles.CHI2_CRIT_DF2, counts

    def test_double_domain(self):
        picks = assign_random_operators(200, 2, seed=9)
        valid = {("fc", "cnn"), ("fc", "ie"), ("cnn", "ie")}
        assert set(picks) <= valid
        assert len(set(picks)) == 3  # all pairs appear in 200 draws

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            assign_random_operators(10, 3, seed=0)


class TestNetwork:
    def test_forward_shape_all_modes(self):
        gen = RngState(80).generator()
        x = small_input(gen)
        for mode in ATTENTION_MODES:
            model = build_network(RunConfig(depth=11, attention=mode, attention_seed=1),
                                  RngState(2))
            with no_grad():
                logits = model(x)
            assert logits.shape == (2, 10), mode

    def test_deterministic_build_and_forward(self):
        gen = RngState(81).generator()
        x = small_input(gen)
        with no_grad():
            a = build_network(RunConfig(depth=11, attention="sem"), RngState(3))(x)
            b = build_network(RunConfig(depth=11, attention="sem"), RngState(3))(x)
        assert a.data.tobytes() == b.data.tobytes()

    def test_plain_depth20_parameter_count_hand_audit(self):
        # Layer-by-layer audit: stem 3x3x3x16; per stage, bottleneck blocks
        # (bn + 1x1 + bn + 3x3 + bn + 1x1 [+ downsample]); head bn + fc.
        def conv(cin, cout, k):
            return cin * cout * k * k

        n = 2  # depth 20
        total = conv(3, 16, 3)
        cin = 16
        for width in STAGE_WIDTHS:
            cout = width * 4
            for b in range(n):
                total += 2 * cin               # bn1
                total += conv(cin, width, 1)
                total += 2 * width             # bn2
                total += conv(width, width, 3)
                total += 2 * width             # bn3
                total += conv(width, cout, 1)
                if b == 0:                     # projection on every first block
                    total += conv(cin, cout, 1)
                cin = cout
            # blocks after the first keep cin == cout, no projection
        total += 2 * cin                       # head bn
        total += cin * 10 + 10                 # classifier
        model = build_network(RunConfig(depth=20, attention="none"), RngState(4))
        assert model.param_count() == total

    @pytest.mark.parametrize("depth", [20, 47, 164])
    def test_sem_added_parameters_closed_form(self, depth):
        plain = build_network(RunConfig(depth=depth, attention="none"), RngState(5))
        sem = build_network(RunConfig(depth=depth, attention="sem"), RngState(5))
        n = depth_to_blocks(depth)
        expected = sum(n * sem_block_param_count(w * 4) for w in STAGE_WIDTHS)
        assert sem.param_count() - plain.param_count() == expected

    def test_gateless_blocks_match_plain_bitwise(self):
        gen = RngState(82).generator()
        x = small_input(gen)
        sem = build_network(RunConfig(depth=11, attention="sem"), RngState(6))
        plain = build_network(RunConfig(depth=11, attention="none"), RngState(7))
        keep = set(dict(plain.named_parameters())) | set(dict(plain.named_buffers()))
        plain.load_state_arrays(
            {k: v for k, v in sem.state_arrays().items() if k in keep})
        for blocks in sem.stages:
            for block in blocks:
                block.attention = None
        with no_grad():
            assert sem(x).data.tobytes() == plain(x).data.tobytes()

    @pytest.mark.parametrize("depth", [11, 20])
    @pytest.mark.parametrize("mode", ATTENTION_MODES + ("unit_decision",))
    def test_state_keys_follow_the_documented_scheme(self, depth, mode):
        cfg = RunConfig(depth=depth, attention="sem" if mode == "unit_decision" else mode,
                        unit_decision=mode == "unit_decision", attention_seed=9)
        total = 3 * depth_to_blocks(depth)
        plans = {"none": [None] * total, "se": [("fc",)] * total, "eca": [("cnn",)] * total,
                 "ie": [("ie",)] * total, "sem": [("fc", "cnn", "ie")] * total,
                 "unit_decision": [("fc", "cnn", "ie")] * total,
                 "random_single": assign_random_operators(total, 1, 9),
                 "random_double": assign_random_operators(total, 2, 9)}
        model = build_network(cfg, RngState(3))
        assert list(model.state_arrays()) == oracles.state_keys(depth, plans[mode],
                                                                with_decision=mode == "sem")

    def test_unit_decision_network_has_no_decision_weights(self):
        model = build_network(RunConfig(depth=11, attention="sem", unit_decision=True),
                              RngState(8))
        names = [n for n, _ in model.named_parameters()]
        assert not any("decision" in n for n in names)

    def test_random_modes_reproducible_from_seed(self):
        gen = RngState(83).generator()
        x = small_input(gen)
        with no_grad():
            a = build_network(RunConfig(depth=11, attention="random_double",
                                        attention_seed=11), RngState(9))(x)
            b = build_network(RunConfig(depth=11, attention="random_double",
                                        attention_seed=11), RngState(9))(x)
        assert a.data.tobytes() == b.data.tobytes()

    def test_capture_decisions_layout(self):
        gen = RngState(84).generator()
        x = small_input(gen)
        model = build_network(RunConfig(depth=20, attention="sem"), RngState(10))
        decisions = []
        with no_grad():
            model(x, decisions=decisions)
        records = model.decision_records(decisions)
        assert len(records) == 6  # 3 stages x 2 blocks
        assert [r.stage for r in records] == [1, 1, 2, 2, 3, 3]
        assert [r.channels for r in records] == [64, 64, 128, 128, 256, 256]
        assert all(r.weights.shape == (2, 3) for r in records)

    def test_baseline_modes_capture_no_decision(self):
        gen = RngState(85).generator()
        x = small_input(gen)
        model = build_network(RunConfig(depth=11, attention="eca"), RngState(11))
        decisions = []
        with no_grad():
            model(x, decisions=decisions)
        assert decisions == [] and model.decision_records(decisions) == []

    def test_training_step_updates_and_bn_stats(self):
        gen = RngState(86).generator()
        x = small_input(gen, b=4)
        labels = gen.integers(0, 10, size=4)
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(12))
        before = model.stages[0][0].bn1.running_mean.copy()
        loss = softmax_cross_entropy(model(x, training=True), labels)
        backward(loss)
        grads = [p.grad for _, p in model.named_parameters()]
        assert all(g is not None for g in grads)
        assert not np.array_equal(model.stages[0][0].bn1.running_mean, before)

    def test_state_roundtrip_strictness(self):
        model = build_network(RunConfig(depth=11, attention="se"), RngState(13))
        state = model.state_arrays()
        other = build_network(RunConfig(depth=11, attention="se"), RngState(14))
        other.load_state_arrays(state)
        gen = RngState(87).generator()
        x = small_input(gen)
        with no_grad():
            assert model(x).data.tobytes() == other(x).data.tobytes()
        with pytest.raises(ValueError, match="state mismatch"):
            other.load_state_arrays({"stem.weight": state["stem.weight"]})

    @pytest.mark.parametrize("name", ["stem.weight", "stage1.block0.bn1.running_mean"])
    def test_wrong_shape_is_rejected_by_name(self, name):
        # A (1,) array would broadcast into any target; parameters and BN
        # buffers alike must refuse it.
        model = build_network(RunConfig(depth=11, attention="se"), RngState(15))
        state = model.state_arrays()
        state[name] = np.full(1, 7.0, np.float32)
        with pytest.raises(ValueError, match=f"shape mismatch for {name}: "):
            model.load_state_arrays(state)


def graph_nodes(*roots):
    """Every recorded node reachable from ``roots``, once each."""
    stack, seen = list(roots), set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node._parents)


def graph_buffer_bytes(*roots):
    """(activations, batch-norm outputs) of the recorded graph in bytes:
    every distinct buffer behind a node's output, and one output-sized
    buffer per batch norm."""
    buffers, bn = {}, 0
    for node in graph_nodes(*roots):
        root = node.data
        while root.base is not None:
            root = root.base
        buffers[id(root)] = root.nbytes
        if node._backward.__name__ == "batch_norm_backward":
            bn += node.data.nbytes
    return sum(buffers.values()), bn


def unfused_relus(*roots):
    """Count of ReLU nodes in the recorded graph whose input is a batch
    norm's output, which such a pair would keep alive until backward."""
    return sum(any(p._backward is not None and p._backward.__name__ == "batch_norm_backward"
                   for p in node._parents)
               for node in graph_nodes(*roots) if node._backward.__name__ == "relu_backward")


def fused_unit_outputs(*roots):
    """Count of batch norm nodes in the recorded graph that one conv alone
    reads: such a unit runs inside the conv's node and keeps no output."""
    readers = {}
    for node in graph_nodes(*roots):
        for p in node._parents:
            if p._backward is not None and p._backward.__name__ == "batch_norm_backward":
                readers.setdefault(id(p), []).append(node._backward.__name__)
    return sum(r == ["conv2d_backward"] for r in readers.values())


def held_arrays(fn):
    """Every array a backward rule can reach through its closure: in the
    cells of the rule and of the functions, Tensors and tuples there."""
    stack, seen = [fn], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, Tensor):
            stack.append(item.data)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif callable(item):
            for cell in getattr(item, "__closure__", None) or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a variable the function never got
                    pass


def batch_buffers(batch, *roots):
    """The shapes of the distinct (batch, C, H, W) buffers the recorded graph
    keeps: node outputs and the arrays their rules hold."""
    buffers = {}
    for node in graph_nodes(*roots):
        for a in (node.data, *held_arrays(node._backward)):
            while isinstance(a.base, np.ndarray):  # a parameter's ends at its mmap
                a = a.base
            if a.ndim == 4 and a.shape[0] == batch:
                buffers[id(a)] = a.shape
    return sorted(buffers.values())


def shard_outputs(monkeypatch):
    """Record the logits of every shard's forward: the shard graphs hang
    off these, not off the joined logits, whose parents are parameters."""
    outs = []
    inner = backbone.Model._forward

    def spy(model, x, *args):
        outs.append(inner(model, x, *args))
        return outs[-1]

    monkeypatch.setattr(backbone.Model, "_forward", spy)
    return outs


class TestTapeMemory:
    @pytest.mark.usefixtures("small_shards")
    @pytest.mark.parametrize("depth", [11, 20])
    @pytest.mark.parametrize("attention", ["sem", "none"])
    def test_backward_peak_tracks_the_tape(self, monkeypatch, attention, depth):
        model = build_network(RunConfig(depth=depth, attention=attention), RngState(71),
                              np.float64)
        gen = RngState(72).generator()
        x = Tensor(gen.standard_normal((8, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=8)
        shards = shard_outputs(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = softmax_cross_entropy(model(x, training=True), labels)
            tape = tracemalloc.get_traced_memory()[0] - base
            # Shard 0's graph, and the loss and the join above it; shard 1's
            # graph lives in the worker process.
            assert len(shards) == 1
            roots = [loss, *shards]
            activations, bn = graph_buffer_bytes(*roots)
            unfused = unfused_relus(*roots)
            lone = fused_unit_outputs(*roots)
            norms = sum(n._backward.__name__ == "batch_norm_backward" for n in graph_nodes(*roots))
            # The blocks' skip sums: an identity block's 4-D add (the gates
            # add only (B, C) maps), and a projection block's shortcut conv,
            # whose last parent is the branch output it sums into.
            shared = [np.shares_memory(n.data, n._parents[0 if add else -1].data)
                      for n in graph_nodes(*roots)
                      for add in [n._backward.__name__ == "add_backward"]
                      if add and n.ndim == 4 or n._backward.__name__ == "conv2d_backward"
                      and n._parents[-1].shape == n.shape]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Every batch norm feeds a ReLU; fused, no pre-activation is kept.
        assert unfused == 0, unfused
        # bn2 and bn3 run inside the conv that reads them; only bn1, which
        # the projection shortcut (each stage's first block has one) and
        # conv1 both read, and the head's keep an output on the tape.
        assert lone == 0, lone
        assert norms == (3 + 1) * len(shards), norms
        # Each block sums its skip into the branch output's own buffer (a
        # gate or conv3 output no backward rule reads), not a new one.
        assert shared == [True] * 3 * depth_to_blocks(depth) * len(shards), shared
        # Freed as backward consumes it, the tape is not held twice.
        assert peak <= 1.25 * tape, (peak, tape)
        # Only activations: a padded conv input copy or a (B, Cin*k*k,
        # Hout*Wout) im2col copy per conv, or a second (xhat or pre-ReLU)
        # buffer per batch norm, would break this bound.
        assert tape <= activations + 0.5 * bn, (tape, activations, bn)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_gates_keep_no_activation(self, monkeypatch, shards):
        # Each gate runs inside conv3's node and keeps only (B, C) maps, so
        # the SEM graph holds the plain graph's activations and no more. Of
        # two shards, this process holds shard 0's graph.
        monkeypatch.setattr(backbone, "_MIN_SHARD_SAMPLES", 8 // shards)
        gen = RngState(79).generator()
        x = Tensor(gen.standard_normal((8, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=8)
        kept = {}
        for attention in ("sem", "none"):
            model = build_network(RunConfig(depth=11, attention=attention), RngState(80),
                                  np.float64)
            outs = shard_outputs(monkeypatch)
            loss = softmax_cross_entropy(model(x, training=True), labels)
            assert len(outs) == 1
            roots = [loss, *outs]
            kept[attention] = batch_buffers(8 // shards, *roots)
            # conv3's x, kernel, gamma and beta, then the gate's parameters.
            gates = [n for n in graph_nodes(*roots) if n.ndim == 4 and len(n._parents) > 4]
            if attention == "sem":
                assert len(gates) == 3 * depth_to_blocks(11)
            for node in gates:
                inputs = node._parents[0].data
                for a in held_arrays(node._backward):
                    assert a.ndim < 4 or a.shape[0] != len(inputs) or np.shares_memory(
                        a, inputs), a.shape
        assert kept["sem"] == kept["none"]

    @pytest.mark.parametrize("attention", ["sem", "none"])
    def test_tape_keeps_only_the_activations_its_rules_read(self, attention):
        # A depth-20 training forward keeps the images and the stem's
        # output, then per block bn1's output where the projection shortcut
        # and conv1 both read it, conv1's and conv2's outputs, which the
        # next fused unit reads, and the block's sum, which the next block
        # or the head reads; then the head's batch norm output and its
        # pooled map. A projection shortcut sums into the branch output
        # inside its own node, so it keeps no output of its own.
        model = build_network(RunConfig(depth=20, attention=attention), RngState(75))
        b = 4
        x = Tensor(RngState(76).generator().standard_normal((b, 3, 32, 32)).astype(np.float32))
        want, size = [(b, 3, 32, 32), (b, STAGE_WIDTHS[0], 32, 32)], 32
        for _, _, block in model._blocks():
            width = block.conv1.weight.shape[0]
            if block.downsample is not None:
                want.append((b, block.bn1.gamma.shape[0], size, size))
            want.append((b, width, size, size))
            size //= block.conv2.stride
            want += [(b, width, size, size), (b, block.out_channels, size, size)]
        want += [want[-1], (b, want[-1][1], 1, 1)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits = model(x, training=True)
            tape = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert batch_buffers(b, logits) == sorted(want)
        # Beyond those, the images aside, no more than a transposed copy of
        # the weights and the gates' (B, C) maps.
        activations = sum(int(np.prod(shape)) for shape in want[1:]) * x.data.itemsize
        weights = sum(p.data.nbytes for p in model.parameters())
        assert tape <= activations + weights, (tape, activations, weights)

    def test_skip_add_leaves_the_block_input(self):
        # An identity-shortcut block sums its input into the branch output;
        # summing into the input instead would corrupt bn1's backward.
        model = build_network(RunConfig(depth=20, attention="sem"), RngState(73), np.float64)
        block = model.stages[0][1]
        x = Tensor(RngState(74).generator().standard_normal((2, 64, 4, 4)), dtype=np.float64)
        before = x.data.copy()
        out = block(x, training=True)
        assert x.data.tobytes() == before.tobytes()
        assert not np.shares_memory(out.data, x.data)


@pytest.mark.usefixtures("small_shards")
class TestEvalInPlace:
    @pytest.mark.parametrize("attention", ["sem", "se", "none"])
    @pytest.mark.parametrize("depth", [11, 20])
    def test_no_grad_eval_matches_the_recording_forward(self, depth, attention):
        # Under no_grad the gate and the head BN overwrite buffers in place
        # and the fused units write no activation; with grad on the same
        # forward records and allocates. An in-place write into a buffer
        # read later (a block input, the images, a parameter) makes the two
        # differ or changes the state.
        model = build_network(RunConfig(depth=depth, attention=attention), RngState(75))
        x = small_input(RngState(76).generator(), b=3)
        state = [(name, a.copy()) for name, a in model.state_arrays().items()]
        images = x.data.copy()
        with no_grad():
            got = model(x, training=False)
        want = model(x, training=False)
        assert want._backward is not None and got._backward is None
        assert got.data.tobytes() == want.data.tobytes()
        assert x.data.tobytes() == images.tobytes()
        now = model.state_arrays()
        assert all(now[name].tobytes() == a.tobytes() for name, a in state)

    def test_untaped_block_drops_its_bn1_output(self):
        # Identity block (in = out = 64 channels, width 16): bn1 runs inside
        # conv1, so the live set peaks at conv2's output plus conv3's (1.25
        # x). A bn1 output kept to the end of the block would add 1 x.
        block = build_network(RunConfig(depth=20, attention="sem"), RngState(77)).stages[0][1]
        x = Tensor(RngState(78).generator().standard_normal((16, 64, 32, 32)), dtype=np.float32)
        with no_grad():
            block(x, training=False)  # warm-up: first-call allocations
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = block(x, training=False)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert out.data.nbytes == x.data.nbytes
        assert peak <= 1.25 * x.data.nbytes + tensor._CHUNK_BYTES + (256 << 10), peak


def worker_of(model):
    """``model``'s shard worker, None if it has none."""
    return shards._workers.get(model)


def shard_spy(monkeypatch, tmp_path):
    """Record ("caller" or "worker", batch) of every whole-batch forward in
    a file, which both processes append to; returns a function that reads
    and clears it. The worker must fork after the patch, so a live one is
    closed first."""
    shards.close_worker()
    log, caller = tmp_path / "forwards", os.getpid()
    inner = backbone.Model._forward

    def spy(model, x, *args):
        with open(log, "a") as fh:
            fh.write(f"{'caller' if os.getpid() == caller else 'worker'} {x.shape[0]}\n")
        return inner(model, x, *args)

    def take():
        lines = log.read_text().split("\n")[:-1] if log.exists() else []
        log.unlink(missing_ok=True)
        return sorted((where, int(b)) for where, b in map(str.split, lines))

    monkeypatch.setattr(backbone.Model, "_forward", spy)
    return take


def halves(b):
    """The whole-batch forwards of a no_grad eval of b samples."""
    if b < 2 * backbone._MIN_SHARD_SAMPLES:
        return [("caller", b)]
    return [("caller", b // 2), ("worker", b - b // 2)]


def random_buffers(model, seed):
    """Running statistics away from their 0/1 start, so eval BN shifts and scales."""
    gen = RngState(seed).generator()
    for name, buf in model.named_buffers():
        values = gen.standard_normal(buf.shape)
        buf[...] = np.abs(values) + 0.5 if name.endswith("var") else values


class TestShardedEval:
    @pytest.mark.parametrize("sharded", [True, False])
    @pytest.mark.parametrize("attention", ["sem", "se", "none"])
    def test_logits_match_the_whole_batch_bitwise(self, monkeypatch, tmp_path, attention,
                                                  sharded):
        # Without the worker (a machine without fork) every batch runs whole
        # on the caller, with the same logits.
        model = build_network(RunConfig(depth=11, attention=attention), RngState(90))
        random_buffers(model, 91)
        x = small_input(RngState(92).generator(), b=256)
        want = model(x, training=False)  # recording: one whole-batch forward
        assert want._backward is not None
        take = shard_spy(monkeypatch, tmp_path)
        monkeypatch.setattr(shards, "AVAILABLE", sharded)
        for b in (1, 3, 37, 256):
            with no_grad():
                got = model(Tensor(x.data[:b]), training=False)
            assert got.data.tobytes() == want.data[:b].tobytes(), b
            assert take() == (halves(b) if sharded else [("caller", b)]), b

    @pytest.mark.parametrize("change", ["whole_batch_step", "load_state_arrays"])
    def test_the_worker_evaluates_with_the_callers_buffers(self, change):
        # The worker's running statistics are copies from the fork: a
        # whole-batch training step moves only this process's, and
        # load_state_arrays writes only this process's. Each eval step sends
        # them, so the logits stay those of the whole batch here.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(106))
        random_buffers(model, 107)
        gen = RngState(108).generator()
        x = small_input(gen, b=256)
        with no_grad():
            model(x)  # forks the worker
        worker = worker_of(model).pid
        if change == "whole_batch_step":
            small = small_input(gen, b=4)
            optimizer = SGD(model.parameters(), lr=0.1)
            backward(softmax_cross_entropy(model(small, training=True),
                                           gen.integers(0, 10, size=4)))
            optimizer.step()
        else:
            other = build_network(RunConfig(depth=11, attention="sem"), RngState(109))
            random_buffers(other, 110)
            model.load_state_arrays(other.state_arrays())
        want = model(x, training=False)
        for b in (8, 37, 256):
            with no_grad():
                got = model(Tensor(x.data[:b]), training=False)
            assert got.data.tobytes() == want.data[:b].tobytes(), b
        assert worker_of(model).pid == worker

    @pytest.mark.parametrize("attention", ["sem", "se"])
    def test_capture_decisions_concatenate_the_shards(self, monkeypatch, tmp_path, attention):
        model = build_network(RunConfig(depth=20, attention=attention), RngState(93))
        random_buffers(model, 94)
        x = small_input(RngState(95).generator(), b=37)
        want = []
        model(x, training=False, decisions=want)
        want = model.decision_records(want)
        take = shard_spy(monkeypatch, tmp_path)
        got = []
        with no_grad():
            model(x, training=False, decisions=got)
        got = model.decision_records(got)
        assert take() == halves(37)
        assert len(got) == len(want) == (6 if attention == "sem" else 0)
        for g, w in zip(got, want):
            assert (g.layer_index, g.stage, g.channels, g.operators) == (
                w.layer_index, w.stage, w.channels, w.operators)
            assert g.weights.shape == (37, 3)
            assert g.weights.tobytes() == w.weights.tobytes()

    @pytest.mark.usefixtures("small_shards")
    def test_no_grad_training_forward_matches_the_recording_one(self, monkeypatch, tmp_path):
        # training=True under no_grad (the non-finite rerun) normalises by
        # the whole batch's statistics, as the recording forward does: both
        # run the same two shards, so logits and BN buffers agree bit for bit.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(96))
        twin = build_network(RunConfig(depth=11, attention="sem"), RngState(96))
        x = small_input(RngState(97).generator(), b=8)
        take = shard_spy(monkeypatch, tmp_path)
        with no_grad():
            got = model(x, training=True)
        assert take() == halves(8)
        want = twin(x, training=True)
        assert take() == halves(8)
        assert got._backward is None and want._backward is not None
        assert got.data.tobytes() == want.data.tobytes()
        for (_, a), (_, b) in zip(model.named_buffers(), twin.named_buffers()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.usefixtures("small_shards")
    @pytest.mark.parametrize("failing", [0, 1])
    def test_shard_exception_reaches_the_caller(self, monkeypatch, tmp_path, failing):
        # One shard fails at once; the call returns only after the other,
        # slower shard has finished too, and the next eval works. The worker
        # forks with the planted head; a marker file switches the failure
        # on in both processes.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(98))
        x = small_input(RngState(99).generator(), b=3)
        fail, finished = tmp_path / "fail", tmp_path / "finished"
        call = backbone._BatchNorm.__call__

        def planted(bn, out, training, inplace=False):
            shard = tensor.current_shard()
            if bn is model.head_bn and shard is not None and fail.exists():
                if shard[1] == failing:
                    raise RuntimeError(f"shard {failing} failed")
                time.sleep(0.2)
                finished.write_text(str(shard[1]))
            return call(bn, out, training, inplace)

        monkeypatch.setattr(backbone._BatchNorm, "__call__", planted)
        fail.touch()
        with no_grad(), pytest.raises(RuntimeError, match=f"shard {failing} failed"):
            model(x)
        assert finished.read_text() == str(1 - failing)
        fail.unlink()
        with no_grad():
            assert model(x).data.tobytes() == model(x, training=False).data.tobytes()

    @pytest.mark.usefixtures("small_shards")
    @pytest.mark.parametrize("shard", [0, 1])
    def test_debug_check_names_the_failing_shards_layer(self, monkeypatch, tmp_path, shard):
        # One shard plants a NaN in bn2's input in stage2.block0 (bn2 runs
        # inside conv2's node). The worker forks at a first clean eval, so
        # the checks reach it with the request, not with the fork.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(100))
        x = small_input(RngState(101).generator(), b=3)
        nan = tmp_path / "nan"
        call = backbone._Conv.__call__

        def planted(conv, h, pre=None):
            if conv is model.stages[1][0].conv2 and nan.exists() \
                    and tensor.current_shard()[1] == shard:
                h.data[0, 0, 0, 0] = np.nan
            return call(conv, h, pre)

        monkeypatch.setattr(backbone._Conv, "__call__", planted)
        with no_grad():
            model(x)
        nan.touch()
        set_debug_checks(True)
        try:
            with no_grad(), pytest.raises(FloatingPointError) as info:
                model(x)
        finally:
            set_debug_checks(False)
        assert str(info.value) == "stage2.block0 (op conv2d)"

    def test_both_shards_carry_the_callers_errstate(self, monkeypatch, tmp_path):
        # The worker forks at the first eval, under numpy's default errstate;
        # the second eval's errstate reaches it with the request.
        model = build_network(RunConfig(depth=11, attention="none"), RngState(102))
        x = small_input(RngState(103).generator(), b=2 * backbone._MIN_SHARD_SAMPLES)
        seen = tmp_path / "seen"
        pool = backbone.global_avg_pool

        def recording_pool(t):
            with open(seen, "a") as fh:
                fh.write(np.geterr()["over"] + "\n")
            return pool(t)

        monkeypatch.setattr(backbone, "global_avg_pool", recording_pool)
        shards.close_worker()
        with no_grad():
            model(x)
        assert seen.read_text().split() == ["warn", "warn"]
        seen.unlink()
        with no_grad(), np.errstate(over="raise"):
            model(x)
        assert seen.read_text().split() == ["raise", "raise"]

    def test_concurrent_callers_share_the_worker(self, monkeypatch, tmp_path):
        # Several caller threads evaluate at once, with frequent thread
        # switches: their steps take the one worker in turn, and every
        # caller gets its own batch's logits.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(104))
        x = small_input(RngState(105).generator(), b=12)
        want = model(x, training=False).data
        take = shard_spy(monkeypatch, tmp_path)
        results, errors = {}, []

        def caller(i):
            try:
                with no_grad():  # a thread starts with recording on
                    results[i] = model(Tensor(x.data[i:]), training=False).data
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert take() == sorted(call for i in range(4) for call in halves(12 - i))
        for i in range(4):
            assert results[i].tobytes() == want[i:].tobytes(), i

    def test_an_eval_between_a_step_and_its_backward_keeps_the_tape(self):
        # The eval runs in the worker that holds shard 1's tape of the step.
        model, twin = (build_network(RunConfig(depth=11, attention="sem"), RngState(136))
                       for _ in range(2))
        gen = RngState(137).generator()
        x = small_input(gen, b=2 * backbone._MIN_SHARD_SAMPLES)
        labels = gen.integers(0, 10, size=len(x.data))
        backward(softmax_cross_entropy(twin(x, training=True), labels))
        loss = softmax_cross_entropy(model(x, training=True), labels)
        with no_grad():
            model(x)
        backward(loss)
        for (name, p), q in zip(model.named_parameters(), twin.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    def test_import_starts_no_thread_and_training_one_process(self, tmp_path):
        script = (
            "import os, threading\n"
            "import numpy as np\n"
            "import semnet\n"
            "from semnet import backbone, shards\n"
            "from semnet.rng import RngState\n"
            "from semnet.tensor import Tensor, backward, no_grad, softmax_cross_entropy\n"
            "def children():\n"
            "    return [int(pid) for task in os.listdir('/proc/self/task')\n"
            "            for pid in open(f'/proc/self/task/{task}/children').read().split()]\n"
            "assert threading.active_count() == 1 and not children(), 'import'\n"
            "model = backbone.build_network(semnet.RunConfig(depth=11), RngState(1))\n"
            "x = Tensor(np.ones((4, 3, 32, 32), np.float32))\n"
            "backward(softmax_cross_entropy(model(x, training=True), [0, 1, 2, 3]))\n"
            "with no_grad():\n"
            "    model(x)\n"
            "assert threading.active_count() == 1 and not children(), 'small batch'\n"
            "backbone._MIN_SHARD_SAMPLES = 1\n"
            "backward(softmax_cross_entropy(model(x, training=True), [0, 1, 2, 3]))\n"
            "with no_grad():\n"
            "    model(x, training=True)\n"
            "assert threading.active_count() == 1, 'training'\n"
            "worker = shards._workers[model].pid\n"
            "assert children() == [worker], 'training'\n"
            "with no_grad():\n"
            "    model(x)\n"
            "assert threading.active_count() == 1, 'eval'\n"
            "assert children() == [worker] == [shards._workers[model].pid], 'eval'\n")
        run_isolated(script, tmp_path)


# Imports and a depth-11 SEM step for the scripts run_isolated runs.
STEP_PRELUDE = """
    import os
    import numpy as np
    from semnet import backbone, shards, tensor, training
    from semnet.backbone import build_network
    from semnet.rng import RngState
    from semnet.tensor import Tensor, backward, softmax_cross_entropy
    from semnet.training import RunConfig

    backbone._MIN_SHARD_SAMPLES = 1  # the 5-sample batch runs two shards
    gen = RngState(111).generator()
    x = Tensor(gen.standard_normal((5, 3, 32, 32)).astype(np.float32))
    labels = gen.integers(0, 10, size=5)

    def step(model):
        loss = softmax_cross_entropy(model(x, training=True), labels)
        backward(loss)
        return loss
"""


def shard_oracle_pair(seed, dtype=np.float64, depth=11):
    """Two identical SEM models, depth 11 unless given, their BN buffers
    away from 0/1."""
    pair = [build_network(RunConfig(depth=depth, attention="sem"), RngState(seed), dtype)
            for _ in range(2)]
    for model in pair:
        random_buffers(model, seed + 1)
    return pair


def loss_on_an_ended_thread(model, x, labels):
    """The training loss of ``model`` on (x, labels), its forward run on a
    thread that has ended."""
    losses = []
    other = threading.Thread(target=lambda: losses.append(
        softmax_cross_entropy(model(x, training=True), labels)))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    return losses[0]


def step_bits(model, loss):
    """Run ``loss``'s backward; return its bits, then ``model``'s parameter
    gradients and batch norm buffers."""
    backward(loss)
    return ([loss.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()]
            + [b.tobytes() for _, b in model.named_buffers()])


def close(got, want, rtol=1e-12):
    """Normwise relative agreement."""
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("b", [1, 2 * backbone._MIN_SHARD_SAMPLES - 1,
                               2 * backbone._MIN_SHARD_SAMPLES, 37, 128, 201])
def test_training_shards_only_batches_of_two_full_shards(monkeypatch, b):
    # With fewer samples two shards lose to one: a step is then bound by
    # Python op dispatch, not by numpy's kernels.
    model = build_network(RunConfig(depth=11), RngState(118))
    seen = []

    def stub(model, x, training, capture):  # each row holds its shard's size
        seen.append(len(x.data))
        return Tensor(np.full((len(x.data), 10), len(x.data), np.float32))

    monkeypatch.setattr(backbone.Model, "_forward", stub)
    out = model(Tensor(np.zeros((b, 3, 32, 32), np.float32)), training=True)
    sizes = [b] if b < 2 * backbone._MIN_SHARD_SAMPLES else [b // 2, b - b // 2]
    assert out.shape == (b, 10)
    # Shard 0 runs here, shard 1 in the worker process.
    assert seen == sizes[:1]
    assert out.data[:, 0].tolist() == [n for n in sizes for _ in range(n)]


@pytest.mark.usefixtures("small_shards")
class TestShardedTraining:
    @pytest.mark.parametrize("b", [1, 2, 3, 37])
    def test_step_matches_the_whole_batch_oracle(self, b):
        # Synchronized batch norm and the per-shard sweeps add up to the
        # whole-batch step; only the order of the sums differs.
        model, oracle = shard_oracle_pair(112)
        gen = RngState(113).generator()
        x = Tensor(gen.standard_normal((b, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=b)
        loss = softmax_cross_entropy(model(x, training=True), labels)
        backward(loss)
        want = softmax_cross_entropy(oracle._forward(x, True, None), labels)
        backward(want)
        assert close(loss.data, want.data)
        for (name, p), q in zip(model.named_parameters(), oracle.parameters()):
            assert close(p.grad, q.grad), name
        for (name, buf), (_, ref) in zip(model.named_buffers(), oracle.named_buffers()):
            assert close(buf, ref), name

    def test_input_that_requires_grad_keeps_the_whole_batch(self):
        # The shards' sweeps end at the join's parameters, so an input that
        # needs its own gradient takes the whole-batch path: the oracle's bits.
        model, oracle = shard_oracle_pair(119)
        gen = RngState(120).generator()
        data = gen.standard_normal((6, 3, 32, 32))
        labels = gen.integers(0, 10, size=6)
        x, y = (Tensor(data, requires_grad=True, dtype=np.float64) for _ in range(2))
        backward(softmax_cross_entropy(model(x, training=True), labels))
        backward(softmax_cross_entropy(oracle._forward(y, True, None), labels))
        assert x.grad.tobytes() == y.grad.tobytes()
        for (name, p), q in zip(model.named_parameters(), oracle.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    def test_captured_decisions_outlive_the_step(self):
        # The gates hand over their weights without a copy, so nothing after
        # the forward may write into them: not backward, the step or zero_grad.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(121))
        gen = RngState(122).generator()
        x = small_input(gen, b=6)
        labels = gen.integers(0, 10, size=6)
        optimizer = SGD(model.parameters(), lr=0.1)
        decisions = []
        loss = softmax_cross_entropy(model(x, training=True, decisions=decisions), labels)
        copies = [d.copy() for d in decisions]
        backward(loss)
        optimizer.step()
        optimizer.zero_grad()
        assert len(decisions) == 2 * 3  # two shards, three gates each
        assert all(d.tobytes() == c.tobytes() for d, c in zip(decisions, copies))
        records = model.decision_records(decisions)
        assert [r.weights.shape for r in records] == [(6, 3)] * 3

    def test_running_buffers_take_one_update_per_step(self):
        model, oracle = shard_oracle_pair(114)
        x = Tensor(RngState(115).generator().standard_normal((6, 3, 32, 32)), dtype=np.float64)
        bn = model.stages[0][0].bn1
        before = bn.running_mean.copy(), bn.running_var.copy()
        with no_grad():
            h = model.stem(x).data  # bn1's input
            model(x, training=True)
            oracle._forward(x, True, None)
        for got, old, stat in zip((bn.running_mean, bn.running_var), before,
                                  (h.mean(axis=(0, 2, 3)), h.var(axis=(0, 2, 3)))):
            assert close(got, 0.9 * old + 0.1 * stat)
        for (name, buf), (_, ref) in zip(model.named_buffers(), oracle.named_buffers()):
            assert close(buf, ref), name

    def test_skip_add_hands_its_gradient_to_one_parent(self, monkeypatch):
        # An identity block's skip add passes its output gradient to both
        # parents; once its node is gone the branch takes that buffer over
        # and only the block input gets a copy. A projection block's
        # shortcut conv sums into the branch output inside its node, whose
        # rule passes its output gradient to that branch output as is, and
        # the branch takes it over without a copy. Both give the same bits
        # as copies.
        model, twin = shard_oracle_pair(116, np.float32, depth=20)
        x = small_input(RngState(117).generator(), b=4)
        labels = np.arange(4)
        inner = tensor._accumulate
        adopted = []

        def spy(parents, grads, out_grad, owned, sink):
            inner(parents, grads, out_grad, owned, sink)
            if len(grads) == 2 and grads[0] is out_grad and grads[1] is out_grad:
                adopted.append([p.grad is out_grad for p in parents])
            elif len(grads) == 3 and grads[-1] is out_grad:
                adopted.append([parents[-1].grad is out_grad])

        monkeypatch.setattr(tensor, "_accumulate", spy)
        backward(softmax_cross_entropy(model(x, training=True), labels))
        # Per stage of shard 0, last block first: the identity block's add,
        # then the first block's shortcut sum; shard 1's run in the worker
        # process.
        assert adopted == [[True, False], [True]] * 3, adopted
        monkeypatch.setattr(tensor, "_accumulate",
                            lambda parents, grads, out_grad, owned, sink:
                            inner(parents, grads, out_grad, False, sink))
        backward(softmax_cross_entropy(twin(x, training=True), labels))
        for (name, p), q in zip(model.named_parameters(), twin.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    @pytest.mark.parametrize("phase", ["forward", "backward"])
    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("shard", [0, 1])
    def test_shard_exception_reaches_the_caller(self, tmp_path, shard, where, phase):
        # "before": the stem's conv forward, or the classifier's backward
        # rule (the first of a shard's sweep), ahead of every all-reduce;
        # "after": a conv of stage2.block0, behind stage1's batch norms in
        # forward and the head's and stage3's in backward. The partner is
        # left waiting at an all-reduce, which the failed shard aborts. The
        # worker forks with the planted op; a marker file switches it on in
        # both processes.
        run_isolated(STEP_PRELUDE + f"""
    SHARD, WHERE, PHASE = {shard}, {where!r}, {phase!r}
    model = build_network(RunConfig(depth=11, attention="sem"), RngState(110))
    layer = "stage2.block0" if WHERE == "after" else "head" if PHASE == "backward" else "stem"
    name = "affine" if layer == "head" else "conv2d"
    op = getattr(backbone, name)

    def failing(g=None):
        raise RuntimeError(f"shard {{SHARD}} failed")

    def planted(*args, **kwargs):
        here = (os.path.exists("fail") and tensor._layer.get() == layer
                and tensor.current_shard()[1] == SHARD)
        if here and PHASE == "forward":
            failing()
        out = op(*args, **kwargs)
        if here:
            out._backward = failing
        return out

    setattr(backbone, name, planted)
    open("fail", "w").close()
    try:
        step(model)
    except RuntimeError as exc:  # ShardAborted is one too
        assert type(exc) is RuntimeError and str(exc) == f"shard {{SHARD}} failed", repr(exc)
    else:
        raise AssertionError("no error")
    assert all(p.grad is None for p in model.parameters())
    worker = shards._workers[model].pid
    os.remove("fail")
    assert np.isfinite(step(model).item()) and shards._workers[model].pid == worker
""", tmp_path)

    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_a_worker_killed_mid_step_is_replaced_at_the_next_step(self, tmp_path, phase):
        # Shard 0 kills the worker in stage2.block0, with batch norms still
        # ahead of it, as an out-of-memory kill would: shard 0 finds its
        # partner gone at its next all-reduce, and the caller reaps the
        # worker and raises instead of waiting for a reply.
        run_isolated(STEP_PRELUDE + f"""
    import signal
    PHASE = {phase!r}
    model = build_network(RunConfig(depth=11, attention="sem"), RngState(110))
    conv2d = backbone.conv2d

    def kill():
        if os.path.exists("kill") and tensor.current_shard()[1] == 0:
            os.remove("kill")
            os.kill(shards._workers[model].pid, signal.SIGKILL)

    def planted(*args, **kwargs):
        here = tensor._layer.get() == "stage2.block0"
        if here and PHASE == "forward":
            kill()
        out = conv2d(*args, **kwargs)
        if here and PHASE == "backward":
            rule = out._backward

            def killing(g):
                kill()
                return rule(g)

            out._backward = killing
        return out

    backbone.conv2d = planted
    step(model)
    dead = shards._workers[model].pid
    open("kill", "w").close()
    try:
        step(model)
    except RuntimeError as exc:
        assert str(exc) == "the shard worker exited", repr(exc)
    else:
        raise AssertionError("no error")
    try:
        os.waitpid(dead, os.WNOHANG)
    except ChildProcessError:  # reaped
        pass
    else:
        raise AssertionError("the killed worker is not reaped")
    assert np.isfinite(step(model).item()) and shards._workers[model].pid not in (None, dead)
""", tmp_path)

    @pytest.mark.parametrize("shard", [0, 1])
    def test_first_nonfinite_op_names_the_failing_shards_layer(self, tmp_path, shard):
        # Only one shard plants a NaN, in bn2's input; the batch statistics
        # inside conv2's node carry it to the partner, whose error in the
        # same node names the same layer. The model stays usable.
        run_isolated(STEP_PRELUDE + f"""
    model = build_network(RunConfig(depth=11, attention="sem"), RngState(110))
    block = model.stages[1][0]
    conv2 = block.conv2

    def planted(h, pre):
        if os.path.exists("nan") and tensor.current_shard()[1] == {shard}:
            h.data[0, 0, 0, 0] = np.nan
        return conv2(h, pre)

    block.conv2 = planted
    open("nan", "w").close()
    with np.errstate(invalid="ignore"):
        name = training._first_nonfinite_op(model, x, labels)
    assert name == "stage2.block0 (op conv2d)", name
    os.remove("nan")
    assert np.isfinite(step(model).item())
""", tmp_path)

    def test_sharded_forward_replaces_the_tape_a_backward_needs(self):
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(123))
        gen = RngState(124).generator()
        x = small_input(gen, b=4)
        labels = gen.integers(0, 10, size=4)
        first = softmax_cross_entropy(model(x, training=True), labels)
        second = softmax_cross_entropy(model(x, training=True), labels)
        with pytest.raises(RuntimeError, match="holds no tape of step 1"):
            backward(first)
        backward(second)
        assert all(p.grad is not None for p in model.parameters())

    def test_an_interrupt_while_the_caller_waits_closes_the_worker(self, tmp_path):
        # ^C reaches the caller while it waits for the worker's reply: shard
        # 0's forward is done, and shard 1 is still in its classifier, past
        # the last all-reduce. The step kills and reaps the worker and
        # raises; the next step forks a new one.
        run_isolated(STEP_PRELUDE + """
    import signal
    import threading
    import time

    model = build_network(RunConfig(depth=11, attention="sem"), RngState(110))
    affine = backbone.affine

    def planted(*args, **kwargs):
        if os.path.exists("slow") and tensor.current_shard()[1] == 1:
            time.sleep(60)
        return affine(*args, **kwargs)

    backbone.affine = planted
    step(model)
    worker = shards._workers[model]
    open("slow", "w").close()
    threading.Timer(2, os.kill, (os.getpid(), signal.SIGINT)).start()
    try:
        step(model)
    except KeyboardInterrupt:
        pass
    else:
        raise AssertionError("no interrupt")
    assert worker.pid is None
    os.remove("slow")
    assert np.isfinite(step(model).item()) and shards._workers[model] is not worker
""", tmp_path)

    def test_concurrent_models_keep_their_own_workers(self, tmp_path):
        # Several models train on threads at once, with frequent thread
        # switches. Each model's step runs in a worker of its own, so each
        # caller finishes with the sharded bits of that step taken alone.
        run_isolated(STEP_PRELUDE + """
    import sys
    import threading

    callers = 4
    models = [build_network(RunConfig(depth=11, attention="sem"), RngState(110))
              for _ in range(callers + 1)]

    def outcome(model, loss):
        return ([loss.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()]
                + [b.tobytes() for _, b in model.named_buffers()])

    sharded = outcome(models[-1], step(models[-1]))
    results, errors = {}, []

    def caller(i):
        try:
            results[i] = outcome(models[i], step(models[i]))
        except Exception as exc:
            errors.append(exc)

    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert all(results[i] == sharded for i in range(callers))
    assert len({shards._workers[model].pid for model in models}) == callers + 1
""", tmp_path)

    def test_a_pending_step_outlives_another_models_steps_and_collection(self):
        # a's forward, taken on another thread, has run and its backward is
        # still to come. b's steps here fork and use b's own worker, and b's
        # collection reaps only that one: a and b each get the bits of a
        # twin's step taken alone.
        a, twin_a = shard_oracle_pair(131)
        b, twin_b = shard_oracle_pair(132)
        gen = RngState(133).generator()
        x = Tensor(gen.standard_normal((6, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=6)
        want_a, want_b = (step_bits(t, softmax_cross_entropy(t(x, training=True), labels))
                          for t in (twin_a, twin_b))
        pending = loss_on_an_ended_thread(a, x, labels)
        worker = worker_of(a).pid
        assert step_bits(b, softmax_cross_entropy(b(x, training=True), labels)) == want_b
        backward(softmax_cross_entropy(b(x, training=True), labels))
        gone = worker_of(b).pid
        del b
        assert not running(gone) and running(worker)
        assert step_bits(a, pending) == want_a
        assert worker_of(a).pid == worker

    def test_interleaved_steps_of_two_models_on_one_thread(self):
        # a's forward, then b's whole step, then a's backward: each model's
        # worker keeps its own step's tape.
        a, twin_a = shard_oracle_pair(138)
        b, twin_b = shard_oracle_pair(139)
        gen = RngState(140).generator()
        x = Tensor(gen.standard_normal((6, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=6)
        want_a, want_b = (step_bits(t, softmax_cross_entropy(t(x, training=True), labels))
                          for t in (twin_a, twin_b))
        pending = softmax_cross_entropy(a(x, training=True), labels)
        assert step_bits(b, softmax_cross_entropy(b(x, training=True), labels)) == want_b
        assert step_bits(a, pending) == want_a

    def test_a_pending_step_outlives_a_train_run(self, tmp_path):
        # The run's model forks its own worker, and the run closes that one
        # only.
        a, twin = shard_oracle_pair(141)
        gen = RngState(142).generator()
        x = Tensor(gen.standard_normal((6, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=6)
        want = step_bits(twin, softmax_cross_entropy(twin(x, training=True), labels))
        pending = softmax_cross_entropy(a(x, training=True), labels)
        result = train_run(RunConfig(dataset="synthetic", depth=11, attention="sem", epochs=1,
                                     batch_size=8, synthetic_train=16, synthetic_test=8,
                                     eval_batch_size=8, max_steps=1, out_dir=str(tmp_path)))
        assert result.steps == 1 and worker_of(result.model) is None
        assert sorted(live_children()) == sorted(worker_of(m).pid for m in (a, twin))
        assert step_bits(a, pending) == want

    def test_a_forward_on_an_ended_thread_keeps_its_worker(self):
        # The worker is forked on a thread that ends before the backward;
        # it serves that backward all the same, with the bits of a step
        # taken on one thread.
        model, twin = shard_oracle_pair(134)
        gen = RngState(135).generator()
        x = Tensor(gen.standard_normal((6, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=6)
        want = softmax_cross_entropy(twin(x, training=True), labels)
        backward(want)
        loss = loss_on_an_ended_thread(model, x, labels)
        worker = worker_of(model).pid
        time.sleep(0.2)  # time for a signal sent as the thread ended to land
        backward(loss)
        assert worker_of(model).pid == worker
        assert sorted(live_children()) == sorted([worker, worker_of(twin).pid])
        assert loss.data.tobytes() == want.data.tobytes()
        for (name, p), q in zip(model.named_parameters(), twin.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    @pytest.mark.parametrize("change", ["load_state_arrays", "rebind"])
    def test_later_steps_see_the_callers_parameters(self, change):
        # The worker forks at the first step; the parameters it reads after
        # load_state_arrays or a rebound p.data are the caller's, so each
        # step keeps matching the whole-batch oracle.
        model, oracle = shard_oracle_pair(125)
        gen = RngState(126).generator()
        x = Tensor(gen.standard_normal((6, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=6)
        for step in range(3):
            if step:
                new = {name: a + 0.01 * gen.standard_normal(a.shape)
                       for name, a in oracle.state_arrays().items()}
                oracle.load_state_arrays(new)
                if change == "load_state_arrays":
                    model.load_state_arrays(new)
                else:
                    for name, p in model.named_parameters():
                        p.data = new[name].copy()
                    for name, buf in model.named_buffers():
                        buf[...] = new[name]
            for m in (model, oracle):
                for p in m.parameters():
                    p.grad = None
            loss = softmax_cross_entropy(model(x, training=True), labels)
            backward(loss)
            want = softmax_cross_entropy(oracle._forward(x, True, None), labels)
            backward(want)
            assert close(loss.data, want.data), step
            for (name, p), q in zip(model.named_parameters(), oracle.parameters()):
                assert close(p.grad, q.grad), (step, name)


class TestShardWorker:
    SCRIPT = """
        import os, sys, time
        import numpy as np
        from semnet import backbone, shards
        from semnet.rng import RngState
        from semnet.tensor import Tensor, backward, softmax_cross_entropy
        from semnet.training import RunConfig

        # The second model's worker forks while the first's is alive.
        models = [backbone.build_network(RunConfig(depth=11), RngState(1)) for _ in range(2)]
        x = Tensor(np.ones((2 * backbone._MIN_SHARD_SAMPLES, 3, 32, 32), np.float32))
        for model in models:
            backward(softmax_cross_entropy(model(x, training=True), np.zeros(len(x.data), int)))
        print(*(shards._workers[model].pid for model in models), flush=True)
        if sys.argv[1] == "wait":
            time.sleep(120)
    """

    @staticmethod
    def gone(pid, seconds):
        """Whether process ``pid`` has exited (or is a zombie) within ``seconds``."""
        deadline = time.monotonic() + seconds
        while running(pid):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.05)
        return True

    def test_exit_reaps_the_workers(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(self.SCRIPT), "exit"],
                              env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(set(pids)) == 2 and all(self.gone(pid, 0) for pid in pids)

    def test_workers_die_with_a_killed_parent(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(self.SCRIPT), "wait"],
                                env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                                stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(set(pids)) == 2 and not any(self.gone(pid, 0) for pid in pids)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert all(self.gone(pid, 5) for pid in pids)

    @pytest.mark.parametrize("first", [0, 1])
    def test_one_worker_that_goes_with_its_model(self, first):
        # Each model keeps a worker of its own. Collecting one model reaps
        # its worker only; the other's next step keeps its worker.
        gen = RngState(127).generator()
        x = small_input(gen, b=2 * backbone._MIN_SHARD_SAMPLES)
        labels = gen.integers(0, 10, size=len(x.data))
        models = [build_network(RunConfig(depth=11), RngState(128)) for _ in range(2)]
        for model in models:
            backward(softmax_cross_entropy(model(x, training=True), labels))
        del model
        pids = [worker_of(model).pid for model in models]
        assert pids[0] != pids[1] and sorted(live_children()) == sorted(pids)
        del models[first]
        kept = pids[1 - first]
        assert self.gone(pids[first], 0) and live_children() == [kept]
        backward(softmax_cross_entropy(models[0](x, training=True), labels))
        assert worker_of(models[0]).pid == kept and live_children() == [kept]
        del models
        assert live_children() == [] and self.gone(kept, 0)

    def test_a_dead_worker_is_replaced_at_the_next_step(self):
        # The worker is killed while a sibling's is alive: only its own
        # model's next step forks a new one.
        gen = RngState(129).generator()
        x = small_input(gen, b=2 * backbone._MIN_SHARD_SAMPLES)
        labels = gen.integers(0, 10, size=len(x.data))
        model, sibling = (build_network(RunConfig(depth=11), RngState(130)) for _ in range(2))
        for m in (model, sibling):
            backward(softmax_cross_entropy(m(x, training=True), labels))
        dead, kept = worker_of(model).pid, worker_of(sibling).pid
        os.kill(dead, signal.SIGKILL)
        assert self.gone(dead, 5)
        backward(softmax_cross_entropy(sibling(x, training=True), labels))
        assert worker_of(sibling).pid == kept
        again = softmax_cross_entropy(model(x, training=True), labels)
        backward(again)
        assert worker_of(model).pid not in (dead, kept)
        assert sorted(live_children()) == sorted([worker_of(model).pid, kept])
        assert np.isfinite(again.item())


class TestCheckpointContainer:
    def test_roundtrip_bitwise_and_order(self, tmp_path):
        gen = RngState(88).generator()
        arrays = {
            "w": gen.standard_normal((3, 4)).astype(np.float32),
            "v": gen.standard_normal(7),
            "meta.blob": np.frombuffer(b"hello", dtype=np.uint8),
            "scalar": np.array(3.5, dtype=np.float64),
        }
        path = os.path.join(tmp_path, "a.ckpt")
        write_checkpoint(path, arrays)
        back = read_checkpoint(path)
        assert list(back) == list(arrays)
        for name in arrays:
            assert back[name].dtype == arrays[name].dtype
            assert back[name].shape == arrays[name].shape
            assert back[name].tobytes() == arrays[name].tobytes()

    def test_magic_and_version(self, tmp_path):
        path = os.path.join(tmp_path, "b.ckpt")
        write_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(open(path, "rb").read())
        assert bytes(blob[:8]) == b"SEMCKPT1"
        assert blob[8] == 1

    def test_crc_detects_corruption(self, tmp_path):
        path = os.path.join(tmp_path, "c.ckpt")
        write_checkpoint(path, {"x": np.arange(8, dtype=np.float32)})
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x40
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = os.path.join(tmp_path, "d.ckpt")
        write_checkpoint(path, {"x": np.arange(8, dtype=np.float32)})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = os.path.join(tmp_path, "best.ckpt")
        write_checkpoint(path, {"x": np.arange(8, dtype=np.float32)})
        before = open(path, "rb").read()

        def crash(fd):
            raise OSError("disk full")

        # The new bytes are written to disk before the flush fails.
        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(path, {"x": np.ones(1024, dtype=np.float64)})
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["best.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "e.ckpt")
        open(path, "wb").write(b"NOTACKPT" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)
