"""Backbone construction, parameter audits, attention insertion,
random operator assignment, and the checkpoint container."""

import os
import tracemalloc

import numpy as np
import pytest

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
from semnet.rng import RngState
from semnet.tensor import Tensor, backward, no_grad, softmax_cross_entropy
from semnet.training import RunConfig

import oracles


def small_input(gen, b=2):
    return Tensor(gen.standard_normal((b, 3, 32, 32)).astype(np.float32))


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
        records = []
        with no_grad():
            model(x, capture_decisions=records)
        assert len(records) == 6  # 3 stages x 2 blocks
        assert [r.stage for r in records] == [1, 1, 2, 2, 3, 3]
        assert [r.channels for r in records] == [64, 64, 128, 128, 256, 256]
        assert all(r.weights.shape == (2, 3) for r in records)

    def test_baseline_modes_capture_no_decision(self):
        gen = RngState(85).generator()
        x = small_input(gen)
        model = build_network(RunConfig(depth=11, attention="eca"), RngState(11))
        records = []
        with no_grad():
            model(x, capture_decisions=records)
        assert len(records) == 3
        assert all(r.weights is None for r in records)

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


def graph_buffer_bytes(loss):
    """(activations, conv input copies, batch-norm outputs) of the recorded
    graph in bytes, from its shapes: every distinct buffer behind a node's
    output, the zero-padded phase copy of its input each convolution that
    pads or strides keeps, and one output-sized buffer per batch norm."""
    buffers, copies, bn = {}, 0, 0
    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        root = node.data
        while root.base is not None:
            root = root.base
        buffers[id(root)] = root.nbytes
        op = node._backward.__name__
        if op == "conv2d_backward":
            x, kernel = node._parents
            b, cin, h, w = x.shape
            _, _, hout, wout = node.shape
            k = kernel.shape[2]
            # The backbone pads its convs to keep ceil(h / stride) rows.
            stride = h // hout
            pad = ((hout - 1) * stride + k - h + 1) // 2
            if k > 1 or stride > 1 or pad > 0:
                # min(stride, k)^2 phase grids of (hout + d) rows of
                # (wout + d) columns, plus d slack, d = (k - 1) // stride.
                d = (k - 1) // stride
                grid = (hout + d) * (wout + d) + d
                copies += min(stride, k) ** 2 * b * cin * grid * x.data.itemsize
        elif op == "batch_norm_backward":
            bn += node.data.nbytes
        stack.extend(node._parents)
    return sum(buffers.values()), copies, bn


def unfused_relus(loss):
    """Count of ReLU nodes in the recorded graph whose input is a batch
    norm's output, which such a pair would keep alive until backward."""
    count, stack, seen = 0, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        if node._backward.__name__ == "relu_backward":
            count += any(p._backward is not None
                         and p._backward.__name__ == "batch_norm_backward"
                         for p in node._parents)
        stack.extend(node._parents)
    return count


class TestTapeMemory:
    def test_backward_peak_tracks_the_tape(self):
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(71), np.float64)
        gen = RngState(72).generator()
        x = Tensor(gen.standard_normal((8, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = softmax_cross_entropy(model(x, training=True), labels)
            tape = tracemalloc.get_traced_memory()[0] - base
            activations, copies, bn = graph_buffer_bytes(loss)
            unfused = unfused_relus(loss)
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Every batch norm feeds a ReLU; fused, no pre-activation is kept.
        assert unfused == 0, unfused
        # Freed as backward consumes it, the tape is not held twice.
        assert peak <= 1.25 * tape, (peak, tape)
        # Only activations and one padded copy per conv input: a (B,
        # Cin*k*k, Hout*Wout) im2col copy per 3x3 conv, or a second (xhat
        # or pre-ReLU) buffer per batch norm, would break this bound.
        assert tape <= activations + copies + 0.5 * bn, (tape, activations, copies, bn)


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
