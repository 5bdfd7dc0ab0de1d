"""Backbone construction, parameter audits, attention insertion,
random operator assignment, and the checkpoint container."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from semnet import backbone, tensor
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
from semnet.tensor import Tensor, backward, no_grad, set_debug_checks, softmax_cross_entropy
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


def graph_nodes(loss):
    """Every recorded node reachable from ``loss``, once each."""
    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node._parents)


def graph_buffer_bytes(loss):
    """(activations, batch-norm outputs) of the recorded graph in bytes:
    every distinct buffer behind a node's output, and one output-sized
    buffer per batch norm."""
    buffers, bn = {}, 0
    for node in graph_nodes(loss):
        root = node.data
        while root.base is not None:
            root = root.base
        buffers[id(root)] = root.nbytes
        if node._backward.__name__ == "batch_norm_backward":
            bn += node.data.nbytes
    return sum(buffers.values()), bn


def unfused_relus(loss):
    """Count of ReLU nodes in the recorded graph whose input is a batch
    norm's output, which such a pair would keep alive until backward."""
    return sum(any(p._backward is not None and p._backward.__name__ == "batch_norm_backward"
                   for p in node._parents)
               for node in graph_nodes(loss) if node._backward.__name__ == "relu_backward")


class TestTapeMemory:
    @pytest.mark.parametrize("attention", ["sem", "none"])
    def test_backward_peak_tracks_the_tape(self, attention):
        model = build_network(RunConfig(depth=11, attention=attention), RngState(71),
                              np.float64)
        gen = RngState(72).generator()
        x = Tensor(gen.standard_normal((8, 3, 32, 32)), dtype=np.float64)
        labels = gen.integers(0, 10, size=8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = softmax_cross_entropy(model(x, training=True), labels)
            tape = tracemalloc.get_traced_memory()[0] - base
            activations, bn = graph_buffer_bytes(loss)
            unfused = unfused_relus(loss)
            # The 4-D adds are the blocks' skip additions; the gates add
            # only (B, C) maps.
            shared = [np.shares_memory(n.data, n._parents[0].data) for n in graph_nodes(loss)
                      if n._backward.__name__ == "add_backward" and n.ndim == 4]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Every batch norm feeds a ReLU; fused, no pre-activation is kept.
        assert unfused == 0, unfused
        # Each block sums its skip into the branch output's own buffer (a
        # gate or conv3 output no backward rule reads), not a new one.
        assert shared == [True] * 3 * model.blocks_per_stage, shared
        # Freed as backward consumes it, the tape is not held twice.
        assert peak <= 1.25 * tape, (peak, tape)
        # Only activations: a padded conv input copy or a (B, Cin*k*k,
        # Hout*Wout) im2col copy per conv, or a second (xhat or pre-ReLU)
        # buffer per batch norm, would break this bound.
        assert tape <= activations + 0.5 * bn, (tape, activations, bn)

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


@pytest.mark.usefixtures("two_eval_shards")
class TestEvalInPlace:
    @pytest.mark.parametrize("attention", ["sem", "se", "none"])
    @pytest.mark.parametrize("depth", [11, 20])
    def test_no_grad_eval_matches_the_recording_forward(self, depth, attention):
        # Under no_grad bn2, bn3, the gate and the head BN overwrite buffers
        # in place; with grad on the same forward records and allocates. An
        # in-place write into a buffer read later (a block input, the
        # images, a parameter) makes the two differ or changes the state.
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
        # Identity block (in = out = 64 channels, width 16): the live set
        # peaks at bn1's output plus conv1's (1.25 x), or at conv2's plus
        # conv3's. Keeping bn1's output to the end of the block would add
        # it to the latter, 2.25 x.
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


def shard_spy(monkeypatch):
    """Record (thread name, batch) of every whole-batch forward."""
    calls = []
    inner = backbone.Model._forward

    def spy(model, x, *args):
        calls.append((threading.current_thread().name, x.shape[0]))
        return inner(model, x, *args)

    monkeypatch.setattr(backbone.Model, "_forward", spy)
    return calls


def random_buffers(model, seed):
    """Running statistics away from their 0/1 start, so eval BN shifts and scales."""
    gen = RngState(seed).generator()
    for name, buf in model.named_buffers():
        values = gen.standard_normal(buf.shape)
        buf[...] = np.abs(values) + 0.5 if name.endswith("var") else values


class TestShardedEval:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("attention", ["sem", "se", "none"])
    def test_logits_match_the_whole_batch_bitwise(self, monkeypatch, attention, shards):
        model = build_network(RunConfig(depth=11, attention=attention), RngState(90))
        random_buffers(model, 91)
        x = small_input(RngState(92).generator(), b=256)
        want = model(x, training=False)  # recording: one whole-batch forward
        assert want._backward is not None
        monkeypatch.setattr(backbone, "EVAL_SHARDS", shards)
        calls = shard_spy(monkeypatch)
        for b in (1, 3, 37, 256):
            calls.clear()
            with no_grad():
                got = model(Tensor(x.data[:b]), training=False)
            assert got.data.tobytes() == want.data[:b].tobytes(), b
            n = min(shards, b)
            assert sorted(size for _, size in calls) == sorted(
                b * (i + 1) // n - b * i // n for i in range(n))
            names = [name for name, _ in calls]
            assert names.count(threading.current_thread().name) == 1
            assert sum(name.startswith("semnet-eval") for name in names) == n - 1

    @pytest.mark.parametrize("attention", ["sem", "se"])
    def test_capture_decisions_concatenate_the_shards(self, monkeypatch, attention):
        model = build_network(RunConfig(depth=20, attention=attention), RngState(93))
        random_buffers(model, 94)
        x = small_input(RngState(95).generator(), b=37)
        want = []
        model(x, training=False, capture_decisions=want)
        monkeypatch.setattr(backbone, "EVAL_SHARDS", 3)
        calls = shard_spy(monkeypatch)
        got = []
        with no_grad():
            model(x, training=False, capture_decisions=got)
        assert len(calls) == 3
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            assert (g.layer_index, g.stage, g.channels, g.operators) == (
                w.layer_index, w.stage, w.channels, w.operators)
            if w.weights is None:
                assert g.weights is None
            else:
                assert g.weights.shape == (37, 3)
                assert g.weights.tobytes() == w.weights.tobytes()

    def test_batch_statistics_forward_is_not_sharded(self, monkeypatch):
        # training=True under no_grad (the non-finite rerun) normalises by
        # the whole batch's statistics, so it must see the whole batch.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(96))
        twin = build_network(RunConfig(depth=11, attention="sem"), RngState(96))
        x = small_input(RngState(97).generator(), b=8)
        monkeypatch.setattr(backbone, "EVAL_SHARDS", 2)
        calls = shard_spy(monkeypatch)
        with no_grad():
            got = model(x, training=True)
        want = twin(x, training=True)
        assert calls == [(threading.current_thread().name, 8), (threading.current_thread().name, 8)]
        assert got.data.tobytes() == want.data.tobytes()
        for (_, a), (_, b) in zip(model.named_buffers(), twin.named_buffers()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.usefixtures("two_eval_shards")
    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_slice_exception_reaches_the_caller(self, monkeypatch, failing):
        # One slice fails at once; the call returns only after the other,
        # slower slice has finished too.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(98))
        x = small_input(RngState(99).generator(), b=3)
        head = model.head_bn
        caller = threading.current_thread().name
        finished = []

        def failing_head(out, training, inplace=False):
            name = threading.current_thread().name
            if (name == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} slice failed")
            time.sleep(0.2)
            finished.append(name)
            return head(out, training, inplace)

        monkeypatch.setattr(model, "head_bn", failing_head)
        with no_grad(), pytest.raises(RuntimeError, match=f"{failing} slice failed"):
            model(x)
        assert len(finished) == 1
        assert finished[0].startswith("semnet-eval") == (failing == "caller")
        monkeypatch.setattr(model, "head_bn", head)
        with no_grad():
            assert model(x).data.tobytes() == model(x, training=False).data.tobytes()

    @pytest.mark.usefixtures("two_eval_shards")
    def test_debug_check_names_the_failing_shards_layer(self, monkeypatch):
        # The 2-sample shard plants a NaN in stage2.block0 while the other
        # shard waits inside the head's scope; a process-wide layer name
        # would read "head" there.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(100))
        x = small_input(RngState(101).generator(), b=3)
        block, head = model.stages[1][0], model.head_bn
        conv2 = block.conv2
        in_head, checked = threading.Event(), threading.Event()

        def planted_conv2(h):
            if h.shape[0] == 2:
                try:
                    assert in_head.wait(10)
                    h.data[1, 0, 0, 0] = np.nan
                    return conv2(h)
                finally:
                    checked.set()
            return conv2(h)

        def waiting_head(out, training, inplace=False):
            if out.shape[0] == 1:
                in_head.set()
                assert checked.wait(10)
            return head(out, training, inplace)

        monkeypatch.setattr(block, "conv2", planted_conv2)
        monkeypatch.setattr(model, "head_bn", waiting_head)
        set_debug_checks(True)
        try:
            with no_grad(), pytest.raises(FloatingPointError) as info:
                model(x)
        finally:
            set_debug_checks(False)
        assert str(info.value) == "stage2.block0 (op conv2d)"

    def test_eval_threads_carry_the_callers_errstate(self, monkeypatch):
        model = build_network(RunConfig(depth=11, attention="none"), RngState(102))
        x = small_input(RngState(103).generator(), b=4)
        monkeypatch.setattr(backbone, "EVAL_SHARDS", 2)
        seen = []
        pool = backbone.global_avg_pool

        def recording_pool(t):
            seen.append(np.geterr()["over"])
            return pool(t)

        monkeypatch.setattr(backbone, "global_avg_pool", recording_pool)
        with no_grad(), np.errstate(over="raise"):
            model(x)
        assert seen == ["raise", "raise"]

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # More slices than CPUs from several caller threads at once, with
        # frequent thread switches: the lazily created pool must be created
        # once and every caller must get its own batch's logits.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(104))
        x = small_input(RngState(105).generator(), b=12)
        want = model(x, training=False).data
        monkeypatch.setattr(backbone, "EVAL_SHARDS", 5)
        monkeypatch.setattr(backbone, "_pool", None)
        pools, results, errors = [], {}, []

        def caller(i):
            try:
                results[i] = model(Tensor(x.data[i:]), training=False).data
                pools.append(backbone._pool)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # no_grad is process-wide: entered once here, not per caller.
            with no_grad():
                threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            if backbone._pool is not None:
                backbone._pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(pools) == 4 and all(p is pools[0] for p in pools)
        for i in range(4):
            assert results[i].tobytes() == want[i:].tobytes(), i

    def test_import_and_training_start_no_thread(self, tmp_path):
        script = (
            "import threading\n"
            "import numpy as np\n"
            "import semnet\n"
            "from semnet import backbone\n"
            "from semnet.rng import RngState\n"
            "from semnet.tensor import Tensor, backward, no_grad, softmax_cross_entropy\n"
            "assert threading.active_count() == 1, 'import'\n"
            "model = backbone.build_network(semnet.RunConfig(depth=11), RngState(1))\n"
            "x = Tensor(np.ones((4, 3, 32, 32), np.float32))\n"
            "backward(softmax_cross_entropy(model(x, training=True), [0, 1, 2, 3]))\n"
            "with no_grad():\n"
            "    model(x, training=True)\n"
            "assert threading.active_count() == 1, 'training'\n"
            "backbone.EVAL_SHARDS = 2\n"
            "with no_grad():\n"
            "    model(x)\n"
            "assert threading.active_count() > 1, 'eval'\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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
