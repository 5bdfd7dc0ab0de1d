"""Tensor engine: forward semantics against naive oracles, autodiff
against central differences, broadcasting, and determinism."""

import contextlib
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from semnet import tensor, verify
from semnet.attention import ALL_OPERATORS, gate_params, init_sem_params, sem_forward
from semnet.backbone import build_network
from semnet.gradcheck import check_gradients, finite_difference_grad, max_relative_error
from semnet.rng import RngState
from semnet.shards import ShardAborted, SharedReduce
from semnet.tensor import (
    ACTIVATION_KINDS,
    PreActivation,
    Tensor,
    add,
    affine,
    backward,
    batch_norm,
    conv2d,
    global_avg_pool,
    is_grad_enabled,
    mul,
    no_grad,
    relu,
    reshape,
    set_debug_checks,
    softmax_cross_entropy,
)
from semnet.training import RunConfig
from semnet.verify import _kink_free_beta

import oracles

TOL = 1e-4


def randn(gen, shape, requires_grad=True, away_from_zero=False):
    x = gen.standard_normal(shape)
    if away_from_zero:
        x = np.sign(x) * (np.abs(x) + 0.1)
    return Tensor(x, requires_grad=requires_grad, dtype=np.float64)


def normwise_error(got, want) -> float:
    """max |got - want| / max |want|: error relative to the reference's scale."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want))
                 / np.max(np.abs(want)))


class TestForwardSemantics:
    def test_gap_constant(self):
        x = Tensor(np.ones((1, 2, 2, 2)), dtype=np.float64)
        out = global_avg_pool(x)
        assert out.shape == (1, 2, 1, 1)
        assert np.array_equal(out.data.reshape(2), [1.0, 1.0])

    def test_gap_arithmetic_mean(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[1, 2], [3, 4]]
        out = global_avg_pool(Tensor(x, dtype=np.float64))
        assert out.data[0, 0, 0, 0] == 2.5

    def test_gap_matches_bruteforce(self):
        gen = RngState(10).generator()
        x = gen.standard_normal((4, 8, 3, 3))
        out = global_avg_pool(Tensor(x, dtype=np.float64))
        expected = oracles.naive_gap(x)
        assert np.max(np.abs(out.data.reshape(4, 8) - expected)) <= 1e-12

    def test_gap_rejects_empty_spatial(self):
        with pytest.raises(ValueError):
            global_avg_pool(Tensor(np.zeros((1, 2, 0, 3)), dtype=np.float64))

    def test_gap_conservation(self):
        # sum_c GAP(x)*H*W == sum of all elements, per sample.
        gen = RngState(11).generator()
        x = gen.standard_normal((3, 5, 4, 6))
        pooled = global_avg_pool(Tensor(x, dtype=np.float64)).data.reshape(3, 5)
        lhs = pooled.sum(axis=1) * 4 * 6
        rhs = x.sum(axis=(1, 2, 3))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-6

    def test_affine_identity_and_zero(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        eye = Tensor(np.eye(3), dtype=np.float64)
        assert np.array_equal(affine(x, eye).data, x.data)
        zero = Tensor(np.zeros((2, 3)), dtype=np.float64)
        b = Tensor(np.array([5.0, -1.0]), dtype=np.float64)
        out = affine(zero, Tensor(np.ones((2, 3)), dtype=np.float64), b)
        assert np.array_equal(out.data, np.tile(b.data, (2, 1)))

    def test_affine_matches_triple_loop(self):
        gen = RngState(12).generator()
        x = gen.standard_normal((3, 4))
        w = gen.standard_normal((5, 4))
        b = gen.standard_normal(5)
        out = affine(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                     Tensor(b, dtype=np.float64))
        assert np.max(np.abs(out.data - oracles.naive_affine(x, w, b))) <= 1e-12

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine(Tensor(np.zeros((2, 3)), dtype=np.float64),
                   Tensor(np.zeros((4, 5)), dtype=np.float64))

    def test_conv2d_one_by_one_identity(self):
        x = Tensor(np.random.default_rng(0).random((2, 1, 4, 4)), dtype=np.float64)
        k = Tensor(np.ones((1, 1, 1, 1)), dtype=np.float64)
        assert np.array_equal(conv2d(x, k).data, x.data)

    def test_conv2d_zero_kernel(self):
        x = Tensor(np.random.default_rng(1).random((1, 2, 5, 5)), dtype=np.float64)
        k = Tensor(np.zeros((3, 2, 3, 3)), dtype=np.float64)
        assert not conv2d(x, k, pad=1).data.any()

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_matches_six_loop(self, stride, pad):
        gen = RngState(13 + stride * 10 + pad).generator()
        x = gen.standard_normal((1, 2, 5, 5))
        k = gen.standard_normal((3, 2, 3, 3))
        out = conv2d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64),
                     stride=stride, pad=pad)
        expected = oracles.naive_conv2d(x, k, stride, pad)
        assert out.shape == expected.shape
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_conv2d_empty_output_rejected(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2)), dtype=np.float64),
                   Tensor(np.zeros((1, 1, 5, 5)), dtype=np.float64))

    def test_conv1d_identity_kernels(self):
        gen = RngState(14).generator()
        m = gen.standard_normal((3, 6))
        assert np.array_equal(tensor._channel_conv(m, np.array([1.0])), m)
        assert np.array_equal(tensor._channel_conv(m, np.array([0.0, 1.0, 0.0])), m)

    def test_conv1d_matches_sliding_window(self):
        gen = RngState(15).generator()
        m = gen.standard_normal((4, 8))
        k = gen.standard_normal(3)
        out = tensor._channel_conv(m, k)
        assert np.max(np.abs(out - oracles.naive_conv1d_channel(m, k))) <= 1e-12

    def test_conv1d_rejects_even_kernel(self):
        m, kernel = np.zeros((1, 4)), np.zeros(2)
        with pytest.raises(ValueError, match="odd"):
            tensor._channel_conv(m, kernel)
        with pytest.raises(ValueError, match="odd"):
            tensor._channel_conv_backward(m, kernel, np.zeros((1, 4)))

    def test_activation_values(self):
        rules = tensor._ACTIVATION_RULES
        assert rules["sigmoid"][0](np.array([0.0]))[0] == 0.5
        x = np.array([-1.0, 2.0])
        assert np.array_equal(rules["relu"][0](x), [0.0, 2.0])
        assert np.allclose(rules["leaky_relu"][0](x), [-0.01, 2.0])

    def test_elementwise_identities(self):
        gen = RngState(16).generator()
        a = Tensor(gen.standard_normal((3, 4)), dtype=np.float64)
        ones = Tensor(np.ones((3, 4)), dtype=np.float64)
        zeros = Tensor(np.zeros((3, 4)), dtype=np.float64)
        assert np.array_equal(mul(a, ones).data, a.data)
        assert np.array_equal(add(a, zeros).data, a.data)

    def test_broadcast_channel_scale_matches_loops(self):
        gen = RngState(17).generator()
        x = gen.standard_normal((2, 3, 4, 4))
        v = gen.standard_normal((2, 3, 1, 1))
        out = mul(Tensor(x, dtype=np.float64), Tensor(v, dtype=np.float64))
        expected = np.empty_like(x)
        for b in range(2):
            for c in range(3):
                expected[b, c] = x[b, c] * v[b, c, 0, 0]
        assert np.array_equal(out.data, expected)

    def test_broadcast_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mul(Tensor(np.zeros((2, 3, 4, 4)), dtype=np.float64),
                Tensor(np.zeros((2, 3)), dtype=np.float64))

    def test_softmax_ce_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((2, 10)), dtype=np.float64), [3, 7])
        assert abs(loss.item() - np.log(10)) <= 1e-12

    def test_softmax_ce_dominant_logit(self):
        logits = np.full((1, 5), -50.0)
        logits[0, 2] = 50.0
        loss = softmax_cross_entropy(Tensor(logits, dtype=np.float64), [2])
        assert loss.item() <= 1e-12

    def test_softmax_ce_label_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3)), dtype=np.float64), [0, 3])

    def test_batch_norm_train_statistics(self):
        gen = RngState(18).generator()
        x = Tensor(gen.standard_normal((256, 4, 2, 2)) * 3.0 + 1.0, dtype=np.float64)
        gamma = Tensor(np.array([1.0, 2.0, 0.5, -1.5]), dtype=np.float64)
        beta = Tensor(np.array([0.0, 1.0, -2.0, 0.25]), dtype=np.float64)
        out = batch_norm(x, gamma, beta, np.zeros(4), np.ones(4), training=True)
        got_mean = out.data.mean(axis=(0, 2, 3))
        got_std = out.data.std(axis=(0, 2, 3))
        assert np.max(np.abs(got_mean - beta.data)) <= 1e-5
        assert np.max(np.abs(got_std - np.abs(gamma.data))) <= 1e-5

    def test_batch_norm_identity_on_standardized_input(self):
        gen = RngState(19).generator()
        x = gen.standard_normal((4096, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = batch_norm(Tensor(x, dtype=np.float64),
                         Tensor(np.ones(3), dtype=np.float64),
                         Tensor(np.zeros(3), dtype=np.float64),
                         np.zeros(3), np.ones(3), training=True)
        assert np.max(np.abs(out.data - x)) <= 1e-4

    def test_batch_norm_updates_running_stats(self):
        gen = RngState(20).generator()
        x = gen.standard_normal((64, 2)) * 2.0 + 5.0
        rm, rv = np.zeros(2), np.ones(2)
        batch_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(2), dtype=np.float64),
                   Tensor(np.zeros(2), dtype=np.float64), rm, rv, training=True)
        assert np.allclose(rm, 0.1 * x.mean(axis=0))
        assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=0))


class TestBatchNormOracle:
    """batch_norm against the textbook per-channel form in oracles.py, with
    non-unit gamma/beta and an input mean far from 0."""

    SHAPES = [(64, 5), (6, 4, 5, 3)]

    @staticmethod
    def run(shape, dtype, training, seed, relu=False):
        gen = RngState(seed).generator()
        c = shape[1]
        x = (gen.standard_normal(shape) * 2.5 + 40.0).astype(dtype)
        gamma = (gen.standard_normal(c) + 1.5).astype(dtype)
        beta = (gen.standard_normal(c) * 2.0).astype(dtype)
        rm = (gen.standard_normal(c) + 40.0).astype(dtype)
        rv = (gen.random(c) * 6.0 + 0.5).astype(dtype)
        g = gen.standard_normal(shape).astype(dtype)
        xt, gt, bt = (Tensor(v, requires_grad=True, dtype=dtype) for v in (x, gamma, beta))
        buffers = rm.copy(), rv.copy()
        out = batch_norm(xt, gt, bt, *buffers, training=training, relu=relu)
        backward(mul(out, Tensor(g, dtype=dtype)).sum())
        ref = oracles.naive_batch_norm(x, gamma, beta, rm, rv, g, training, relu=relu)
        errs = {name: normwise_error(got, want) for name, got, want in
                zip(("out", "dx", "dgamma", "dbeta"),
                    (out.data, xt.grad, gt.grad, bt.grad), ref)}
        return x, (rm, rv), buffers, ref, errs

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_float64_matches_naive(self, shape, training):
        *_, errs = self.run(shape, np.float64, training, seed=25)
        assert max(errs.values()) <= 1e-9, errs

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES + [(16, 16, 8, 8)])
    def test_float32_matches_naive(self, shape, training):
        *_, errs = self.run(shape, np.float32, training, seed=26)
        assert max(errs.values()) <= 1e-5, errs

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES + [(16, 16, 8, 8)])
    def test_fused_relu_matches_naive(self, shape, training, dtype, tol):
        *_, errs = self.run(shape, dtype, training, seed=29, relu=True)
        assert max(errs.values()) <= tol, errs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fused_relu_is_bitwise_the_pair(self, shape, training, dtype):
        """relu=True gives relu(batch_norm(x)) byte for byte: output, every
        gradient and both running buffers."""
        gen = RngState(28).generator()
        c = shape[1]
        x = (gen.standard_normal(shape) * 2.5 + 40.0).astype(dtype)
        gamma = (gen.standard_normal(c) + 0.5).astype(dtype)
        beta = (gen.standard_normal(c) * 0.5).astype(dtype)
        rm = (gen.standard_normal(c) + 40.0).astype(dtype)
        rv = (gen.random(c) * 6.0 + 0.5).astype(dtype)
        g = Tensor(gen.standard_normal(shape).astype(dtype))
        results = []
        for fused in (True, False):
            xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
            buffers = rm.copy(), rv.copy()
            if fused:
                out = batch_norm(xt, gt, bt, *buffers, training=training, relu=True)
            else:
                out = relu(batch_norm(xt, gt, bt, *buffers, training=training))
            backward(mul(out, g).sum())
            results.append([a.tobytes() for a in
                            (out.data, xt.grad, gt.grad, bt.grad, *buffers)])
        assert 0 < np.count_nonzero(out.data) < out.size  # the mask matters
        assert results[0] == results[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_running_buffers(self, shape, dtype):
        axes = (0,) if len(shape) == 2 else (0, 2, 3)
        x, (rm, rv), (got_rm, got_rv), ref, _ = self.run(shape, dtype, True, seed=27)
        # The update rule is fixed: r <- m r + (1 - m) stat, in the input dtype.
        m, w = dtype(0.9), dtype(1.0 - 0.9)
        assert got_rm.tobytes() == (rm * m + w * x.mean(axis=axes, dtype=dtype)).tobytes()
        assert got_rv.tobytes() == (rv * m + w * x.var(axis=axes, dtype=dtype)).tobytes()
        tol = 1e-6 if dtype == np.float32 else 1e-12
        assert normwise_error(got_rm, ref[4]) <= tol
        assert normwise_error(got_rv, ref[5]) <= tol
        _, (rm, rv), (got_rm, got_rv), *_ = self.run(shape, dtype, False, seed=27)
        assert got_rm.tobytes() == rm.tobytes() and got_rv.tobytes() == rv.tobytes()

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(7, 5), (7, 4, 5, 3)])
    def test_chunks_match_whole_batch_bitwise(self, shape, training, relu, dtype, step,
                                              monkeypatch):
        # SHAPES' samples, 7 of them, so 2- and 3-sample chunks leave a ragged tail.
        gen = RngState(30).generator()
        c = shape[1]
        x = (gen.standard_normal(shape) * 2.5 + 40.0).astype(dtype)
        gamma = (gen.standard_normal(c) + 0.5).astype(dtype)
        beta = (gen.standard_normal(c) * 0.5).astype(dtype)
        rm = (gen.standard_normal(c) + 40.0).astype(dtype)
        rv = (gen.random(c) * 6.0 + 0.5).astype(dtype)
        g = gen.standard_normal(shape).astype(dtype)
        seen = force_chunk_step(monkeypatch, step)
        buffers = rm.copy(), rv.copy()
        out = batch_norm(*(Tensor(v, requires_grad=True) for v in (x, gamma, beta)),
                         *buffers, training=training, relu=relu)
        got = (out.data, *out._backward(g), *buffers)
        want_buffers = rm.copy(), rv.copy()
        want = (*oracles.whole_batch_batch_norm(x, gamma, beta, *want_buffers, g, training,
                                                relu=relu), *want_buffers)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta", "running_mean", "running_var"),
                              got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        if relu:
            assert 0 < np.count_nonzero(out.data) < out.size  # the mask matters
        assert len(seen) == 2  # forward's, then backward's
        for chunks in seen:  # 7 x 1, 2+2+2+1 or 3+3+1
            assert len(chunks) >= 3 and chunks[-1][1] == 7
            assert step == 1 or chunks[-1][1] - chunks[-1][0] < step

    @pytest.mark.parametrize("shape", [(0, 4), (0, 4, 3, 3)])
    def test_empty_batch(self, shape):
        gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4))
        x = Tensor(np.zeros(shape), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        with pytest.raises(ValueError, match="needs values"):
            batch_norm(x, gamma, beta, rm, rv, training=True)
        assert rm.tolist() == [0.0] * 4 and rv.tolist() == [1.0] * 4
        out = batch_norm(x, gamma, beta, rm, rv, training=False, relu=True)
        dx, dgamma, dbeta = out._backward(np.zeros(shape))
        assert out.shape == shape and dx.shape == shape
        assert not dgamma.any() and not dbeta.any()

    def test_transient_peaks(self):
        """At (64, 64, 32, 32) float32, 16 MiB, an eval forward in place
        allocates no full-size buffer, one out of place only its output, and a
        training forward only its output and the variance's square."""
        gen = RngState(34).generator()
        x = gen.standard_normal((64, 64, 32, 32)).astype(np.float32)
        gamma, beta = (Tensor(gen.standard_normal(64).astype(np.float32)) for _ in range(2))
        slack = 64 << 10

        def peak(training, inplace):
            rm, rv = np.zeros(64, np.float32), np.ones(64, np.float32)
            t = Tensor(x.copy())
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with no_grad():
                    batch_norm(t, gamma, beta, rm, rv, training, relu=True, inplace=inplace)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(False, True) < slack
        assert peak(False, False) < x.nbytes + slack
        assert peak(True, False) < 2 * x.nbytes + slack

    def test_backward_peak(self):
        """At the same shape, backward allocates dx and one sample chunk's
        scale*g, not a temporary of several chunks."""
        gen = RngState(35).generator()
        x = Tensor(gen.standard_normal((64, 64, 32, 32)).astype(np.float32), requires_grad=True)
        gamma, beta = (Tensor(gen.standard_normal(64).astype(np.float32), requires_grad=True)
                       for _ in range(2))
        g = gen.standard_normal(x.shape).astype(np.float32)
        out = batch_norm(x, gamma, beta, np.zeros(64, np.float32), np.ones(64, np.float32),
                         training=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes + tensor._CHUNK_BYTES + (64 << 10), peak


class TestInplace:
    """``inplace=True`` of batch_norm: without a tape the output is
    the input's buffer, with a tape it is a fresh one, and either way every
    value and gradient is the out-of-place call's, byte for byte."""

    @staticmethod
    def calls(gen):
        """(name, inputs, op(inputs, inplace)) for each in-place op."""
        x = (gen.standard_normal((5, 4, 3, 3)) * 2.0 + 1.0).astype(np.float32)
        gamma, beta = (gen.standard_normal(4).astype(np.float32) + 0.5 for _ in range(2))
        mean, var = gen.standard_normal(4).astype(np.float32), np.ones(4, np.float32)
        for training in (True, False):
            for relu_on in (False, True):
                def bn(ts, inplace, training=training, relu_on=relu_on):
                    return batch_norm(*ts, mean.copy(), var.copy(), training,
                                      relu=relu_on, inplace=inplace)
                yield f"batch_norm-{training}-{relu_on}", (x, gamma, beta), bn

    def test_without_tape_writes_the_input(self):
        for name, arrays, op in self.calls(RngState(35).generator()):
            want = op([Tensor(a.copy()) for a in arrays], False).data
            for requires_grad in (False, True):  # under no_grad if inputs require it
                ts = [Tensor(a.copy(), requires_grad=requires_grad) for a in arrays]
                with no_grad() if requires_grad else contextlib.nullcontext():
                    out = op(ts, True)
                assert np.shares_memory(out.data, ts[0].data), name
                assert out._backward is None
                assert out.data.tobytes() == want.tobytes(), name

    def test_with_tape_allocates_and_matches(self):
        gen = RngState(36).generator()
        for name, arrays, op in self.calls(gen):
            g = Tensor(gen.standard_normal(arrays[0].shape).astype(np.float32))
            results = []
            for inplace in (False, True):
                ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                out = op(ts, inplace)
                assert not np.shares_memory(out.data, ts[0].data), name
                backward(mul(out, g).sum())
                assert ts[0].data.tobytes() == arrays[0].tobytes(), name
                results.append([a.tobytes() for a in (out.data, *(t.grad for t in ts))])
            assert results[0] == results[1], name


def force_chunk_step(monkeypatch, step):
    """Shrink tensor._CHUNK_BYTES to ``step`` samples' scratch wherever conv2d
    or batch_norm splits a batch into chunks; returns the chunk lists used."""
    seen = []
    sample_chunks = tensor._sample_chunks

    def fixed_step(b, sample_bytes):
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", step * sample_bytes)
        chunks = sample_chunks(b, sample_bytes)
        seen.append(chunks[1])
        return chunks

    monkeypatch.setattr(tensor, "_sample_chunks", fixed_step)
    return seen


CONV_GRID = [(k, stride, pad) for k in (1, 3, 5) for stride in (1, 2, 3) for pad in (0, 1, 2)]


class TestConv2dOracle:
    """conv2d output and both gradients against the explicit loops in
    oracles.py, over every (k, stride, pad) in the grid, B > 1, H != W.
    Backward rebuilds the padded phase grids from x, so the gradient
    checks cover that rebuild too. The same grid in several sample chunks
    must equal the whole-batch GEMMs of oracles.batched_conv2d bit for bit."""

    @staticmethod
    def errors(k, stride, pad, dtype, seed):
        gen = RngState(seed).generator()
        hout, wout = ((n + 2 * pad - k) // stride + 1 for n in (7, 5))
        x, kernel, g = (gen.standard_normal(shape).astype(dtype) for shape in
                        ((2, 3, 7, 5), (4, 3, k, k), (2, 4, hout, wout)))
        xt, kt = (Tensor(v, requires_grad=True) for v in (x, kernel))
        out = conv2d(xt, kt, stride=stride, pad=pad)
        backward(mul(out, Tensor(g)).sum())
        want = (oracles.naive_conv2d(x.astype(np.float64), kernel.astype(np.float64),
                                     stride, pad),
                *oracles.naive_conv2d_backward(x, kernel, g, stride, pad))
        return {name: normwise_error(got, ref) for name, got, ref in
                zip(("out", "dx", "dkernel"), (out.data, xt.grad, kt.grad), want)}

    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_naive(self, k, stride, pad):
        seed = 100 + 9 * k + 3 * stride + pad
        errs = self.errors(k, stride, pad, np.float64, seed)
        assert max(errs.values()) <= 1e-12, errs
        errs = self.errors(k, stride, pad, np.float32, seed)
        assert max(errs.values()) <= 1e-5, errs

    @pytest.mark.parametrize("k,stride,pad", CONV_GRID)
    def test_matches_naive_in_one_sample_chunks(self, k, stride, pad, monkeypatch):
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 1)
        self.test_matches_naive(k, stride, pad)

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride,pad", CONV_GRID)
    def test_chunks_match_whole_batch_bitwise(self, k, stride, pad, dtype, step, monkeypatch):
        gen = RngState(200 + 9 * k + 3 * stride + pad).generator()
        hout, wout = ((n + 2 * pad - k) // stride + 1 for n in (7, 5))
        x, kernel, g = (gen.standard_normal(shape).astype(dtype) for shape in
                        ((7, 3, 7, 5), (4, 3, k, k), (7, 4, hout, wout)))
        seen = force_chunk_step(monkeypatch, step)
        out = conv2d(Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True),
                     stride=stride, pad=pad)
        got = (out.data, *out._backward(g))
        want = (oracles.batched_conv2d(x, kernel, stride, pad),
                *oracles.batched_conv2d_backward(x, kernel, g, stride, pad))
        for name, a, b in zip(("out", "dx", "dkernel"), got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        # Backward always chunks; forward too unless it is a direct 1x1.
        assert len(seen) == (1 if (k, stride, pad) == (1, 1, 0) else 2)
        for chunks in seen:  # 7 samples: 7 x 1, 2+2+2+1 or 3+3+1
            assert len(chunks) >= 3 and chunks[-1][1] == 7
            assert step == 1 or chunks[-1][1] - chunks[-1][0] < step

    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("k,stride,pad", CONV_GRID)
    def test_input_without_gradient_gets_no_dx(self, k, stride, pad, step, monkeypatch):
        # As for the stem's images: the rule builds no dx, and dkernel keeps
        # the bits it has when dx is built.
        gen = RngState(300 + 9 * k + 3 * stride + pad).generator()
        hout, wout = ((n + 2 * pad - k) // stride + 1 for n in (7, 5))
        x, kernel, g = (gen.standard_normal(shape).astype(np.float32) for shape in
                        ((7, 3, 7, 5), (4, 3, k, k), (7, 4, hout, wout)))
        force_chunk_step(monkeypatch, step)
        out = conv2d(Tensor(x), Tensor(kernel, requires_grad=True), stride=stride, pad=pad)
        dx, dkernel = out._backward(g)
        assert dx is None
        want = oracles.batched_conv2d_backward(x, kernel, g, stride, pad)[1]
        assert dkernel.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (1, 1, 0), (1, 2, 0)])
    def test_empty_batch(self, k, stride, pad):
        x = Tensor(np.zeros((0, 3, 8, 8)), requires_grad=True)
        kernel = Tensor(np.ones((4, 3, k, k)), requires_grad=True)
        out = conv2d(x, kernel, stride=stride, pad=pad)
        dx, dkernel = out._backward(np.zeros_like(out.data))
        assert out.shape[:2] == (0, 4) and dx.shape == x.shape
        assert not dkernel.any()

    def test_batch_sum_over_axis0_is_sequential(self):
        # dkernel's chunk carry relies on sum(axis=0) adding rows in order.
        rows = np.float32([1e8, 1, -1e8, 1, 3, 1e-3, -3, 7, 1e8, -1e8, 1, 1])
        a = np.broadcast_to(rows[:, None, None], (12, 4, 3)) * np.float32([[1], [-1], [2], [0.5]])
        sequential = a[0].copy()
        for row in a[1:]:
            sequential += row
        assert a.sum(axis=0).tobytes() == sequential.tobytes()
        assert a[::-1].sum(axis=0).tobytes() != sequential.tobytes()  # the order shows

    def test_gradcheck_scope_in_one_sample_chunks(self, monkeypatch):
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 1)
        report = verify.run_scope("conv2d")
        assert max(report.values()) <= TOL, report

    def test_transient_peaks_are_one_chunk(self):
        # 12 samples take 3 chunks forward and 4 backward under the 1 MiB budget.
        gen = RngState(33).generator()
        x = Tensor(gen.standard_normal((12, 16, 32, 32)).astype(np.float32), requires_grad=True)
        kernel = Tensor(gen.standard_normal((16, 16, 3, 3)).astype(np.float32),
                        requires_grad=True)
        g = gen.standard_normal((12, 16, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, kernel, stride=1, pad=1)
            forward = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dx, dkernel = out._backward(g)
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The whole batch's padded grids (889 KiB), their gradient (889 KiB),
        # padded g and tap products (835 KiB each) break these bounds.
        slack = tensor._CHUNK_BYTES + 8192
        assert forward <= out.data.nbytes + kernel.data.nbytes + slack, forward
        assert backward <= dx.nbytes + dkernel.nbytes + slack, backward

    @pytest.mark.parametrize("gated", [False, True])
    def test_direct_conv_backward_chunks_by_its_scratch(self, monkeypatch, gated):
        # Stage 1's conv3 at depth 164 / B=16: a 1x1 16 -> 64 conv at 32x32
        # with bn3 inside its node. Ungated, backward allocates per sample
        # one grid (64 KiB), dkernel's row (4 KiB) and the ReLU's mask (16
        # KiB): 12 samples fit 1 MiB, 2 chunks, where counting g and dx as
        # scratch too gave 2 samples, 8 chunks. Gated, it still counts them:
        # its dx's dm @ W GEMM per chunk rounds by the chunk's row count.
        block = build_network(RunConfig(depth=164, attention="sem"), RngState(34)).stages[0][1]
        h = Tensor(RngState(35).generator().standard_normal((16, 16, 32, 32)),
                   dtype=np.float32)
        seen = []
        sample_chunks = tensor._sample_chunks

        def spy(b, sample_bytes):
            seen.append(sample_chunks(b, sample_bytes)[1])
            return sample_chunks(b, sample_bytes)

        monkeypatch.setattr(tensor, "_sample_chunks", spy)
        pre = block.bn3.pre(True)
        if gated:
            out = sem_forward(h, block.attention, conv=(block.conv3.weight, pre))
        else:
            out = block.conv3(h, pre)
        out._backward(np.ones_like(out.data))
        # conv2d's forward, its backward, then batch norm's backward.
        assert len(seen) == 3
        assert seen[1] == ([(s, s + 2) for s in range(0, 16, 2)] if gated
                           else [(0, 12), (12, 16)])

    def test_forward_keeps_no_padded_copy(self):
        gen = RngState(31).generator()
        x = Tensor(gen.standard_normal((4, 8, 16, 16)), requires_grad=True, dtype=np.float64)
        kernel = Tensor(gen.standard_normal((8, 8, 3, 3)), requires_grad=True,
                        dtype=np.float64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, kernel, stride=1, pad=1)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # Output and transposed kernel, plus under 2 KiB of closure cells and
        # function objects: the (4, 8, 18*18 + 2) padded grid, 83 KiB, would
        # break this bound.
        assert kept <= out.data.nbytes + kernel.data.nbytes + 4096, kept

    @pytest.mark.parametrize("k,stride,pad", [(3, 2, 1), (3, 1, 1), (1, 1, 0), (1, 2, 0)])
    def test_gradients_are_adoptable(self, k, stride, pad):
        # Owned, writable and parent-shaped, so backward adopts them uncopied.
        x = Tensor(np.ones((2, 3, 6, 5)), requires_grad=True)
        kernel = Tensor(np.ones((4, 3, k, k)), requires_grad=True)
        out = conv2d(x, kernel, stride=stride, pad=pad)
        for grad, parent in zip(out._backward(np.ones_like(out.data)), (x, kernel)):
            assert grad.shape == parent.shape and grad.dtype == parent.dtype
            assert grad.base is None and grad.flags.owndata and grad.flags.writeable


def run_linked(samples, task):
    """``task(i)`` for shards 0 and 1 of a batch of ``samples`` at once, each
    on a thread of its own as shard i of one ``SharedReduce`` (the training
    batch norm all-reduce the worker process uses); the results in shard
    order, or the first error in shard order that is not ``ShardAborted``."""
    link = SharedReduce()
    link.begin(samples, clear=True)
    results, errors = [None, None], [None, None]

    def member(i):
        try:
            with tensor.in_shard(link, i):
                results[i] = task(i)
        except BaseException as exc:
            errors[i] = exc
            link.abort()

    threads = [threading.Thread(target=member, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a shard is left waiting"
    link.close()
    failed = [e for e in errors if e is not None]
    if failed:
        raise next((e for e in failed if not isinstance(e, ShardAborted)), failed[0])
    return results


PRE_CONVS = [(1, 1, 0), (3, 1, 1), (3, 2, 1)]  # (k, stride, pad) of the backbone's units


def unit_inputs(dtype, seed, b=4, cin=3, cout=4, k=3):
    """x, kernel, gamma, beta, running mean and var of one pre-activation
    unit, with an input mean far from 0 and a ReLU that clips a share."""
    gen = RngState(seed).generator()
    x = (gen.standard_normal((b, cin, 6, 5)) * 2.5 + 3.0).astype(dtype)
    kernel = gen.standard_normal((cout, cin, k, k)).astype(dtype)
    gamma = (gen.standard_normal(cin) + 0.5).astype(dtype)
    beta = (gen.standard_normal(cin) * 0.5).astype(dtype)
    rm = (gen.standard_normal(cin) + 3.0).astype(dtype)
    rv = (gen.random(cin) * 6.0 + 0.5).astype(dtype)
    return x, kernel, gamma, beta, rm, rv


def run_unit(fused, x, kernel, gamma, beta, buffers, training, stride, pad, g, shards=1):
    """(out, dx, dkernel, dgamma, dbeta) of relu(batch_norm(x)) -> conv2d,
    as the one fused node or as the two public ops, over ``shards``
    contiguous sample shards run linked by ``run_linked`` (forward, then
    backward); ``buffers`` (running mean, var) are updated in place."""
    kt, gt, bt = (Tensor(v, requires_grad=True) for v in (kernel, gamma, beta))
    parts = [slice(len(x) * i // shards, len(x) * (i + 1) // shards) for i in range(shards)]
    outs = [None] * shards

    def forward(i):
        xt = Tensor(x[parts[i]], requires_grad=True)
        if fused:
            outs[i] = conv2d(xt, kt, stride, pad, pre=PreActivation(gt, bt, *buffers, training))
        else:
            outs[i] = conv2d(batch_norm(xt, gt, bt, *buffers, training, relu=True),
                             kt, stride, pad)

    def backward(i):
        if fused:
            return outs[i]._backward(g[parts[i]])
        dact, dkernel = outs[i]._backward(g[parts[i]])
        dx, dgamma, dbeta = outs[i]._parents[0]._backward(dact)
        return dx, dkernel, dgamma, dbeta

    if shards == 1:
        forward(0)
        grads = [backward(0)]
    else:
        run_linked(len(x), forward)
        grads = run_linked(len(x), backward)
    # Parameter gradients add over the shards in shard order, as join_shards does.
    return (np.concatenate([o.data for o in outs]), np.concatenate([r[0] for r in grads]),
            *(sum((r[j] for r in grads[1:]), grads[0][j]) for j in (1, 2, 3)))


class TestPreActivationConv:
    """conv2d(x, kernel, pre=...) computes conv(relu(batch_norm(x))) as one
    node: against the float64 textbook loops of oracles.py, and bit for bit
    against the batch_norm(relu=True) -> conv2d pair it replaces, for the
    backbone's 1x1, 3x3 and strided 3x3 units, whole or in two shards."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("k,stride,pad", PRE_CONVS)
    def test_float64_matches_naive(self, k, stride, pad, training, shards):
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float64, 40 + 3 * k + stride, k=k)
        hout, wout = ((n + 2 * pad - k) // stride + 1 for n in x.shape[2:])
        g = RngState(41).generator().standard_normal((len(x), len(kernel), hout, wout))
        buffers = rm.copy(), rv.copy()
        got = run_unit(True, x, kernel, gamma, beta, buffers, training, stride, pad, g, shards)
        # The output and buffers need no upstream gradient; dx, dgamma and
        # dbeta take the activation's gradient from the conv's loops.
        act, *_, want_rm, want_rv = oracles.naive_batch_norm(
            x, gamma, beta, rm, rv, np.zeros_like(x), training, relu=True)
        dact, dkernel = oracles.naive_conv2d_backward(act, kernel, g, stride, pad)
        _, dx, dgamma, dbeta, *_ = oracles.naive_batch_norm(
            x, gamma, beta, rm, rv, dact, training, relu=True)
        want = (oracles.naive_conv2d(act, kernel, stride, pad), dx, dkernel, dgamma, dbeta)
        assert 0 < np.count_nonzero(act) < act.size  # the ReLU clips
        errs = {name: normwise_error(a, b) for name, a, b in
                zip(("out", "dx", "dkernel", "dgamma", "dbeta"), got, want)}
        assert max(errs.values()) <= 1e-9, errs
        assert normwise_error(buffers[0], want_rm) <= 1e-12
        assert normwise_error(buffers[1], want_rv) <= 1e-12

    @pytest.mark.parametrize("step", [None, 1, 3])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("k,stride,pad", PRE_CONVS)
    def test_float32_is_bitwise_the_unfused_pair(self, k, stride, pad, training, shards, step,
                                                monkeypatch):
        # 7 samples: 2- and 3-sample chunks leave a ragged tail in each shard.
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float32, 50 + 3 * k + stride, b=7,
                                                     cin=5, cout=6, k=k)
        hout, wout = ((n + 2 * pad - k) // stride + 1 for n in x.shape[2:])
        g = RngState(51).generator().standard_normal((7, 6, hout, wout)).astype(np.float32)
        if step is not None:
            force_chunk_step(monkeypatch, step)
        results = []
        for fused in (True, False):
            buffers = rm.copy(), rv.copy()
            got = run_unit(fused, x, kernel, gamma, beta, buffers, training, stride, pad, g,
                           shards)
            results.append([a.tobytes() for a in (*got, *buffers)])
        assert results[0] == results[1]

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("k,stride,pad", PRE_CONVS)
    def test_running_buffers_take_one_update(self, k, stride, pad, shards):
        # Forward folds the batch statistics in once; backward rebuilds the
        # activation from the saved ones and leaves the buffers alone.
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float32, 60, b=6, k=k)
        hout, wout = ((n + 2 * pad - k) // stride + 1 for n in x.shape[2:])
        g = np.ones((6, 4, hout, wout), np.float32)
        m, w = np.float32(0.9), np.float32(1.0 - 0.9)
        # The whole batch's statistics from the shards' sums, in shard order.
        parts = [x[6 * i // shards : 6 * (i + 1) // shards] for i in range(shards)]

        def batch_sum(f):
            return sum((f(p) for p in parts[1:]), f(parts[0]))

        mean = batch_sum(lambda p: p.sum(axis=(0, 2, 3), dtype=np.float32)) / (6 * 30)
        var = batch_sum(lambda p: np.square(p - mean.reshape(1, -1, 1, 1)).sum(
            axis=(0, 2, 3), dtype=np.float32)) / (6 * 30)
        for training in (True, False):
            buffers = rm.copy(), rv.copy()
            run_unit(True, x, kernel, gamma, beta, buffers, training, stride, pad, g, shards)
            if training:  # one update
                want = rm * m + w * mean, rv * m + w * var
            else:
                want = rm, rv
            assert [b.tobytes() for b in buffers] == [b.tobytes() for b in want], training

    @pytest.mark.parametrize("k,stride,pad", PRE_CONVS)
    def test_keeps_only_x_and_its_output(self, k, stride, pad):
        # The unfused pair keeps relu(batch_norm(x)) too: 15 KiB here.
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float64, 61, b=8, cin=8, cout=8, k=k)
        x, kernel, gamma, beta = (Tensor(v, requires_grad=True) for v in (x, kernel, gamma, beta))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, kernel, stride, pad, pre=PreActivation(gamma, beta, rm, rv, True))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # Output, transposed kernel, per-channel statistics and closures.
        assert kept <= out.data.nbytes + kernel.data.nbytes + 8192, (kept, x.data.nbytes)

    def test_transient_peaks(self):
        # 16 samples at (16, 64, 32, 32) float32, 4 MiB, into a 1x1 conv.
        gen = RngState(62).generator()
        x = Tensor(gen.standard_normal((16, 64, 32, 32)).astype(np.float32), requires_grad=True)
        kernel, gamma, beta = (Tensor(gen.standard_normal(shape).astype(np.float32),
                                      requires_grad=True)
                               for shape in ((16, 64, 1, 1), (64,), (64,)))
        pre = PreActivation(gamma, beta, np.zeros(64, np.float32), np.ones(64, np.float32), True)
        g = gen.standard_normal((16, 16, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, kernel, pre=pre)
            forward = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dx, *_ = out._backward(g)
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        slack = 2 * tensor._CHUNK_BYTES + (64 << 10)
        # Forward writes no full-size activation, backward only dx and the
        # activation's gradient: the pair's third buffer, the masked
        # gradient, would break this bound.
        assert forward <= out.data.nbytes + slack, forward
        assert backward <= 2 * dx.nbytes + slack, backward

    @pytest.mark.parametrize("k,stride,pad", PRE_CONVS)
    def test_empty_batch(self, k, stride, pad):
        x = Tensor(np.zeros((0, 3, 8, 8)), requires_grad=True)
        kernel, gamma, beta = (Tensor(np.ones(shape), requires_grad=True)
                               for shape in ((4, 3, k, k), (3,), (3,)))
        rm, rv = np.zeros(3), np.ones(3)
        with pytest.raises(ValueError, match="needs values"):
            conv2d(x, kernel, stride, pad, pre=PreActivation(gamma, beta, rm, rv, True))
        assert rm.tolist() == [0.0] * 3 and rv.tolist() == [1.0] * 3
        out = conv2d(x, kernel, stride, pad, pre=PreActivation(gamma, beta, rm, rv, False))
        dx, dkernel, dgamma, dbeta = out._backward(np.zeros_like(out.data))
        assert out.shape[:2] == (0, 4) and dx.shape == x.shape
        assert not dkernel.any() and not dgamma.any() and not dbeta.any()


# (operators, decision network, switch activation) of the gates under test:
# SEM, its operator pairs, the SE, ECA and IE gates, SEM with unit
# decisions, and SEM with each other switch activation.
GATES = [(ALL_OPERATORS, True, "sigmoid"), (("fc", "cnn"), True, "sigmoid"),
         (("fc", "ie"), True, "sigmoid"), (("cnn", "ie"), True, "sigmoid"),
         (("fc",), False, "sigmoid"), (("cnn",), False, "sigmoid"), (("ie",), False, "sigmoid"),
         (ALL_OPERATORS, False, "sigmoid"), (ALL_OPERATORS, True, "tanh"),
         (ALL_OPERATORS, True, "relu"), (ALL_OPERATORS, True, "leaky_relu")]
GATE_IDS = ["sem", "fc+cnn", "fc+ie", "cnn+ie", "se", "eca", "ie", "unit_decision", "tanh",
            "relu", "leaky_relu"]


def gate_of(dtype, operators, decision, switch_activation, channels=16):
    """A gate every branch of which reads its input: 4 hidden FC units and
    a non-zero enhance scale, with a shift that keeps a ReLU switch open."""
    params = init_sem_params(channels, operators, reduction=4,
                             switch_activation=switch_activation, rng=RngState(70),
                             dtype=dtype, with_decision=decision)
    if params.ie_scale is not None:
        params.ie_scale.data[...] = 0.8
        params.ie_shift.data[...] = 0.3
    return params


def run_gated_unit(fused, x, kernel, gamma, beta, buffers, training, params, g, shards=1):
    """The gate on conv(relu(batch_norm(x))) for a 1x1 kernel, as the one
    node of ``sem_forward(..., conv=...)`` or as the pre-activation conv
    and the reference gate of oracles.py, over ``shards`` contiguous sample shards
    run linked by ``run_linked`` (forward, then backward): (out, decision weights,
    [dx, dkernel, dgamma, dbeta, *gate parameter gradients]). ``buffers``
    (running mean, var) are updated in place."""
    kt, gt, bt = (Tensor(v, requires_grad=True) for v in (kernel, gamma, beta))
    parts = [slice(len(x) * i // shards, len(x) * (i + 1) // shards) for i in range(shards)]
    xs = [Tensor(x[part], requires_grad=True) for part in parts]
    outs, decisions, sinks = [None] * shards, [[] for _ in parts], [{} for _ in parts]

    def forward(i):
        pre = PreActivation(gt, bt, *buffers, training)
        if fused:
            outs[i] = sem_forward(xs[i], params, conv=(kt, pre), decisions=decisions[i])
        else:
            out = conv2d(xs[i], kt, pre=pre)
            outs[i] = oracles.reference_gate(out, params, decisions[i])

    def backward(i):
        tensor._sweep(outs[i], g[parts[i]], sinks[i])

    for step in (forward, backward):
        if shards == 1:
            step(0)
        else:
            run_linked(len(x), step)
    # Parameter gradients add over the shards in shard order, as join_shards does.
    params_grads = [sum((sink[t] for sink in sinks[1:]), sinks[0][t])
                    for t in (kt, gt, bt, *gate_params(params))]
    return (np.concatenate([o.data for o in outs]),
            [np.concatenate(d) for d in zip(*decisions)],
            [np.concatenate([sink[t] for sink, t in zip(sinks, xs)]), *params_grads])


def oracle_gated_unit(x, kernel, gamma, beta, rm, rv, training, params, g):
    """(out, [dx, dkernel, dgamma, dbeta, *gate parameter gradients],
    running buffers) of the reference gate of oracles.py on the textbook
    loops' conv(relu(batch_norm(x)))."""
    act, *_, want_rm, want_rv = oracles.naive_batch_norm(
        x, gamma, beta, rm, rv, np.zeros_like(x), training, relu=True)
    z = Tensor(oracles.naive_conv2d(act, kernel), requires_grad=True)
    gates = gate_params(params)
    out = oracles.reference_gate(z, params)
    backward(mul(out, Tensor(g)).sum())
    gate_grads = [t.grad for t in gates]
    for t in gates:
        t.zero_grad()
    dact, dkernel = oracles.naive_conv2d_backward(act, kernel, z.grad)
    _, dx, dgamma, dbeta, *_ = oracles.naive_batch_norm(x, gamma, beta, rm, rv, dact,
                                                        training, relu=True)
    return out.data, [dx, dkernel, dgamma, dbeta, *gate_grads], (want_rm, want_rv)


class TestGatedConv:
    """sem_forward(x, params, conv=(kernel, pre)) runs the gate inside the
    1x1 conv's node: against the reference gate on the float64 textbook
    loops of oracles.py, and in float32 with the forward bit for bit that
    of the pre-activation conv and the reference gate, for
    every gate kind the backbone builds, whole or in two shards."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("operators,decision,act", GATES, ids=GATE_IDS)
    def test_float64_matches_the_stages_on_naive_units(self, operators, decision, act,
                                                        training, shards):
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float64, 80, b=4, cin=3, cout=16, k=1)
        params = gate_of(np.float64, operators, decision, act)
        g = RngState(81).generator().standard_normal((4, 16, 6, 5))
        buffers = rm.copy(), rv.copy()
        out, _, grads = run_gated_unit(True, x, kernel, gamma, beta, buffers, training,
                                       params, g, shards)
        want_out, want_grads, want_buffers = oracle_gated_unit(
            x, kernel, gamma, beta, rm, rv, training, params, g)
        names = ["dx", "dkernel", "dgamma", "dbeta"] + [
            f"gate{i}" for i in range(len(gate_params(params)))]
        errs = {"out": normwise_error(out, want_out)}
        for name, got, want in zip(names, grads, want_grads):
            assert got.shape == want.shape, name
            errs[name] = normwise_error(got, want)
        assert len(grads) == len(want_grads) == len(names)
        assert max(errs.values()) <= 1e-9, errs
        for got, want in zip(buffers, want_buffers):
            assert normwise_error(got, want) <= 1e-12

    @pytest.mark.parametrize("step", [None, 1, 3])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("operators,decision,act", GATES, ids=GATE_IDS)
    def test_float32_forward_is_bitwise_the_unfused_path(self, operators, decision, act,
                                                         training, shards, step, monkeypatch):
        # 7 samples: 2- and 3-sample chunks leave a ragged tail in each shard.
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float32, 90, b=7, cin=5, cout=16, k=1)
        params = gate_of(np.float32, operators, decision, act)
        g = RngState(91).generator().standard_normal((7, 16, 6, 5)).astype(np.float32)
        if step is not None:
            force_chunk_step(monkeypatch, step)
        results = []
        for fused in (True, False):
            buffers = rm.copy(), rv.copy()
            out, decisions, _ = run_gated_unit(fused, x, kernel, gamma, beta, buffers,
                                               training, params, g, shards)
            results.append([a.tobytes() for a in (out, *decisions, *buffers)])
        assert len(results[0]) == 3 + decision
        assert results[0] == results[1]

    @pytest.mark.parametrize("operators,decision,act", GATES, ids=GATE_IDS)
    def test_identity_conv_matches_the_stages(self, operators, decision, act):
        # The gate on x itself, as one node inside an identity-kernel 1x1
        # conv: the reference's forward bit for bit, and its gradients.
        gen = RngState(92).generator()
        params = gate_of(np.float64, operators, decision, act)
        data, g = (gen.standard_normal((4, 16, 6, 5)) for _ in range(2))
        identity = Tensor(np.eye(16)[:, :, None, None])
        gates = gate_params(params)
        results = []
        for one_node in (True, False):
            x = Tensor(data, requires_grad=True)
            decisions = []
            out = (sem_forward(x, params, conv=(identity, None), decisions=decisions)
                   if one_node else oracles.reference_gate(x, params, decisions))
            assert all(t in out._parents for t in gates) == one_node
            backward(mul(out, Tensor(g)).sum())
            results.append((out.data, decisions, [x.grad] + [t.grad for t in gates]))
            for t in gates:
                t.zero_grad()
        (out, decisions, grads), (want, want_decisions, want_grads) = results
        assert out.tobytes() == want.tobytes()
        assert [d.tobytes() for d in decisions] == [d.tobytes() for d in want_decisions]
        errs = [normwise_error(a, b) for a, b in zip(grads, want_grads)]
        assert len(grads) == len(want_grads) and max(errs) <= 1e-9, errs

    @pytest.mark.parametrize("k,stride,pad",[(3, 1, 1), (1, 2, 0), (1, 1, 1)])
    def test_gate_needs_a_direct_conv(self, k, stride, pad):
        x, kernel, gamma, beta, rm, rv = unit_inputs(np.float64, 93, cout=16, k=k)
        params = gate_of(np.float64, ALL_OPERATORS, True, "sigmoid")
        with pytest.raises(ValueError, match="1x1 stride-1"):
            conv2d(Tensor(x), Tensor(kernel), stride, pad,
                   gate=tensor.ChannelGate(tuple(gate_params(params)), None, None))


class TestAutodiff:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError):
            backward(add(x, x))

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(0).random((3, 4)),
                   requires_grad=True, dtype=np.float64)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_double_use_accumulates(self):
        x = Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
        backward(add(x, x).sum())
        assert np.array_equal(x.grad, np.full(4, 2.0))

    def test_quadratic_fd_matches_analytic(self):
        x = Tensor(np.random.default_rng(3).random(5), requires_grad=True,
                   dtype=np.float64)
        numeric = finite_difference_grad(lambda t: 0.5 * float((t.data**2).sum()), x)
        assert max_relative_error(x.data, numeric) <= 1e-7

    def test_fd_of_sum_is_ones(self):
        x = Tensor(np.random.default_rng(4).random(4), requires_grad=True,
                   dtype=np.float64)
        numeric = finite_difference_grad(lambda t: float(t.data.sum()), x)
        assert np.max(np.abs(numeric - 1.0)) <= 1e-9

    def test_broadcast_grad_sums_over_expanded_axes(self):
        gen = RngState(21).generator()
        a = randn(gen, (2, 3, 4, 4))
        s = randn(gen, (2, 3, 1, 1))
        w = gen.standard_normal((2, 3, 4, 4))
        backward(mul(mul(a, s), Tensor(w, dtype=np.float64)).sum())
        expected = (w * a.data).sum(axis=(2, 3), keepdims=True)
        assert np.max(np.abs(s.grad - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_activation_gradients(self, kind):
        # The switch's rules: mean(w * act(x)) against central differences.
        forward, rule = tensor._ACTIVATION_RULES[kind]
        gen = RngState(ACTIVATION_KINDS.index(kind) + 30).generator()
        for trial in range(25):
            x = randn(gen, (3, 5), away_from_zero=kind in ("relu", "leaky_relu"))
            w = gen.standard_normal((3, 5))
            analytic = rule(w / w.size, x.data, forward(x.data))
            numeric = finite_difference_grad(lambda t: (w * forward(t.data)).mean(), x)
            assert max_relative_error(analytic, numeric) <= (1e-6 if kind == "tanh" else TOL)

    def test_every_op_gradient_over_100_instances(self):
        # Autodiff-correctness invariant: >= 100 random instances per op.
        gen = RngState(99).generator()
        worst = {}
        for trial in range(100):
            x = randn(gen, (2, 3, 4, 4))
            k = randn(gen, (2, 3, 3, 3))
            probe = Tensor(gen.standard_normal((2, 2, 2, 2)), dtype=np.float64)
            errs = check_gradients(
                lambda: mul(conv2d(x, k, stride=2, pad=0), probe).mean(),
                {"x": x, "k": k})
            worst["conv2d"] = max(worst.get("conv2d", 0), max(errs.values()))

            # The backbone's other conv configurations: same 3x3, 1x1, and
            # the strided 1x1 downsample.
            for kk, stride, pad in ((3, 1, 1), (1, 1, 0), (1, 2, 0)):
                x = randn(gen, (2, 2, 3, 4))
                k = randn(gen, (2, 2, kk, kk))
                hout, wout = ((n + 2 * pad - kk) // stride + 1 for n in (3, 4))
                probe = Tensor(gen.standard_normal((2, 2, hout, wout)), dtype=np.float64)
                errs = check_gradients(
                    lambda: mul(conv2d(x, k, stride=stride, pad=pad), probe).mean(),
                    {"x": x, "k": k})
                name = f"conv2d_k{kk}s{stride}p{pad}"
                worst[name] = max(worst.get(name, 0), max(errs.values()))

            # The gate's channel conv: mean(pr * conv(m, kern)).
            m = randn(gen, (2, 6))
            kern = randn(gen, (3,))
            pr = gen.standard_normal((2, 6))
            analytic = tensor._channel_conv_backward(m.data, kern.data, pr / pr.size)
            for t, grad in zip((m, kern), analytic):
                numeric = finite_difference_grad(
                    lambda _: (pr * tensor._channel_conv(m.data, kern.data)).mean(), t)
                worst["channel_conv"] = max(worst.get("channel_conv", 0),
                                            max_relative_error(grad, numeric))

            a = randn(gen, (3, 4))
            wt = randn(gen, (2, 4))
            bias = randn(gen, (2,))
            pr2 = Tensor(gen.standard_normal((3, 2)), dtype=np.float64)
            errs = check_gradients(
                lambda: mul(affine(a, wt, bias), pr2).mean(),
                {"a": a, "w": wt, "b": bias})
            worst["affine"] = max(worst.get("affine", 0), max(errs.values()))

            g4 = randn(gen, (4, 3, 2, 2))
            pr3 = Tensor(gen.standard_normal((4, 3, 1, 1)), dtype=np.float64)
            errs = check_gradients(
                lambda: mul(global_avg_pool(g4), pr3).sum(), {"x": g4})
            worst["gap"] = max(worst.get("gap", 0), max(errs.values()))

            logits = randn(gen, (4, 5))
            labels = gen.integers(0, 5, size=4)
            errs = check_gradients(
                lambda: softmax_cross_entropy(logits, labels), {"logits": logits})
            worst["ce"] = max(worst.get("ce", 0), max(errs.values()))
        assert max(worst.values()) <= TOL, worst

    def test_batch_norm_gradients(self):
        gen = RngState(23).generator()
        for fused, training in ((False, True), (False, False), (True, True), (True, False)):
            x = randn(gen, (5, 3, 2, 2))
            g = Tensor(gen.standard_normal(3) + 1.5, requires_grad=True,
                       dtype=np.float64)
            b = randn(gen, (3,))
            rm = gen.standard_normal(3)
            rv = gen.random(3) + 0.5
            w = Tensor(gen.standard_normal((5, 3, 2, 2)), dtype=np.float64)
            if fused:
                b.data[...] = _kink_free_beta(x.data, g.data, training, rm, rv)
            errs = check_gradients(
                lambda: mul(batch_norm(x, g, b, rm.copy(), rv.copy(),
                                       training=training, relu=fused), w).mean(),
                {"x": x, "gamma": g, "beta": b})
            assert max(errs.values()) <= TOL, (training, fused, errs)

    def test_reshape_gradients(self):
        gen = RngState(24).generator()
        x = randn(gen, (4, 6))
        w = Tensor(gen.standard_normal((2, 12)), dtype=np.float64)
        errs = check_gradients(lambda: mul(reshape(x, (2, 12)), w).mean(), {"x": x})
        assert errs["x"] <= TOL

    def test_backward_releases_tape_as_it_goes(self):
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True, dtype=np.float64)
        three, half, two = (Tensor(np.array([c]), dtype=np.float64) for c in (3.0, 0.5, 2.0))
        early = mul(x, three)
        held = relu(add(early, half))
        late = mul(mul(held, held), two)
        late_data = weakref.ref(late.data)
        loss = mul(late, late).sum()
        del late
        rule = early._backward
        alive_at_early_rule = []

        def spy(g):
            alive_at_early_rule.append(late_data() is not None)
            return rule(g)

        early._backward = spy
        backward(loss)
        assert alive_at_early_rule == [False]
        # loss = sum (2 held^2)^2 with held = relu(3x + 0.5).
        expected_held = 16.0 * held.data**3
        assert np.allclose(held.grad, expected_held, rtol=1e-14, atol=0)
        assert np.allclose(x.grad, 3.0 * expected_held * (3.0 * x.data + 0.5 > 0),
                           rtol=1e-14, atol=0)
        assert held._backward is None and held._parents == ()

    @pytest.mark.parametrize("b_shape", [(4, 6), (1, 1)])
    def test_inplace_add_matches_out_of_place(self, b_shape):
        gen = RngState(25).generator()
        x_data, w_data = (gen.standard_normal((4, 6)).astype(np.float32) for _ in range(2))
        b_data = gen.standard_normal(b_shape).astype(np.float32)
        runs = []
        for inplace in (False, True):
            x = Tensor(x_data, requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            w = Tensor(w_data)
            a = mul(x, w)  # mul's rule reads its inputs, never its output
            out = add(a, b, inplace=inplace)
            assert np.shares_memory(out.data, a.data) == inplace
            backward(mul(out, w).sum())
            assert b.data.tobytes() == b_data.tobytes()
            runs.append([t.tobytes() for t in (out.data, a.grad, b.grad, x.grad)])
        assert runs[0] == runs[1]

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with no_grad():
            y = relu(x)
        assert y._backward is None and not y.requires_grad


class TestTensorBasics:
    def test_dtype_validation(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3), dtype=np.int32)
        assert Tensor([1, 2, 3]).dtype == np.float32  # ints promote to default

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        backward(x.sum())
        assert x.grad.shape == x.data.shape and x.grad.dtype == x.data.dtype

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ValueError):
            add(Tensor(np.zeros(3), dtype=np.float32),
                Tensor(np.zeros(3), dtype=np.float64))

    def test_no_grad_is_per_thread(self):
        # A enters no_grad, then B, then A leaves: B is still inside its own
        # block, and the main thread never entered one.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def thread_b():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                a_out.wait(10)
                x = Tensor(np.ones(2), requires_grad=True)
                seen["b"] = is_grad_enabled(), mul(x, x)._backward is not None

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"b": (False, False)}
        assert is_grad_enabled()

    def test_new_thread_starts_recording_without_checks(self):
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append((is_grad_enabled(), tensor._check_finite.get())))
        set_debug_checks(True)
        try:
            with no_grad():
                thread.start()
                thread.join(timeout=30)
        finally:
            set_debug_checks(False)
        assert seen == [(True, False)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_debug_nan_check(self):
        set_debug_checks(True)
        try:
            big = Tensor(np.array([1e38], dtype=np.float32))
            with pytest.raises(FloatingPointError):
                mul(big, big)  # overflows float32 to inf
        finally:
            set_debug_checks(False)

    def test_rng_determinism(self):
        a = RngState(123, 7).generator().standard_normal(16)
        b = RngState(123, 7).generator().standard_normal(16)
        c = RngState(123, 8).generator().standard_normal(16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSharedReduce:
    def test_all_reduce_sums_every_round_in_shard_order(self):
        # Frequent thread switches let a fast shard run ahead into the next
        # round while its partner still reads this one's slots.
        rounds = 200
        parts = RngState(130).generator().standard_normal((rounds, 2, 17)).astype(np.float32)

        def member(i):
            link, index = tensor.current_shard()
            return [link.all_reduce(index, parts[r, i].copy()) for r in range(rounds)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_linked(2, member)
        finally:
            sys.setswitchinterval(interval)
        for r in range(rounds):
            want = (parts[r, 0] + parts[r, 1]).tobytes()
            for i in range(2):
                assert results[i][r].tobytes() == want, (r, i)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failing_member_aborts_its_partners(self, failing):
        aborted = []

        def member(i):
            link = tensor.current_shard()[0]
            for r in range(200):
                if (i, r) == (failing, 20):
                    raise RuntimeError(f"shard {i} failed")
                try:
                    link.all_reduce(i, np.ones(4))
                except ShardAborted:
                    aborted.append(i)
                    raise

        with pytest.raises(RuntimeError) as info:
            run_linked(2, member)
        assert type(info.value) is RuntimeError and str(info.value) == f"shard {failing} failed"
        assert aborted == [1 - failing]

    def test_oversized_partial_is_refused(self):
        link = SharedReduce()
        try:
            with pytest.raises(ValueError, match="exceeds"):
                link.all_reduce(0, np.zeros(1 << 14))
        finally:
            link.close()
