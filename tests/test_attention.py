"""Attention stages: operator math against oracles, switching invariants,
kernel-size rule, single-operator gates against the SE/ECA/IE oracles,
decision reporting."""

import dataclasses

import numpy as np
import pytest

from semnet.attention import (
    ALL_OPERATORS,
    DecisionRecord,
    attention_map,
    decide,
    decision_summary_csv,
    eca_kernel_size,
    excite_cnn,
    excite_fc,
    excite_ie,
    hidden_width,
    init_sem_params,
    normalize_operator_set,
    recalibrate,
    sem_forward,
    squeeze,
    switch,
)
from semnet.backbone import build_network, named_state
from semnet.gradcheck import check_gradients
from semnet.rng import RngState
from semnet.tensor import Tensor, mul, no_grad, sigmoid
from semnet.training import RunConfig

import oracles

SIGMOID_OF_MINUS_1 = 0.2689414213699951


def gated(x, params):
    """The layer on x itself, as the backbone runs it: inside a 1x1 conv's
    node with the identity kernel, which hands the gate x bit for bit."""
    identity = Tensor(np.eye(x.shape[1], dtype=x.dtype)[:, :, None, None])
    return sem_forward(x, params, conv=(identity, None))


def rand_input(gen, b=3, c=16, h=4, w=4):
    return Tensor(gen.standard_normal((b, c, h, w)), requires_grad=True,
                  dtype=np.float64)


class TestKernelSizeRule:
    # Rule oracle with gamma=2, bias=1: t=(log2 C + 1)/2, floor toward
    # zero, bump even results to the next odd, clamp to >= 1.
    TABLE = {2: 1, 16: 3, 64: 3, 128: 5, 256: 5, 1024: 5}

    @pytest.mark.parametrize("channels,expected", sorted(TABLE.items()))
    def test_table(self, channels, expected):
        assert eca_kernel_size(channels) == expected

    def test_monotone_odd_deterministic(self):
        sizes = [eca_kernel_size(c) for c in range(2, 2049)]
        assert sizes == [eca_kernel_size(c) for c in range(2, 2049)]
        assert all(k % 2 == 1 for k in sizes)
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            eca_kernel_size(0)


class TestStages:
    def test_squeeze_shape_and_constant(self):
        x = Tensor(np.ones((2, 5, 3, 3)), dtype=np.float64)
        m = squeeze(x)
        assert m.shape == (2, 5)
        assert np.array_equal(m.data, np.ones((2, 5)))

    def test_squeeze_matches_bruteforce(self):
        gen = RngState(40).generator()
        x = gen.standard_normal((4, 8, 3, 3))
        m = squeeze(Tensor(x, dtype=np.float64))
        assert np.max(np.abs(m.data - oracles.naive_gap(x))) <= 1e-12

    def test_decide_zero_weight_gives_half(self):
        m = Tensor(np.random.default_rng(0).random((4, 6)), dtype=np.float64)
        w = decide(m, Tensor(np.zeros((3, 6)), dtype=np.float64))
        assert np.array_equal(w.data, np.full((4, 3), 0.5))

    def test_decide_zero_descriptor_gives_half(self):
        gen = RngState(41).generator()
        wd = Tensor(gen.standard_normal((2, 6)), dtype=np.float64)
        w = decide(Tensor(np.zeros((3, 6)), dtype=np.float64), wd)
        assert np.array_equal(w.data, np.full((3, 2), 0.5))

    def test_decide_matches_affine_sigmoid_oracle(self):
        gen = RngState(42).generator()
        m = gen.standard_normal((3, 8))
        wd = gen.standard_normal((3, 8))
        got = decide(Tensor(m, dtype=np.float64), Tensor(wd, dtype=np.float64))
        expected = 1.0 / (1.0 + np.exp(-oracles.naive_affine(m, wd)))
        assert np.max(np.abs(got.data - expected)) <= 1e-12

    def test_excite_fc_zero_reduce_weight(self):
        gen = RngState(43).generator()
        m = Tensor(gen.standard_normal((2, 8)), dtype=np.float64)
        out = excite_fc(m, Tensor(np.zeros((2, 8)), dtype=np.float64),
                        Tensor(gen.standard_normal((8, 2)), dtype=np.float64))
        assert not out.data.any()

    def test_excite_fc_identity_padded_passthrough(self):
        # C=4, r=2: identity-shaped weights forward non-negative inputs.
        m = Tensor(np.array([[0.5, 1.0, 0.0, 0.0]]), dtype=np.float64)
        w1 = Tensor(np.eye(2, 4), dtype=np.float64)
        w2 = Tensor(np.eye(4, 2), dtype=np.float64)
        out = excite_fc(m, w1, w2)
        assert np.array_equal(out.data, [[0.5, 1.0, 0.0, 0.0]])

    def test_excite_fc_matches_two_affine_relu_oracle(self):
        gen = RngState(44).generator()
        m = gen.standard_normal((3, 8))
        w1 = gen.standard_normal((2, 8))
        w2 = gen.standard_normal((8, 2))
        got = excite_fc(Tensor(m, dtype=np.float64), Tensor(w1, dtype=np.float64),
                        Tensor(w2, dtype=np.float64))
        hidden = np.maximum(oracles.naive_affine(m, w1), 0.0)
        expected = oracles.naive_affine(hidden, w2)
        assert np.max(np.abs(got.data - expected)) <= 1e-12

    def test_excite_cnn_identity_and_zero(self):
        gen = RngState(45).generator()
        m = Tensor(gen.standard_normal((2, 16)), dtype=np.float64)
        ident = Tensor(np.array([0.0, 1.0, 0.0]), dtype=np.float64)
        assert np.allclose(excite_cnn(m, ident).data, m.data, atol=0)
        zero = Tensor(np.zeros(3), dtype=np.float64)
        assert not excite_cnn(m, zero).data.any()

    def test_excite_cnn_matches_sliding_window(self):
        gen = RngState(46).generator()
        m = gen.standard_normal((2, 16))
        k = gen.standard_normal(3)
        got = excite_cnn(Tensor(m, dtype=np.float64), Tensor(k, dtype=np.float64))
        assert np.max(np.abs(got.data - oracles.naive_conv1d_channel(m, k))) <= 1e-12

    def test_excite_ie_cases(self):
        m = Tensor(np.array([[1.0, -1.0]]), dtype=np.float64)
        const = excite_ie(m, Tensor(np.zeros((1, 1)), dtype=np.float64),
                          Tensor(np.full((1, 1), -1.0), dtype=np.float64))
        assert np.array_equal(const.data, [[-1.0, -1.0]])
        ident = excite_ie(m, Tensor(np.ones((1, 1)), dtype=np.float64),
                          Tensor(np.zeros((1, 1)), dtype=np.float64))
        assert np.array_equal(ident.data, m.data)
        out = excite_ie(m, Tensor(np.full((1, 1), 2.0), dtype=np.float64),
                        Tensor(np.full((1, 1), 0.5), dtype=np.float64))
        assert np.array_equal(out.data, [[2.5, -1.5]])

    def test_switch_zero_branches_gives_eighth(self):
        zero = Tensor(np.zeros((2, 4)), dtype=np.float64)
        w = Tensor(np.random.default_rng(1).random((2, 3)), dtype=np.float64)
        v = switch([zero, zero, zero], w)
        assert np.array_equal(v.data, np.full((2, 4), 0.125))

    def test_switch_unit_weights_equals_plain_product(self):
        gen = RngState(47).generator()
        branches = [Tensor(gen.standard_normal((2, 5)), dtype=np.float64)
                    for _ in range(3)]
        got = switch(branches, None)
        expected = sigmoid(branches[0])
        expected = mul(expected, sigmoid(branches[1]))
        expected = mul(expected, sigmoid(branches[2]))
        assert got.data.tobytes() == expected.data.tobytes()

    def test_switch_matches_scalar_oracle(self):
        gen = RngState(48).generator()
        branches_np = [gen.standard_normal((3, 6)) for _ in range(3)]
        weights_np = gen.random((3, 3))
        got = switch([Tensor(b, dtype=np.float64) for b in branches_np],
                     Tensor(weights_np, dtype=np.float64))
        expected = oracles.naive_switch(branches_np, weights_np)
        assert np.max(np.abs(got.data - expected)) <= 1e-12

    def test_switch_length_mismatch(self):
        b = Tensor(np.zeros((2, 4)), dtype=np.float64)
        w = Tensor(np.zeros((2, 3)), dtype=np.float64)
        with pytest.raises(ValueError):
            switch([b, b], w)

    def test_recalibrate_identity_zero_and_oracle(self):
        gen = RngState(49).generator()
        x = gen.standard_normal((2, 3, 4, 4))
        xt = Tensor(x, dtype=np.float64)
        ones = Tensor(np.ones((2, 3)), dtype=np.float64)
        assert np.array_equal(recalibrate(xt, ones).data, x)
        zeros = Tensor(np.zeros((2, 3)), dtype=np.float64)
        assert not recalibrate(xt, zeros).data.any()
        v = gen.random((2, 3))
        got = recalibrate(xt, Tensor(v, dtype=np.float64))
        assert np.array_equal(got.data, x * v[:, :, None, None])
        with pytest.raises(ValueError):
            recalibrate(xt, Tensor(np.zeros((2, 4)), dtype=np.float64))


class TestFullLayer:
    def test_zero_input_forced_values(self):
        # x = 0 -> descriptor 0 -> decisions all 0.5; enhance branch is -1
        # at init so its factor is sigmoid(-0.5).
        params = init_sem_params(8, rng=RngState(50), dtype=np.float64)
        x = Tensor(np.zeros((2, 8, 3, 3)), dtype=np.float64)
        decisions = []
        v = attention_map(x, params, decisions)
        assert np.array_equal(decisions[0], np.full((2, 3), 0.5))
        # fc and cnn branches are 0 -> sigmoid(0)=0.5 each; ie contributes
        # sigmoid(-1 * 0.5).
        expected = 0.5 * 0.5 * (1.0 / (1.0 + np.exp(0.5)))
        assert np.max(np.abs(v.data - expected)) <= 1e-15

    def test_single_fc_matches_independent_composition(self):
        gen = RngState(51).generator()
        params = init_sem_params(16, ("fc",), rng=RngState(52), dtype=np.float64)
        x = rand_input(gen)
        got = gated(x, params)
        m = oracles.naive_gap(x.data)
        hidden = np.maximum(oracles.naive_affine(m, params.reduce_weight.data), 0.0)
        branch = oracles.naive_affine(hidden, params.expand_weight.data)
        w = 1.0 / (1.0 + np.exp(-oracles.naive_affine(m, params.decision_weight.data)))
        v = 1.0 / (1.0 + np.exp(-branch * w))
        expected = x.data * v[:, :, None, None]
        assert np.max(np.abs(got.data - expected)) <= 1e-9

    def test_gradients_reach_every_parameter(self):
        gen = RngState(53).generator()
        params = init_sem_params(8, rng=RngState(54), dtype=np.float64)
        x = Tensor(gen.standard_normal((2, 8, 3, 3)), requires_grad=True,
                   dtype=np.float64)
        probe = Tensor(gen.standard_normal((2, 8, 3, 3)), dtype=np.float64)
        inputs = {"x": x}
        inputs.update(named_state(params, "attention"))
        errs = check_gradients(lambda: mul(gated(x, params), probe).mean(),
                               inputs)
        assert max(errs.values()) <= 1e-4, errs

    def test_bound_invariant_sigmoid(self):
        gen = RngState(55).generator()
        for c in (4, 16, 64):
            params = init_sem_params(c, rng=RngState(c), dtype=np.float64)
            x = Tensor(gen.standard_normal((64, c, 2, 2)) * 5.0, dtype=np.float64)
            v = attention_map(x, params).data
            assert v.min() > 0.0 and v.max() < 1.0

    def test_zero_branch_multiplies_by_half_exactly(self):
        gen = RngState(56).generator()
        branches = [Tensor(gen.standard_normal((2, 6)), dtype=np.float64)
                    for _ in range(2)]
        v2 = switch(branches, None)
        v3 = switch(branches + [Tensor(np.zeros((2, 6)), dtype=np.float64)], None)
        assert np.array_equal(v3.data, v2.data * 0.5)

    def test_per_sample_independence(self):
        gen = RngState(57).generator()
        params = init_sem_params(8, rng=RngState(58), dtype=np.float64)
        x = gen.standard_normal((6, 8, 3, 3))
        perm = np.array([3, 0, 5, 1, 4, 2])
        out = gated(Tensor(x, dtype=np.float64), params).data
        out_perm = gated(Tensor(x[perm], dtype=np.float64), params).data
        assert np.array_equal(out[perm], out_perm)

    def test_decision_removal_bitwise_equivalence(self):
        gen = RngState(59).generator()
        params = init_sem_params(16, rng=RngState(60), dtype=np.float64)
        x = rand_input(gen, b=2)
        unit = gated(x, dataclasses.replace(params, decision_weight=None))
        m = squeeze(x)
        v = sigmoid(excite_fc(m, params.reduce_weight, params.expand_weight))
        v = mul(v, sigmoid(excite_cnn(m, params.conv_kernel)))
        v = mul(v, sigmoid(excite_ie(m, params.ie_scale, params.ie_shift)))
        explicit = recalibrate(x, v)
        assert unit.data.tobytes() == explicit.data.tobytes()


class TestBaselines:
    """Modes se/eca/ie are the one-operator layer without a decision network."""

    def test_se_zero_reduce_gives_half_scale(self):
        params = init_sem_params(8, ("fc",), rng=RngState(62), dtype=np.float64,
                                 with_decision=False)
        params.reduce_weight.data[...] = 0.0
        gen = RngState(63).generator()
        x = rand_input(gen, c=8)
        out = gated(x, params)
        assert np.max(np.abs(out.data - 0.5 * x.data)) <= 1e-15

    def test_ie_at_init_scales_by_sigmoid_of_minus_one(self):
        params = init_sem_params(8, ("ie",), rng=RngState(64), dtype=np.float64,
                                 with_decision=False)
        gen = RngState(65).generator()
        x = rand_input(gen, c=8)
        out = gated(x, params)
        assert np.max(np.abs(out.data - SIGMOID_OF_MINUS_1 * x.data)) <= 1e-12

    @pytest.mark.parametrize("ops,kind", [(("cnn",), "eca"), (("fc",), "se"),
                                          (("ie",), "ie")])
    def test_single_operator_equals_baseline(self, ops, kind):
        params = init_sem_params(16, ops, rng=RngState(66), dtype=np.float64,
                                 with_decision=False)
        if kind == "ie":
            params.ie_scale.data[...] = 0.75  # at init (0) the descriptor is ignored
        gen = RngState(67).generator()
        x = rand_input(gen)
        a = gated(x, params)
        if kind == "se":
            b = oracles.naive_se_gate(x.data, params.reduce_weight.data,
                                      params.expand_weight.data)
        elif kind == "eca":
            b = oracles.naive_eca_gate(x.data, params.conv_kernel.data)
        else:
            b = oracles.naive_ie_gate(x.data, params.ie_scale.data[0, 0],
                                      params.ie_shift.data[0, 0])
        assert np.max(np.abs(a.data - b)) <= 1e-9

    def test_unknown_baseline(self):
        with pytest.raises(ValueError, match="unknown attention mode"):
            RunConfig(depth=11, attention="cbam").resolved()

    @pytest.mark.parametrize("mode", ["se", "eca", "ie"])
    def test_switch_activation_pinned_to_sigmoid(self, mode):
        gen = RngState(68).generator()
        x = Tensor(gen.standard_normal((2, 3, 32, 32)), dtype=np.float64)
        logits = {}
        for act in ("sigmoid", "tanh"):
            cfg = RunConfig(depth=11, attention=mode, switch_activation=act)
            model = build_network(cfg, RngState(69), np.float64)
            gate = model.stages[0][0].attention
            assert gate.switch_activation == "sigmoid"
            assert gate.decision_weight is None
            with no_grad():
                logits[act] = model(x).data
        assert logits["tanh"].tobytes() == logits["sigmoid"].tobytes()


class TestParamsAndReporting:
    def test_operator_set_normalisation(self):
        assert normalize_operator_set(("ie", "fc")) == ("fc", "ie")
        with pytest.raises(ValueError):
            normalize_operator_set(())
        with pytest.raises(ValueError):
            normalize_operator_set(("fc", "fc"))
        with pytest.raises(ValueError):
            normalize_operator_set(("fc", "srm"))

    def test_hidden_width_clamped(self):
        assert hidden_width(64, 16) == 4
        assert hidden_width(8, 16) == 1
        with pytest.raises(ValueError):
            hidden_width(8, 0)

    def test_init_shapes_and_ie_values(self):
        params = init_sem_params(64, rng=RngState(69))
        assert params.decision_weight.shape == (3, 64)
        assert params.reduce_weight.shape == (4, 64)
        assert params.expand_weight.shape == (64, 4)
        assert params.conv_kernel.shape == (3,)
        assert params.ie_scale.data[0, 0] == 0.0
        assert params.ie_shift.data[0, 0] == -1.0
        assert all(t.requires_grad for _, t in named_state(params, "attention"))

    def test_decision_csv_layout(self):
        weights = np.array([[0.25, 0.5, 0.75], [0.25, 0.5, 0.75]])
        full = DecisionRecord(0, 1, 64, ALL_OPERATORS, weights)
        partial = DecisionRecord(1, 2, 128, ("fc", "ie"),
                                 np.array([[0.1, 0.9], [0.1, 0.9]]))
        text = decision_summary_csv([full, partial])
        lines = text.strip().split("\n")
        assert lines[0] == ("layer_index,stage,channels,w_fc_mean,w_cnn_mean,"
                            "w_ie_mean,w_fc_std,w_cnn_std,w_ie_std")
        assert lines[1] == "0,1,64,0.25,0.5,0.75,0,0,0"
        # disabled cnn column stays empty
        assert lines[2] == "1,2,128,0.1,,0.9,0,,0"

    def test_summary_deterministic_bytes(self):
        gen = RngState(71).generator()
        weights = gen.random((8, 3))
        rec = [DecisionRecord(0, 1, 16, ALL_OPERATORS, weights)]
        assert decision_summary_csv(rec) == decision_summary_csv(rec)
