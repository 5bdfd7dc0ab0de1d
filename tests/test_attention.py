"""Attention stages, from the terms of the gate the model runs: operator
math against oracles, switching invariants, kernel-size rule,
single-operator gates against the SE/ECA/IE oracles, decision reporting."""

import dataclasses
import re

import numpy as np
import pytest

from semnet.attention import (
    ALL_OPERATORS,
    DecisionRecord,
    _gate_terms,
    decision_summary_csv,
    eca_kernel_size,
    hidden_width,
    init_sem_params,
    normalize_operator_set,
    sem_forward,
)
from semnet.backbone import build_network, named_state
from semnet.gradcheck import check_gradients
from semnet.rng import RngState
from semnet.tensor import (
    ACTIVATION_KINDS,
    ChannelGate,
    Tensor,
    _stable_sigmoid,
    conv2d,
    mul,
    no_grad,
)
from semnet.training import RunConfig

import oracles

SIGMOID_OF_MINUS_1 = 0.2689414213699951


def identity(x):
    return Tensor(np.eye(x.shape[1], dtype=x.dtype)[:, :, None, None])


def gated(x, params):
    """The layer on x itself, as the backbone runs it: inside a 1x1 conv's
    node with the identity kernel, which hands the gate x bit for bit."""
    return sem_forward(x, params, conv=(identity(x), None))


def rand_input(gen, b=3, c=16, h=4, w=4):
    return Tensor(gen.standard_normal((b, c, h, w)), requires_grad=True,
                  dtype=np.float64)


def gate_with(channels, operators=ALL_OPERATORS, switch_activation="sigmoid", **arrays):
    """A float64 gate with the named parameters set to ``arrays`` (None
    drops one, as ``decision_weight=None`` drops the decision network)."""
    params = init_sem_params(channels, operators, switch_activation=switch_activation,
                             rng=RngState(72), dtype=np.float64)
    return dataclasses.replace(params, **{
        name: None if a is None else Tensor(np.asarray(a, dtype=np.float64))
        for name, a in arrays.items()})


def terms(m, params):
    """Named terms of the gate for the descriptor m."""
    names = ("weights", "hidden", "branches", "scaled", "gated", "v")
    return dict(zip(names, _gate_terms(np.asarray(m, dtype=np.float64), params)))


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
    def descriptor(self, x):
        """The (B, C) descriptor the gate receives inside the identity 1x1
        conv's node: the squeeze."""
        seen = []
        conv2d(x, identity(x), gate=ChannelGate(
            (), lambda m: seen.append(m.copy()) or np.ones_like(m), None))
        return seen[0]

    def test_squeeze_shape_and_constant(self):
        m = self.descriptor(Tensor(np.ones((2, 5, 3, 3)), dtype=np.float64))
        assert np.array_equal(m, np.ones((2, 5)))

    def test_squeeze_matches_bruteforce(self):
        gen = RngState(40).generator()
        x = gen.standard_normal((4, 8, 3, 3))
        m = self.descriptor(Tensor(x, dtype=np.float64))
        assert np.max(np.abs(m - oracles.naive_gap(x))) <= 1e-12

    def test_decide_zero_weight_gives_half(self):
        m = np.random.default_rng(0).random((4, 6))
        params = gate_with(6, decision_weight=np.zeros((3, 6)))
        assert np.array_equal(terms(m, params)["weights"], np.full((4, 3), 0.5))

    def test_decide_zero_descriptor_gives_half(self):
        gen = RngState(41).generator()
        params = gate_with(6, ("fc", "cnn"), decision_weight=gen.standard_normal((2, 6)))
        w = terms(np.zeros((3, 6)), params)["weights"]
        assert np.array_equal(w, np.full((3, 2), 0.5))

    def test_decide_matches_affine_sigmoid_oracle(self):
        gen = RngState(42).generator()
        m = gen.standard_normal((3, 8))
        wd = gen.standard_normal((3, 8))
        got = terms(m, gate_with(8, decision_weight=wd))["weights"]
        expected = 1.0 / (1.0 + np.exp(-oracles.naive_affine(m, wd)))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_excite_fc_zero_reduce_weight(self):
        gen = RngState(43).generator()
        params = gate_with(8, ("fc",), reduce_weight=np.zeros((2, 8)),
                           expand_weight=gen.standard_normal((8, 2)))
        assert not terms(gen.standard_normal((2, 8)), params)["branches"].any()

    def test_excite_fc_identity_padded_passthrough(self):
        # C=4, r=2: identity-shaped weights forward non-negative inputs.
        m = np.array([[0.5, 1.0, 0.0, 0.0]])
        params = gate_with(4, ("fc",), reduce_weight=np.eye(2, 4), expand_weight=np.eye(4, 2))
        assert np.array_equal(terms(m, params)["branches"][:, 0], m)

    def test_excite_fc_matches_two_affine_relu_oracle(self):
        gen = RngState(44).generator()
        m = gen.standard_normal((3, 8))
        w1 = gen.standard_normal((2, 8))
        w2 = gen.standard_normal((8, 2))
        got = terms(m, gate_with(8, ("fc",), reduce_weight=w1, expand_weight=w2))
        hidden = np.maximum(oracles.naive_affine(m, w1), 0.0)
        assert np.max(np.abs(got["hidden"] - hidden)) <= 1e-12
        expected = oracles.naive_affine(hidden, w2)
        assert np.max(np.abs(got["branches"][:, 0] - expected)) <= 1e-12

    def test_excite_cnn_identity_and_zero(self):
        gen = RngState(45).generator()
        m = gen.standard_normal((2, 16))
        ident = gate_with(16, ("cnn",), conv_kernel=[0.0, 1.0, 0.0])
        assert np.array_equal(terms(m, ident)["branches"][:, 0], m)
        zero = gate_with(16, ("cnn",), conv_kernel=np.zeros(3))
        assert not terms(m, zero)["branches"].any()

    def test_excite_cnn_matches_sliding_window(self):
        gen = RngState(46).generator()
        m = gen.standard_normal((2, 16))
        k = gen.standard_normal(3)
        got = terms(m, gate_with(16, ("cnn",), conv_kernel=k))["branches"][:, 0]
        assert np.max(np.abs(got - oracles.naive_conv1d_channel(m, k))) <= 1e-12

    def test_excite_ie_cases(self):
        m = np.array([[1.0, -1.0]])
        for scale, shift, expected in ((0.0, -1.0, [[-1.0, -1.0]]), (1.0, 0.0, m),
                                       (2.0, 0.5, [[2.5, -1.5]])):
            params = gate_with(2, ("ie",), ie_scale=[[scale]], ie_shift=[[shift]])
            assert np.array_equal(terms(m, params)["branches"][:, 0], expected)

    def test_switch_zero_branches_gives_eighth(self):
        # Random decision weights scale three zero branches.
        gen = RngState(47).generator()
        params = gate_with(4, decision_weight=gen.standard_normal((3, 4)),
                           reduce_weight=np.zeros((1, 4)), conv_kernel=np.zeros(1),
                           ie_shift=[[0.0]])
        got = terms(gen.standard_normal((2, 4)), params)
        assert len(np.unique(got["weights"])) == 6
        assert np.array_equal(got["v"], np.full((2, 4), 0.125))

    def test_switch_unit_weights_equals_plain_product(self):
        gen = RngState(47).generator()
        params = gate_with(5, decision_weight=None, ie_scale=[[0.8]])
        got = terms(gen.standard_normal((2, 5)), params)
        branches = got["branches"]
        assert got["scaled"].tobytes() == branches.tobytes()
        expected = (_stable_sigmoid(branches[:, 0]) * _stable_sigmoid(branches[:, 1])
                    * _stable_sigmoid(branches[:, 2]))
        assert got["v"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_switch_matches_scalar_oracle(self, kind):
        gen = RngState(48).generator()
        params = gate_with(6, switch_activation=kind, ie_scale=[[0.8]], ie_shift=[[0.3]])
        got = terms(gen.standard_normal((3, 6)), params)
        branches = [got["branches"][:, i] for i in range(3)]
        expected = oracles.naive_switch(branches, got["weights"], kind)
        assert np.max(np.abs(got["v"] - expected)) <= 1e-12

    def test_recalibrate_identity_zero_and_oracle(self):
        gen = RngState(49).generator()
        x = gen.standard_normal((2, 3, 4, 4))
        # An IE gate with a ReLU switch and scale 0 has v = its shift.
        for shift, expected in ((1.0, x), (0.0, np.zeros_like(x))):
            params = gate_with(3, ("ie",), "relu", decision_weight=None, ie_shift=[[shift]])
            assert np.array_equal(gated(Tensor(x, dtype=np.float64), params).data, expected)
        params = gate_with(3)
        v = terms(x.mean(axis=(2, 3)), params)["v"]
        got = gated(Tensor(x, dtype=np.float64), params)
        assert got.data.tobytes() == (x * v[:, :, None, None]).tobytes()


class TestFullLayer:
    def test_zero_input_forced_values(self):
        # x = 0 -> descriptor 0 -> decisions all 0.5; enhance branch is -1
        # at init so its factor is sigmoid(-0.5).
        params = init_sem_params(8, rng=RngState(50), dtype=np.float64)
        x = Tensor(np.zeros((2, 8, 3, 3)), dtype=np.float64)
        decisions = []
        sem_forward(x, params, conv=(identity(x), None), decisions=decisions)
        assert np.array_equal(decisions[0], np.full((2, 3), 0.5))
        v = terms(np.zeros((2, 8)), params)["v"]
        # fc and cnn branches are 0 -> sigmoid(0)=0.5 each; ie contributes
        # sigmoid(-1 * 0.5).
        expected = 0.5 * 0.5 * (1.0 / (1.0 + np.exp(0.5)))
        assert np.max(np.abs(v - expected)) <= 1e-15

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

    def test_zero_branch_multiplies_by_half_exactly(self):
        gen = RngState(56).generator()
        m = gen.standard_normal((2, 6))
        three = gate_with(6, decision_weight=None, ie_shift=[[0.0]])
        two = dataclasses.replace(three, operators=("fc", "cnn"), ie_scale=None, ie_shift=None)
        assert np.array_equal(terms(m, three)["v"], terms(m, two)["v"] * 0.5)

    def test_per_sample_independence(self):
        gen = RngState(57).generator()
        params = init_sem_params(8, rng=RngState(58), dtype=np.float64)
        x = gen.standard_normal((6, 8, 3, 3))
        perm = np.array([3, 0, 5, 1, 4, 2])
        out = gated(Tensor(x, dtype=np.float64), params).data
        out_perm = gated(Tensor(x[perm], dtype=np.float64), params).data
        assert np.array_equal(out[perm], out_perm)


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

    def test_unknown_switch_activation(self):
        with pytest.raises(ValueError, match=re.escape(f"'gelu'; valid: {ACTIVATION_KINDS}")):
            init_sem_params(16, switch_activation="gelu")

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
