"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``ACCEPTANCE <id> ... PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output). Criterion 7 needs the real
CIFAR-10 binaries under $SEM_DATA_DIR and several workstation-hours; it
is marked slow and skips when the data is absent.
"""

import dataclasses
import functools
import os
import time

import numpy as np
import pytest

from semnet.attention import (
    attention_map,
    eca_kernel_size,
    excite_cnn,
    excite_fc,
    excite_ie,
    init_sem_params,
    recalibrate,
    sem_forward,
    squeeze,
)
from semnet.backbone import (
    STAGE_WIDTHS,
    build_network,
    depth_to_blocks,
    sem_block_param_count,
)
from semnet.data import (
    batch_iterator,
    compute_channel_stats,
    decode_records,
    encode_record,
    load_cifar,
    synthetic_dataset,
)
from semnet.optim import SGD
from semnet.rng import RngState
from semnet.tensor import Tensor, backward, mul, sigmoid, softmax_cross_entropy
from semnet.training import RunConfig, train_grid, train_run
from semnet import verify

import oracles

GRAD_TOL = 1e-4


def criterion(cid, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"ACCEPTANCE {cid} {title}: SKIP")
                raise
            except BaseException:
                print(f"ACCEPTANCE {cid} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {cid} {title}: PASS")
        return run
    return wrap


@criterion(1, "gradient suite (ops + SEM layer, <=1e-4, <60s)")
def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = {}
    for scope in list(verify.OP_SCOPES) + ["sem-layer"]:
        report = verify.run_scope(scope)
        worst[scope] = verify.worst_error(report)
    elapsed = time.monotonic() - start
    assert max(worst.values()) <= GRAD_TOL, worst
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_full_block_gradient_scope():
    # Whole blocks against finite differences, their in-place skip add and
    # untaped eval path included; slower than criterion 1's budget allows.
    start = time.monotonic()
    report = verify.run_scope("full-block")
    print(f"full-block gradcheck: {time.monotonic() - start:.1f}s")
    assert verify.worst_error(report) <= GRAD_TOL, report


@criterion(2, "attention map strictly inside (0,1) on 1e4 inputs")
def test_criterion_2_bound_invariant():
    total = 0
    lo, hi = 1.0, 0.0
    for c in (4, 16, 64):
        params = init_sem_params(c, rng=RngState(100 + c), dtype=np.float64)
        gen = RngState(200 + c).generator()
        for scale in (0.5, 1.0, 4.0):
            for _ in range(6):
                x = Tensor(gen.standard_normal((200, c, 2, 2)) * scale,
                           dtype=np.float64)
                v = attention_map(x, params).data
                lo = min(lo, float(v.min()))
                hi = max(hi, float(v.max()))
                total += x.shape[0]
    assert total >= 10_000
    assert 0.0 < lo and hi < 1.0, (lo, hi)


@criterion(3, "single-operator routes equal standalone gates (<=1e-9)")
def test_criterion_3_composition_oracle():
    gen = RngState(300).generator()
    x = Tensor(gen.standard_normal((4, 16, 5, 5)), dtype=np.float64)
    gates = {
        "eca": (("cnn",), lambda p: oracles.naive_eca_gate(x.data, p.conv_kernel.data)),
        "se": (("fc",), lambda p: oracles.naive_se_gate(
            x.data, p.reduce_weight.data, p.expand_weight.data)),
        "ie": (("ie",), lambda p: oracles.naive_ie_gate(
            x.data, p.ie_scale.data[0, 0], p.ie_shift.data[0, 0])),
    }
    # Alone, and inside a 1x1 conv's node as the backbone runs it, with the
    # identity kernel so the conv hands the gate x itself.
    identity = Tensor(np.eye(16)[:, :, None, None], dtype=np.float64)
    for kind, (ops, standalone) in gates.items():
        params = init_sem_params(16, ops, rng=RngState(301), dtype=np.float64,
                                 with_decision=False)
        if kind == "ie":
            params.ie_scale.data[...] = 1.5  # at init (0) the descriptor is ignored
        for conv in (None, (identity, None)):
            routed = sem_forward(x, params, conv=conv)
            diff = float(np.max(np.abs(routed.data - standalone(params))))
            assert diff <= 1e-9, (kind, conv is None, diff)


@criterion(4, "adaptive kernel-size table")
def test_criterion_4_kernel_size_table():
    # Rule oracle with gamma=2, bias=1: 2 -> t=1.0 -> 1; 16 -> 2.5 -> 3;
    # 64 -> 3.5 -> 3; 256 -> 4.5 -> 5; 1024 -> 5.5 -> 5.
    expected = {2: 1, 16: 3, 64: 3, 256: 5, 1024: 5}
    got = {c: eca_kernel_size(c) for c in expected}
    assert got == expected


@criterion(5, "unit-decision override is bit-identical to the explicit product")
def test_criterion_5_decision_removal_bitwise():
    gen = RngState(500).generator()
    params = init_sem_params(32, rng=RngState(501), dtype=np.float64)
    x = Tensor(gen.standard_normal((3, 32, 4, 4)), requires_grad=False,
               dtype=np.float64)
    m = squeeze(x)
    v = sigmoid(excite_fc(m, params.reduce_weight, params.expand_weight))
    v = mul(v, sigmoid(excite_cnn(m, params.conv_kernel)))
    v = mul(v, sigmoid(excite_ie(m, params.ie_scale, params.ie_shift)))
    explicit = recalibrate(x, v)
    # Alone, and inside a 1x1 conv's node as the backbone runs it, with the
    # identity kernel so the conv hands the gate x itself.
    identity = Tensor(np.eye(32)[:, :, None, None], dtype=np.float64)
    for conv in (None, (identity, None)):
        unit = sem_forward(x, dataclasses.replace(params, decision_weight=None), conv=conv)
        assert unit.data.tobytes() == explicit.data.tobytes(), conv is None


@criterion(6, "depth-20 SEM overfits 64 samples within 300 steps")
def test_criterion_6_overfit_sanity():
    records = synthetic_dataset(64, 10, seed=1)
    mean, std = compute_channel_stats(records)
    model = build_network(RunConfig(depth=20, attention="sem"), RngState(1, 1))
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    batch_size = 16
    steps = 0
    reached_at = None
    for epoch in range(300):
        correct = seen = 0
        for images, labels in batch_iterator(records, batch_size, 1, epoch,
                                             channel_mean=mean, channel_std=std):
            logits = model(images, training=True)
            loss = softmax_cross_entropy(logits, labels)
            backward(loss)
            opt.step()
            opt.zero_grad()
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(labels)
            steps += 1
            if steps >= 300:
                break
        if seen and correct == seen:
            reached_at = steps
            break
        if steps >= 300:
            break
    assert reached_at is not None and reached_at <= 300, \
        f"not at 100% after {steps} steps"


CIFAR10_AVAILABLE = False
_data_dir = os.environ.get("SEM_DATA_DIR")
if _data_dir:
    for probe in (_data_dir, os.path.join(_data_dir, "cifar-10-batches-bin")):
        if os.path.exists(os.path.join(probe, "data_batch_1.bin")):
            CIFAR10_AVAILABLE = True


@pytest.mark.slow
@pytest.mark.skipif(not CIFAR10_AVAILABLE,
                    reason="real CIFAR-10 binaries not present under $SEM_DATA_DIR")
@criterion(7, "desk-scale trend: SEM mean >= plain mean on CIFAR-10 subset")
def test_criterion_7_desk_scale_trend(tmp_path):
    variants = [(f"{mode}_s{seed}",
                 RunConfig(dataset="cifar10", depth=20, attention=mode, epochs=20,
                           batch_size=128, train_subset=10_000, seed=seed))
                for seed in (1, 2, 3) for mode in ("sem", "none")]
    results = train_grid(variants, str(tmp_path))
    assert None not in results, "a run diverged"
    scores = {mode: [result.final_record.test_top1
                     for (_, cfg), result in zip(variants, results) if cfg.attention == mode]
              for mode in ("sem", "none")}
    assert np.mean(scores["sem"]) >= np.mean(scores["none"]), scores


@criterion(8, "attention parameter overhead matches the closed form")
def test_criterion_8_parameter_audit():
    for depth in (20, 47):
        plain = build_network(RunConfig(depth=depth, attention="none"),
                              RngState(8))
        sem = build_network(RunConfig(depth=depth, attention="sem"),
                            RngState(8))
        n = depth_to_blocks(depth)
        expected = sum(
            n * sem_block_param_count(width * 4, n_operators=3, reduction=16)
            for width in STAGE_WIDTHS)
        added = sem.param_count() - plain.param_count()
        assert added == expected, (depth, added, expected)


@criterion(9, "binary record strides, counts, and bit-exact round-trip")
def test_criterion_9_data_fidelity(cifar10_dir, cifar100_dir):
    train10, test10 = load_cifar(cifar10_dir, 10)
    assert len(train10) == 50_000 and len(test10) == 10_000
    train100, test100 = load_cifar(cifar100_dir, 100)
    assert len(train100) == 50_000 and len(test100) == 10_000
    for i in range(1, 6):
        size = os.path.getsize(os.path.join(cifar10_dir, f"data_batch_{i}.bin"))
        assert size == 10_000 * 3_073
    assert os.path.getsize(os.path.join(cifar100_dir, "train.bin")) == 50_000 * 3_074
    # Round-trip a slice of each variant bit-exactly.
    buf10 = open(os.path.join(cifar10_dir, "test_batch.bin"), "rb").read()[: 3073 * 32]
    again = b"".join(encode_record(r, 10) for r in decode_records(buf10, 10))
    assert again == buf10
    buf100 = open(os.path.join(cifar100_dir, "test.bin"), "rb").read()[: 3074 * 32]
    again = b"".join(encode_record(r, 100) for r in decode_records(buf100, 100))
    assert again == buf100


@criterion(10, "identical config and seed give byte-identical metrics logs")
def test_criterion_10_determinism(tmp_path):
    def run(out):
        cfg = RunConfig(dataset="synthetic", depth=20, attention="sem",
                        epochs=2, batch_size=32, synthetic_train=64,
                        synthetic_test=32, synthetic_classes=8, seed=11,
                        eval_batch_size=32, out_dir=str(out))
        return train_run(cfg)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")
    log1 = open(r1.metrics_path, "rb").read()
    log2 = open(r2.metrics_path, "rb").read()
    assert log1 and log1 == log2
