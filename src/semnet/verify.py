"""Named gradient-check scopes: single ops, a full attention layer, and a
whole residual block, all run in float64 against central differences."""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as T
from .attention import init_sem_params, sem_forward
from .backbone import build_network, named_state
from .gradcheck import DEFAULT_TOLERANCE, check_gradients
from .rng import RngState
from .tensor import Tensor
from .training import RunConfig


def _randn(gen, shape, *, away_from_zero=False):
    x = gen.standard_normal(shape)
    if away_from_zero:
        # Keep |x| >= 0.1 so kinked activations never straddle a
        # finite-difference step.
        x = np.sign(x) * (np.abs(x) + 0.1)
    return Tensor(x, requires_grad=True, dtype=np.float64)


def _probe(gen, shape):
    """A fixed random projection; makes scalar objectives sensitive to
    every output element. Drawn once so the objective is deterministic."""
    return Tensor(gen.standard_normal(shape), dtype=np.float64)


def _scope_global_avg_pool(gen):
    x = _randn(gen, (2, 3, 4, 5))
    w = _probe(gen, (2, 3, 1, 1))
    return check_gradients(lambda: T.mul(T.global_avg_pool(x), w).mean(), {"x": x})


def _scope_affine(gen):
    x = _randn(gen, (3, 4))
    wt = _randn(gen, (5, 4))
    b = _randn(gen, (5,))
    w = _probe(gen, (3, 5))
    return check_gradients(lambda: T.mul(T.affine(x, wt, b), w).mean(),
                           {"x": x, "weight": wt, "bias": b})


def _scope_conv2d(gen):
    """Each (k, stride, pad) the backbone runs: strided and same 3x3, 1x1,
    and the strided 1x1 downsample shortcut."""
    out = {}
    for k, stride, pad in ((3, 2, 1), (3, 1, 1), (1, 1, 0), (1, 2, 0)):
        x = _randn(gen, (2, 2, 5, 5))
        kern = _randn(gen, (3, 2, k, k))
        n = (5 + 2 * pad - k) // stride + 1
        w = _probe(gen, (2, 3, n, n))
        errs = check_gradients(
            lambda: T.mul(T.conv2d(x, kern, stride=stride, pad=pad), w).mean(),
            {"x": x, "kernel": kern})
        out.update({f"k{k}s{stride}p{pad}_{name}": v for name, v in errs.items()})
    return out


def _scope_conv1d_channel(gen):
    m = _randn(gen, (3, 8))
    k = _randn(gen, (3,))
    w = _probe(gen, (3, 8))
    return check_gradients(lambda: T.mul(T.conv1d_channel(m, k), w).mean(),
                           {"m": m, "kernel": k})


def _scope_activation(gen):
    out = {}
    for kind in T.ACTIVATION_KINDS:
        x = _randn(gen, (4, 6), away_from_zero=kind in ("relu", "leaky_relu"))
        w = _probe(gen, (4, 6))
        errs = check_gradients(
            lambda k=kind, t=x, p=w: T.mul(T.activation(t, k), p).mean(), {"x": x})
        out[kind] = errs["x"]
    return out


def _scope_elementwise(gen):
    a = _randn(gen, (3, 4, 2, 2))
    b = _randn(gen, (3, 4, 1, 1))
    w = _probe(gen, (3, 4, 2, 2))
    errs_mul = check_gradients(lambda: T.mul(T.mul(a, b), w).mean(), {"a": a, "b": b})
    errs_add = check_gradients(lambda: T.mul(T.add(a, b), w).mean(), {"a": a, "b": b})
    return {"mul_a": errs_mul["a"], "mul_b": errs_mul["b"],
            "add_a": errs_add["a"], "add_b": errs_add["b"]}


def _kink_free_beta(x, gamma, training, running_mean, running_var, eps=1e-5):
    """Per-channel beta that puts the ReLU kink of gamma*xhat + beta midway
    across the widest gap between the normalised inputs of the channel, so
    central differences never straddle it."""
    c = x.shape[1]
    rows = np.moveaxis(x, 1, 0).reshape(c, -1)
    if training:
        mean, var = rows.mean(axis=1), rows.var(axis=1)
    else:
        mean, var = running_mean, running_var
    xhat = np.sort((rows - mean[:, None]) / np.sqrt(var[:, None] + eps), axis=1)
    i = np.diff(xhat, axis=1).argmax(axis=1)
    return -gamma * (xhat[np.arange(c), i] + xhat[np.arange(c), i + 1]) / 2


def _scope_batch_norm(gen):
    out = {}
    for relu, training in ((False, True), (False, False), (True, True), (True, False)):
        x = _randn(gen, (6, 3, 4, 4))
        g = Tensor(gen.standard_normal(3) + 1.5, requires_grad=True, dtype=np.float64)
        b = _randn(gen, (3,))
        mean = gen.standard_normal(3)
        var = gen.random(3) + 0.5
        w = _probe(gen, (6, 3, 4, 4))
        if relu:
            b.data[...] = _kink_free_beta(x.data, g.data, training, mean, var)

        def f(t=x, gg=g, bb=b, m=mean, v=var, tr=training, r=relu, p=w):
            return T.mul(T.batch_norm(t, gg, bb, m.copy(), v.copy(), training=tr,
                                      relu=r), p).mean()

        errs = check_gradients(f, {"x": x, "gamma": g, "beta": b})
        tag = ("train" if training else "eval") + ("_relu" if relu else "")
        out.update({f"{tag}_{k}": v for k, v in errs.items()})
    return out


def _scope_softmax_cross_entropy(gen):
    logits = _randn(gen, (5, 7))
    labels = gen.integers(0, 7, size=5)
    return check_gradients(lambda: T.softmax_cross_entropy(logits, labels),
                           {"logits": logits})


def _scope_reshape(gen):
    x = _randn(gen, (2, 3, 4))
    w = _probe(gen, (6, 4))
    return check_gradients(lambda: T.mul(T.reshape(x, (6, 4)), w).mean(), {"x": x})


def _scope_take_column(gen):
    x = _randn(gen, (4, 5))
    w = _probe(gen, (4, 1))
    return check_gradients(lambda: T.mul(T.take_column(x, 2), w).mean(), {"x": x})


def _scope_sem_layer(gen, channels: int = 8):
    params = init_sem_params(channels, rng=RngState(11), dtype=np.float64)
    x = _randn(gen, (2, channels, 3, 3))
    w = _probe(gen, (2, channels, 3, 3))
    inputs = {
        "input": x,
        "decision": params.decision_weight,
        "fc_reduce": params.reduce_weight,
        "fc_expand": params.expand_weight,
        "cnn_kernel": params.conv_kernel,
        "ie_scale": params.ie_scale,
        "ie_shift": params.ie_shift,
    }
    errs = check_gradients(lambda: T.mul(sem_forward(x, params), w).mean(), inputs)
    errs["ie"] = max(errs.pop("ie_scale"), errs.pop("ie_shift"))
    return errs


def _scope_full_block(gen):
    """A SEM and a plain block with a projection shortcut, and a SEM block
    whose shortcut is its own input, which the in-place skip add must not
    write. The SEM blocks also run in eval mode, whose finite-difference
    passes take the untaped path of the fused units and the in-place gate."""
    errs = {}
    for name, depth, attention, index, training in (
            ("sem", 11, "sem", 0, True), ("plain", 11, "none", 0, True),
            ("identity", 20, "sem", 1, True), ("sem_eval", 11, "sem", 0, False),
            ("identity_eval", 20, "sem", 1, False)):
        block = build_network(RunConfig(depth=depth, attention=attention), RngState(13),
                              np.float64).stages[0][index]
        x = _randn(gen, (2, block.bn1.gamma.shape[0], 6, 6))
        w = _probe(gen, (2, 64, 6, 6))
        inputs = {f"{name}.input": x, **dict(named_state(block, name, Tensor))}
        errs.update(check_gradients(lambda: T.mul(block(x, training=training), w).mean(), inputs))
    return errs


SCOPES = {
    "global_avg_pool": _scope_global_avg_pool,
    "affine": _scope_affine,
    "conv2d": _scope_conv2d,
    "conv1d_channel": _scope_conv1d_channel,
    "activation": _scope_activation,
    "elementwise": _scope_elementwise,
    "batch_norm": _scope_batch_norm,
    "softmax_cross_entropy": _scope_softmax_cross_entropy,
    "reshape": _scope_reshape,
    "take_column": _scope_take_column,
    "sem-layer": _scope_sem_layer,
    "full-block": _scope_full_block,
}

OP_SCOPES = tuple(name for name in SCOPES if name not in ("sem-layer", "full-block"))


def run_scope(scope: str, seed: int = 0) -> dict[str, float]:
    """Max relative error per parameter group for one named scope."""
    if scope not in SCOPES:
        raise KeyError(f"unknown gradcheck scope {scope!r}; "
                       f"valid: {', '.join(SCOPES)}")
    stream = zlib.crc32(scope.encode()) & 0xFFFF
    gen = RngState(seed, stream=stream).generator()
    return SCOPES[scope](gen)


def worst_error(report: dict[str, float]) -> float:
    return max(report.values()) if report else 0.0


TOLERANCE = DEFAULT_TOLERANCE
