"""Named gradient-check scopes: single ops, the attention gate inside its
conv, and a whole residual block, all run in float64 against central differences."""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as T
from .attention import gate_params, init_sem_params, sem_forward
from .backbone import build_network, named_state
from .gradcheck import DEFAULT_TOLERANCE, check_gradients
from .rng import RngState
from .tensor import Tensor
from .training import RunConfig


def _randn(gen, shape):
    return Tensor(gen.standard_normal(shape), requires_grad=True, dtype=np.float64)


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
    and the strided 1x1 downsample shortcut; then the 1x1 projection
    shortcuts summed into a branch conv's output (``add_to``), whose
    input and kernel take the gradient passed to the added parent."""
    out = {}
    for k, stride, pad, summed in ((3, 2, 1, False), (3, 1, 1, False), (1, 1, 0, False),
                                   (1, 2, 0, False), (1, 1, 0, True), (1, 2, 0, True)):
        x = _randn(gen, (2, 2, 5, 5))
        kern = _randn(gen, (3, 2, k, k))
        n = (5 + 2 * pad - k) // stride + 1
        w = _probe(gen, (2, 3, n, n))
        branch = {"branch_x": _randn(gen, (2, 4, n, n)),
                  "branch_kernel": _randn(gen, (3, 4, 1, 1))} if summed else {}

        def f():  # a fresh branch output each call, since the conv sums into it
            add_to = T.conv2d(*branch.values()) if branch else None
            return T.mul(T.conv2d(x, kern, stride=stride, pad=pad, add_to=add_to), w).mean()

        errs = check_gradients(f, {"x": x, "kernel": kern, **branch})
        tag = f"k{k}s{stride}p{pad}" + ("_add_to" if summed else "")
        out.update({f"{tag}_{name}": v for name, v in errs.items()})
    return out


def _scope_elementwise(gen):
    a = _randn(gen, (3, 4, 2, 2))
    b = _randn(gen, (3, 4, 1, 1))
    w = _probe(gen, (3, 4, 2, 2))
    errs_mul = check_gradients(lambda: T.mul(T.mul(a, b), w).mean(), {"a": a, "b": b})
    errs_add = check_gradients(lambda: T.mul(T.add(a, b), w).mean(), {"a": a, "b": b})
    return {"mul_a": errs_mul["a"], "mul_b": errs_mul["b"],
            "add_a": errs_add["a"], "add_b": errs_add["b"]}


def _kink_free_beta(x, gamma, training, running_mean, running_var):
    """Per-channel beta that puts the ReLU kink of gamma*xhat + beta midway
    across the widest gap between the normalised inputs of the channel, so
    central differences never straddle it."""
    c = x.shape[1]
    rows = np.moveaxis(x, 1, 0).reshape(c, -1)
    if training:
        mean, var = rows.mean(axis=1), rows.var(axis=1)
    else:
        mean, var = running_mean, running_var
    xhat = np.sort((rows - mean[:, None]) / np.sqrt(var[:, None] + T.BN_EPS), axis=1)
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


def _scope_sem_layer(gen, channels: int = 16, cin: int = 4):
    """The gate inside its 1x1 conv's node, as a block's conv3 runs it in
    training: conv(relu(batch_norm(x))) gated by every operator, once per
    switch activation. The sigmoid switch reports each group; each other
    switch reports its worst group under its own name, with the enhance
    branch's scale and shift at 0.8 and 0.3. A ReLU switch is open on a
    channel only where all three branches are positive: at the init shift
    of -1 it is closed everywhere and every gradient is 0, and with 8
    channels it was still closed on 30 of 200 seeds; with 16, on none."""
    x = _randn(gen, (2, cin, 3, 3))
    kernel = _randn(gen, (channels, cin, 1, 1))
    gamma = Tensor(gen.standard_normal(cin) + 1.5, requires_grad=True, dtype=np.float64)
    mean, var = gen.standard_normal(cin), gen.random(cin) + 0.5
    beta = Tensor(_kink_free_beta(x.data, gamma.data, True, mean, var),
                  requires_grad=True, dtype=np.float64)

    def pre():  # fresh running buffers on every call
        return T.PreActivation(gamma, beta, mean.copy(), var.copy(), True)

    with T.no_grad():
        m = T.conv2d(x, kernel, pre=pre()).data.mean(axis=(2, 3))
    w = _probe(gen, (2, channels, 3, 3))
    report = {}
    for kind in T.ACTIVATION_KINDS:
        params = init_sem_params(channels, rng=RngState(11), switch_activation=kind,
                                 dtype=np.float64)
        if kind != "sigmoid":
            params.ie_scale.data[...] = 0.8
            params.ie_shift.data[...] = 0.3
        # The FC branch's one hidden unit live on sample 0 and dead on
        # sample 1, each 0.5 from the ReLU's kink: the reduce weight moves
        # by the least change that sets those pre-activations of m.
        reduce = params.reduce_weight.data
        reduce += np.linalg.lstsq(m, np.array([[0.5], [-0.5]]) - m @ reduce.T,
                                  rcond=None)[0].T
        inputs = {"input": x, "kernel": kernel, "gamma": gamma, "beta": beta, **dict(zip(
            ("decision", "fc_reduce", "fc_expand", "cnn_kernel", "ie_scale", "ie_shift"),
            gate_params(params)))}
        errs = check_gradients(
            lambda p=params: T.mul(sem_forward(x, p, conv=(kernel, pre())), w).mean(), inputs)
        if kind == "sigmoid":
            errs["ie"] = max(errs.pop("ie_scale"), errs.pop("ie_shift"))
            report.update(errs)
        else:
            report[kind] = max(errs.values())
    return report


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
    "elementwise": _scope_elementwise,
    "batch_norm": _scope_batch_norm,
    "softmax_cross_entropy": _scope_softmax_cross_entropy,
    "reshape": _scope_reshape,
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
