"""Independent reference implementations the tests check against.

Everything here is deliberately naive (explicit loops, no shared code
with the library) so a bug in the fast paths cannot hide in its oracle.
"""

import math

import numpy as np

# chi2.ppf(0.99, df), frozen from scipy 1.x.
CHI2_CRIT_DF80 = 112.32879252029748
CHI2_CRIT_DF2 = 9.21034037197618


def naive_gap(x):
    b, c, h, w = x.shape
    out = np.zeros((b, c), dtype=x.dtype)
    for i in range(b):
        for j in range(c):
            s = 0.0
            for p in range(h):
                for q in range(w):
                    s += x[i, j, p, q]
            out[i, j] = s / (h * w)
    return out


def naive_affine(x, weight, bias=None):
    b, cin = x.shape
    cout = weight.shape[0]
    out = np.zeros((b, cout), dtype=x.dtype)
    for i in range(b):
        for o in range(cout):
            s = 0.0
            for j in range(cin):
                s += x[i, j] * weight[o, j]
            if bias is not None:
                s += bias[o]
            out[i, o] = s
    return out


def naive_conv2d(x, kernel, stride=1, pad=0):
    b, cin, h, w = x.shape
    cout, _, k, _ = kernel.shape
    hout = (h + 2 * pad - k) // stride + 1
    wout = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((b, cin, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    out = np.zeros((b, cout, hout, wout), dtype=x.dtype)
    for i in range(b):
        for o in range(cout):
            for y in range(hout):
                for z in range(wout):
                    s = 0.0
                    for c in range(cin):
                        for p in range(k):
                            for q in range(k):
                                s += kernel[o, c, p, q] * xp[i, c, y * stride + p,
                                                             z * stride + q]
                    out[i, o, y, z] = s
    return out


def naive_conv2d_backward(x, kernel, g, stride=1, pad=0):
    """(dx, dkernel) of naive_conv2d for the upstream gradient ``g``, in
    float64: each output element scatters g * kernel into the input
    positions it read and g * x into the kernel taps; padding reads zeros."""
    x, kernel, g = (np.asarray(v, dtype=np.float64) for v in (x, kernel, g))
    b, cin, h, w = x.shape
    cout, _, k, _ = kernel.shape
    _, _, hout, wout = g.shape
    dx = np.zeros_like(x)
    dkernel = np.zeros_like(kernel)
    for i in range(b):
        for o in range(cout):
            for y in range(hout):
                for z in range(wout):
                    for c in range(cin):
                        for p in range(k):
                            for q in range(k):
                                r, s = y * stride + p - pad, z * stride + q - pad
                                if 0 <= r < h and 0 <= s < w:
                                    dx[i, c, r, s] += g[i, o, y, z] * kernel[o, c, p, q]
                                    dkernel[o, c, p, q] += g[i, o, y, z] * x[i, c, r, s]
    return dx, dkernel


def _phase_axis(n, stride, pad, phase, size):
    """Matching slices (into x, into a phase grid of ``size``) along one axis,
    where grid[u] = x[u*stride + phase - pad] wherever that index is in x."""
    u0 = max(0, -((phase - pad) // stride))
    r0 = u0 * stride + phase - pad
    count = max(0, min(size - u0, -((r0 - n) // stride)))
    return slice(r0, r0 + stride * count, stride), slice(u0, u0 + count)


def _batched_conv2d_plan(x, kernel, stride, pad):
    """Tap offsets, the whole batch's zero-padded phase grids, a function
    viewing grid n as (B, Cin, rows, wp) with the indices it shares with x,
    and the (k, k, Cout, Cin) kernel."""
    b, cin, h, w = x.shape
    k = kernel.shape[2]
    hout = (h + 2 * pad - k) // stride + 1
    wout = (w + 2 * pad - k) // stride + 1
    d, q = (k - 1) // stride, min(stride, k)
    rows, wp = hout + d, wout + d
    taps = [(i, j, i % stride * q + j % stride, i // stride * wp + j // stride)
            for i in range(k) for j in range(k)]

    def phases(buf):
        for n in range(q * q):
            ys, us = _phase_axis(h, stride, pad, n // q, rows)
            xs, vs = _phase_axis(w, stride, pad, n % q, wp)
            yield buf[n, :, :, : rows * wp].reshape(b, cin, rows, wp), (..., ys, xs), (..., us, vs)

    grids = np.zeros((q * q, b, cin, rows * wp + d), dtype=x.dtype)
    for grid, xi, gi in phases(grids):
        grid[gi] = x[xi]
    kt = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1))
    return (hout, wout, d, wp), taps, grids, phases, kt


def batched_conv2d(x, kernel, stride=1, pad=0):
    """conv2d as one batched GEMM per tap over the whole batch's phase grids,
    summed in tap order: the library's arithmetic without its sample
    chunks, so the two must agree bit for bit."""
    b, cout = x.shape[0], kernel.shape[0]
    (hout, wout, _, wp), taps, grids, _, kt = _batched_conv2d_plan(x, kernel, stride, pad)
    span = hout * wp
    parts = (np.matmul(kt[i, j], grids[n, :, :, o : o + span]) for i, j, n, o in taps)
    out = next(parts)
    for part in parts:
        out += part
    return np.ascontiguousarray(out.reshape(b, cout, hout, wp)[..., :wout])


def batched_conv2d_backward(x, kernel, g, stride=1, pad=0):
    """(dx, dkernel) of batched_conv2d for the upstream gradient ``g``: the
    padded g, every grid gradient and each tap's dkernel terms are built
    for the whole batch, and dkernel is summed by one ``sum(axis=0)``."""
    b, cout = x.shape[0], kernel.shape[0]
    (hout, _, d, wp), taps, grids, phases, kt = _batched_conv2d_plan(x, kernel, stride, pad)
    span = hout * wp
    g = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, d))) if d else g
    g = g.reshape(b, cout, span)
    dkernel = np.empty_like(kernel)
    for i, j, n, o in taps:
        window = grids[n, :, :, o : o + span].transpose(0, 2, 1)
        dkernel[:, :, i, j] = np.matmul(g, window).sum(axis=0)
    if len(taps) == 1:  # the one tap spans the whole grid: its GEMM writes it
        dgrids = np.empty_like(grids)
        np.matmul(kt[0, 0].T, g, out=dgrids[0])
    else:
        dgrids = np.zeros_like(grids)
        for i, j, n, o in taps:
            dgrids[n, :, :, o : o + span] += np.matmul(kt[i, j].T, g)
    dx = np.zeros_like(x)
    for grid, xi, gi in phases(dgrids):
        dx[xi] = grid[gi]
    return dx, dkernel


def whole_batch_batch_norm(x, gamma, beta, running_mean, running_var, g, training,
                           momentum=0.9, eps=1e-5, relu=False):
    """batch_norm's arithmetic over the whole batch at once: centre, scale,
    shift and clamp the full array in turn, then its backward rule for the
    upstream gradient ``g``. The library runs the same steps in sample
    chunks, so the two must agree bit for bit. Returns (out, dx, dgamma,
    dbeta) and, in train mode, updates the running buffers in place."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    c = x.shape[1]
    pshape = (1, c) if x.ndim == 2 else (1, c, 1, 1)
    dt = x.dtype
    n = x.size // c
    if training:
        mean = x.mean(axis=axes, dtype=dt)
    else:
        mean = running_mean.astype(dt, copy=False)
    out = x - mean.reshape(pshape)
    if training:
        var = np.square(out).sum(axis=axes, dtype=dt) / n
        running_mean *= dt.type(momentum)
        running_mean += dt.type(1.0 - momentum) * mean
        running_var *= dt.type(momentum)
        running_var += dt.type(1.0 - momentum) * var
    else:
        var = running_var.astype(dt, copy=False)
    inv_std = 1.0 / np.sqrt(var + dt.type(eps))
    scale = gamma * inv_std
    out *= scale.reshape(pshape)
    out += beta.reshape(pshape)
    if relu:
        np.maximum(out, 0, out=out)
        g = g * (out > 0)
    dims = list(range(x.ndim))
    inv_n = dt.type(1.0 / n if training else 0.0)
    dx = x - mean.reshape(pshape)
    dbeta = np.einsum(g, dims, [1])
    dgamma = inv_std * np.einsum(g, dims, dx, dims, [1])
    dx *= (-scale * inv_std * dgamma * inv_n).reshape(pshape)
    dx -= (scale * dbeta * inv_n).reshape(pshape)
    for i in range(0, len(dx), 8):
        dx[i : i + 8] += g[i : i + 8] * scale.reshape(pshape)
    return out, dx, dgamma, dbeta


def naive_conv1d_channel(m, kernel):
    b, c = m.shape
    k = len(kernel)
    half = (k - 1) // 2
    out = np.zeros_like(m)
    for i in range(b):
        for j in range(c):
            s = 0.0
            for p in range(k):
                src = j + p - half
                if 0 <= src < c:
                    s += kernel[p] * m[i, src]
            out[i, j] = s
    return out


def naive_switch(branches, weights, activation="sigmoid"):
    """Scalar-by-scalar switching product over (B, C) branch arrays.

    weights is (B, N) or None for the unit-weight configuration.
    """
    def act(v):
        if activation == "sigmoid":
            return 1.0 / (1.0 + np.exp(-v))
        if activation == "tanh":
            return np.tanh(v)
        if activation == "relu":
            return max(v, 0.0)
        return v if v > 0 else 0.01 * v

    b, c = branches[0].shape
    out = np.ones((b, c))
    for i in range(b):
        for j in range(c):
            for n, branch in enumerate(branches):
                w = 1.0 if weights is None else weights[i, n]
                out[i, j] *= act(branch[i, j] * w)
    return out


def _naive_sigmoid_gate(x, branch):
    """x rescaled per (sample, channel) by sigmoid(branch)."""
    b, c = branch.shape
    out = np.zeros_like(x)
    for i in range(b):
        for j in range(c):
            out[i, j] = x[i, j] / (1.0 + np.exp(-branch[i, j]))
    return out


def naive_se_gate(x, reduce_weight, expand_weight):
    """Squeeze-and-excitation: sigmoid(W2 relu(W1 gap(x))) per channel."""
    hidden = naive_affine(naive_gap(x), reduce_weight)
    for i in range(hidden.shape[0]):
        for j in range(hidden.shape[1]):
            hidden[i, j] = max(hidden[i, j], 0.0)
    return _naive_sigmoid_gate(x, naive_affine(hidden, expand_weight))


def naive_eca_gate(x, kernel):
    """Efficient channel attention: sigmoid(conv1d over channels of gap(x))."""
    return _naive_sigmoid_gate(x, naive_conv1d_channel(naive_gap(x), kernel))


def naive_ie_gate(x, scale, shift):
    """Instance enhancement: sigmoid(scale * gap(x) + shift), scalar affine."""
    m = naive_gap(x)
    branch = np.zeros_like(m)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            branch[i, j] = scale * m[i, j] + shift
    return _naive_sigmoid_gate(x, branch)


def naive_batch_norm(x, gamma, beta, running_mean, running_var, g, training,
                     momentum=0.9, eps=1e-5, relu=False):
    """Textbook batch norm, one channel at a time, in float64.

    Normalises to xhat = (x - mean) / sqrt(var + eps), scales and shifts,
    and backpropagates the upstream gradient ``g`` through xhat. Returns
    (out, dx, dgamma, dbeta, running_mean, running_var); the running
    buffers come back updated in train mode and unchanged in eval mode.
    With ``relu`` a ReLU follows: the output is clamped at 0 and ``g`` is
    zeroed wherever the pre-activation is not positive.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    out = np.zeros_like(x)
    dx = np.zeros_like(x)
    c = x.shape[1]
    dgamma, dbeta = np.zeros(c), np.zeros(c)
    new_mean = np.array(running_mean, dtype=np.float64)
    new_var = np.array(running_var, dtype=np.float64)
    for j in range(c):
        xc = x[:, j].reshape(-1)
        gc = g[:, j].reshape(-1)
        n = xc.size
        if training:
            mean = math.fsum(xc) / n
            var = math.fsum((v - mean) ** 2 for v in xc) / n
            new_mean[j] = momentum * new_mean[j] + (1.0 - momentum) * mean
            new_var[j] = momentum * new_var[j] + (1.0 - momentum) * var
        else:
            mean, var = float(running_mean[j]), float(running_var[j])
        inv_std = 1.0 / math.sqrt(var + eps)
        xhat = (xc - mean) * inv_std
        pre = gamma[j] * xhat + beta[j]
        if relu:
            gc = np.where(pre > 0, gc, 0.0)
            pre = np.maximum(pre, 0.0)
        out[:, j] = pre.reshape(x[:, j].shape)
        dbeta[j] = math.fsum(gc)
        dgamma[j] = math.fsum(gc * xhat)
        dxhat = gc * gamma[j]
        if training:
            # Mean and variance depend on every x of the channel.
            dxc = inv_std * (dxhat - math.fsum(dxhat) / n
                             - xhat * math.fsum(dxhat * xhat) / n)
        else:
            dxc = inv_std * dxhat
        dx[:, j] = dxc.reshape(x[:, j].shape)
    return out, dx, dgamma, dbeta, new_mean, new_var


def sgd_reference(w0, grads, lr, momentum, weight_decay):
    """Scalar momentum-SGD recurrence over a fixed gradient sequence."""
    w, v = float(w0), 0.0
    history = []
    for g in grads:
        v = momentum * v + (g + weight_decay * w)
        w = w - lr * v
        history.append(w)
    return history


def least_squares_probe_accuracy(images, labels, num_classes):
    """Train accuracy of a one-vs-all least-squares probe on raw pixels."""
    x = np.stack([img.reshape(-1) for img in images]).astype(np.float64)
    x = np.hstack([x, np.ones((len(x), 1))])
    y = np.zeros((len(x), num_classes))
    y[np.arange(len(x)), labels] = 1.0
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = (x @ coef).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


def chi_square_stat(counts, expected):
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(((counts - expected) ** 2 / expected).sum())


def float32_decode(buf, variant):
    """CIFAR-layout records decoded as images were before uint8 storage:
    float32 in [0, 1], scaled once at decode. Returns (images, labels)."""
    head = 1 if variant == 10 else 2
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, head + 3 * 32 * 32)
    images = raw[:, head:].reshape(-1, 3, 32, 32).astype(np.float32) / np.float32(255.0)
    return images, [int(v) for v in raw[:, head - 1]]


def exact_channel_stats(pixels):
    """Channel mean and population std of uint8 images scaled by 1/255:
    naive per-channel sums of the pixels and their squares in Python ints,
    then one correctly rounded int division each."""
    s, s2, n = [0] * 3, [0] * 3, 0
    for img in pixels:
        for c in range(3):
            values = img[c].ravel().tolist()
            s[c] += sum(values)
            s2[c] += sum(v * v for v in values)
        n += img.shape[1] * img.shape[2]
    mean = np.array([a / (255 * n) for a in s])
    var = np.array([(n * b - a * a) / (255 * n) ** 2 for a, b in zip(s, s2)])
    return mean, np.sqrt(var)


def float32_batches(images, batch_size, order, aug_rng=None, crop_pad=4,
                    flip_prob=0.5, mean=None, std=None, dtype=np.float32):
    """Batches stacked from float images and cast to ``dtype`` first, then
    zero-pad/crop and mirrored image by image (a batch's crop offsets are
    drawn before its flips), then normalised channel by channel."""
    for start in range(0, len(order), batch_size):
        x = np.stack([images[i] for i in order[start : start + batch_size]]).astype(dtype)
        if aug_rng is not None:
            if crop_pad:
                offsets = aug_rng.integers(0, 2 * crop_pad + 1, size=(len(x), 2))
            flips = aug_rng.random(len(x)) < flip_prob
            for i in range(len(x)):
                img = x[i]
                if crop_pad:
                    padded = np.zeros((3, 32 + 2 * crop_pad, 32 + 2 * crop_pad), dtype)
                    padded[:, crop_pad : crop_pad + 32, crop_pad : crop_pad + 32] = img
                    dy, dx = offsets[i]
                    img = padded[:, dy : dy + 32, dx : dx + 32]
                x[i] = img[:, :, ::-1] if flips[i] else img
        if mean is not None:
            for c in range(3):
                x[:, c] = (x[:, c] - dtype(mean[c])) / dtype(std[c])
        yield x


def state_keys(depth, block_operators, with_decision):
    """A model's ``state_arrays()`` keys in order, written out from the
    documented scheme: the stem; per block bn1, conv1, bn2, conv2, bn3,
    conv3, the first block's downsample, then the attention tensors operator
    by operator; head.bn, head.fc; then every batch norm's running
    statistics. ``block_operators`` gives each block's operators (None for
    no attention), blocks counted stage after stage."""
    n = (depth - 2) // 9
    blocks = [f"stage{s}.block{b}" for s in (1, 2, 3) for b in range(n)]
    bns = [f"{block}.bn{i}" for block in blocks for i in (1, 2, 3)] + ["head.bn"]
    attention = {"fc": ["reduce_weight", "expand_weight"], "cnn": ["conv_kernel"],
                 "ie": ["ie_scale", "ie_shift"]}
    keys = ["stem.weight"]
    for i, block in enumerate(blocks):
        for j in (1, 2, 3):
            keys += [f"{block}.bn{j}.gamma", f"{block}.bn{j}.beta", f"{block}.conv{j}.weight"]
        if block.endswith(".block0"):
            keys.append(f"{block}.downsample.weight")
        ops = block_operators[i]
        if ops is None:
            continue
        if with_decision:
            keys.append(f"{block}.attention.decision_weight")
        for op in ("fc", "cnn", "ie"):
            if op in ops:
                keys += [f"{block}.attention.{name}" for name in attention[op]]
    keys += ["head.bn.gamma", "head.bn.beta", "head.fc.weight", "head.fc.bias"]
    keys += [f"{bn}.running_{stat}" for bn in bns for stat in ("mean", "var")]
    return keys
