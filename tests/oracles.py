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


def per_record_channel_stats(images):
    """Channel mean and population std in float64, one image at a time."""
    acc = np.zeros(3)
    acc_sq = np.zeros(3)
    n = 0
    for img in images:
        img = img.astype(np.float64)
        acc += img.sum(axis=(1, 2))
        acc_sq += (img * img).sum(axis=(1, 2))
        n += img.shape[1] * img.shape[2]
    mean = acc / n
    var = acc_sq / n - mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0))


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
