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
                     momentum=0.9, eps=1e-5):
    """Textbook batch norm, one channel at a time, in float64.

    Normalises to xhat = (x - mean) / sqrt(var + eps), scales and shifts,
    and backpropagates the upstream gradient ``g`` through xhat. Returns
    (out, dx, dgamma, dbeta, running_mean, running_var); the running
    buffers come back updated in train mode and unchanged in eval mode.
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
        out[:, j] = (gamma[j] * xhat + beta[j]).reshape(x[:, j].shape)
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
