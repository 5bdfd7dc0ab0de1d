"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous row-major numpy buffer (float32 or float64).
Operations record their inputs and a backward rule on the computation
graph; ``backward(loss)`` puts the recorded operations in topological
order, runs them once in reverse, and then discards them.
Only first-order gradients are supported.
"""

from __future__ import annotations

import contextlib

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float32

_grad_enabled = True
_check_finite = False


@contextlib.contextmanager
def no_grad():
    """Disable gradient recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def set_debug_checks(enabled: bool) -> None:
    """Toggle the per-op finiteness check (slow; for tests and debugging)."""
    global _check_finite
    _check_finite = bool(enabled)


class Tensor:
    """N-dimensional array with optional gradient tracking.

    ``data`` is always C-contiguous float32/float64. ``grad`` is allocated
    lazily during backward and has the same shape and dtype as ``data``.
    Non-leaf tensors additionally hold references to their parents and a
    backward rule until the tape that contains them is consumed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in SUPPORTED_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.dtype not in SUPPORTED_DTYPES:
            raise ValueError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        # ascontiguousarray would promote 0-d scalars to shape (1,).
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # Operator sugar; the functional forms below do the real work.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self) -> "Tensor":
        return _reduce(self, "sum")

    def mean(self) -> "Tensor":
        return _reduce(self, "mean")

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def backward(self) -> None:
        backward(self)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Recorded operations reachable from ``root``, every entry after its
    parents, so one reverse sweep visits each node exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None and id(parent) not in seen:
                stack.append((parent, False))
    return [n for n in order if n._backward is not None]


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable tensor.

    ``loss`` must be a scalar recorded on an active graph. Gradients add
    across multiple uses of a tensor and across repeated training steps;
    the graph is discarded afterwards.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar, got shape {loss.shape}")
    tape = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape):
        out_grad = node.grad
        if out_grad is None:
            continue
        for parent, grad in zip(node._parents, node._backward(out_grad)):
            if grad is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                # A fresh, writable array can be adopted directly; views and
                # pass-through grads (e.g. from add) must be copied so later
                # accumulation cannot corrupt an aliased buffer.
                if (grad is out_grad or grad.base is not None
                        or not grad.flags.owndata or not grad.flags.writeable
                        or grad.dtype != parent.data.dtype):
                    parent.grad = np.array(grad, dtype=parent.data.dtype)
                else:
                    parent.grad = grad
            else:
                parent.grad += grad
    for node in tape:
        node._parents = ()
        node._backward = None


def _make(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(out_data, dtype=out_data.dtype)
    if _check_finite and not np.isfinite(out.data).all():
        raise FloatingPointError(f"non-finite values in {backward_fn.__name__}")
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _check_same_dtype(*tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ValueError(f"mixed dtypes {sorted(d.name for d in dtypes)}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the axes that were expanded from singletons."""
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcastable(a_shape: tuple, b_shape: tuple) -> bool:
    if len(a_shape) != len(b_shape):
        return False
    return all(m == n or m == 1 or n == 1 for m, n in zip(a_shape, b_shape))


# ---------------------------------------------------------------------------
# Elementwise arithmetic (broadcast limited to singleton expansion at equal
# rank, the only pattern the attention path needs).
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        scalar = float(b)
        out = a.data + a.data.dtype.type(scalar)

        def add_scalar_backward(g):
            return (g,)

        return _make(out, (a,), add_scalar_backward)
    _check_same_dtype(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"cannot broadcast {a.shape} + {b.shape}")
    out = a.data + b.data

    def add_backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), add_backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        scalar = float(b)
        out = a.data * a.data.dtype.type(scalar)

        def mul_scalar_backward(g):
            return (g * a.data.dtype.type(scalar),)

        return _make(out, (a,), mul_scalar_backward)
    _check_same_dtype(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"cannot broadcast {a.shape} * {b.shape}")
    out = a.data * b.data

    def mul_backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), mul_backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = x.data.reshape(shape)

    def reshape_backward(g):
        return (g.reshape(x.data.shape),)

    return _make(out, (x,), reshape_backward)


def take_column(x: Tensor, index: int) -> Tensor:
    """Select column ``index`` of a 2-D tensor, keeping the unit axis."""
    if x.ndim != 2:
        raise ValueError(f"take_column needs a 2-D tensor, got {x.shape}")
    if not 0 <= index < x.shape[1]:
        raise ValueError(f"column {index} out of range for shape {x.shape}")
    out = x.data[:, index : index + 1].copy()

    def take_column_backward(g):
        full = np.zeros_like(x.data)
        full[:, index : index + 1] = g
        return (full,)

    return _make(out, (x,), take_column_backward)


def _reduce(x: Tensor, kind: str) -> Tensor:
    if kind == "sum":
        out = x.data.sum(dtype=x.data.dtype)
        scale = 1.0
    else:
        out = x.data.mean(dtype=x.data.dtype)
        scale = 1.0 / x.data.size
    out = np.asarray(out, dtype=x.data.dtype)

    def reduce_backward(g):
        return (np.broadcast_to(g * x.data.dtype.type(scale), x.data.shape),)

    return _make(out, (x,), reduce_backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial grid: (B, C, H, W) -> (B, C, 1, 1)."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool needs (B, C, H, W), got {x.shape}")
    _, _, h, w = x.shape
    if h < 1 or w < 1:
        raise ValueError(f"empty spatial extent in {x.shape}")
    out = x.data.mean(axis=(2, 3), keepdims=True)
    inv = x.data.dtype.type(1.0 / (h * w))

    def global_avg_pool_backward(g):
        return (np.broadcast_to(g * inv, x.data.shape),)

    return _make(out, (x,), global_avg_pool_backward)


# ---------------------------------------------------------------------------
# Linear layers
# ---------------------------------------------------------------------------

def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ weight.T (+ bias) for x (B, Cin) and weight (Cout, Cin)."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ValueError(f"affine shape mismatch: x {x.shape}, weight {weight.shape}")
    parents = [x, weight]
    _check_same_dtype(x, weight)
    out = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"bias shape {bias.shape} != ({weight.shape[0]},)")
        _check_same_dtype(x, bias)
        out += bias.data
        parents.append(bias)

    def affine_backward(g):
        grads = [g @ weight.data, g.T @ x.data]
        if bias is not None:
            grads.append(g.sum(axis=0))
        return grads

    return _make(out, tuple(parents), affine_backward)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """Return (cols, padded shape): cols is (B, Cin*k*k, Hout*Wout)."""
    b, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hout = (h + 2 * pad - k) // stride + 1
    wout = (w + 2 * pad - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, Hout, Wout, k, k)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, hout * wout)
    return np.ascontiguousarray(cols), (hout, wout), x.shape


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding.

    x: (B, Cin, H, W), kernel: (Cout, Cin, k, k), square window. Output
    extent is floor((H + 2*pad - k) / stride) + 1 and must be >= 1.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"conv2d needs 4-D tensors, got {x.shape} and {kernel.shape}")
    b, cin, h, w = x.shape
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin or kh != kw:
        raise ValueError(f"kernel {kernel.shape} incompatible with input {x.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    k = kh
    hout = (h + 2 * pad - k) // stride + 1
    wout = (w + 2 * pad - k) // stride + 1
    if hout < 1 or wout < 1:
        raise ValueError(f"empty conv output for input {x.shape}, k={k}, "
                         f"stride={stride}, pad={pad}")
    _check_same_dtype(x, kernel)

    cols, _, padded_shape = _im2col(x.data, k, stride, pad)
    kmat = kernel.data.reshape(cout, cin * k * k)
    out = np.matmul(kmat, cols).reshape(b, cout, hout, wout)

    def conv2d_backward(g):
        gmat = g.reshape(b, cout, hout * wout)
        dkernel = (np.matmul(gmat, cols.transpose(0, 2, 1))
                   .sum(axis=0).reshape(kernel.data.shape))
        dcols = np.matmul(kmat.T, gmat).reshape(b, cin, k, k, hout, wout)
        dx_pad = np.zeros(padded_shape, dtype=x.data.dtype)
        for i in range(k):
            for j in range(k):
                dx_pad[:, :, i : i + stride * hout : stride,
                       j : j + stride * wout : stride] += dcols[:, :, i, j]
        dx = dx_pad[:, :, pad : pad + h, pad : pad + w] if pad else dx_pad
        return dx, dkernel

    return _make(out, (x, kernel), conv2d_backward)


def conv1d_channel(m: Tensor, kernel: Tensor, pad: int | None = None) -> Tensor:
    """Slide one shared k-tap kernel along the channel axis of (B, C).

    Zero padding outside [0, C); default pad (k-1)/2 keeps the length. No
    bias; the kernel length must be odd.
    """
    if m.ndim != 2 or kernel.ndim != 1:
        raise ValueError(f"conv1d_channel needs (B, C) and (k,), got {m.shape}, {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ValueError(f"kernel length must be odd, got {k}")
    if pad is None:
        pad = (k - 1) // 2
    _check_same_dtype(m, kernel)
    b, c = m.shape
    lout = c + 2 * pad - k + 1
    if lout < 1:
        raise ValueError(f"empty output for C={c}, k={k}, pad={pad}")
    mp = np.pad(m.data, ((0, 0), (pad, pad))) if pad else m.data
    win = np.lib.stride_tricks.sliding_window_view(mp, k, axis=1)
    out = win @ kernel.data

    def conv1d_channel_backward(g):
        dkernel = np.empty_like(kernel.data)
        dmp = np.zeros((b, c + 2 * pad), dtype=m.data.dtype)
        for t in range(k):
            dkernel[t] = np.sum(mp[:, t : t + lout] * g, dtype=m.data.dtype)
            dmp[:, t : t + lout] += kernel.data[t] * g
        dm = dmp[:, pad : pad + c] if pad else dmp
        return dm, dkernel

    return _make(out, (m, kernel), conv1d_channel_backward)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

ACTIVATION_KINDS = ("sigmoid", "tanh", "relu", "leaky_relu")


def sigmoid(x: Tensor) -> Tensor:
    out = _stable_sigmoid(x.data)

    def sigmoid_backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), sigmoid_backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def tanh_backward(g):
        return (g * (1.0 - out * out),)

    return _make(out, (x,), tanh_backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def relu_backward(g):
        return (g * (x.data > 0),)

    return _make(out, (x,), relu_backward)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    s = x.data.dtype.type(slope)
    out = np.where(x.data > 0, x.data, x.data * s)

    def leaky_relu_backward(g):
        return (g * np.where(x.data > 0, x.data.dtype.type(1.0), s),)

    return _make(out, (x,), leaky_relu_backward)


def activation(x: Tensor, kind: str, slope: float = 0.01) -> Tensor:
    """Elementwise nonlinearity dispatcher over ACTIVATION_KINDS."""
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return tanh(x)
    if kind == "relu":
        return relu(x)
    if kind == "leaky_relu":
        return leaky_relu(x, slope)
    raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}")


# ---------------------------------------------------------------------------
# Normalisation and loss
# ---------------------------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.9, eps: float = 1e-5) -> Tensor:
    """Per-channel normalisation over (B, C) or (B, C, H, W).

    Train mode normalises by batch statistics and folds them into the
    running buffers with the given momentum (in place); eval mode uses the
    running buffers. gamma/beta are (C,) learnable tensors.
    """
    if x.ndim not in (2, 4):
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.shape}")
    c = x.shape[1]
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (c,):
            raise ValueError(f"{name} shape {t.shape} != ({c},)")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ValueError("running statistics must be shaped (C,)")
    _check_same_dtype(x, gamma, beta)

    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    pshape = (1, c) if x.ndim == 2 else (1, c, 1, 1)
    dt = x.data.dtype

    if training:
        mean = x.data.mean(axis=axes, dtype=dt)
        var = x.data.var(axis=axes, dtype=dt)
        running_mean *= dt.type(momentum)
        running_mean += dt.type(1.0 - momentum) * mean
        running_var *= dt.type(momentum)
        running_var += dt.type(1.0 - momentum) * var
    else:
        mean = running_mean.astype(dt, copy=False)
        var = running_var.astype(dt, copy=False)

    inv_std = 1.0 / np.sqrt(var + dt.type(eps))
    xhat = (x.data - mean.reshape(pshape)) * inv_std.reshape(pshape)
    out = gamma.data.reshape(pshape) * xhat + beta.data.reshape(pshape)

    n = x.data.size // c

    def batch_norm_backward(g):
        work = g * xhat
        dgamma = work.sum(axis=axes, dtype=dt)
        dbeta = g.sum(axis=axes, dtype=dt)
        if training:
            # With dxhat = g*gamma, the batch-statistics terms collapse to
            # per-channel scalars: mean(dxhat) = gamma*dbeta/n and
            # mean(dxhat*xhat) = gamma*dgamma/n, so
            # dx = gamma*inv_std * (g - dbeta/n - xhat*dgamma/n).
            inv_n = dt.type(1.0 / n)
            np.multiply(xhat, (dgamma * inv_n).reshape(pshape), out=work)
            work += (dbeta * inv_n).reshape(pshape)
            np.subtract(g, work, out=work)
            work *= (gamma.data * inv_std).reshape(pshape)
        else:
            np.multiply(g, (gamma.data * inv_std).reshape(pshape), out=work)
        return work, dgamma, dbeta

    return _make(out, (x, gamma, beta), batch_norm_backward)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax at the label indices; returns a scalar."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be (B, K), got {logits.shape}")
    b, k = logits.shape
    idx = np.asarray(labels, dtype=np.int64)
    if idx.shape != (b,):
        raise ValueError(f"labels must have length {b}, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError(f"labels out of range [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True, dtype=logits.data.dtype))
    log_probs = shifted - log_z
    out = np.asarray(-log_probs[np.arange(b), idx].mean(dtype=logits.data.dtype),
                     dtype=logits.data.dtype)

    def softmax_cross_entropy_backward(g):
        probs = np.exp(log_probs)
        probs[np.arange(b), idx] -= 1.0
        return (probs * (g / logits.data.dtype.type(b)),)

    return _make(out, (logits,), softmax_cross_entropy_backward)
