"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous row-major numpy buffer (float32 or float64).
Operations record their inputs and a backward rule on the computation
graph; ``backward(loss)`` puts the recorded operations in topological
order and runs them once in reverse, releasing each node as soon as its
rule has run. Only first-order gradients are supported.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import weakref
from typing import Callable, NamedTuple

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float32

# Modes of the current context, so each thread has its own: a thread a
# caller starts begins with recording on and checks off. The shard worker
# takes the caller's with each request (``semnet.shards``).
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)
_check_finite = contextvars.ContextVar("check_finite", default=False)
_layer = contextvars.ContextVar("layer", default=None)
# (group, index) of the sample shard this context runs; None outside shards.
_shard = contextvars.ContextVar("shard", default=None)
_CHUNK_BYTES = 1 << 20  # bytes of one sample chunk of conv2d or batch norm: stays in L2


@contextlib.contextmanager
def _set(var: contextvars.ContextVar, value):
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def no_grad():
    """Disable gradient recording inside the block, in this context."""
    return _set(_grad_enabled, False)


def is_grad_enabled() -> bool:
    """Whether ops record a tape (false inside ``no_grad``)."""
    return _grad_enabled.get()


def set_debug_checks(enabled: bool) -> None:
    """Toggle the per-op finiteness check in this context (slow; for tests
    and debugging).

    A non-finite op output raises ``FloatingPointError`` naming the layer
    set by ``layer_scope`` and the op, as in ``stage1.block0 (op affine)``.
    """
    _check_finite.set(bool(enabled))


def layer_scope(name: str):
    """Name the layer the ops inside the block belong to, in this context."""
    return _set(_layer, name)


def _openblas():
    """(set_num_threads, get_num_threads, get_config) of the OpenBLAS this
    process has loaded (numpy's), under its plain, ``scipy_`` prefixed or
    ``64_`` suffixed names; None on another BLAS or where the loaded
    libraries cannot be listed."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({f[5].strip() for f in (line.split(maxsplit=5) for line in fh)
                            if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
        for path in paths:
            lib = ctypes.CDLL(path)  # the loaded copy, not a second one
            for prefix in ("", "scipy_"):
                for suffix in ("", "64_"):
                    names = [f"{prefix}openblas_{op}{suffix}"
                             for op in ("set_num_threads", "get_num_threads", "get_config")]
                    if all(hasattr(lib, name) for name in names):
                        calls = [getattr(lib, name) for name in names]
                        calls[2].restype = ctypes.c_char_p
                        return calls
    except (OSError, ValueError):
        pass
    return None


# One BLAS thread, whatever the environment asks: the two sample shards
# already keep two CPUs busy, and a second BLAS thread per shard makes a
# step about twice as slow.
_BLAS = _openblas()
if _BLAS is not None:
    _BLAS[0](1)


def blas_runtime() -> dict:
    """The BLAS threads and build string read back from the loaded
    OpenBLAS, both None on a BLAS semnet cannot drive."""
    if _BLAS is None:
        return {"threads": None, "config": None}
    return {"threads": int(_BLAS[1]()), "config": _BLAS[2]().decode(errors="replace")}


def in_shard(group, index: int):
    """Run the block as sample shard ``index`` of ``group`` in this context:
    training batch norm then normalises by statistics summed over the
    group's shards with ``group.all_reduce(index, partial)``, reading the
    whole batch's size from ``group.samples``."""
    return _set(_shard, (group, index))


def current_shard():
    """(group, index) of the sample shard this context runs; None outside one."""
    return _shard.get()


class Tensor:
    """N-dimensional array with optional gradient tracking.

    ``data`` is always C-contiguous float32/float64. ``grad`` is allocated
    lazily during backward and has the same shape and dtype as ``data``.
    Non-leaf tensors hold their parents and a backward rule until backward
    runs that rule; afterwards an intermediate keeps its ``grad`` only while
    the caller still holds the tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # Operator sugar; the functional forms below do the real work.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

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


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(t) into ``t.grad`` for every reachable tensor,
    for a scalar ``root`` recorded on an active graph.

    Gradients add across multiple uses of a tensor and across repeated
    training steps. Each node is released as soon as its rule has run, so
    activations and intermediate gradients are freed layer by layer; an
    intermediate keeps its ``grad`` only if the caller still holds it.
    """
    if root.data.size != 1:
        raise ValueError(f"backward() needs a scalar, got shape {root.shape}")
    _sweep(root, np.ones_like(root.data), None)


def _sweep(root: Tensor, grad: np.ndarray, sink: dict | None) -> None:
    """The reverse sweep from ``root`` given ``grad`` = d(loss)/d(root); leaf
    gradients go to ``sink`` (a shard's, in ``join_shards``) if one is given,
    else into their ``grad``."""
    tape = _topological_order(root)
    root.grad = grad
    while tape:
        node = tape.pop()
        parents, rule, out_grad = node._parents, node._backward, node.grad
        node._parents, node._backward = (), None
        alive = weakref.ref(node)
        del node  # an intermediate the caller dropped is freed here
        if out_grad is not None:
            # Once the node is gone nothing else can read out_grad, so one
            # parent may take it over instead of a copy.
            _accumulate(parents, rule(out_grad), out_grad, alive() is None, sink)


def _accumulate(parents: tuple, grads, out_grad: np.ndarray, owned: bool,
                sink: dict | None) -> None:
    """Add one rule's ``grads`` into its parents, leaves into ``sink`` if
    one is given; none outlives the call. With ``owned``, the first parent
    without a gradient adopts a pass-through ``out_grad`` as is."""
    for parent, grad in zip(parents, grads):
        if grad is None or not parent.requires_grad:
            continue
        to_sink = sink is not None and parent._backward is None
        held = sink.get(parent) if to_sink else parent.grad
        if held is not None:
            held += grad
            continue
        # A fresh, writable array can be adopted directly; views and
        # pass-through grads (e.g. from add) must be copied so later
        # accumulation cannot corrupt an aliased buffer.
        if grad is out_grad and owned and grad.dtype == parent.data.dtype:
            held, owned = grad, False
        elif (grad is out_grad or grad.base is not None
                or not grad.flags.owndata or not grad.flags.writeable
                or grad.dtype != parent.data.dtype):
            held = np.array(grad, dtype=parent.data.dtype)
        else:
            held = grad
        if to_sink:
            sink[parent] = held
        else:
            parent.grad = held


def join_shards(first: Tensor, rest: np.ndarray, leaves: list[Tensor], sweep_rest) -> Tensor:
    """Shard 0's output ``first`` and the other shard's rows ``rest``
    concatenated along axis 0, recorded as one node whose parents are
    ``leaves`` (the parameters the shards share).

    Its rule calls ``sweep_rest(sweep, g)``, which runs ``sweep``, shard
    0's reverse sweep from its rows of the gradient into a sink of its own,
    while the other shard sweeps from its rows ``g``, and returns that
    shard's gradient for each leaf (None for a leaf it did not reach). The
    rule returns each leaf's gradient summed in shard order.
    """
    out = np.concatenate([first.data, rest])
    split = len(first.data)

    def join_shards_backward(g):
        sink = {}
        theirs = sweep_rest(lambda: _sweep(first, g[:split], sink), g[split:])
        grads = []
        for leaf, other in zip(leaves, theirs):
            own = sink.get(leaf)
            grads.append(own if other is None else np.array(other) if own is None
                         else own + other)
        return grads

    return _make(out, tuple(leaves), join_shards_backward)


def _records(parents: tuple) -> bool:
    """Whether an op on ``parents`` records a tape node."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _check_output(data: np.ndarray, op: str) -> None:
    """Under the debug checks, raise for a non-finite ``data`` of ``op``."""
    if _check_finite.get() and not np.isfinite(data).all():
        raise FloatingPointError(f"{_layer.get() or 'no layer'} (op {op})")


def _make(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(out_data, dtype=out_data.dtype)
    _check_output(out.data, backward_fn.__name__.removesuffix("_backward"))
    if _records(parents):
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

def add(a: Tensor, b: Tensor, *, inplace: bool = False) -> Tensor:
    """a + b. ``inplace=True`` writes the sum into ``a.data`` and shares that
    buffer, so ``a`` must be a full-shape op output whose buffer no backward
    rule reads (a conv2d output; add's own rule reads only shapes)."""
    _check_same_dtype(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"cannot broadcast {a.shape} + {b.shape}")
    out = np.add(a.data, b.data, out=a.data if inplace else None)

    def add_backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), add_backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"cannot broadcast {a.shape} * {b.shape}")
    out = np.multiply(a.data, b.data)

    def mul_backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), mul_backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = x.data.reshape(shape)

    def reshape_backward(g):
        return (g.reshape(x.data.shape),)

    return _make(out, (x,), reshape_backward)


def _reduce(x: Tensor, kind: str) -> Tensor:
    out = np.asarray(getattr(x.data, kind)(dtype=x.data.dtype), dtype=x.data.dtype)
    scale = 1.0 if kind == "sum" else 1.0 / x.data.size

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
    """y = x @ weight.T (+ bias) for x (B, Cin) and weight (Cout, Cin).

    Forward runs one product per row, so a row's output does not depend on
    how many rows share the call (``x @ weight.T`` lets BLAS pick its kernel
    by the row count, which changes the rounding).
    """
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ValueError(f"affine shape mismatch: x {x.shape}, weight {weight.shape}")
    parents = [x, weight]
    _check_same_dtype(x, weight)
    out = _row_products(x.data, weight.data)
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


def _row_products(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """x @ weight.T for x (B, Cin), one product per row (see ``affine``)."""
    return np.matmul(x[:, None, :], weight.T).reshape(x.shape[0], weight.shape[0])


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _phase_axis(n: int, stride: int, pad: int, phase: int, size: int):
    """Matching slices (into x, into a phase grid of ``size``) along one axis,
    where grid[u] = x[u*stride + phase - pad] wherever that index is in x."""
    u0 = max(0, -((phase - pad) // stride))
    r0 = u0 * stride + phase - pad
    count = max(0, min(size - u0, -((r0 - n) // stride)))
    return slice(r0, r0 + stride * count, stride), slice(u0, u0 + count)


def _sample_chunks(b: int, sample_bytes: int) -> tuple[int, list[tuple[int, int]]]:
    """(step, [(start, stop)...]): chunks whose scratch of sample_bytes each fits."""
    step = max(1, min(b, _CHUNK_BYTES // sample_bytes))
    return step, [(s, min(s + step, b)) for s in range(0, b, step)]


class PreActivation(NamedTuple):
    """The pre-activation unit a ``conv2d`` applies to its input first:
    relu(batch_norm(x, gamma, beta, running_mean, running_var, training))."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    training: bool


class ChannelGate(NamedTuple):
    """The per-sample channel gate a direct ``conv2d`` scales its output
    by, on the Tensors ``params``: ``forward(m)`` maps a (B, C) map m to
    the scales v (B, C), each row from m's row alone; ``backward(m, dv)``
    returns (dm, a gradient for each of ``params``) for the gradient dv at
    m's v, summed over m's rows."""

    params: tuple
    forward: Callable
    backward: Callable


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0, *,
           pre: PreActivation | None = None, gate: ChannelGate | None = None,
           add_to: Tensor | None = None) -> Tensor:
    """Cross-correlation with zero padding, one GEMM per tap and sample.

    x: (B, Cin, H, W), kernel: (Cout, Cin, k, k), square window. Output
    extent is floor((H + 2*pad - k) / stride) + 1 and must be >= 1.
    The padded input is split into phase grids xp[:, :, pi::stride,
    pj::stride] with rows of width wp = Wout + (k-1)//stride; tap (i, j)
    reads its phase at a constant offset, a view BLAS takes without a copy,
    and the wrap-around columns Wout..wp are dropped. A 1x1 stride-1 conv
    reads x itself, in one GEMM unless it is summed (``add_to``). Others
    take the batch in sample chunks whose grids and tap sums fit
    ``_CHUNK_BYTES`` of reused scratch, so forward allocates only its
    output and backward only dx, and the tape keeps no padded copy of x.
    dkernel's batch sum runs in sample order; dx is None when x needs no
    gradient, as the images do.

    With ``pre``, the conv reads relu(batch_norm(x)) as one node, bit for
    bit the two-op result, with batch_norm's statistics and its one running
    buffer update. Each sample chunk of x is normalised and rectified
    straight into the chunk's grids (a 1x1 stride-1 conv gets one grid
    too), so the activation is never written whole and the tape keeps
    only x. Backward rebuilds each chunk's grids from x and the saved
    statistics, takes dkernel from them, masks the activation's gradient
    with act > 0 while the chunk is in cache, and ends with batch_norm's
    backward; the rule returns (dx, dkernel, dgamma, dbeta).

    With ``gate``, on a direct conv only, the node returns out * v[...,
    None, None], with v the gate's scales of the output's spatial mean m,
    and keeps no output either, only m and v: each chunk's GEMM output
    gives its samples' spatial mean m, one gate forward maps m to v and
    the output is scaled in place. The debug checks name a non-finite
    output before the gate ``conv2d`` and one after it ``attention``.
    Backward first takes, per sample, the product P = g a^T that dkernel
    needs anyway, of the gradient g at the gate's output and the conv's
    input a, for the whole batch: dv[c] = sum_k W[c,k] P[c,k] feeds one
    gate backward, and dkernel is the sum of diag(v) P + (dm/HW) (sum_hw
    a)^T. The chunks then form a's gradient as (W diag v)^T g + W^T
    dm/HW, so the gate adds no GEMM. The gate's parameter gradients end
    the rule's result.

    With ``add_to``, not with a gate, the node returns add_to + the conv,
    adding each chunk's result into add_to's buffer, so the conv's own
    output is never written whole; its rule passes its gradient to
    add_to, its last parent, as is. As for ``add(..., inplace=True)``,
    add_to must be a conv2d output that no backward rule reads.
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
    direct = k == 1 and stride == 1 and pad == 0  # x is its own one phase grid
    if gate is not None:
        if not direct or add_to is not None:
            raise ValueError("a gate needs a 1x1 stride-1 conv without padding or add_to")
        _check_same_dtype(x, *gate.params)
    if add_to is not None:
        if add_to.shape != (b, cout, hout, wout):
            raise ValueError(f"add_to {add_to.shape} != conv output {(b, cout, hout, wout)}")
        _check_same_dtype(x, add_to)

    dt = x.data.dtype
    d, q = (k - 1) // stride, min(stride, k)  # furthest tap shift, phases per axis
    rows, wp = hout + d, wout + d
    span = hout * wp  # output columns of one tap, wrap-around included
    cells = rows * wp + d  # one phase grid and the furthest tap's overrun
    taps = [(i, j, i % stride * q + j % stride, i // stride * wp + j // stride)
            for i in range(k) for j in range(k)]
    staged = not direct or pre is not None  # x goes into scratch grids
    summed = add_to is not None  # each chunk's tap sums go into add_to's buffer

    def phases(buf, m):
        """(grid view of buf's first m samples, index into x, index into the grid)."""
        for n in range(q * q):
            ys, us = _phase_axis(h, stride, pad, n // q, rows)
            xs, vs = _phase_axis(w, stride, pad, n % q, wp)
            yield buf[n, :m, :, : rows * wp].reshape(m, cin, rows, wp), (..., ys, xs), (..., us, vs)

    def grids_of(s, e, buf, act):
        """(phase grids (q*q, e-s, cin, cells), the input they hold) of
        samples s:e. Unless staged both are x; else the grids are buf,
        filled from x or, with ``pre``, from its activation, which is
        written unpadded into act (for a direct conv, into the one grid).
        """
        src = x.data[s:e]
        if not staged:
            return src.reshape(1, e - s, cin, cells), src
        if pre is not None:
            src = buf[0, : e - s].reshape(src.shape) if direct else act[: e - s]
            np.subtract(x.data[s:e], mean, out=src)
            np.multiply(src, scale, out=src)
            src += beta
            np.maximum(src, 0, out=src)
        if not direct:
            for grid, xi, gi in phases(buf, e - s):
                grid[gi] = src[xi]
        return buf[:, : e - s], src

    kt = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))  # (k, k, Cout, Cin)
    out = add_to.data if summed else np.empty((b, cout, hout, wout), dtype=dt)
    # Per sample: the grids and the tap sums (a direct conv's one tap
    # writes straight into the output, unless it is summed).
    step, chunks = (_sample_chunks(b, dt.itemsize * (
        staged * q * q * cin * cells + 2 * (not direct or summed) * cout * span))
        if staged or summed else (b, [(0, b)]))
    # The padding stays 0; a direct conv's one grid has none.
    grids = (np.empty if direct else np.zeros)((q * q, step, cin, cells), dt) if staged else None
    acts = np.empty((step, cin, h, w), dt) if pre is not None and not direct else None
    acc, tmp = np.empty((2, step, cout, span), dt) if not direct or summed else (None, None)
    parents = (x, kernel)
    if pre is not None:
        stats = _normalizer(x, pre.gamma, pre.beta, pre.running_mean, pre.running_var,
                            pre.training, chunks, grids[0].reshape(step, cin, h, w)
                            if direct else acts)
        mean, scale, beta = (a.reshape(1, cin, 1, 1)
                             for a in (stats[0], stats[2], pre.beta.data))
        parents = (x, kernel, pre.gamma, pre.beta)
    if gate is not None:
        parents += tuple(gate.params)
        means = np.empty((b, cout), dt)
    if summed:
        parents += (add_to,)
    for s, e in chunks:
        grid, _ = grids_of(s, e, grids, acts)
        # Without wrap-around columns the taps sum straight into the output.
        dest = acc[: e - s] if d or summed else out[s:e].reshape(e - s, cout, span)
        for t, (i, j, n, o) in enumerate(taps):
            part = np.matmul(kt[i, j], grid[n, :, :, o : o + span],
                             out=tmp[: e - s] if t else dest)
            if t:
                dest += part
        if summed:
            out[s:e] += dest.reshape(e - s, cout, hout, wp)[..., :wout]
        elif d:
            out[s:e] = dest.reshape(e - s, cout, hout, wp)[..., :wout]
        if gate is not None:
            np.mean(out[s:e], axis=(2, 3), out=means[s:e])
    if gate is not None:
        # The debug checks name the conv or its gate: a non-finite v
        # leaves the scaled output non-finite too.
        _check_output(out, "conv2d")
        v = gate.forward(means)
        out *= v[:, :, None, None]
        _check_output(out, "attention")

    def gate_backward(g, chunks, grids, acts, masks, dkernel):
        """The gate's share of backward, run before the chunks that form
        dx: per sample the product P = g a^T, of the gradient at the
        output and the conv's input a, for the whole batch; from it the
        gate's backward once, and dkernel. Returns dm/HW and the gate's
        parameter gradients. With ``pre`` the chunks rebuild a from x and
        leave a > 0 in masks, whole-batch."""
        prods, sums = np.empty((b, cout, cin), dt), np.empty((b, cin), dt)
        for s, e in chunks:
            grid, src = grids_of(s, e, grids, acts)
            np.matmul(g[s:e].reshape(e - s, cout, span), grid[0].transpose(0, 2, 1),
                      out=prods[s:e])
            np.sum(grid[0], axis=2, out=sums[s:e])
            if masks is not None:
                np.greater(src, 0, out=masks[s:e])
        dm, grads = gate.backward(means, np.einsum("bck,ck->bc", prods, kt[0, 0]))
        dm *= dt.type(1.0 / span)
        dkernel[:, :, 0, 0] = np.einsum("bc,bck->ck", v, prods) + dm.T @ sums
        return dm, grads

    def conv2d_backward(g):
        dkernel = np.zeros_like(kernel.data)  # an empty batch runs no chunk
        # With pre, dx is first the activation's gradient.
        dx = ((np.empty_like if direct else np.zeros_like)(x.data)
              if x.requires_grad or pre is not None else None)
        # Per sample, the scratch allocated below: grids, dgrids, acts,
        # gpad, tmp, dks or scaled, then the ReLU's masks (one byte each). A
        # gated conv also counts g and dx, which it does not allocate: its
        # dx adds dm[s:e] @ W, one GEMM per chunk that OpenBLAS rounds by
        # the chunk's row count, so larger chunks would change its bits.
        step, chunks = _sample_chunks(b, dt.itemsize * (
            q * q * cin * cells * (staged + (not direct))
            + (pre is not None and not direct) * cin * h * w + bool(d) * cout * span
            + (k > 1) * cin * span + cout * cin + (gate is not None) * (cout + cin) * span)
            + (pre is not None and gate is None) * cin * h * w)
        grids = ((np.empty if direct else np.zeros)((q * q, step, cin, cells), dt)
                 if staged else None)
        dgrids = None if direct else np.zeros((q * q, step, cin, cells), dt)
        acts = np.empty((step, cin, h, w), dt) if pre is not None and not direct else None
        gpad = np.zeros((step, cout, span), dtype=dt) if d else None  # wrap columns stay 0
        tmp = np.empty((step, cin, span), dtype=dt) if k > 1 else None
        # Row 0 carries the sum of earlier chunks into this chunk's rows 1..m.
        dks = np.empty((step + 1, cout, cin), dtype=dt) if gate is None else None
        masks = None
        if pre is not None:  # batch norm's backward, in the same chunks
            per_sample = np.empty((2, b, cin), dt)
            masks = np.empty((step if gate is None else b, cin, h, w), bool)
        tail = [g] if summed else []  # add_to's gradient, or the gate's parameters'
        if gate is not None:
            dm, tail = gate_backward(g, chunks, grids, acts, masks, dkernel)
            scaled = np.empty((step, cin, cout), dt)  # (W diag v)^T of each sample
        for s, e in chunks:
            m = e - s
            gm = gpad[:m] if d else g[s:e].reshape(m, cout, span)
            if gate is None:
                grid, src = grids_of(s, e, grids, acts)
                if d:
                    gm.reshape(m, cout, hout, wp)[..., :wout] = g[s:e]
                for i, j, n, o in taps:
                    np.matmul(gm, grid[n, :, :, o : o + span].transpose(0, 2, 1),
                              out=dks[1 : m + 1])
                    if s:
                        dks[0] = dkernel[:, :, i, j]
                    dkernel[:, :, i, j] = dks[(s == 0) : m + 1].sum(axis=0)
            if dx is None:
                continue
            dgrid = dx[s:e].reshape(1, m, cin, cells) if direct else dgrids[:, :m]
            if gate is not None:
                np.multiply(kt[0, 0].T, v[s:e, None, :], out=scaled[:m])
                np.matmul(scaled[:m], gm, out=dgrid[0])
                dgrid[0] += (dm[s:e] @ kt[0, 0])[:, :, None]
            elif k == 1:  # the one tap spans the whole grid: its GEMM writes it
                np.matmul(kt[0, 0].T, gm, out=dgrid[0])
            else:
                dgrid[...] = 0
                for i, j, n, o in taps:
                    dgrid[n, :, :, o : o + span] += np.matmul(kt[i, j].T, gm, out=tmp[:m])
            if not direct:
                for grid, xi, gi in phases(dgrid, m):
                    dx[s:e][xi] = grid[gi]
            if pre is not None:  # while the chunk is in cache
                # The ReLU's mask, then x - mean in the activation's place (a
                # gated conv's first pass left the masks and its grids free).
                if gate is not None:
                    src = grids[0, :m].reshape(m, cin, h, w)
                dx[s:e] *= masks[s:e] if gate is not None else np.greater(src, 0, out=masks[:m])
                _sample_sums(dx[s:e], np.subtract(x.data[s:e], mean, out=src), per_sample[:, s:e])
        if pre is None:
            return dx, dkernel, *tail
        sums = per_sample.sum(axis=1)  # in sample order
        del per_sample
        dx, dgamma, dbeta = _normalizer_backward(dx, x.data, mean, sums, *stats[1:], dx)
        return dx, dkernel, dgamma, dbeta, *tail

    return _make(out, parents, conv2d_backward)


def _zero_padded(m: np.ndarray, pad: int) -> np.ndarray:
    """(B, C) m with ``pad`` zero columns on each side."""
    mp = np.zeros((len(m), m.shape[1] + 2 * pad), m.dtype)
    mp[:, pad : pad + m.shape[1]] = m
    return mp


def _channel_pad(kernel: np.ndarray) -> int:
    """(k-1)/2 for a kernel of odd length k; an even one would make the
    strided windows of ``_channel_conv`` read past the padded buffer."""
    k = len(kernel)
    if k % 2 == 0:
        raise ValueError(f"kernel length must be odd, got {k}")
    return (k - 1) // 2


def _channel_conv(m: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Slide one shared odd-length kernel along the channel axis of (B, C),
    zero-padded by (k-1)/2 on each side so the length is kept; no bias."""
    (b, c), k = m.shape, len(kernel)
    mp = _zero_padded(m, _channel_pad(kernel))
    windows = np.lib.stride_tricks.as_strided(mp, (b, c, k), mp.strides + mp.strides[1:])
    return windows @ kernel


def _channel_conv_backward(m: np.ndarray, kernel: np.ndarray, g: np.ndarray) -> tuple:
    """(dm, dkernel) of ``_channel_conv`` for the gradient g at its output."""
    (b, c), k = m.shape, len(kernel)
    pad = _channel_pad(kernel)
    mp = _zero_padded(m, pad)
    dkernel = np.empty_like(kernel)
    dmp = np.zeros((b, c + 2 * pad), dtype=m.dtype)
    for t in range(k):
        dkernel[t] = np.sum(mp[:, t : t + c] * g, dtype=m.dtype)
        dmp[:, t : t + c] += kernel[t] * g
    return (dmp[:, pad : pad + c] if pad else dmp), dkernel


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    so exp never overflows."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def _leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, x * x.dtype.type(0.01))


# kind -> (forward(x), backward(g, x, out)) on arrays, for the attention
# gate's switch and for relu.
_ACTIVATION_RULES = {
    "sigmoid": (_stable_sigmoid, lambda g, x, out: g * out * (1.0 - out)),
    "tanh": (np.tanh, lambda g, x, out: g * (1.0 - out * out)),
    "relu": (lambda x: np.maximum(x, 0), lambda g, x, out: g * (x > 0)),
    "leaky_relu": (_leaky_relu, lambda g, x, out: g * np.where(
        x > 0, x.dtype.type(1.0), x.dtype.type(0.01))),
}
ACTIVATION_KINDS = tuple(_ACTIVATION_RULES)


def relu(x: Tensor) -> Tensor:
    forward, rule = _ACTIVATION_RULES["relu"]
    out = forward(x.data)

    def relu_backward(g):
        return (rule(g, x.data, out),)

    return _make(out, (x,), relu_backward)


# ---------------------------------------------------------------------------
# Normalisation and loss
# ---------------------------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.9, eps: float = 1e-5,
               relu: bool = False, *, inplace: bool = False) -> Tensor:
    """Per-channel normalisation over (B, C) or (B, C, H, W).

    Train mode normalises by batch statistics and folds them into the
    running buffers with the given momentum (in place); eval mode uses the
    running buffers. gamma/beta are (C,) learnable tensors. The variance,
    the normalising pass and backward's scale*g run in ``_CHUNK_BYTES``
    sample chunks, bit for bit the whole-batch result.

    ``relu=True`` returns relu(batch_norm(x)) as one node, bit for bit the
    two-op result: the ReLU runs in place on the output, and backward masks
    the gradient with ``out > 0``, which holds exactly where the
    pre-activation is > 0, so no pre-activation buffer is kept. Where one
    conv alone reads the result, ``conv2d(..., pre=...)`` keeps no output
    at all.

    ``inplace=True`` writes into ``x.data`` when no tape node is recorded
    and allocates as usual otherwise; pass it only for an ``x`` that
    nothing reads after, such as a conv output inside a block.
    """
    step, chunks = _sample_chunks(len(x.data), max(1, x.data[:1].nbytes))
    stats = _normalizer(x, gamma, beta, running_mean, running_var, training, chunks,
                        momentum=momentum, eps=eps)
    pshape = (1, -1) + (1,) * (x.ndim - 2)
    mean, scale = (a.reshape(pshape) for a in (stats[0], stats[2]))
    out = x.data if inplace and not _records((x, gamma, beta)) else np.empty_like(x.data)
    # Subtracting the mean first avoids cancellation and, at gamma=1 and
    # beta=0, rounds like xhat.
    for s, e in chunks:
        part = np.subtract(x.data[s:e], mean, out=out[s:e])
        part *= scale
        part += beta.data.reshape(pshape)
        if relu:
            np.maximum(part, 0, out=part)

    def batch_norm_backward(g):
        if relu:  # the masked g is the rule's own, so the last pass writes dx over it
            g = g * (out > 0)
        xc = np.empty((step,) + x.shape[1:], x.data.dtype)  # x - mean of one chunk
        per_sample = np.empty((2,) + x.shape[:2], x.data.dtype)
        for s, e in chunks:
            _sample_sums(g[s:e], np.subtract(x.data[s:e], mean, out=xc[: e - s]),
                         per_sample[:, s:e])
        sums = per_sample.sum(axis=1)  # in sample order
        per_sample = xc = None  # freed before the last pass takes its scratch
        dx = g if relu else np.empty_like(x.data)
        return _normalizer_backward(g, x.data, mean, sums, *stats[1:], dx)

    return _make(out, (x, gamma, beta), batch_norm_backward)


def _normalizer(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool, chunks: list,
                scratch: np.ndarray | None = None, momentum: float = 0.9,
                eps: float = 1e-5) -> tuple:
    """(mean, inv_std, scale, inv_n) of batch norm over x, per channel,
    once its arguments pass the checks.

    Train mode takes the batch statistics, summed over the shards of this
    context's group, and folds them into the running buffers once per
    batch. The variance squares x - mean one sample chunk of ``chunks`` at
    a time into ``scratch`` (allocated if None) and sums per sample, then
    over the samples in order: bit for bit numpy's whole-batch
    ``square(x - mean).sum``, which adds each sample's pairwise sums in
    sample order. Eval mode uses the running buffers; its statistics do
    not depend on x, so inv_n is 0.
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
    dt = x.data.dtype
    if not training:
        mean, var = running_mean.astype(dt, copy=False), running_var.astype(dt, copy=False)
        inv_std = 1.0 / np.sqrt(var + dt.type(eps))
        return mean, inv_std, gamma.data * inv_std, dt.type(0.0)
    n = x.data.size // c
    if n == 0:
        raise ValueError(f"training batch_norm needs values to normalise, got {x.shape}")
    shard = _shard.get()
    if shard is not None:
        n = n // len(x.data) * shard[0].samples  # values per channel in the whole batch
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    mean = _all_reduce(x.data.sum(axis=axes, dtype=dt)) / n
    centre = mean.reshape((1, c) + (1,) * (x.ndim - 2))
    if scratch is None:
        scratch = np.empty((chunks[0][1],) + x.shape[1:], dt)
    squares = np.empty((len(x.data), c), dt)  # per sample
    for s, e in chunks:
        part = np.subtract(x.data[s:e], centre, out=scratch[: e - s])
        np.square(part, out=part)
        np.sum(part, axis=axes[1:], dtype=dt, out=squares[s:e])
    var = _all_reduce(squares.sum(axis=0, dtype=dt)) / n
    if shard is None or shard[1] == 0:  # one update per batch
        running_mean *= dt.type(momentum)
        running_mean += dt.type(1.0 - momentum) * mean
        running_var *= dt.type(momentum)
        running_var += dt.type(1.0 - momentum) * var
    inv_std = 1.0 / np.sqrt(var + dt.type(eps))
    return mean, inv_std, gamma.data * inv_std, dt.type(1.0 / n)


def _sample_sums(g: np.ndarray, xc: np.ndarray, out: np.ndarray) -> None:
    """The per-sample, per-channel sums of g and of g*xc into out[0] and
    out[1], (2, B, C): added over the samples in order, they are bit for
    bit numpy's whole-batch ``einsum``."""
    dims = list(range(g.ndim))
    np.einsum(g, dims, [0, 1], out=out[0])
    np.einsum(g, dims, xc, dims, [0, 1], out=out[1])


def _normalizer_backward(g: np.ndarray, x: np.ndarray, mean: np.ndarray, sums: np.ndarray,
                         inv_std: np.ndarray, scale: np.ndarray, inv_n,
                         dx: np.ndarray) -> tuple:
    """(dx, dgamma, dbeta) of scale * (x - mean) + beta with ``_normalizer``'s
    statistics (``mean`` shaped to broadcast over x), for the gradient
    ``g`` at that output, given ``sums`` the sums of g and g*xc, xc = x -
    mean, over this shard's samples in order (``_sample_sums``); dgamma and
    dbeta are this shard's share.

    dgamma = inv_std*sum(g*xc), and scale*(g - dbeta/n - xhat*dgamma/n) =
    scale*g + kx*xc - k0 with per-channel kx and k0, from the sums over the
    whole batch. dx goes into ``dx``, which may be g, one sample chunk at
    a time, each taking its xc from x again, so no whole-batch xc is kept.
    """
    pshape = (1, -1) + (1,) * (x.ndim - 2)
    total = _all_reduce(sums)
    kx = (-scale * inv_std * (inv_std * total[1]) * inv_n).reshape(pshape)
    k0 = (scale * total[0] * inv_n).reshape(pshape)
    step, chunks = _sample_chunks(len(x), max(1, x[:1].nbytes))
    tmp = np.empty((step,) + x.shape[1:], x.dtype)  # kx*xc - k0 of one chunk
    for s, e in chunks:
        part = np.subtract(x[s:e], mean, out=tmp[: e - s])
        part *= kx
        part -= k0
        np.multiply(g[s:e], scale.reshape(pshape), out=dx[s:e])
        dx[s:e] += part
    return dx, inv_std * sums[1], sums[0]


def _all_reduce(partial: np.ndarray) -> np.ndarray:
    """Sum of ``partial`` over the shards of this context's group, in shard
    order; ``partial`` itself outside a group."""
    shard = _shard.get()
    return partial if shard is None else shard[0].all_reduce(shard[1], partial)


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
