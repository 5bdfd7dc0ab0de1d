"""Outside-in tracer: spans around calls into semnet's public functions.

Nothing in ``semnet`` is edited. The tracer replaces functions at the
places the program looks them up (``semnet.backbone.conv2d``,
``semnet.training.backward``, ``Model.__call__``, ``SGD.step``, ...) with
wrappers that record a span per call and restores them on ``uninstall``.

Backward time is attributed through the tape: after each forward pass the
tracer walks the graph between every composite call's output and its
inputs (each attention gate, then each block, then the head and the stem)
and wraps each node's backward rule in a timer tagged with the layer. The
op is the backward rule's own name (``conv2d_backward`` -> ``conv2d``).
Wrapping changes no arithmetic, so traced losses equal untraced ones bit
for bit.

Spans are kept in memory as ``[name, layer, start, end, parent, extra]``
and summarised per step by ``summarize``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import semnet.attention
import semnet.backbone
import semnet.data
import semnet.optim
import semnet.training

TENSOR_OPS = ("conv2d", "batch_norm", "relu", "add", "affine", "softmax_cross_entropy")
BACKBONE_LAYERS = ("stem", "stage1", "stage2", "stage3", "head")

# (owner, attribute, span name) of plain calls timed as one span each.
_CALLS = [
    (semnet.training, "load_datasets", "data.load"),
    (semnet.data, "compute_channel_stats", "data.stats"),
    (semnet.training, "build_network", "backbone.build"),
    (semnet.training, "backward", "backward"),
    (semnet.training, "write_checkpoint", "checkpoint.write"),
    (semnet.training, "read_checkpoint", "checkpoint.read"),
    (semnet.optim.SGD, "step", "optim.step"),
    (semnet.optim.SGD, "zero_grad", "optim.zero_grad"),
]
# Tensor ops at the backbone's import site; softmax cross-entropy at the
# training loop's.
_OPS = [(semnet.backbone, op) for op in TENSOR_OPS[:-1]] + [
    (semnet.training, "softmax_cross_entropy")]


class NullTracer:
    """Tracing off: spans cost one attribute lookup and do nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name, layer=None, extra=None):
        return self._null

    def watch_model(self, model):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._block_stage: dict[int, str] = {}
        self._tagged: set[int] = set()
        self._pending: list[tuple] = []   # (output, input, layer, is_attention)
        self._current_stage: str | None = None
        self._block_cls = None

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, layer=None, extra=None):
        rec = [name, layer, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def set_installed(self, on: bool) -> None:
        if on != self.installed:
            self.install() if on else self.uninstall()

    def install(self) -> None:
        for owner, attr, name in _CALLS:
            self._patch(owner, attr, self._timed_call(getattr(owner, attr), name))
        for owner, op in _OPS:
            self._patch(owner, op, self._timed_op(getattr(owner, op), op))
        self._patch(semnet.data, "batch_iterator",
                    self._timed_generator(semnet.data.batch_iterator, "data.batch"))
        self._patch(semnet.attention, "sem_forward",
                    self._timed_attention(semnet.attention.sem_forward))
        self._patch(semnet.backbone.Model, "__call__",
                    self._timed_model(semnet.backbone.Model.__call__))
        if self._block_cls is not None:
            self._patch(self._block_cls, "__call__",
                        self._timed_block(self._block_cls.__call__))

    def watch_model(self, model) -> None:
        """Map each block to its stage and time the block class's calls."""
        for s, blocks in enumerate(model.stages):
            for block in blocks:
                self._block_stage[id(block)] = f"stage{s + 1}"
        self._block_cls = type(model.stages[0][0])
        self._patch(self._block_cls, "__call__", self._timed_block(self._block_cls.__call__))

    def uninstall(self) -> None:
        """Restore every patched function; ``install`` may follow again."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _timed_call(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _timed_op(self, fn, op):
        name = "fwd." + op

        def wrapper(*args, **kwargs):
            extra = _conv_work(args, kwargs) if op == "conv2d" else None
            with self.span(name, extra=extra):
                out = fn(*args, **kwargs)
            if op == "softmax_cross_entropy":
                self._tag(out, args[0], "loss", False)
            return out
        return wrapper

    def _timed_generator(self, fn, name):
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(items, None)
                if item is None:
                    return
                yield item
        return wrapper

    def _timed_attention(self, fn):
        def wrapper(x, params, **kwargs):
            with self.span("fwd.attention"):
                out = fn(x, params, **kwargs)
            self._pending.append((out, x, self._current_stage, True))
            return out
        return wrapper

    def _timed_block(self, fn):
        def wrapper(block, x, *args, **kwargs):
            stage = self._block_stage[id(block)]
            self._current_stage = stage
            with self.span("block", stage):
                out = fn(block, x, *args, **kwargs)
            self._pending.append((out, x, stage, False))
            return out
        return wrapper

    def _timed_model(self, fn):
        def wrapper(model, x, *args, **kwargs):
            # The last step's graph is gone, so its node ids may be reused.
            self._tagged.clear()
            self._pending.clear()
            with self.span("model"):
                out = fn(model, x, *args, **kwargs)
            # Gates first, so their nodes keep the attention tag when the
            # enclosing block is walked.
            gates = [p for p in self._pending if p[3]]
            blocks = [p for p in self._pending if not p[3]]
            for node, node_input, layer, attention in gates + blocks:
                self._tag(node, node_input, layer, attention)
            if blocks:
                self._tag(out, blocks[-1][0], "head", False)
                self._tag(blocks[0][1], x, "stem", False)
            self._pending.clear()
            return out
        return wrapper

    # -- backward attribution ----------------------------------------------

    def _tag(self, out, stop, layer: str, attention: bool) -> None:
        """Time the backward rule of every graph node from ``out`` down to
        (not including) ``stop`` that no earlier walk of this step tagged."""
        stack = [out]
        seen = {id(stop)}
        while stack:
            node = stack.pop()
            key = id(node)
            if key in seen or node._backward is None:
                continue
            seen.add(key)
            if key not in self._tagged:
                self._tagged.add(key)
                op = node._backward.__name__.removesuffix("_backward")
                name = "bwd.attention" if attention else "bwd." + op
                node._backward = self._timed_backward(node._backward, name, layer)
            stack.extend(node._parents)

    def _timed_backward(self, fn, name, layer):
        spans = self.spans
        stack = self._stack

        def timed(grad):
            start = time.perf_counter()
            result = fn(grad)
            spans.append([name, layer, start, time.perf_counter(), stack[-1], None])
            return result
        return timed

    # -- summaries ----------------------------------------------------------

    def summarize(self) -> list[tuple[dict, dict]]:
        """(times, counts) of every traced step, from its span subtree."""
        children = defaultdict(list)
        for i, rec in enumerate(self.spans):
            children[rec[4]].append(i)
        return [self._subtree_metrics(i, children)
                for i, rec in enumerate(self.spans) if rec[0] == "step"]

    def _subtree_metrics(self, root: int, children) -> tuple[dict, dict]:
        times = defaultdict(float)
        counts = defaultdict(int)
        times["step_s"] = self.spans[root][3] - self.spans[root][2]
        todo = list(children[root])
        while todo:
            i = todo.pop()
            todo.extend(children[i])
            name, layer, start, end, _, extra = self.spans[i]
            dur = end - start
            if name.startswith("fwd."):
                op = name[4:]
                prefix = "attention" if op == "attention" else "tensor." + op
                times[prefix + ".fwd_s"] += dur
                counts[prefix + ".calls"] += 1
                if extra:
                    counts["conv.flop"] += extra[0]
                    counts["conv.cols_bytes"] += extra[1]
            elif name.startswith("bwd."):
                op = name[4:]
                counts["tensor.tape_nodes"] += 1
                if op == "attention":
                    times["attention.bwd_s"] += dur
                    counts["attention.nodes"] += 1
                elif op in TENSOR_OPS:
                    times[f"tensor.{op}.bwd_s"] += dur
                if layer in BACKBONE_LAYERS:
                    times[f"backbone.{layer}.bwd_s"] += dur
                times["bwd_nodes_s"] += dur
            elif name == "model":
                blocks = sorted((self.spans[c] for c in children[i]
                                 if self.spans[c][0] == "block"), key=lambda r: r[2])
                if blocks:
                    times["backbone.stem.fwd_s"] += blocks[0][2] - start
                    times["backbone.head.fwd_s"] += end - blocks[-1][3]
                for b in blocks:
                    times[f"backbone.{b[1]}.fwd_s"] += b[3] - b[2]
            elif name == "backward":
                times["tensor.backward_s"] += dur
            elif name in ("optim.step", "optim.zero_grad", "data.batch"):
                times[name + "_s"] += dur
        times["tensor.backward.engine_s"] = (times["tensor.backward_s"]
                                             - times.pop("bwd_nodes_s", 0.0))
        return dict(times), dict(counts)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r[3] - r[2] for r in self.spans if r[0] == name)


def _conv_work(args, kwargs) -> tuple[int, int]:
    """(forward FLOPs, im2col bytes) of one conv2d call, from shapes only."""
    x, kernel = args[0], args[1]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    pad = kwargs.get("pad", args[3] if len(args) > 3 else 0)
    b, cin, h, w = x.shape
    cout, _, k, _ = kernel.shape
    hout = (h + 2 * pad - k) // stride + 1
    wout = (w + 2 * pad - k) // stride + 1
    col_elems = b * cin * k * k * hout * wout
    return 2 * col_elems * cout, col_elems * x.data.itemsize
