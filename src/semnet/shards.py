"""The second sample shard, in a forked worker process.

A sharded forward, in training or in eval under ``no_grad``, runs shard 0
on the calling thread and shard 1 in its model's worker process, so the
two shards never take turns on one interpreter lock. Each model has a
worker of its own, forked from the caller at the model's first sharded
forward, which so runs the model as it was then, with the parameter values
of every later step:

* Before the fork the parameters move into one shared anonymous ``mmap``
  (their ``data`` is rebound to views of it), so SGD's in-place updates and
  ``load_state_arrays`` reach the worker with no copy. A ``data`` rebound
  since is copied back in, and the view rebound, at the next step.
* Each step sends shard 1's images, and in training then its rows of the
  logits' gradient, over the model's ``ShardChannel``, one pipe into each
  shard, with the caller's no_grad, debug checks, layer scope and
  errstate; the worker sends back its logits and decision weights, then
  which parameters it reached. It writes their gradients into a second
  shared buffer of the same layout, and
  ``tensor.join_shards`` adds them to shard 0's in shard order. The worker
  keeps the tape of its last recording forward only, so the backward of an
  earlier one raises.
* Training batch norm all-reduces its sums over the same channel. Eval
  batch norm reads the running statistics, which only the caller updates
  (as shard 0 or over a whole batch) and which are not shared: an eval step
  sends the caller's, and the worker writes them into its copies first.
* A shard that raises sends its partner an abort, so the partner raises
  ``ShardAborted`` at its next all-reduce instead of waiting; the caller
  raises the first error in shard order that is not ``ShardAborted``, or
  ``errors.WorkerLost`` if the worker died mid-step.

Each live model that has taken a sharded step keeps one worker, so a step
of one model never disturbs a pending step of another, on any thread. A
worker is killed and reaped when its model is collected, when
``close_worker`` or ``close_worker_of`` is called, when a step finds it
dead or stops waiting for it (^C), and at interpreter exit. It exits
within ``_POLL_S`` once its parent process is gone, whichever thread
forked it. Each process closes the pipe ends it does not use, so a dead
worker's pipe reports an end of file to the caller. A worker forked while
another is alive inherits the caller's ends of that one's pipes and
``ShardWorker``, so a worker is never shut down by an end of file, only
killed and reaped, and it leaves only through ``os._exit``, which runs no
finalizer that could kill a sibling. No other process or thread is
started.

Sharding needs ``os.fork`` and ``select.poll`` and is tested on x86-64
only; elsewhere ``AVAILABLE`` is false and every forward keeps the whole
batch.
"""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import platform
import select
import signal
import struct
import threading
import time
import weakref

import numpy as np

from .errors import WorkerLost
from .tensor import Tensor, _check_finite, _grad_enabled, _layer, _set, _sweep, in_shard

# One shard's partial of one all-reduce, 2 x 2,048 float64 sums: its frame
# fits an empty pipe (64 KiB on Linux).
_PARTIAL_BYTES = 1 << 15
# Whether a forward may run its second shard in a worker, which is forked.
# Machines other than x86-64 are untested, so they keep the whole batch.
AVAILABLE = (hasattr(os, "fork") and hasattr(select, "poll")
             and platform.machine().lower() in ("x86_64", "amd64"))
_SPIN_S = 2e-4  # how long a shard polls its pipe without blocking before it blocks
_POLL_S = 1.0  # how often a blocked shard checks that its partner is alive
_HEADER = struct.Struct("<BQ")  # a frame's kind and body length
_PARTIAL, _ABORT, _MESSAGE = range(3)  # frame kinds


class ShardAborted(RuntimeError):
    """A partner shard failed or is gone; raised at an all-reduce."""


class ShardChannel:
    """Shards 0 and 1's ordered channel: one pipe into each, shared by two
    forked processes or two threads, whose frames are all-reduce partials,
    aborts and pickled messages (a step's request and reply).

    Each shard writes its partial into its partner's pipe and reads the
    partner's from its own; both then add shard 0's + shard 1's, so both get
    the same bits. Both write before they read, so one partial's frame must
    fit an empty pipe. A reply is the worker's last frame of a run, so a
    shard that waits for a message skips only the partials and aborts that a
    failed run left ahead of it.
    """

    def __init__(self):
        self.samples = 0  # in the whole batch, for training batch norm
        self._pipes = (os.pipe(), os.pipe())  # (read, write) of the pipe into shard 0, shard 1
        self._open = self._pipes[0] + self._pipes[1]
        self._pollers = (select.poll(), select.poll())
        for (read, _), poller in zip(self._pipes, self._pollers):
            poller.register(read, select.POLLIN)
        self.partner_alive = lambda: True

    def keep(self, index: int) -> None:
        """Close the pipe ends that only shard ``1 - index`` uses, in a
        process that runs shard ``index`` alone."""
        (read, _), (_, write) = self._pipes[index], self._pipes[1 - index]
        for fd in self._open:
            if fd not in (read, write):
                os.close(fd)
        self._open = read, write

    def all_reduce(self, index: int, partial: np.ndarray) -> np.ndarray:
        """Both shards' ``partial`` summed in shard order, a fresh array."""
        partial = np.ascontiguousarray(partial)
        if partial.nbytes > _PARTIAL_BYTES:
            raise ValueError(f"an all-reduce of {partial.nbytes} bytes exceeds {_PARTIAL_BYTES}")
        try:
            self._write(1 - index, _PARTIAL, partial.tobytes())
            theirs = self._read(index, _PARTIAL)
        except (BrokenPipeError, EOFError) as exc:
            raise ShardAborted("a partner shard's process is gone") from exc
        theirs = np.frombuffer(theirs, partial.dtype).reshape(partial.shape)
        return partial + theirs if index == 0 else theirs + partial

    def abort(self, index: int) -> None:
        """Make shard ``1 - index``'s current or next all-reduce raise
        ``ShardAborted``."""
        try:
            self._write(1 - index, _ABORT, b"")
        except BrokenPipeError:  # the partner is gone already
            pass

    def send(self, index: int, obj) -> None:
        """Send ``obj`` from shard ``index`` to its partner."""
        self._write(1 - index, _MESSAGE, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def receive(self, index: int):
        """The next message to shard ``index``."""
        return pickle.loads(self._read(index, _MESSAGE))

    def _write(self, index: int, kind: int, body: bytes) -> None:
        view = memoryview(_HEADER.pack(kind, len(body)) + body)
        while view:
            view = view[os.write(self._pipes[index][1], view):]

    def _read(self, index: int, kind: int) -> bytearray:
        fd = self._pipes[index][0]
        while True:
            self._wait(index)
            got, n = _HEADER.unpack(_read_exact(fd, _HEADER.size))
            body = _read_exact(fd, n)
            if got == kind:
                return body
            if kind == _PARTIAL:
                raise ShardAborted("a partner shard failed")
            # Otherwise a partial or an abort that a failed run left ahead.

    def _wait(self, index: int) -> None:
        """Return once shard ``index``'s pipe has a byte or an end of file."""
        poller = self._pollers[index]
        spin_until = time.perf_counter() + _SPIN_S
        while not poller.poll(0):
            if time.perf_counter() >= spin_until:
                while not poller.poll(_POLL_S * 1000):
                    if not self.partner_alive():
                        raise ShardAborted("a partner shard's process is gone")
                return

    def close(self) -> None:
        for fd in self._open:
            os.close(fd)
        self._open = ()


def _shared_like(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Zeroed arrays shaped like ``arrays``, views of one shared anonymous
    ``mmap``, each 64-byte aligned."""
    offsets, total = [], 0
    for a in arrays:
        total = -(-total // 64) * 64
        offsets.append(total)
        total += a.nbytes
    buf = mmap.mmap(-1, max(total, 1))
    return [np.frombuffer(buf, a.dtype, a.size, off).reshape(a.shape)
            for a, off in zip(arrays, offsets)]


def _read_exact(fd: int, n: int) -> bytearray:
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if k == 0:
            raise EOFError("the other end of the pipe is closed")
        got += k
    return buf


def _modes() -> tuple:
    """The caller's context modes that a shard's ops read."""
    return _grad_enabled.get(), _check_finite.get(), _layer.get(), np.geterr()


class ShardWorker:
    """Shard 1 of one model's sharded forwards and of the training ones'
    reverse sweeps, run in a process forked from this one (see the module
    docstring)."""

    def __init__(self, model, params: list[Tensor]):
        self.params = params
        self.views = _shared_like([p.data for p in params])
        for p, view in zip(params, self.views):
            view[...] = p.data
            p.data = view
        self.grads = _shared_like(self.views)
        self.link = ShardChannel()
        self.step = 0
        self._lock = threading.Lock()
        parent = os.getpid()
        # The worker's collections never walk, and so never copy, the pages
        # of the objects it inherits (8 MiB less PSS at depth 164).
        gc.freeze()
        try:
            # The worker keeps only this thread: semnet starts no other.
            pid = os.fork()
        except BaseException:
            gc.unfreeze()
            self.link.close()
            raise
        if pid == 0:  # the worker: never returns to the caller's code
            code = 1
            try:
                self.link.keep(1)
                _serve(model, self, parent)
                code = 0
            finally:
                os._exit(code)
        gc.unfreeze()
        self.link.keep(0)
        self.pid = pid
        self._reaped = False  # once reaped, its pid may be another process's
        self.link.partner_alive = self.alive
        self._finalizer = weakref.finalize(model, self.close)

    def alive(self) -> bool:
        """Whether the worker process is still running; reaps it if not."""
        if self.pid is None or self._reaped:
            return False
        self._reaped = os.waitpid(self.pid, os.WNOHANG) != (0, 0)
        return not self._reaped

    def serves(self, params: list[Tensor]) -> bool:
        """Whether this worker runs these parameter Tensors, each still of
        its shape and dtype, and is alive."""
        return (len(params) == len(self.params)
                and all(p is q and p.data.shape == v.shape and p.data.dtype == v.dtype
                        for p, q, v in zip(params, self.params, self.views))
                and self.alive())

    def forward(self, model, local, x: np.ndarray, training: bool, capture: bool,
                samples: int):
        """Run ``local()`` (shard 0's forward) as shard 0 while the worker
        runs ``model``, its own, on ``x``, in eval with the caller's batch
        norm running statistics; returns (local's result, shard 1's logits,
        its decision weights or None, ``sweep_rest``).

        ``sweep_rest(sweep, g)``, for ``tensor.join_shards``, runs ``sweep``
        (shard 0's reverse sweep) as shard 0 while the worker sweeps this
        step's shard 1 from ``g``, and returns shard 1's gradient for each
        parameter, None where it has none.
        """
        for p, view in zip(self.params, self.views):
            if p.data is not view:  # rebound since the last step
                view[...] = p.data
                p.data = view
        self.step += 1
        step = self.step
        buffers = None if training else [b for _, b in model.named_buffers()]
        mine, (logits, decisions) = self._run(local, ("forward", step, samples,
                                                      (x, training, capture, buffers)))

        def sweep_rest(sweep, g, model=model):  # the model, so its worker, outlives the tape
            _, reached = self._run(sweep, ("backward", step, samples, g))
            reached = set(reached)
            return [g if i in reached else None for i, g in enumerate(self.grads)]

        return mine, logits, decisions, sweep_rest

    def _run(self, local, request) -> tuple:
        with self._lock:
            if self.pid is None:
                raise RuntimeError("the shard worker was closed")
            link = self.link
            link.samples = request[2]
            try:
                link.send(0, request + (_modes(),))
            except BaseException as exc:
                self._lost(exc, None)
            mine = error = None
            try:
                with in_shard(link, 0):
                    mine = local()
            except BaseException as exc:  # re-raised once the worker has replied
                link.abort(0)
                error = exc
            try:
                status, theirs = link.receive(0)
            except BaseException as exc:  # ^C here, or the worker died mid-step
                self._lost(exc, error)
        if error is not None and not isinstance(error, ShardAborted):
            raise error
        if status == "error":
            raise theirs
        if error is not None:  # shard 0 found its partner gone
            raise WorkerLost("the shard worker was lost") from error
        return mine, theirs

    def _lost(self, exc: BaseException, error: BaseException | None) -> None:
        """Close the worker, whose request or reply failed with ``exc``
        (after shard 0's ``error``, if any), and raise: ``WorkerLost`` if
        the worker is gone."""
        self._shut()
        if isinstance(exc, (EOFError, BrokenPipeError, ShardAborted)):
            raise WorkerLost("the shard worker exited") from (error or exc)
        raise exc

    def close(self) -> None:
        """Kill and reap the worker process; idempotent."""
        with self._lock:
            self._shut()

    def _shut(self) -> None:
        """``close`` for a caller that holds ``_lock``."""
        pid, self.pid = self.pid, None
        if pid is None:
            return
        self._finalizer.detach()
        self.link.close()
        if not self._reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(model, worker: ShardWorker, parent: int) -> None:
    """The worker's loop: one reply per request until the pipe closes or,
    checked every ``_POLL_S`` while it waits, the parent is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles ^C
    link = worker.link
    link.partner_alive = lambda: os.getppid() == parent
    index = {id(p): i for i, p in enumerate(worker.params)}
    tape = None  # (step, logits) of the last recording forward
    while True:
        try:
            kind, step, samples, payload, (grad, check, layer, errs) = link.receive(1)
        except (EOFError, ShardAborted):
            return
        link.samples = samples
        try:
            with _set(_grad_enabled, grad), _set(_check_finite, check), _set(_layer, layer), \
                    np.errstate(**errs), in_shard(link, 1):
                if kind == "forward":
                    if grad:  # an untaped forward, eval's say, keeps the tape
                        tape = None
                    x, training, capture, buffers = payload
                    if buffers is not None:
                        for (_, own), theirs in zip(model.named_buffers(), buffers):
                            own[...] = theirs
                    decisions = [] if capture else None
                    out = model(Tensor(x), training=training, decisions=decisions)
                    if grad:
                        tape = step, out
                    answer = out.data, decisions
                else:
                    if tape is None or tape[0] != step:
                        raise RuntimeError(f"shard 1 holds no tape of step {step}: a later "
                                           "forward replaced it")
                    out, tape = tape[1], None
                    sink = {}
                    _sweep(out, payload, sink)
                    answer = []
                    for leaf, g in sink.items():
                        i = index.get(id(leaf))
                        # As in shard 0, only the parameters get gradients.
                        if i is not None:
                            worker.grads[i][...] = g
                            answer.append(i)
            reply = ("ok", answer)
        except BaseException as exc:
            link.abort(1)
            reply = ("error", exc)
        try:
            link.send(1, reply)
        except (pickle.PicklingError, TypeError, AttributeError):
            link.send(1, ("error", RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))


# Each live model's worker; an entry goes when its model is collected.
_workers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_workers_lock = threading.Lock()


def forward(model, params: list[Tensor], local, x: np.ndarray, training: bool,
            capture: bool, samples: int):
    """``ShardWorker.forward`` of ``model``'s worker, forked now if the
    model has no live worker that runs these parameters."""
    with _workers_lock:
        worker = _workers.get(model)
        if worker is None or not worker.serves(params):
            if worker is not None:
                worker.close()
            _workers[model] = worker = ShardWorker(model, params)
    return worker.forward(model, local, x, training, capture, samples)


def close_worker_of(model) -> None:
    """Kill and reap ``model``'s worker, if it has one; its next sharded
    step forks a new one. Other models keep theirs."""
    with _workers_lock:
        worker = _workers.pop(model, None)
    if worker is not None:
        worker.close()


def close_worker() -> None:
    """Kill and reap every live worker; each model's next sharded step
    forks a new one."""
    with _workers_lock:
        workers = list(_workers.values())
        _workers.clear()
    for worker in workers:
        worker.close()
