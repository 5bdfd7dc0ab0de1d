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
  logits' gradient, over a pipe, with the caller's no_grad, debug checks,
  layer scope and errstate; the worker sends back its logits and decision
  weights, then which parameters it reached. It writes their gradients
  into a second shared buffer of the same layout, and
  ``tensor.join_shards`` adds them to shard 0's in shard order. The worker
  keeps the tape of its last recording forward only, so the backward of an
  earlier one raises.
* Training batch norm all-reduces its sums through ``SharedReduce``. Eval
  batch norm reads the running statistics, which only the caller updates
  (as shard 0 or over a whole batch) and which are not shared: an eval step
  sends the caller's, and the worker writes them into its copies first.
* A shard that raises aborts the reduce, so its partner raises
  ``ShardAborted`` at its next all-reduce instead of waiting; the caller
  raises the first error in shard order that is not ``ShardAborted``.

Each live model that has taken a sharded step keeps one worker, so a step
of one model never disturbs a pending step of another, on any thread. A
worker is killed and reaped when its model is collected, when
``close_worker`` or ``close_worker_of`` is called, when a step finds it
dead or stops waiting for it (^C), and at interpreter exit. It exits
within ``_POLL_S`` once its parent process is gone, whichever thread
forked it. A worker forked while another is alive inherits that one's pipe
ends and ``ShardWorker``, so a worker is never shut down by an end of file,
only killed and reaped, and it leaves only through ``os._exit``, which runs
no finalizer that could kill a sibling. No other process or thread is
started.

Sharding needs ``os.fork`` and x86-64's store order (see ``_wait``);
elsewhere ``AVAILABLE`` is false and every forward keeps the whole batch.
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

from .tensor import Tensor, _check_finite, _grad_enabled, _layer, _set, _sweep, in_shard

_SLOT_BYTES = 1 << 16  # one shard's partial of one all-reduce: 2 x 4,096 float64 sums
# Whether a forward may run its second shard in a worker: the worker is
# forked, and a shard reads its partner's slot as soon as it sees the
# partner's count, which only a machine that keeps stores in program order
# (x86-64) makes safe without a memory barrier.
AVAILABLE = (hasattr(os, "fork") and hasattr(select, "poll")
             and platform.machine().lower() in ("x86_64", "amd64"))
_SPIN_S = 2e-4  # how long a shard spins on its partner's count before it blocks
_POLL_S = 1.0  # how often a blocked shard checks that its partner is alive
_HEADER = struct.Struct("<Q")


class ShardAborted(RuntimeError):
    """A partner shard failed or is gone; raised at an all-reduce."""


class SharedReduce:
    """Sums of the partials of shards 0 and 1, which share its anonymous
    ``mmap``: two forked processes, or two threads.

    Each shard writes its partial into its slot of the round's buffer,
    raises its published count and waits, spinning for ``_SPIN_S`` and then
    blocking on its wake pipe, until its partner's count has reached the
    round. Both then add slot 0 + slot 1, so both get the same bits. Rounds
    alternate between two buffers: a shard writes a buffer again only after
    its partner has published the next round, so after it has read this one.
    """

    def __init__(self):
        self.samples = 0  # in the whole batch, for training batch norm
        self._buf = mmap.mmap(-1, 24 + 2 * 2 * _SLOT_BYTES)
        # Shard 0's and shard 1's published counts, then the abort flag.
        self._counts = memoryview(self._buf)[:24].cast("q")
        self._slots = np.frombuffer(self._buf, np.uint8, offset=24).reshape(2, 2, _SLOT_BYTES)
        self._wake = (os.pipe(), os.pipe())  # (read, write) that wakes shard 0, shard 1
        self._pollers = (select.poll(), select.poll())
        for (read, write), poller in zip(self._wake, self._pollers):
            os.set_blocking(write, False)
            poller.register(read, select.POLLIN)
        self._rounds = [0, 0]  # this process's rounds, per shard
        self.partner_alive = lambda: True

    def begin(self, samples: int, clear: bool) -> None:
        """Start a run over a batch of ``samples``; ``clear`` zeroes the
        shared counts and abort flag, which only the shard that starts the
        run may do, while its partner is idle."""
        self.samples = samples
        self._rounds = [0, 0]
        if clear:
            for i in range(3):
                self._counts[i] = 0

    def all_reduce(self, index: int, partial: np.ndarray) -> np.ndarray:
        """Both shards' ``partial`` summed in shard order, a fresh array."""
        partial = np.ascontiguousarray(partial)
        if partial.nbytes > _SLOT_BYTES:
            raise ValueError(f"an all-reduce of {partial.nbytes} bytes exceeds {_SLOT_BYTES}")
        self._rounds[index] = r = self._rounds[index] + 1
        slots = self._slots[r % 2, :, : partial.nbytes]
        slots[index] = partial.reshape(-1).view(np.uint8)
        self._counts[index] = r
        self._wake_up(1 - index)
        self._wait(index, r)
        first, second = (s.view(partial.dtype).reshape(partial.shape) for s in slots)
        return first + second

    def abort(self) -> None:
        """Make both shards' current or next wait raise ``ShardAborted``."""
        self._counts[2] = 1
        self._wake_up(0)
        self._wake_up(1)

    def _wake_up(self, index: int) -> None:
        try:
            os.write(self._wake[index][1], b"\0")
        except BlockingIOError:  # the pipe is full of wake-ups already
            pass

    def _wait(self, index: int, r: int) -> None:
        # The partner stored its slot before its count, and x86-64 keeps
        # stores, and loads, in program order: once this shard sees the
        # count it reads the slot's new bytes (see ``AVAILABLE``).
        counts, partner = self._counts, 1 - index
        spin_until = time.perf_counter() + _SPIN_S
        while True:
            if counts[partner] >= r:
                return
            if counts[2]:
                raise ShardAborted("a partner shard failed")
            if time.perf_counter() < spin_until:
                continue
            # A wake-up left over from a round the spin caught only loops.
            if self._pollers[index].poll(_POLL_S * 1000):
                os.read(self._wake[index][0], 1 << 16)
            elif not self.partner_alive():
                raise ShardAborted("a partner shard's process is gone")

    def close(self) -> None:
        for fds in self._wake:
            for fd in fds:
                os.close(fd)
        self._wake = ()


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


def _send(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytearray:
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if k == 0:
            raise EOFError("the other end of the pipe is closed")
        got += k
    return buf


def _receive(fd: int):
    (n,) = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    return pickle.loads(_read_exact(fd, n))


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
        self.link = SharedReduce()
        self.step = 0
        self._lock = threading.Lock()
        requests, replies = os.pipe(), os.pipe()
        parent = os.getpid()
        # The worker's collections never walk, and so never copy, the pages
        # of the objects it inherits (8 MiB less PSS at depth 164).
        gc.freeze()
        try:
            # The worker keeps only this thread: semnet starts no other.
            pid = os.fork()
        except BaseException:
            gc.unfreeze()
            raise
        if pid == 0:  # the worker: never returns to the caller's code
            code = 1
            try:
                os.close(requests[1])
                os.close(replies[0])
                _serve(model, self, requests[0], replies[1], parent)
                code = 0
            finally:
                os._exit(code)
        gc.unfreeze()
        os.close(requests[0])
        os.close(replies[1])
        self.pid, self._requests, self._replies = pid, requests[1], replies[0]
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
            self.link.begin(request[2], clear=True)
            try:
                _send(self._requests, request + (_modes(),))
            except BaseException as exc:
                self._lost(exc, None)
            mine = error = None
            try:
                with in_shard(self.link, 0):
                    mine = local()
            except BaseException as exc:  # re-raised once the worker has replied
                self.link.abort()
                error = exc
            try:
                status, theirs = _receive(self._replies)
            except BaseException as exc:  # ^C here, or the worker died mid-step
                self._lost(exc, error)
        if error is not None and not isinstance(error, ShardAborted):
            raise error
        if status == "error":
            raise theirs
        if error is not None:
            raise error
        return mine, theirs

    def _lost(self, exc: BaseException, error: BaseException | None) -> None:
        """Close the worker, whose request or reply failed with ``exc``
        (after shard 0's ``error``, if any), and raise."""
        self._shut()
        if isinstance(exc, (EOFError, BrokenPipeError)):
            raise RuntimeError("the shard worker exited") from (error or exc)
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
        os.close(self._requests)
        os.close(self._replies)
        self.link.close()
        if not self._reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(model, worker: ShardWorker, requests: int, replies: int, parent: int) -> None:
    """The worker's loop: one reply per request until the pipe closes or,
    checked every ``_POLL_S`` while idle, the parent is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles ^C
    link = worker.link
    link.partner_alive = lambda: os.getppid() == parent
    idle = select.poll()
    idle.register(requests, select.POLLIN)
    index = {id(p): i for i, p in enumerate(worker.params)}
    tape = None  # (step, logits) of the last recording forward
    while True:
        while not idle.poll(_POLL_S * 1000):
            if not link.partner_alive():
                return
        try:
            kind, step, samples, payload, (grad, check, layer, errs) = _receive(requests)
        except EOFError:
            return
        link.begin(samples, clear=False)
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
            link.abort()
            reply = ("error", exc)
        try:
            _send(replies, reply)
        except (pickle.PicklingError, TypeError, AttributeError):
            _send(replies, ("error", RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))


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
