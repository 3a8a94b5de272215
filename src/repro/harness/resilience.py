"""Fault-isolated task dispatcher for the experiment harness.

The seed executor drove a persistent ``Pool.map``: one hung simulation
blocked the suite forever, a worker killed by the OOM killer aborted
the whole campaign with nothing to show, and there was no notion of a
partially-complete suite.  This module replaces it with a dispatcher
built for graceful degradation:

* **One duplex pipe per worker, no shared queues.**  Tasks go down a
  worker's pipe; results come back up the same pipe; worker death is
  observed via the process *sentinel* in the same
  :func:`multiprocessing.connection.wait` call that collects results.
  A SIGKILLed worker can never leave a shared lock held (there is
  none) and never wedges the parent.
* **Batched (chunked) dispatch.**  Short cells used to pay one pipe
  round-trip each; :meth:`ResilientPool.run` now sends each worker a
  *chunk* of tasks per message, sized by factoring: each idle worker
  takes half its even share of the fresh backlog, so chunks shrink as
  the queue drains, and a chunk never spans two affinity keys
  (a ``chunk`` argument fixes the size instead).  The worker
  streams **one result per cell** back up the pipe as it finishes, so
  per-cell statuses, timeout accounting, and interrupt reporting are
  unchanged — the chunk is a transport optimisation, not a unit of
  failure.  The cell a worker is executing is always the first chunk
  member without a result (cells run in order), which is how a
  mid-chunk death is attributed to the right cell: finished
  chunk-mates keep their results, the in-flight cell is retried or
  failed, and not-yet-started chunk-mates are re-queued with no
  attempt penalty.  Cells on their retry attempt are dispatched alone
  so a hard-crashing cell cannot repeatedly evict innocent
  chunk-mates.
* **Per-cell timeouts.**  Every in-flight cell carries a deadline
  (the ``timeout`` argument; zero or less is no limit); a cell past
  its deadline has its worker killed, the cell is recorded as
  ``timeout``, and a replacement worker is spawned.
* **Crash isolation + retries.**  A worker that dies mid-cell
  (segfault, ``os._exit``, OOM kill) is detected, the pool is
  replenished, and the cell is retried with capped exponential
  backoff (``retries`` attempts beyond the first) — transient faults
  recover, hard faults end as a ``failed`` cell, and the rest of the
  suite is unaffected either way.
* **Typed outcomes.**  Every task ends as a :class:`TaskOutcome`
  carrying a :class:`CellStatus` (``ok | failed | timeout | cached``)
  and, for failures, a :class:`CellFailure` with the kind, message,
  traceback and (for in-worker exceptions) the crash-diagnostic
  bundle produced by :mod:`repro.harness.diagnostics`.
* **Clean interruption.**  Ctrl-C kills the pool, and
  :class:`SuiteInterrupted` (a ``KeyboardInterrupt`` subclass)
  reports exactly which cells finished — results already handed to
  ``on_complete`` (the cache-flush hook) are durable.  Any other
  exception that escapes a run, such as an ``OSError`` from
  ``on_complete``, also kills the pool before it propagates, so the
  next run never collects a stale result.

Callers go through :func:`run_tasks`, which uses the pool only for
``workers > 1``.  Otherwise it calls each task's function in this
process and maps its result through the same :func:`task_outcome` as
:meth:`ResilientPool._collect`, so a failing task is the same
:class:`TaskOutcome` at every worker count.

Determinism: the dispatcher never reorders *results* — outcomes are
keyed by task id and assembled in submission order by the caller — so
a fault-free run remains bit-identical to the serial reference
regardless of completion order, retries, or pool size.
"""

from __future__ import annotations

import atexit
import enum
import itertools
import multiprocessing
import multiprocessing.connection
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence

__all__ = ["CellFailure", "CellStatus", "ResilientPool", "SuiteInterrupted",
           "TaskOutcome", "TaskSpec", "exception_failure", "get_pool",
           "run_tasks", "shutdown_pools"]


class CellStatus(str, enum.Enum):
    """Per-cell terminal status (JSON-serializable, compares to str)."""

    OK = "ok"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CACHED = "cached"

    def __str__(self) -> str:          # "ok", not "CellStatus.OK"
        return self.value


@dataclass
class CellFailure:
    """Why a cell did not produce stats."""

    #: "crash" (worker died), "timeout", "exception" (in-worker raise),
    #: or "dependency" (its profile cell failed upstream)
    kind: str
    message: str
    traceback: str = ""
    exitcode: Optional[int] = None
    attempts: int = 1
    #: path of the crash-diagnostic bundle, once written by the parent
    bundle: Optional[str] = None
    #: in-worker bundle payload awaiting a parent-side write
    bundle_data: Optional[dict] = None

    def summary(self) -> str:
        text = f"{self.kind}: {self.message}"
        if self.attempts > 1:
            text += f" (after {self.attempts} attempts)"
        if self.bundle:
            text += f" [bundle: {self.bundle}]"
        return text


@dataclass(frozen=True)
class TaskSpec:
    """One dispatchable unit of work.

    ``func`` must be a module-level callable (pickled by reference
    under ``spawn``) with signature ``func(payload, attempt) ->
    ("ok", value) | ("error", failure_dict)`` — it must catch its own
    exceptions and turn them into failure dicts; anything it *lets
    escape* is still caught by the worker loop as a last resort.
    """

    task_id: int
    cell_id: str
    func: Callable
    payload: tuple
    #: tasks with equal keys cost about the same and share worker-side
    #: caches (the harness keys cells by ``(workload, scale)``); a
    #: factored chunk never spans two keys
    affinity: Hashable = None


@dataclass
class TaskOutcome:
    status: CellStatus
    value: object = None
    failure: Optional[CellFailure] = None
    attempts: int = 1
    #: seconds the task waited between enqueue and actual dispatch to
    #: a worker (0 on the serial path and for cache hits)
    queued_s: float = 0.0


class SuiteInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-suite; carries exactly what finished."""

    def __init__(self, completed: Sequence[str], total: int):
        self.completed = list(completed)
        self.total = total
        done = ", ".join(self.completed) if self.completed else "none"
        super().__init__(
            f"interrupted with {len(self.completed)}/{total} cells "
            f"finished (completed: {done})")


def exception_failure(exc: BaseException, tb: str,
                      bundle: Optional[dict] = None) -> dict:
    """The failure dict a task function returns, as ``("error",
    failure)``, for an exception it caught."""
    return {"kind": "exception", "message": f"{type(exc).__name__}: {exc}",
            "traceback": tb, "bundle": bundle}


def task_outcome(status: str, value, attempt: int,
                 queued: float = 0.0) -> TaskOutcome:
    """The :class:`TaskOutcome` a task function's ``(status, value)``
    becomes, whether a worker or this process ran it."""
    if status == "ok":
        return TaskOutcome(CellStatus.OK, value=value, attempts=attempt,
                           queued_s=queued)
    failure = CellFailure(kind=value.get("kind", "exception"),
                          message=value.get("message", "worker error"),
                          traceback=value.get("traceback", ""),
                          attempts=attempt, bundle_data=value.get("bundle"))
    return TaskOutcome(CellStatus.FAILED, failure=failure, attempts=attempt,
                       queued_s=queued)


# -- worker side -----------------------------------------------------------

def _worker_main(conn) -> None:
    """Worker loop: recv a *chunk* ``[(task_id, func, payload,
    attempt), ...]`` → send one ``(task_id, status, value)`` per cell,
    in order, as each finishes.  Results stream back immediately so
    the parent always knows which cell is in flight (the first one it
    has no result for) and a mid-chunk death loses at most one cell's
    work.  Any in-process memoisation the task funcs maintain (the
    workload trace LRU) naturally persists across chunks because the
    process does.  SIGINT is ignored so Ctrl-C interrupts only the
    parent, which then tears the pool down deliberately."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        for task_id, func, payload, attempt in message:
            try:
                status, value = func(payload, attempt)
            except BaseException as exc:  # belt and braces: guarded
                status = "error"          # funcs should not raise
                value = exception_failure(exc, traceback.format_exc())
            try:
                conn.send((task_id, status, value))
            except (BrokenPipeError, OSError):
                return


class _WorkerHandle:
    """A live worker process plus its pipe and current chunk.

    ``chunk[cursor]`` is the in-flight cell: cells run strictly in
    chunk order and results stream back per cell, so the first member
    without a result is — by construction — the one a death or
    timeout must be attributed to.
    """

    __slots__ = ("proc", "conn", "chunk", "cursor", "deadline",
                 "dispatched_at")

    def __init__(self, ctx):
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,),
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.chunk: List["_Pending"] = []
        self.cursor = 0
        self.deadline: Optional[float] = None
        #: when the in-flight cell was handed to the worker (monotonic)
        self.dispatched_at = 0.0

    @property
    def busy(self) -> bool:
        return self.cursor < len(self.chunk)

    @property
    def inflight(self) -> "_Pending":
        return self.chunk[self.cursor]

    def close(self, kill: bool = False) -> None:
        try:
            if kill:
                self.proc.kill()
            else:
                try:
                    self.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            self.proc.join(timeout=5)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=5)
        finally:
            self.conn.close()


@dataclass
class _Pending:
    task: TaskSpec
    attempt: int = 1
    eligible_at: float = 0.0
    #: when the task entered this run's queue (monotonic); survives
    #: chunk re-queues so queued_s reports true waiting time
    enqueued_at: float = 0.0


class ResilientPool:
    """A replenishing pool of spawn workers with a dispatch loop.

    Pools persist across :meth:`run` calls (worker spawn + import is
    paid once per process lifetime, as with the seed's ``Pool``); the
    dispatcher replaces any worker it loses, so a pool survives its
    workers indefinitely.  :meth:`resize` grows or shrinks the pool in
    place, so a one-off wide run never strands idle spawn processes.
    """

    #: capped exponential backoff for crash retries (seconds)
    BACKOFF_BASE = 0.25
    BACKOFF_CAP = 4.0
    #: dispatch-loop poll ceiling (seconds)
    POLL = 0.5
    #: hard ceiling on factored chunks: limits how much of a long
    #: single-key sweep one early chunk can hold
    CHUNK_CAP = 32

    def __init__(self, workers: int):
        self.workers = workers
        self.ctx = multiprocessing.get_context("spawn")
        self.handles: List[_WorkerHandle] = [
            _WorkerHandle(self.ctx) for _ in range(workers)]

    # -- lifecycle ---------------------------------------------------------

    def _respawn(self, handle: _WorkerHandle,
                 kill: bool = False) -> _WorkerHandle:
        handle.close(kill=kill)
        replacement = _WorkerHandle(self.ctx)
        self.handles[self.handles.index(handle)] = replacement
        return replacement

    def resize(self, workers: int) -> None:
        """Grow or shrink the pool to exactly ``workers`` processes.

        Only valid between :meth:`run` calls (every handle idle):
        surplus workers are retired gracefully, missing ones spawned.
        """
        workers = max(1, workers)
        while len(self.handles) > workers:
            self.handles.pop().close()
        while len(self.handles) < workers:
            self.handles.append(_WorkerHandle(self.ctx))
        self.workers = workers

    def shutdown(self, kill: bool = False) -> None:
        for handle in self.handles:
            handle.close(kill=kill)
        self.handles = []

    # -- the dispatch loop -------------------------------------------------

    def run(self, tasks: Sequence[TaskSpec],
            timeout: Optional[float] = None,
            retries: int = 0,
            on_complete: Optional[Callable[[TaskSpec, TaskOutcome],
                                           None]] = None,
            chunk: Optional[int] = None) -> Dict[int, TaskOutcome]:
        """Execute every task; return ``{task_id: TaskOutcome}``.

        ``chunk`` fixes the number of cells per dispatch message;
        ``None`` sizes each chunk by factoring as it is sent (see
        :meth:`_factored`), so chunks shrink as the queue drains, stay
        within one affinity key, and the workers finish close
        together.  The ``timeout`` stays **per cell**: the deadline
        re-arms each time a chunk member's result arrives; zero or
        less is no limit.  Never raises for a failing *task*; whatever
        escapes (Ctrl-C as :class:`SuiteInterrupted`) kills the pool,
        and the next run spawns ``workers`` fresh processes.
        """
        if not self.handles:
            self.resize(self.workers)
        start = time.monotonic()
        timeout = timeout if timeout and timeout > 0 else None
        outcomes: Dict[int, TaskOutcome] = {}
        pending: List[_Pending] = [_Pending(task, enqueued_at=start)
                                   for task in tasks]
        completed_cells: List[str] = []
        fixed = chunk if chunk and chunk > 0 else None

        def finish(task: TaskSpec, outcome: TaskOutcome) -> None:
            outcomes[task.task_id] = outcome
            if outcome.status is CellStatus.OK:
                completed_cells.append(task.cell_id)
            if on_complete is not None:
                on_complete(task, outcome)

        try:
            while len(outcomes) < len(tasks):
                now = time.monotonic()
                self._assign(pending, now, timeout, fixed)
                busy = [h for h in self.handles if h.busy]
                if not busy:
                    if not pending:
                        break            # all accounted for
                    # every pending task is backing off; sleep it out
                    delay = min(p.eligible_at for p in pending) - now
                    time.sleep(min(max(delay, 0.01), self.POLL))
                    continue
                self._wait(busy, pending, now, timeout)
                now = time.monotonic()
                for handle in busy:
                    if not handle.busy:
                        continue
                    # a dead worker's pipe end reads as EOF, so poll()
                    # is True for results AND for death — _collect
                    # disambiguates and reports EOF as not-collected.
                    # Drain every buffered result: a dying worker's
                    # completed chunk-mates are collected before the
                    # death is handled, so their work is never lost.
                    dead = False
                    while handle.busy and handle.conn.poll():
                        if not self._collect(handle, finish, timeout):
                            dead = True
                            break
                    if not handle.busy:
                        continue
                    if dead or not handle.proc.is_alive():
                        self._on_death(handle, pending, retries, now,
                                       finish)
                    elif (handle.deadline is not None
                          and now >= handle.deadline):
                        self._on_timeout(handle, pending, finish)
        except BaseException as exc:
            # kill, don't drain: a hung worker would block a graceful
            # close, and a live one would hand this run's results to
            # the next.  Completed cells were already flushed via
            # on_complete, so nothing durable is lost.
            self.shutdown(kill=True)
            _forget_pool(self)
            if not isinstance(exc, KeyboardInterrupt):
                raise
            raise SuiteInterrupted(completed_cells, len(tasks)) from None
        return outcomes

    # -- loop steps --------------------------------------------------------

    def _factored(self, pending: List[_Pending],
                  fresh: List[int]) -> List[int]:
        """Factoring (Hummel, Schonberg & Flynn, CACM 1992): an idle
        worker takes the first ``ceil(len(fresh) / (2 * workers))``
        fresh cells, capped at ``CHUNK_CAP`` and cut where the
        affinity key changes.  Early chunks amortise the round-trip;
        the tail is single cells, so no worker is left running a long
        last chunk while the others sit idle.  Factoring assumes cells
        of about equal cost, which holds within a key but not across
        keys: the cut keeps two adjacent costly workloads from riding
        in one chunk."""
        size = min(self.CHUNK_CAP, -(-len(fresh) // (2 * self.workers)))
        key = pending[fresh[0]].task.affinity
        return list(itertools.takewhile(
            lambda i: pending[i].task.affinity == key, fresh[:size]))

    def _assign(self, pending: List[_Pending], now: float,
                timeout: Optional[float], chunk: Optional[int]) -> None:
        for handle in self.handles:
            if handle.busy:
                continue
            eligible = [i for i, p in enumerate(pending)
                        if p.eligible_at <= now]
            if not eligible:
                return
            # retry attempts ride alone: a hard-crashing cell must not
            # take fresh chunk-mates down with it on every attempt
            if pending[eligible[0]].attempt > 1:
                take = eligible[:1]
            else:
                fresh = [i for i in eligible if pending[i].attempt == 1]
                take = fresh[:chunk] if chunk else \
                    self._factored(pending, fresh)
            items = [pending[i] for i in take]
            if not handle.proc.is_alive():   # died while idle
                handle = self._respawn(handle)
            try:
                handle.conn.send([(p.task.task_id, p.task.func,
                                   p.task.payload, p.attempt)
                                  for p in items])
            except (BrokenPipeError, OSError):
                self._respawn(handle)        # retry next loop iteration
                return
            for i in reversed(take):
                del pending[i]
            handle.chunk = items
            handle.cursor = 0
            handle.dispatched_at = now
            handle.deadline = (now + timeout) if timeout else None

    def _wait(self, busy: List[_WorkerHandle], pending: List[_Pending],
              now: float, timeout: Optional[float]) -> None:
        poll = self.POLL
        if timeout is not None:
            poll = min(poll, max(0.0, min(h.deadline for h in busy) - now))
        waitable = [h.conn for h in busy] + [h.proc.sentinel for h in busy]
        if poll > 0:
            multiprocessing.connection.wait(waitable, timeout=poll)

    def _collect(self, handle: _WorkerHandle,
                 finish: Callable[[TaskSpec, TaskOutcome], None],
                 timeout: Optional[float]) -> bool:
        """Consume one result; False when poll() was EOF (dead worker)."""
        item = handle.inflight
        try:
            task_id, status, value = handle.conn.recv()
        except (EOFError, OSError):
            return False                 # pipe closed: the worker died
        if task_id != item.task.task_id:  # cannot happen: in-order
            return True                   # streaming; drop stale data
        task, attempt = item.task, item.attempt
        queued = max(0.0, handle.dispatched_at - item.enqueued_at)
        handle.cursor += 1
        if handle.busy:
            # the next chunk member started in-worker the moment this
            # result was sent: re-arm its per-cell deadline and stamp
            # its dispatch time
            now = time.monotonic()
            handle.dispatched_at = now
            handle.deadline = (now + timeout) if timeout else None
        else:
            handle.chunk, handle.cursor = [], 0
            handle.deadline = None
        finish(task, task_outcome(status, value, attempt, queued))
        return True

    def _requeue_survivors(self, handle: _WorkerHandle,
                           pending: List[_Pending], now: float) -> None:
        """Chunk members after the in-flight cell never started: put
        them back at the head of the queue with no attempt penalty."""
        for item in reversed(handle.chunk[handle.cursor + 1:]):
            item.eligible_at = now
            pending.insert(0, item)

    def _on_death(self, handle: _WorkerHandle, pending: List[_Pending],
                  retries: int, now: float,
                  finish: Callable[[TaskSpec, TaskOutcome], None]) -> None:
        item = handle.inflight           # the cell that killed it
        task, attempt = item.task, item.attempt
        self._requeue_survivors(handle, pending, now)
        handle.proc.join(timeout=5)      # EOF can precede process exit
        exitcode = handle.proc.exitcode
        self._respawn(handle)
        if attempt <= retries:
            backoff = min(self.BACKOFF_CAP,
                          self.BACKOFF_BASE * (2 ** (attempt - 1)))
            item.attempt = attempt + 1
            item.eligible_at = now + backoff
            pending.append(item)
            return
        failure = CellFailure(
            kind="crash",
            message=(f"worker died (exitcode {exitcode}) while running "
                     f"{task.cell_id}"),
            exitcode=exitcode, attempts=attempt)
        finish(task, TaskOutcome(CellStatus.FAILED, failure=failure,
                                 attempts=attempt,
                                 queued_s=max(0.0, handle.dispatched_at
                                              - item.enqueued_at)))

    def _on_timeout(self, handle: _WorkerHandle, pending: List[_Pending],
                    finish: Callable[[TaskSpec, TaskOutcome], None]) -> None:
        item = handle.inflight
        task, attempt = item.task, item.attempt
        queued = max(0.0, handle.dispatched_at - item.enqueued_at)
        self._requeue_survivors(handle, pending, time.monotonic())
        self._respawn(handle, kill=True)
        failure = CellFailure(
            kind="timeout",
            message=f"cell {task.cell_id} exceeded its timeout",
            attempts=attempt)
        finish(task, TaskOutcome(CellStatus.TIMEOUT, failure=failure,
                                 attempts=attempt, queued_s=queued))


# -- pool registry ---------------------------------------------------------
# One pool persists across run_suite calls so a pytest session (or a
# CLI figure with several sub-suites) pays worker spawn + import once.
# The pool is *resized in place* when a different width is requested:
# a one-off ``--jobs 8`` run no longer strands 6 idle spawn processes
# for the rest of the session, and a run that raises (Ctrl-C included)
# kills and forgets the pool outright.

_POOL: Optional[ResilientPool] = None
_TASK_IDS = itertools.count(1)


def next_task_id() -> int:
    """Process-unique task ids (stale results can never alias)."""
    return next(_TASK_IDS)


def get_pool(workers: int) -> ResilientPool:
    global _POOL
    if _POOL is None:
        _POOL = ResilientPool(workers)
    elif _POOL.workers != workers:
        _POOL.resize(workers)
    return _POOL


def run_tasks(tasks: Sequence[TaskSpec], workers: int,
              timeout: Optional[float] = None, retries: int = 0,
              on_complete: Optional[Callable[[TaskSpec, TaskOutcome],
                                             None]] = None,
              chunk: Optional[int] = None) -> Dict[int, TaskOutcome]:
    """Execute every task; return ``{task_id: TaskOutcome}``.

    ``workers > 1`` is :meth:`ResilientPool.run` on the shared pool.
    Otherwise each task's own function runs here, in order, and
    ``on_complete`` receives the outcome a worker's result would have
    become, so callers keep one completion path at every worker count.
    In this process nothing can time out or die and be retried, so
    ``timeout``, ``retries`` and ``chunk`` only apply to the pool.  An
    empty task list spawns no workers.  Ctrl-C raises
    :class:`SuiteInterrupted` naming the tasks that finished.
    """
    if not tasks:
        return {}
    if workers > 1:
        return get_pool(workers).run(tasks, timeout=timeout,
                                     retries=retries,
                                     on_complete=on_complete, chunk=chunk)
    outcomes: Dict[int, TaskOutcome] = {}
    completed: List[str] = []
    try:
        for task in tasks:
            try:
                status, value = task.func(task.payload, 1)
            except Exception as exc:
                status = "error"
                value = exception_failure(exc, traceback.format_exc())
            outcome = outcomes[task.task_id] = task_outcome(status, value, 1)
            if outcome.status is CellStatus.OK:
                completed.append(task.cell_id)
            if on_complete is not None:
                on_complete(task, outcome)
    except KeyboardInterrupt:
        raise SuiteInterrupted(completed, len(tasks)) from None
    return outcomes


def _forget_pool(pool: ResilientPool) -> None:
    global _POOL
    if _POOL is pool:
        _POOL = None


def shutdown_pools() -> None:
    """Terminate the cached worker pool (also runs atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(kill=True)
        _POOL = None


atexit.register(shutdown_pools)
