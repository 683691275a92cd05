"""Deficit-round-robin micro-batch scheduling over per-class queues.

The one admission + batching path of :class:`~repro.serving.server.SmolServer`:
one bounded queue per priority class, drained by a deficit-round-robin
(DRR) scan.  A single-tenant server runs it with one class (``"*"``),
where it reduces to a bounded FIFO queue feeding a wait-bounded
micro-batcher.  Each class holds a *deficit* counter; when the scan
reaches a backlogged class it adds the class's *quantum* (proportional
to its weight, normalized so the heaviest class earns one full
micro-batch per round) and serves up to ``floor(deficit)`` requests,
carrying any fraction to the class's next turn.  A class's deficit
resets when its queue empties, so idle classes cannot bank credit.

Two properties the test net enforces fall straight out of the
arithmetic:

* **work conservation** -- the scan always lands on *some* backlogged
  class and ``deficit >= quantum >= 1`` after the top-up, so a
  ``next_batch`` call never returns empty while any queue holds work;
* **bounded unfairness** -- under saturation the residual deficit after
  a serve is the fractional part (< 1 request), so over any window a
  class's served count stays within one micro-batch of its weighted
  share.

Two chaos seams: ``serving.admit`` fires on the submitter's thread
before an item enters its class queue, and ``serving.batch`` at the top
of every ``next_batch`` attempt before anything is dequeued.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Generic, Sequence, TypeVar

from repro.chaos.faults import NULL_FAULTS
from repro.errors import AdmissionError, TenantError
from repro.inference.mpmc import QueueClosed
from repro.obs import NULL_OBS
from repro.serving.batcher import BatcherStats, BatchPolicy
from repro.serving.request import monotonic
from repro.tenant.spec import ClassPolicy

T = TypeVar("T")

__all__ = ["ClassBatch", "DrrScheduler"]


class ClassBatch(list):
    """A micro-batch tagged with the priority class it was drawn from.

    A plain ``list`` subclass so session execution takes it unchanged;
    the ``class_name`` attribute rides along for per-class telemetry and
    deadline-aware plan selection.
    """

    def __init__(self, class_name: str, items: Sequence) -> None:
        super().__init__(items)
        self.class_name = class_name


class _ClassState(Generic[T]):
    """One class's queue + DRR bookkeeping (guarded by the scheduler lock)."""

    __slots__ = ("policy", "queue", "deficit", "quantum", "served",
                 "admitted", "rejected")

    def __init__(self, policy: ClassPolicy, quantum: float) -> None:
        self.policy = policy
        self.queue: deque[T] = deque()
        self.deficit = 0.0
        self.quantum = quantum
        self.served = 0
        self.admitted = 0
        self.rejected = 0


class DrrScheduler(Generic[T]):
    """Weighted-fair (deficit round-robin) admission queue + micro-batcher.

    Parameters
    ----------
    classes:
        The priority classes (visited in ``rank`` order each round).
    policy:
        Micro-batching shape: ``max_batch_size`` caps every batch and
        ``max_wait_ms`` bounds how long a lone batch waits for company
        (the wait only happens when *every* queue is otherwise empty, so
        waiting never idles past available work).
    capacity:
        Bound on queued items per class (backpressure depth).
    obs / faults:
        Observability (the ``serving_*`` admission and batch instruments)
        + chaos seams (``serving.admit`` / ``serving.batch``).

    An admitted item names its class by its ``class_name`` attribute.
    """

    def __init__(self, classes: Sequence[ClassPolicy], policy: BatchPolicy,
                 capacity: int = 256, obs=NULL_OBS,
                 faults=NULL_FAULTS) -> None:
        if not classes:
            raise TenantError("DrrScheduler needs at least one class")
        if capacity < 1:
            raise TenantError("capacity must be at least 1")
        self._policy = policy
        self._capacity = capacity
        self._faults = faults if faults is not None else NULL_FAULTS
        ordered = sorted(classes, key=lambda c: (c.rank, c.name))
        max_weight = max(c.weight for c in ordered)
        # The heaviest class earns one full micro-batch per round; every
        # quantum is >= 1 so any visited backlogged class serves at least
        # one request (work conservation).
        self._states: dict[str, _ClassState[T]] = {
            c.name: _ClassState(c, max(
                1.0, policy.max_batch_size * c.weight / max_weight))
            for c in ordered
        }
        self._order = [c.name for c in ordered]
        self._cursor = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._admitted = 0
        self._rejected = 0
        self._stats = BatcherStats()
        self._admitted_metric = obs.counter("serving_admitted_total")
        self._rejected_metric = obs.counter("serving_rejected_total")
        self._depth_metric = obs.gauge("serving_queue_depth")
        self._batches_metric = obs.counter("serving_batches_total",
                                           policy=policy.name)
        self._size_metric = obs.histogram("serving_batch_size",
                                          policy=policy.name)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return self._depth()

    def admit(self, item: T, block: bool = True,
              timeout: float | None = None) -> None:
        """Enqueue ``item`` on its class queue, applying backpressure.

        A full class queue blocks the caller (``block=True``, up to
        ``timeout`` seconds) or raises :class:`AdmissionError`
        (``block=False``); a blocked admit that times out is a rejection
        too.  :class:`QueueClosed` propagates once the scheduler is
        closed.
        """
        name = item.class_name
        # Chaos seam: before the enqueue, so a raise is a clean shed (the
        # item never entered a queue) and a stall backpressures the
        # submitting thread.
        self._faults.hit("serving.admit", scheduler=self, class_name=name)
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            state = self._states.get(name)
            if state is None:
                raise TenantError(f"unknown priority class {name!r}")
            while True:
                if self._closed:
                    raise QueueClosed("scheduler is closed")
                if len(state.queue) < self._capacity:
                    break
                if not block:
                    raise self._reject(state, f"class {name!r} queue full "
                                              f"({self._capacity} pending)")
                remaining = None if deadline is None \
                    else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    raise self._reject(
                        state, f"class {name!r} admission timed out after "
                               f"{timeout}s")
                self._cond.wait(remaining)
            state.queue.append(item)
            state.admitted += 1
            self._admitted += 1
            self._depth_metric.set(self._depth())
            self._cond.notify_all()
        self._admitted_metric.inc()

    def _reject(self, state: _ClassState[T], message: str) -> AdmissionError:
        """Count one shed admission (lock held) and build its error."""
        state.rejected += 1
        self._rejected += 1
        self._rejected_metric.inc()
        return AdmissionError(message)

    def _depth(self) -> int:
        """Items queued across every class (lock held)."""
        return sum(len(s.queue) for s in self._states.values())

    def close(self) -> None:
        """Stop admissions; :meth:`next_batch` drains what remains."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def next_batch(self, poll_timeout: float = 0.1) -> ClassBatch | None:
        """Form the next micro-batch by deficit round-robin.

        Returns ``None`` once closed and fully drained, an empty list when
        ``poll_timeout`` expires with every queue empty, and otherwise a
        :class:`ClassBatch` from the chosen class.
        """
        # Chaos seam: before any dequeue, so an injected raise aborts the
        # attempt with no request in hand (the serving loop retries).
        self._faults.hit("serving.batch", scheduler=self)
        with self._cond:
            deadline = monotonic() + poll_timeout
            while True:
                name = self._next_backlogged()
                if name is not None:
                    break
                if self._closed:
                    return None
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)
            state = self._states[name]
            state.deficit = min(
                state.deficit + state.quantum,
                state.quantum + self._policy.max_batch_size)
            allowance = min(int(state.deficit),
                            self._policy.max_batch_size)
            take = min(allowance, len(state.queue))
            batch: list[T] = [state.queue.popleft() for _ in range(take)]
            batch += self._wait_fill(state, len(batch))
            state.deficit = max(0.0, state.deficit - len(batch))
            if not state.queue:
                # An emptied class banks nothing: credit accrues only
                # against real backlog.
                state.deficit = 0.0
            state.served += len(batch)
            self._record(batch)
            self._depth_metric.set(self._depth())
            self._cond.notify_all()
            return ClassBatch(name, batch)

    def _next_backlogged(self) -> str | None:
        """Advance the DRR cursor to the next class with queued work."""
        for step in range(len(self._order)):
            index = (self._cursor + step) % len(self._order)
            name = self._order[index]
            if self._states[name].queue:
                self._cursor = (index + 1) % len(self._order)
                return name
        return None

    def _wait_fill(self, state: _ClassState[T], have: int) -> list[T]:
        """Under light load, hold the batch open for stragglers.

        Only waits while *every* queue is empty -- the moment any class
        has queued work the batch ships, so the wait can never idle the
        scheduler past available work (the work-conservation property).
        Called with the lock held.
        """
        extras: list[T] = []
        if have >= self._policy.max_batch_size \
                or self._policy.max_wait_ms <= 0:
            return extras
        deadline = monotonic() + self._policy.max_wait_ms / 1000.0
        while have + len(extras) < self._policy.max_batch_size:
            if any(s.queue for s in self._states.values()
                   if s is not state):
                break
            while state.queue \
                    and have + len(extras) < self._policy.max_batch_size:
                extras.append(state.queue.popleft())
            if state.queue or self._closed:
                break
            remaining = deadline - monotonic()
            if remaining <= 0:
                break
            self._cond.wait(remaining)
        return extras

    def _record(self, batch: list[T]) -> None:
        """Count one formed batch (lock held); a short one timed out."""
        self._stats.batches += 1
        self._stats.items += len(batch)
        if len(batch) == self._policy.max_batch_size:
            self._stats.full_batches += 1
        else:
            self._stats.timeout_batches += 1
        size = len(batch)
        self._stats.size_histogram[size] = (
            self._stats.size_histogram.get(size, 0) + 1)
        self._batches_metric.inc()
        self._size_metric.observe(size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def batch_stats(self) -> BatcherStats:
        """Snapshot of the micro-batch counters."""
        with self._lock:
            return BatcherStats(
                batches=self._stats.batches,
                items=self._stats.items,
                full_batches=self._stats.full_batches,
                timeout_batches=self._stats.timeout_batches,
                size_histogram=dict(self._stats.size_histogram),
            )

    def stats(self) -> dict:
        """Admission counters plus per-class DRR state."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "classes": {
                    name: {
                        "depth": len(state.queue),
                        "served": state.served,
                        "admitted": state.admitted,
                        "rejected": state.rejected,
                        "deficit": state.deficit,
                        "quantum": state.quantum,
                        "weight": state.policy.weight,
                    }
                    for name, state in self._states.items()
                },
            }
