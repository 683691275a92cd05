"""Open-loop sending from one thread, timed from each request's due time.

The schedule's offsets come from :meth:`repro.serving.loadgen.ArrivalTrace
.build`; this module only sends.  Each record keeps the moment the request
was *due*, the moment it was actually sent, and the moment its future
completed.  Latency runs from the due time, so a generator stall that
delays later sends is charged to those requests instead of vanishing, and
``late`` shows how far behind schedule the generator ran.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Sent:
    """One scheduled request and what became of it."""

    due: float
    item: object
    sent: float | None = None
    done: float | None = None
    future: Future | None = None
    response: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to future completion."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the send trailed its due time."""
        return self.sent - self.due


def merge_traces(traces) -> list[tuple[float, str]]:
    """``(offset, tenant)`` of every arrival of ``traces`` in time order."""
    return sorted((offset, trace.tenant) for trace in traces
                  for offset in trace.offsets)


class OpenLoopSender:
    """Fires a schedule at a submit callable from the calling thread."""

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self._clock = clock
        self._sleep = sleep

    def run(self, schedule: Sequence[tuple[float, object]],
            submit: Callable[[object], Future]) -> list[Sent]:
        """Send ``item`` at ``start + offset`` for each schedule entry.

        ``submit`` raising counts as a refusal on that record; it never
        stops the schedule.
        """
        start = self._clock()
        records = []
        for offset, item in schedule:
            record = Sent(due=start + offset, item=item)
            delay = record.due - self._clock()
            if delay > 0:
                self._sleep(delay)
            record.sent = self._clock()
            try:
                record.future = submit(item)
            except Exception as exc:  # a refusal is a result, not a crash
                record.error = f"refused: {type(exc).__name__}: {exc}"
            else:
                record.future.add_done_callback(
                    lambda _future, r=record: self._stamp(r))
            records.append(record)
        return records

    def _stamp(self, record: Sent) -> None:
        record.done = self._clock()

    def wait(self, records: list[Sent], timeout_s: float) -> None:
        """Collect every response, marking timeouts and errors."""
        deadline = self._clock() + timeout_s
        for record in records:
            if record.future is None:
                continue
            try:
                record.response = record.future.result(
                    timeout=max(0.0, deadline - self._clock()))
            except FutureTimeout:
                record.error = "timed out"
            except Exception as exc:
                record.error = f"failed: {type(exc).__name__}: {exc}"
        # Future.set_result wakes result() before it runs the callbacks, so
        # a completion stamp can trail the response by a moment.
        for record in records:
            while record.error is None and record.done is None:
                time.sleep(0.0005)
