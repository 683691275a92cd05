"""Tests for the serving admission queue.

A single-tenant :class:`~repro.serving.server.SmolServer` admits every
request into a :class:`~repro.tenant.scheduler.DrrScheduler` with one
class, ``"*"``; these tests drive that configuration directly.
"""

from dataclasses import dataclass

import pytest

from repro.errors import AdmissionError
from repro.inference.mpmc import QueueClosed
from repro.serving.batcher import BatchPolicy
from repro.tenant import ClassPolicy, DrrScheduler


@dataclass
class Item:
    name: str
    class_name: str = "*"


def admission_queue(capacity):
    return DrrScheduler((ClassPolicy("*", weight=1.0, rank=0),),
                        BatchPolicy(name="t", max_batch_size=1,
                                    max_wait_ms=0.0),
                        capacity=capacity)


def get(queue, timeout=0.1):
    batch = queue.next_batch(poll_timeout=timeout)
    return batch if batch is None else [item.name for item in batch]


class TestAdmission:
    def test_admit_and_get(self):
        queue = admission_queue(capacity=4)
        queue.admit(Item("a"))
        queue.admit(Item("b"))
        assert get(queue) == ["a"]
        assert get(queue) == ["b"]

    def test_nonblocking_rejects_at_capacity(self):
        queue = admission_queue(capacity=2)
        queue.admit(Item("a"), block=False)
        queue.admit(Item("b"), block=False)
        with pytest.raises(AdmissionError):
            queue.admit(Item("c"), block=False)
        assert queue.stats()["rejected"] == 1
        assert queue.stats()["admitted"] == 2

    def test_blocking_admit_times_out_as_rejection(self):
        queue = admission_queue(capacity=1)
        queue.admit(Item("a"))
        with pytest.raises(AdmissionError):
            queue.admit(Item("b"), block=True, timeout=0.05)
        assert queue.stats()["rejected"] == 1

    def test_get_timeout_returns_none(self):
        # An empty poll returns no items (the serving loop polls again).
        queue = admission_queue(capacity=1)
        assert get(queue, timeout=0.05) == []


class TestClose:
    def test_admit_after_close_raises_queue_closed(self):
        queue = admission_queue(capacity=2)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.admit(Item("a"))

    def test_drain_then_queue_closed(self):
        queue = admission_queue(capacity=2)
        queue.admit(Item("a"))
        queue.close()
        assert get(queue) == ["a"]
        assert get(queue) is None

    def test_stats_include_underlying_counters(self):
        queue = admission_queue(capacity=2)
        queue.admit(Item("a"))
        stats = queue.stats()
        assert stats["admitted"] == 1 and stats["classes"]["*"]["depth"] == 1
        assert len(queue) == 1
