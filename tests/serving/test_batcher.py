"""Tests for the micro-batching policy."""

import pytest

from repro.errors import ServingError
from repro.serving.batcher import BatchPolicy
from repro.tenant import ClassPolicy, DrrScheduler


class TestBatchPolicy:
    def test_presets(self):
        latency = BatchPolicy.latency()
        throughput = BatchPolicy.throughput()
        assert latency.max_batch_size < throughput.max_batch_size
        assert latency.max_wait_ms < throughput.max_wait_ms

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ServingError):
            BatchPolicy(name="bad", max_batch_size=0, max_wait_ms=1.0)
        with pytest.raises(ServingError):
            BatchPolicy(name="bad", max_batch_size=4, max_wait_ms=-1.0)


class TestMicroBatcher:
    """Micro-batching as a single-tenant server runs it: one ``"*"`` class."""

    def test_empty_poll_returns_empty_list(self):
        scheduler = DrrScheduler((ClassPolicy("*", weight=1.0, rank=0),),
                                 BatchPolicy(name="t", max_batch_size=2,
                                             max_wait_ms=1.0),
                                 capacity=4)
        assert scheduler.next_batch(poll_timeout=0.02) == []
