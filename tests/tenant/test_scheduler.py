"""Tests for the deficit-round-robin per-class scheduler."""

import threading
from dataclasses import dataclass

import pytest

from repro.errors import AdmissionError, TenantError
from repro.inference.mpmc import QueueClosed
from repro.obs import Observability
from repro.serving.batcher import BatchPolicy
from repro.tenant import ClassPolicy, DrrScheduler
from repro.tenant.scheduler import ClassBatch

THREE_CLASSES = (
    ClassPolicy("interactive", weight=8.0, rank=0),
    ClassPolicy("standard", weight=4.0, rank=1),
    ClassPolicy("batch", weight=1.0, rank=2),
)


@dataclass
class Item:
    class_name: str
    index: int


def make_scheduler(max_batch=8, max_wait_ms=0.0, capacity=256,
                   classes=THREE_CLASSES):
    policy = BatchPolicy(name="drr-test", max_batch_size=max_batch,
                        max_wait_ms=max_wait_ms)
    return DrrScheduler(classes, policy, capacity=capacity)


def preload(scheduler, counts):
    for name, count in counts.items():
        for index in range(count):
            scheduler.admit(Item(name, index))


def drain(scheduler, limit=10_000):
    batches = []
    for _ in range(limit):
        if len(scheduler) == 0:
            break
        batch = scheduler.next_batch(poll_timeout=0.0)
        if batch:
            batches.append(batch)
    return batches


class TestShape:
    def test_needs_at_least_one_class(self):
        with pytest.raises(TenantError):
            make_scheduler(classes=())

    def test_rejects_zero_capacity(self):
        with pytest.raises(TenantError):
            make_scheduler(capacity=0)

    def test_unknown_class_rejected_at_admit(self):
        scheduler = make_scheduler()
        with pytest.raises(TenantError):
            scheduler.admit(Item("vip", 0))

    def test_batches_are_class_tagged_lists(self):
        scheduler = make_scheduler()
        preload(scheduler, {"standard": 3})
        batch = scheduler.next_batch(poll_timeout=0.0)
        assert isinstance(batch, ClassBatch)
        assert batch.class_name == "standard"
        assert [item.index for item in batch] == [0, 1, 2]  # FIFO in class


class TestDrrArithmetic:
    def test_quanta_normalize_to_the_heaviest_class(self):
        scheduler = make_scheduler(max_batch=8)
        classes = scheduler.stats()["classes"]
        assert classes["interactive"]["quantum"] == pytest.approx(8.0)
        assert classes["standard"]["quantum"] == pytest.approx(4.0)
        assert classes["batch"]["quantum"] == pytest.approx(1.0)

    def test_every_quantum_is_at_least_one(self):
        scheduler = make_scheduler(
            max_batch=4,
            classes=(ClassPolicy("heavy", weight=1000.0, rank=0),
                     ClassPolicy("light", weight=1.0, rank=1)))
        classes = scheduler.stats()["classes"]
        assert classes["light"]["quantum"] == 1.0

    def test_saturated_service_follows_weights(self):
        # With every class saturated, one full round serves one quantum
        # per class: 8 interactive, 4 standard, 1 batch.
        scheduler = make_scheduler(max_batch=8)
        preload(scheduler, {"interactive": 64, "standard": 64, "batch": 64})
        sizes = {}
        for _ in range(3):
            batch = scheduler.next_batch(poll_timeout=0.0)
            sizes[batch.class_name] = len(batch)
        assert sizes == {"interactive": 8, "standard": 4, "batch": 1}

    def test_emptied_class_banks_no_deficit(self):
        scheduler = make_scheduler(max_batch=8)
        preload(scheduler, {"batch": 1})
        scheduler.next_batch(poll_timeout=0.0)
        assert scheduler.stats()["classes"]["batch"]["deficit"] == 0.0

    def test_lone_class_gets_full_batches(self):
        # No contention: a lone backlogged class is not starved down to
        # its quantum; the wait-fill tops its batches up to full size.
        scheduler = make_scheduler(max_batch=8, max_wait_ms=5.0)
        preload(scheduler, {"batch": 24})
        sizes = [len(scheduler.next_batch(poll_timeout=0.0))
                 for _ in range(4)]
        assert sum(sizes) == 24
        assert max(sizes) == 8

    def test_work_conserving_while_backlogged(self):
        scheduler = make_scheduler(max_batch=8)
        preload(scheduler, {"interactive": 10, "standard": 10, "batch": 10})
        served = 0
        while len(scheduler) > 0:
            batch = scheduler.next_batch(poll_timeout=0.0)
            assert batch, "next_batch returned empty despite backlog"
            served += len(batch)
        assert served == 30


class TestQueueSurface:
    def test_full_class_rejects_without_block(self):
        scheduler = make_scheduler(capacity=2)
        preload(scheduler, {"standard": 2})
        with pytest.raises(AdmissionError):
            scheduler.admit(Item("standard", 99), block=False)
        # Other classes are unaffected by one class's backpressure.
        scheduler.admit(Item("interactive", 0), block=False)
        assert scheduler.stats()["rejected"] == 1

    def test_blocked_admit_times_out(self):
        scheduler = make_scheduler(capacity=1)
        preload(scheduler, {"standard": 1})
        with pytest.raises(AdmissionError):
            scheduler.admit(Item("standard", 99), timeout=0.01)

    def test_blocked_admit_wakes_when_drained(self):
        scheduler = make_scheduler(capacity=1)
        preload(scheduler, {"standard": 1})
        done = threading.Event()

        def submitter():
            scheduler.admit(Item("standard", 99), timeout=5.0)
            done.set()

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        scheduler.next_batch(poll_timeout=0.0)
        assert done.wait(5.0)
        thread.join(5.0)

    def test_close_stops_admissions_and_drains(self):
        scheduler = make_scheduler()
        preload(scheduler, {"interactive": 2})
        scheduler.close()
        with pytest.raises(QueueClosed):
            scheduler.admit(Item("interactive", 9))
        assert len(scheduler.next_batch(poll_timeout=0.0)) == 2
        assert scheduler.next_batch(poll_timeout=0.0) is None

    def test_empty_poll_returns_empty_list(self):
        scheduler = make_scheduler()
        assert scheduler.next_batch(poll_timeout=0.0) == []


class TestStats:
    def test_stats_are_admission_queue_compatible(self):
        scheduler = make_scheduler()
        preload(scheduler, {"interactive": 3, "batch": 2})
        drain(scheduler)
        stats = scheduler.stats()
        assert stats["admitted"] == 5
        assert stats["rejected"] == 0
        assert stats["classes"]["interactive"]["served"] == 3
        assert stats["classes"]["batch"]["served"] == 2

    def test_exports_the_serving_instruments(self):
        obs = Observability()
        scheduler = DrrScheduler(THREE_CLASSES, BatchPolicy(
            name="drr-test", max_batch_size=8, max_wait_ms=0.0),
            capacity=1, obs=obs)
        preload(scheduler, {"interactive": 1, "batch": 1})
        with pytest.raises(AdmissionError):
            scheduler.admit(Item("batch", 1), block=False)
        drain(scheduler)
        assert obs.metrics.snapshot() == {
            "serving_admitted_total": 2.0,
            "serving_rejected_total": 1.0,
            "serving_queue_depth": 0.0,
            "serving_batches_total{policy=drr-test}": 2.0,
            "serving_batch_size{policy=drr-test}": 2.0,
        }

    def test_batch_stats_match_the_classic_batcher_shape(self):
        # The heaviest class's quantum equals the batch size, so the
        # 3-item backlog drains as one full batch plus a remainder.
        scheduler = make_scheduler(max_batch=2)
        preload(scheduler, {"interactive": 3})
        drain(scheduler)
        stats = scheduler.batch_stats()
        assert stats.items == 3
        assert stats.batches == 2
        assert stats.full_batches == 1
        assert stats.size_histogram == {2: 1, 1: 1}


class TestSingleClass:
    """The one-class ``"*"`` configuration every single-tenant server runs."""

    def make(self, max_batch, max_wait_ms):
        return make_scheduler(max_batch=max_batch, max_wait_ms=max_wait_ms,
                              classes=(ClassPolicy("*", weight=1.0,
                                                   rank=0),))

    def test_deep_queue_yields_full_batches_in_fifo_order(self):
        scheduler = self.make(max_batch=4, max_wait_ms=50.0)
        preload(scheduler, {"*": 10})
        assert [item.index for item in scheduler.next_batch()] == [0, 1, 2, 3]
        assert [item.index for item in scheduler.next_batch()] == [4, 5, 6, 7]

    def test_wait_bound_closes_partial_batch_as_timeout(self):
        scheduler = self.make(max_batch=64, max_wait_ms=5.0)
        preload(scheduler, {"*": 1})
        assert len(scheduler.next_batch()) == 1
        stats = scheduler.batch_stats()
        assert stats.timeout_batches == 1 and stats.full_batches == 0

    def test_none_once_closed_and_drained(self):
        scheduler = self.make(max_batch=2, max_wait_ms=1.0)
        preload(scheduler, {"*": 1})
        scheduler.close()
        assert len(scheduler.next_batch()) == 1
        assert scheduler.next_batch() is None

    def test_stats_track_sizes(self):
        scheduler = self.make(max_batch=4, max_wait_ms=2.0)
        preload(scheduler, {"*": 5})
        scheduler.next_batch()
        scheduler.next_batch()
        stats = scheduler.batch_stats()
        assert stats.batches == 2 and stats.items == 5
        assert stats.size_histogram == {4: 1, 1: 1}
        assert stats.mean_batch_size == pytest.approx(2.5)
