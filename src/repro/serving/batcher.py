"""Micro-batching policy and counters.

The accelerator wants large batches; interactive traffic wants low latency.
A :class:`BatchPolicy` states the classic serving compromise (Clipper, and
the dynamic batching of production serving systems): wait for the first
request, then keep taking queued requests until either ``max_batch_size``
are in hand or ``max_wait_ms`` has elapsed since the batch opened.  Under
heavy load batches fill instantly (throughput mode); under light load the
wait bound caps the latency a lone request pays (latency mode).  The
:class:`~repro.tenant.scheduler.DrrScheduler` forms the batches and
reports them as :class:`BatcherStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError


@dataclass(frozen=True)
class BatchPolicy:
    """One (max-batch-size, max-wait) micro-batching policy.

    Attributes
    ----------
    name:
        Label used in reports and benchmarks.
    max_batch_size:
        Hard cap on requests per micro-batch (the engine batch size).
    max_wait_ms:
        Longest a batch stays open after its first request arrives.
    """

    name: str
    max_batch_size: int
    max_wait_ms: float

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ServingError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ServingError("max_wait_ms must be non-negative")

    @classmethod
    def latency(cls) -> "BatchPolicy":
        """Small batches, short waits: optimize tail latency."""
        return cls(name="latency", max_batch_size=8, max_wait_ms=2.0)

    @classmethod
    def throughput(cls) -> "BatchPolicy":
        """Engine-sized batches, longer waits: optimize images/second."""
        return cls(name="throughput", max_batch_size=64, max_wait_ms=25.0)


@dataclass
class BatcherStats:
    """Lifetime micro-batcher counters."""

    batches: int = 0
    items: int = 0
    full_batches: int = 0
    timeout_batches: int = 0
    size_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per formed batch."""
        return self.items / self.batches if self.batches else 0.0
