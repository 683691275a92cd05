"""In-memory spans and the timing proxies of the traced run.

The traced run never edits the program: it passes these proxies wherever
the program already accepts a collaborator -- a decode function, a
:class:`~repro.preprocessing.dag.PreprocessingDAG`, a
:class:`~repro.nn.model.Sequential`, an
:class:`~repro.serving.session.EngineSession` or a
:class:`~repro.cluster.dispatcher.Dispatcher` -- and each proxy records one
span around the call it forwards.  Spans stay in memory until the run ends.

A span's name is ``<layer>.<operation>``; the layer is one of this repo's
modules (``codecs``, ``preprocessing``, ``nn``, ``inference``, ``serving``,
``cluster``).  A span lists the spans that caused it as ``parents``: a
micro-batch has one parent per request riding in it.  A layer's self time
is its spans' durations minus the part of each span its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.serving.session import EngineSession


@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start: float
    parents: tuple[int, ...] = ()
    ident: object = None
    end: float | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span log plus the request/batch cross-links.

    ``request_spans`` maps a request id to its ``serving.request`` span,
    ``dispatch_spans`` a batch (tuple of request ids) to its
    ``cluster.dispatch`` span, ``handoff`` a request id to the moment it
    left the serving layer (execute start, or dispatcher submit on a
    cluster) and ``exec_end`` a request id to the end of its batch's
    execute call.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._spans: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.default_parents: tuple[int, ...] = ()
        self.request_spans: dict[int, int] = {}
        self.dispatch_spans: dict[tuple[int, ...], int] = {}
        self.handoff: dict[int, float] = {}
        self.exec_end: dict[int, float] = {}

    def open(self, name: str, parents: tuple[int, ...] | None = None,
             ident: object = None, start: float | None = None,
             **attrs) -> int:
        """Start a span; ``parents`` defaults to the thread's active span."""
        if parents is None:
            parents = self.active()
        with self._lock:
            span_id = next(self._ids)
            self._spans[span_id] = Span(
                span_id, name, self.clock() if start is None else start,
                tuple(parents), ident, thread=threading.get_ident(),
                attrs=attrs)
        return span_id

    def close(self, span_id: int, end: float | None = None) -> float:
        """Finish a span; returns its end time."""
        end = self.clock() if end is None else end
        with self._lock:
            self._spans[span_id].end = end
        return end

    def active(self) -> tuple[int, ...]:
        """The calling thread's active span, else :attr:`default_parents`."""
        stack = getattr(self._local, "stack", None)
        return (stack[-1],) if stack else self.default_parents

    @contextmanager
    def span(self, name: str, parents: tuple[int, ...] | None = None,
             ident: object = None, **attrs):
        """Record ``name`` around the block, active for nested spans."""
        span_id = self.open(name, parents, ident, **attrs)
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.close(span_id)

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, optionally only those called ``name``."""
        with self._lock:
            return [s for s in self._spans.values() if s.end is not None
                    and (name is None or s.name == name)]

    def get(self, span_id: int) -> Span:
        with self._lock:
            return self._spans[span_id]


def covered_seconds(span: Span, children: list[Span]) -> float:
    """Length of the union of ``children`` clipped to ``span``."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time over finished ``spans``."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        for parent in span.parents:
            children[parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += span.duration - covered_seconds(
            span, children[span.span_id])
    return dict(totals)


# ----------------------------------------------------------------------
# Proxies
# ----------------------------------------------------------------------
class TracedDecode:
    """Decode-function proxy: one ``codecs.decode`` span per call.

    ``cost(index)`` returns the ``(compressed bytes, entropy-decoded
    blocks)`` of the rendition the call decodes.
    """

    def __init__(self, decode_fn, recorder: Recorder, cost) -> None:
        self._decode_fn = decode_fn
        self._recorder = recorder
        self._cost = cost

    def __call__(self, index: int):
        nbytes, blocks = self._cost(index)
        with self._recorder.span("codecs.decode", ident=index,
                                 bytes=nbytes, blocks=blocks):
            return self._decode_fn(index)


class TracedDAG:
    """PreprocessingDAG proxy: one ``preprocessing.execute`` span per image."""

    def __init__(self, dag, recorder: Recorder) -> None:
        self._dag = dag
        self._recorder = recorder

    def execute(self, array):
        with self._recorder.span("preprocessing.execute"):
            return self._dag.execute(array)

    def __getattr__(self, name):
        return getattr(self._dag, name)


class TracedModel:
    """Sequential proxy: one ``nn.predict`` span per batch."""

    def __init__(self, model, recorder: Recorder) -> None:
        self._model = model
        self._recorder = recorder

    def predict(self, inputs):
        with self._recorder.span("nn.predict", size=len(inputs)):
            return self._model.predict(inputs)

    def __getattr__(self, name):
        return getattr(self._model, name)


class TracedSession(EngineSession):
    """EngineSession proxy: one ``serving.execute`` span per micro-batch.

    The span's parents are the batch's ``cluster.dispatch`` span when a
    dispatcher handed it over, else the requests' ``serving.request``
    spans.  ``replica`` names the cluster replica the session serves.
    """

    def __init__(self, session: EngineSession, recorder: Recorder,
                 replica: str = "") -> None:
        super().__init__(session.plan_key)
        self._session = session
        self._recorder = recorder
        self.replica = replica

    @property
    def warmed(self) -> bool:
        return self._session.warmed

    def warmup(self) -> None:
        self._session.warmup()

    def execute(self, requests):
        recorder = self._recorder
        ids = tuple(r.request_id for r in requests)
        dispatch = recorder.dispatch_spans.get(ids)
        if dispatch is not None:
            parents = (dispatch,)
        else:
            parents = tuple(recorder.request_spans[i] for i in ids
                            if i in recorder.request_spans)
        with recorder.span("serving.execute", parents=parents,
                           ident=ids[0], size=len(ids),
                           replica=self.replica) as span_id:
            start = recorder.get(span_id).start
            for request_id in ids:
                recorder.handoff.setdefault(request_id, start)
            result = self._session.execute(requests)
        end = recorder.get(span_id).end
        for request_id in ids:
            recorder.exec_end[request_id] = end
        return result


class TracedDispatcher:
    """Dispatcher proxy: one ``cluster.dispatch`` span per micro-batch,
    from ``submit`` until the cluster future resolves."""

    def __init__(self, dispatcher, recorder: Recorder) -> None:
        self._dispatcher = dispatcher
        self._recorder = recorder

    @property
    def plan_key(self) -> str:
        return self._dispatcher.plan_key

    def submit(self, requests, shard_id: int = -1):
        recorder = self._recorder
        ids = tuple(r.request_id for r in requests)
        span_id = recorder.open(
            "cluster.dispatch",
            parents=tuple(recorder.request_spans[i] for i in ids
                          if i in recorder.request_spans),
            ident=ids[0], size=len(ids))
        recorder.dispatch_spans[ids] = span_id
        start = recorder.get(span_id).start
        for request_id in ids:
            recorder.handoff[request_id] = start
        future = self._dispatcher.submit(requests, shard_id)
        future.add_done_callback(lambda _done: recorder.close(span_id))
        return future

    def __getattr__(self, name):
        return getattr(self._dispatcher, name)
