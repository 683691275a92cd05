"""The benchmark's workloads: two offline scans and two serving mixes.

Every workload runs the real numpy path -- functional sessions only, so no
modelled service time enters a number -- and checks each prediction against
the serial oracle of :func:`perfbench.corpus.serial_oracle`.

A workload has three steps.  ``setup(seed)`` builds what the program needs
(corpus, model, warmed sessions, running server); the runner times it.
``prepare(setup)`` computes the oracle, which is the benchmark's own check
and so is not set-up time.  ``measure(setup, seconds, recorder)`` runs the
load; with a :class:`~perfbench.spans.Recorder` it passes timing proxies to
the program and also returns per-layer metrics.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.dispatcher import Dispatcher
from repro.cluster.worker import ThreadWorker
from repro.codecs.jpeg import JpegEncoded
from repro.errors import EngineError
from repro.inference.engine import SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig
from repro.obs.metrics import percentile
from repro.serving.loadgen import ArrivalTrace
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import FunctionalSession
from repro.tenant.spec import TenantConfig, TenantSpec

from perfbench import corpus
from perfbench.openloop import OpenLoopSender, Sent, merge_traces
from perfbench.spans import (
    Recorder,
    TracedDAG,
    TracedDecode,
    TracedDispatcher,
    TracedModel,
    TracedSession,
    covered_seconds,
    self_seconds,
)
from perfbench.tails import (
    faster_half,
    kept_slices,
    median,
    summarize_ms,
    summarize_slices,
)

clock = time.monotonic

#: Engine batch size of the scans (the engine caps it at the pass size).
SCAN_BATCH = 64


PLAN_KEY = "mini-resnet-18@serving-default"

#: A serving workload alternates rounds of Poisson traffic with backlog
#: bursts, so that both phases sample the whole run: the machine a run
#: shares speeds up and slows down over seconds, and a phase confined to
#: one part of the run measures whatever speed that part had.
#: Each round sends :data:`ROUND_S` seconds of the Poisson schedule, waits
#: for it, then submits one burst of :data:`BACKLOG_BURST` distinct
#: requests at once and times its drain.
ROUND_S = 2.0
BACKLOG_BURST = 240

#: Share of ``--seconds`` given to the Poisson rounds; the bursts and the
#: drains take the rest.  A run has at least :data:`MIN_ROUNDS` rounds.
POISSON_SHARE = 0.7
MIN_ROUNDS = 5

#: Seconds of untimed traffic, drawn like the Poisson phase, that warm the
#: server before it: the first batches of each size run noticeably slower.
WARMUP_S = 1.0

#: Width of the slices the Poisson phase's latencies are grouped in.
SLICE_S = 1.0

#: Percentiles tried for the end-to-end tails, highest first.  p99 is not
#: among them: on a shared 2-vCPU host it followed the host's stalls more
#: than the program, and across ten serve-tenants runs of the same code it
#: moved by a third or more where p90 moved by a fifth.  The serving
#: workload prints its p99s beside the metrics.
E2E_TAIL_LEVELS = (90.0, 50.0)

#: Longest wait for the responses of one phase.
PHASE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit, sample count and statistic."""

    value: float
    unit: str
    count: int
    label: str = ""


@dataclass(frozen=True)
class Phase:
    """Operations of one phase: sent, succeeded, failed (any cause)."""

    name: str
    sent: int
    succeeded: int
    failed: int


@dataclass
class Measurement:
    """What one measured run produced."""

    e2e: dict[str, Metric]
    phases: list[Phase]
    layers: dict[str, Metric] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _ms(seconds: list[float]) -> float:
    return median(seconds) * 1000.0


def _median_ms(spans) -> Metric:
    """Median duration of ``spans``."""
    return Metric(_ms([s.duration for s in spans]), "ms", len(spans),
                  "median")


def _busy_s(spans) -> Metric:
    """Summed duration of ``spans``."""
    return Metric(sum(s.duration for s in spans), "s", len(spans), "sum")


#: Windows of time covering a whole measurement.
WHOLE = ((-math.inf, math.inf),)


def _spans_in(recorder: Recorder, name: str, windows) -> list:
    """Spans called ``name`` that started inside one of ``windows``, each
    a ``(start, end)`` pair."""
    return [s for s in recorder.spans(name)
            if any(start <= s.start < end for start, end in windows)]


def _layer_metrics(recorder: Recorder, name: str, windows) -> dict:
    """``<name>_ms`` and ``<layer>.busy_s`` over spans in ``windows``."""
    spans = _spans_in(recorder, name, windows)
    return {f"{name}_ms": _median_ms(spans),
            f"{name.split('.')[0]}.busy_s": _busy_s(spans)}


def _nn_metrics(recorder: Recorder, windows) -> dict:
    metrics = _layer_metrics(recorder, "nn.predict", windows)
    predicts = _spans_in(recorder, "nn.predict", windows)
    busy = sum(s.duration for s in predicts)
    images = sum(s.attrs["size"] for s in predicts)
    metrics["nn.predict_img_s"] = Metric(images / busy, "img/s", images,
                                         "images / busy")
    return metrics


def _self_metrics(recorder: Recorder, units: int) -> dict:
    return {f"{layer}.self_ms_per_img": Metric(seconds * 1000.0 / units,
                                               "ms", units, "self / images")
            for layer, seconds in self_seconds(recorder.spans()).items()}


# ----------------------------------------------------------------------
# Offline scans
# ----------------------------------------------------------------------
def fingerprint(tensor: np.ndarray) -> bytes:
    """Identity of one preprocessed CHW tensor (its first four rows)."""
    return tensor[:, :4].astype(np.float32).tobytes()


@dataclass
class ScanSetup:
    store: object
    ids: list[str]
    dag: object
    model: object
    oracle: np.ndarray | None = None
    fingerprints: dict[bytes, int] | None = None

    def close(self) -> None:
        pass


class _ScanSource:
    """The scan's decode function over a corpus cycled by index.

    Stamps when each image's decode starts, per corpus slot, except for
    the engine's shape probe, which runs on the calling thread before the
    producers start and feeds no prediction.
    """

    def __init__(self, setup: ScanSetup, format_name: str) -> None:
        self._store = setup.store
        self._ids = setup.ids
        self._format_name = format_name
        self._caller = threading.get_ident()
        self.started = [deque() for _ in setup.ids]

    def decode(self, index: int) -> np.ndarray:
        slot = index % len(self._ids)
        if threading.get_ident() != self._caller:
            self.started[slot].append(clock())
        return self._store.decode(self._ids[slot], self._format_name).pixels

    def cost(self, index: int) -> tuple[int, int]:
        encoded = self._store.rendition(self._ids[index % len(self._ids)],
                                        self._format_name).encoded
        blocks = encoded.num_blocks if isinstance(encoded, JpegEncoded) else 0
        return encoded.compressed_bytes, blocks


class _CompletionObserver:
    """The model as the scan sees it, stamping when predictions exist.

    The engine reports predictions only when a pass ends, so this is the
    one place an image's completion is visible: each row of a predicted
    batch is matched to its corpus slot by fingerprint, and its latency
    runs from the oldest open decode start of that slot.  Latencies are
    kept per pass (``current_pass``), the slices of a scan.
    """

    def __init__(self, model, source: _ScanSource,
                 fingerprints: dict[bytes, int]) -> None:
        self._model = model
        self._source = source
        self._fingerprints = fingerprints
        self.current_pass = 0
        self.latencies: dict[int, list[float]] = defaultdict(list)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        predictions = self._model.predict(inputs)
        now = clock()
        for row in inputs:
            slot = self._fingerprints[fingerprint(row)]
            self.latencies[self.current_pass].append(
                now - self._source.started[slot].popleft())
        return predictions


class ScanWorkload:
    """Offline ``SmolRuntimeEngine.run_functional`` over one rendition.

    Each pass scans ``pass_images`` images, cycling a corpus of
    ``corpus_size`` distinct sources; passes repeat until ``seconds`` have
    elapsed, after an untimed warm-up pass of ``warmup_images``.  Nothing
    on the scan path caches, so a repeated source is decoded and
    preprocessed again.
    """

    def __init__(self, name: str, format_name: str, corpus_size: int,
                 pass_images: int, warmup_images: int, producers: int,
                 why: str) -> None:
        self.name = name
        self.format_name = format_name
        self.corpus_size = corpus_size
        self.pass_images = pass_images
        self.warmup_images = warmup_images
        self.engine = EngineConfig(num_producers=producers,
                                   batch_size=SCAN_BATCH)
        self.why = why
        self.aliases = {"throughput_img_s": "scan_img_s"}

    def plan_inputs(self, seed: int, seconds: float) -> None:
        """Nothing to draw ahead: the corpus is the whole input."""

    def setup(self, seed: int) -> ScanSetup:
        store, ids = corpus.scan_store(seed, self.corpus_size,
                                       self.format_name)
        return ScanSetup(store, ids, corpus.build_dag(), corpus.build_model())

    def prepare(self, setup: ScanSetup) -> list[str]:
        decoded = [setup.store.decode(asset, self.format_name).pixels
                   for asset in setup.ids]
        setup.oracle = np.array(
            corpus.serial_oracle(decoded, setup.dag, setup.model))
        setup.fingerprints = {
            fingerprint(setup.dag.execute(pixels)): slot
            for slot, pixels in enumerate(decoded)}
        if len(setup.fingerprints) != len(decoded):
            raise RuntimeError("two corpus images preprocess identically")
        return [f"oracle: {len(decoded)} sources, "
                f"{len(set(setup.oracle.tolist()))} distinct classes"]

    def measure(self, setup: ScanSetup, seconds: float,
                recorder: Recorder | None = None) -> Measurement:
        source = _ScanSource(setup, self.format_name)
        decode, dag, model = source.decode, setup.dag, setup.model
        if recorder is not None:
            decode = TracedDecode(decode, recorder, source.cost)
            dag = TracedDAG(dag, recorder)
            model = TracedModel(model, recorder)
        observer = _CompletionObserver(model, source, setup.fingerprints)
        engine = SmolRuntimeEngine(self.engine)
        if self.warmup_images:
            engine.run_functional(_ScanSource(setup, self.format_name).decode,
                                  setup.dag, setup.model, self.warmup_images,
                                  batch_size=SCAN_BATCH)
        expected = setup.oracle[np.arange(self.pass_images) % len(setup.ids)]
        rates, pools, notes = [], [], []
        scanned = failed = 0
        start = clock()
        while not rates or clock() - start < seconds:
            run_span = None
            if recorder is not None:
                run_span = recorder.open("inference.run", parents=())
                recorder.default_parents = (run_span,)
            began = clock()
            observer.current_pass = len(rates)
            scanned += self.pass_images
            try:
                result = engine.run_functional(decode, dag, observer,
                                               self.pass_images,
                                               batch_size=SCAN_BATCH)
            except EngineError as exc:
                failed += self.pass_images
                notes.append(f"pass failed: {exc}")
                break
            finally:
                if run_span is not None:
                    recorder.close(run_span)
            rates.append(self.pass_images / (clock() - began))
            pools.append(result.memory_stats)
            failed += int(np.count_nonzero(result.predictions != expected))
        notes.append("pass img/s: " + " ".join(f"{r:.1f}" for r in rates))
        e2e = {}
        if rates:
            latency = summarize_slices(observer.latencies,
                                       levels=E2E_TAIL_LEVELS)
            e2e = {
                "throughput_img_s": Metric(
                    faster_half(rates), "img/s", scanned,
                    f"median of the faster half of {len(rates)} passes"),
                "latency_p50_ms": Metric(latency.p50_ms, "ms", latency.count,
                                         "median of kept pass medians"),
                "latency_tail_ms": Metric(latency.tail_ms, "ms",
                                          latency.count, latency.tail_label),
            }
            e2e["interactive_tail_ms"] = e2e["latency_tail_ms"]
        measurement = Measurement(
            e2e, [Phase("scan", scanned, scanned - failed, failed)],
            notes=notes)
        if recorder is not None and rates:
            measurement.layers = self._layers(recorder, pools, scanned)
        return measurement

    @staticmethod
    def _layers(recorder: Recorder, pools, scanned: int) -> dict:
        decodes = recorder.spans("codecs.decode")
        layers = _layer_metrics(recorder, "codecs.decode", WHOLE)
        layers["codecs.bytes_per_img"] = Metric(
            sum(s.attrs["bytes"] for s in decodes) / len(decodes), "B",
            len(decodes), "mean")
        layers["codecs.blocks_per_img"] = Metric(
            sum(s.attrs["blocks"] for s in decodes) / len(decodes), "count",
            len(decodes), "mean")
        layers.update(_layer_metrics(recorder, "preprocessing.execute",
                                     WHOLE))
        layers.update(_nn_metrics(recorder, WHOLE))
        # The DNN thread is the caller of run_functional: whatever part of
        # a pass it spends outside traced calls it waits on the queue (or
        # stacks a batch, which is small next to a predict).
        runs = recorder.spans("inference.run")
        on_caller: dict[int, list] = {run.span_id: [] for run in runs}
        threads = {run.span_id: run.thread for run in runs}
        for span in recorder.spans():
            for parent in span.parents:
                if parent in on_caller and span.thread == threads[parent]:
                    on_caller[parent].append(span)
        wall = sum(run.duration for run in runs)
        idle = sum(run.duration - covered_seconds(run, on_caller[run.span_id])
                   for run in runs)
        layers["inference.consumer_idle_frac"] = Metric(
            idle / wall, "frac", len(runs), "idle / wall")
        allocations = sum(p.allocations for p in pools)
        reuses = sum(p.reuses for p in pools)
        layers["inference.buffer_reuse_frac"] = Metric(
            reuses / (allocations + reuses), "frac", allocations + reuses,
            "reuses / acquires")
        layers["inference.peak_outstanding"] = Metric(
            max(p.peak_outstanding for p in pools), "count", len(pools), "max")
        layers.update(_self_metrics(recorder, scanned))
        return layers


# ----------------------------------------------------------------------
# Serving mixes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Arrival:
    """One scheduled request: its tenant, the payload it carries and the
    number in its image id (the payload's index unless ``key`` is given;
    the prediction cache is keyed by image id)."""

    tenant: str
    image: int
    key: int | None = None

    @property
    def image_id(self) -> str:
        return f"img-{self.image if self.key is None else self.key}"


def _counters(stats) -> Counter:
    """The server counters the serving metrics take differences of."""
    counters = Counter(batches=stats.batcher.batches,
                       items=stats.batcher.items,
                       timeout_batches=stats.batcher.timeout_batches)
    if stats.cache is not None:
        counters.update(hits=stats.cache.hits, misses=stats.cache.misses)
    return counters


@dataclass(frozen=True)
class TenantLoad:
    """One tenant of the serve-tenants mix."""

    name: str
    priority: str
    rate_per_s: float
    pattern: str = "poisson"
    burst_size: int = 8
    quota_rate_per_s: float | None = None


@dataclass
class ServeSetup:
    payloads: list[np.ndarray]
    dag: object
    server: SmolServer
    dispatcher: Dispatcher | None = None
    oracle: list[int] | None = None

    def close(self) -> None:
        self.server.close()
        if self.dispatcher is not None:
            self.dispatcher.close()


class TenantServe:
    """``serve-tenants``: open-loop traffic from three tenant classes
    through quotas and DRR into a ``SmolServer`` over a 2-replica cluster
    of functional sessions.

    The Poisson phase sends the schedule at fixed offered rates and times
    every request from its due time; the backlog phase submits bursts of
    :data:`BACKLOG_BURST` distinct requests, each at once, and times each
    drain; the median of the faster half of the drain rates is the
    capacity.  The two phases take turns, one round of each at a time (see
    :data:`ROUND_S`).
    """

    name = "serve-tenants"
    why = ("three tenant classes (bursty batch) via QuotaGate + DrrScheduler "
           "onto a 2-replica cluster, a third of requests cache hits")
    aliases = {"throughput_img_s": "capacity_rps",
               "latency_tail_ms": "latency_p90_ms",
               "interactive_tail_ms": "interactive_p90_ms"}

    #: Offered rates: together about a third of the cluster's drain rate on
    #: a 2-core machine.  Nearer 60% the server saturates whenever the
    #: shared host slows the machine by half for a few seconds, and latency
    #: stops repeating from run to run.  The interactive rate also leaves
    #: more than 1000 of its samples in the kept half of a 25-second run,
    #: which p99 needs (see :mod:`perfbench.tails`).  Quotas are twice the
    #: offered rates.
    TENANTS = (
        TenantLoad("dashboard", "interactive", 180.0, quota_rate_per_s=360.0),
        TenantLoad("reports", "standard", 50.0, quota_rate_per_s=100.0),
        TenantLoad("backfill", "batch", 25.0, pattern="burst",
                   burst_size=8),
    )
    #: Tenant the backlog bursts are sent as.
    backlog_tenant = "backfill"
    REPLICAS = 2

    #: Share of requests that repeat one of the ``REPEAT_WINDOW`` images
    #: most recently first sent at least ``REPEAT_AGE_S`` earlier (so its
    #: answer is cached by then).  The window keeps every repeat a hit: the
    #: cache holds 2048 entries and each round adds about 600 (new images
    #: and a burst), so repeats drawn from the whole run would miss more and
    #: more as it went on, and latency would grow with the run's length.
    REPEAT_SHARE = 1.0 / 3.0
    REPEAT_AGE_S = 0.25
    REPEAT_WINDOW = 256


    def __init__(self) -> None:
        self._rounds: list[list[tuple[float, Arrival]]] = []
        self._warmup: list[tuple[float, Arrival]] = []
        self._bursts: list[list[Arrival]] = []
        self._images = 0

    # -- inputs --------------------------------------------------------
    def plan_inputs(self, seed: int, seconds: float) -> None:
        """Draw the warm-up, the Poisson rounds and the bursts from
        ``seed``.  Every burst carries the same payloads under image ids
        no other request uses, so none of them hits the cache."""
        rounds = max(MIN_ROUNDS, int(seconds * POISSON_SHARE / ROUND_S))
        self._rounds = [[] for _ in range(rounds)]
        schedule = self.schedule(seed, rounds * ROUND_S)
        for offset, arrival in schedule:
            index = min(int(offset // ROUND_S), rounds - 1)
            self._rounds[index].append((offset - index * ROUND_S, arrival))
        first_new = 1 + max((a.image for _, a in schedule), default=-1)
        self._warmup = [(offset, Arrival(a.tenant, first_new + a.image))
                        for offset, a in self.schedule(seed, WARMUP_S)]
        first_new = 1 + max((a.image for _, a in self._warmup),
                            default=first_new - 1)
        self._bursts = [
            [Arrival(self.backlog_tenant, first_new + i,
                     key=first_new + b * BACKLOG_BURST + i)
             for i in range(BACKLOG_BURST)]
            for b in range(rounds)]
        self._images = first_new + BACKLOG_BURST

    # -- program -------------------------------------------------------
    def setup(self, seed: int) -> ServeSetup:
        payloads = corpus.serve_payloads(seed, self._images)
        dag = corpus.build_dag()
        server, dispatcher = self.build_server(dag, None)
        return ServeSetup(payloads, dag, server, dispatcher)

    def prepare(self, setup: ServeSetup) -> list[str]:
        setup.oracle = corpus.serial_oracle(setup.payloads, setup.dag,
                                            corpus.build_model())
        return [f"oracle: {len(setup.payloads)} payloads, "
                f"{len(set(setup.oracle))} distinct classes; "
                f"{len(self._rounds)} rounds of {ROUND_S:g} s Poisson "
                f"({sum(map(len, self._rounds))} scheduled) + "
                f"{BACKLOG_BURST}-request burst"]

    def _functional_session(self, dag, recorder: Recorder | None,
                            replica: str = "") -> FunctionalSession:
        model = corpus.build_model()
        if recorder is not None:
            dag, model = TracedDAG(dag, recorder), TracedModel(model, recorder)
        session = FunctionalSession(PLAN_KEY, dag, model)
        session.warmup()
        if recorder is not None:
            return TracedSession(session, recorder, replica)
        return session

    # -- measurement ---------------------------------------------------
    def measure(self, setup: ServeSetup, seconds: float,
                recorder: Recorder | None = None) -> Measurement:
        server, dispatcher = setup.server, setup.dispatcher
        if recorder is not None:
            server, dispatcher = self.build_server(setup.dag, recorder)
        issued: list[InferenceRequest] = []

        def submit(arrival: Arrival):
            request = InferenceRequest(
                image_id=arrival.image_id,
                payload=setup.payloads[arrival.image], format_name="raw",
                tenant=arrival.tenant)
            issued.append(request)
            if recorder is None:
                return server.submit(request)
            span = recorder.open("serving.request", parents=(),
                                 ident=request.request_id)
            recorder.request_spans[request.request_id] = span
            try:
                future = server.submit(request)
            except Exception:
                recorder.close(span)
                raise
            future.add_done_callback(lambda _done: recorder.close(span))
            return future

        sender = OpenLoopSender()
        poisson: list[list[Sent]] = []
        bursts: list[list[Sent]] = []
        windows = []
        counters = Counter()
        try:
            warmup = sender.run(self._warmup, submit)
            sender.wait(warmup, PHASE_TIMEOUT_S)
            for segment, burst in zip(self._rounds, self._bursts):
                before = _counters(server.stats())
                began = clock()
                poisson.append(sender.run(segment, submit))
                sender.wait(poisson[-1], PHASE_TIMEOUT_S)
                windows.append((began, clock()))
                counters.update(_counters(server.stats()) - before)
                bursts.append(sender.run([(0.0, a) for a in burst], submit))
                sender.wait(bursts[-1], PHASE_TIMEOUT_S)
        finally:
            if recorder is not None:
                server.close()
                if dispatcher is not None:
                    dispatcher.close()
        order = warmup + [record for segment, burst in zip(poisson, bursts)
                          for record in segment + burst]
        requests = dict(zip(map(id, order), issued))
        phases = [self._check(name, records, setup.oracle)
                  for name, records in (
                      ("warmup", warmup),
                      ("poisson", [r for seg in poisson for r in seg]),
                      ("backlog", [r for burst in bursts for r in burst]))]
        # One-second slices of each round, by due time.
        per_round = max(1, round(ROUND_S / SLICE_S))
        slices = defaultdict(list)
        for index, (segment, (began, _)) in enumerate(zip(poisson, windows)):
            for record in segment:
                if record.error is None:
                    part = int((record.due - began) / SLICE_S)
                    slices[index, min(part, per_round - 1)].append(record)
        served = [r for records in slices.values() for r in records]
        drains = [len(b) / (max(r.done for r in b) - b[0].due)
                  for b in bursts if all(r.error is None for r in b)]
        e2e = {}
        notes = ["burst drain img/s: " + " ".join(f"{d:.1f}" for d in drains)]
        if served and drains:
            latencies = {key: [r.latency for r in records]
                         for key, records in slices.items()}
            kept = kept_slices(latencies)
            latency = summarize_slices(latencies, kept, E2E_TAIL_LEVELS)
            interactive = self.interactive_latencies(slices)
            tail = summarize_slices(interactive, kept, E2E_TAIL_LEVELS)
            e2e = {
                "throughput_img_s": Metric(
                    faster_half(drains), "img/s", len(drains) * BACKLOG_BURST,
                    f"median of the faster half of {len(drains)} drains"),
                "latency_p50_ms": Metric(latency.p50_ms, "ms", latency.count,
                                         "median of kept second medians"),
                "latency_tail_ms": Metric(latency.tail_ms, "ms",
                                          latency.count, latency.tail_label),
                "interactive_tail_ms": Metric(tail.tail_ms, "ms", tail.count,
                                              tail.tail_label),
            }
            for name, sample in (("latency_p99_ms", latencies),
                                 ("interactive_p99_ms", interactive)):
                p99 = summarize_slices(sample, kept)
                notes.append(f"{name} (not a gated metric): "
                             f"{p99.tail_ms:.2f} ms [{p99.tail_label}]")
        measurement = Measurement(e2e, phases, notes=notes)
        if recorder is not None and served and drains:
            measurement.layers = self._layers(
                recorder, server, dispatcher, served, counters, requests,
                windows, len(issued))
        return measurement

    @staticmethod
    def _check(name: str, records: list[Sent], oracle: list[int]) -> Phase:
        failed = 0
        for record in records:
            if record.error is None and \
                    record.response.prediction != oracle[record.item.image]:
                record.error = (f"mismatch: predicted "
                                f"{record.response.prediction}, oracle "
                                f"{oracle[record.item.image]}")
            failed += record.error is not None
        return Phase(name, len(records), len(records) - failed, failed)

    def _layers(self, recorder: Recorder, server: SmolServer,
                dispatcher, served: list[Sent], counters: Counter,
                requests: dict, windows, sent: int) -> dict:
        """Per-layer metrics of the Poisson phase (its rounds' ``windows``;
        ``counters`` are the server's counters summed over them); self time
        covers every request ``sent``."""
        executed = [(r, requests[id(r)]) for r in served
                    if not r.response.cached]
        waits = [recorder.handoff[q.request_id] - q.arrival_s
                 for _, q in executed]
        wait = summarize_ms(waits)
        layers = {
            "serving.queue_wait_p50_ms": Metric(wait.p50_ms, "ms", wait.count,
                                                "p50"),
            "serving.queue_wait_p99_ms": Metric(wait.tail_ms, "ms",
                                                wait.count, wait.tail_label),
            "serving.resolve_ms": Metric(
                _ms([r.done - recorder.exec_end[q.request_id]
                     for r, q in executed]), "ms", len(executed), "median"),
        }
        layers["serving.execute_ms"] = _median_ms(
            _spans_in(recorder, "serving.execute", windows))
        batches = counters["batches"]
        mean_batch = counters["items"] / batches
        layers["serving.batch_size_mean"] = Metric(
            mean_batch, "count", batches, "mean")
        layers["serving.batch_fill_frac"] = Metric(
            mean_batch / server.policy.max_batch_size, "frac", batches,
            "mean / max batch")
        layers["serving.timeout_batch_frac"] = Metric(
            counters["timeout_batches"] / batches,
            "frac", batches, "timed-out batches")
        hits = counters["hits"]
        lookups = hits + counters["misses"]
        layers["serving.cache_hit_frac"] = Metric(
            hits / lookups, "frac", lookups, "hits / lookups")
        layers.update(_layer_metrics(recorder, "preprocessing.execute",
                                     windows))
        layers.update(_nn_metrics(recorder, windows))
        late = sorted((r.late * 1000.0 for r in served))
        layers["loadgen.late_p99_ms"] = Metric(
            percentile(late, 99.0), "ms", len(late), "p99")
        layers["loadgen.late_max_ms"] = Metric(late[-1], "ms", len(late),
                                               "max")
        layers.update(self._tenant_cluster_layers(recorder, server, dispatcher,
                                          executed, waits, windows))
        layers.update(_self_metrics(recorder, sent))
        return layers

    def schedule(self, seed, duration):
        traces = [ArrivalTrace.build(t.pattern, t.rate_per_s, duration,
                                     pool_size=1, seed=seed,
                                     burst_size=t.burst_size, tenant=t.name)
                  for t in self.TENANTS]
        rng = np.random.default_rng((seed, 1))
        first_sent: list[float] = []
        schedule = []
        eligible = 0
        for offset, tenant in merge_traces(traces):
            while eligible < len(first_sent) and \
                    first_sent[eligible] <= offset - self.REPEAT_AGE_S:
                eligible += 1
            if eligible and rng.random() < self.REPEAT_SHARE:
                image = int(rng.integers(
                    max(0, eligible - self.REPEAT_WINDOW), eligible))
            else:
                image = len(first_sent)
                first_sent.append(offset)
            schedule.append((offset, Arrival(tenant, image)))
        return schedule

    def tenant_config(self) -> TenantConfig:
        return TenantConfig(tenants=tuple(
            TenantSpec(t.name, priority=t.priority,
                       rate_per_s=t.quota_rate_per_s, burst=64)
            for t in self.TENANTS))

    def build_server(self, dag, recorder):
        def factory(worker_id, results):
            return ThreadWorker(worker_id, self._functional_session(
                dag, recorder, replica=worker_id), results)

        dispatcher = Dispatcher(factory, num_workers=self.REPLICAS)
        cluster = (dispatcher if recorder is None
                   else TracedDispatcher(dispatcher, recorder))
        server = SmolServer(cluster=cluster, tenants=self.tenant_config())
        return server, dispatcher

    def _classes(self) -> dict[str, str]:
        return {t.name: t.priority for t in self.TENANTS}

    def interactive_latencies(self, slices):
        classes = self._classes()
        return {key: [r.latency for r in records
                      if classes[r.item.tenant] == "interactive"]
                for key, records in slices.items()}

    def _tenant_cluster_layers(self, recorder, server, dispatcher, executed,
                               waits, windows) -> dict:
        """Metrics of the tenant and cluster layers."""
        classes = self._classes()
        layers = {}
        for priority in ("interactive", "standard", "batch"):
            mine = [w for (_, q), w in zip(executed, waits)
                    if classes[q.tenant] == priority]
            tail = summarize_ms(mine)
            layers[f"tenant.queue_wait_tail_ms.{priority}"] = Metric(
                tail.tail_ms, "ms", tail.count, tail.tail_label)
        quotas = server.tenant_stats().quotas.values()
        layers["tenant.admitted"] = Metric(
            sum(q.admitted for q in quotas), "count", 1, "sum")
        layers["tenant.throttled"] = Metric(
            sum(q.throttled for q in quotas), "count", 1, "sum")
        dispatches = {s.span_id: s for s in recorder.spans("cluster.dispatch")}
        executes = recorder.spans("serving.execute")
        dispatch_waits = [
            e.start - dispatches[e.parents[0]].start
            for e in _spans_in(recorder, "serving.execute", windows)
            if e.parents and e.parents[0] in dispatches]
        layers["cluster.dispatch_wait_ms"] = Metric(
            _ms(dispatch_waits), "ms", len(dispatch_waits), "median")
        counts = list(Counter(e.attrs["replica"] for e in executes).values())
        counts += [0] * (self.REPLICAS - len(counts))
        layers["cluster.worker_imbalance"] = Metric(
            max(counts) / (sum(counts) / len(counts)), "ratio", sum(counts),
            "max / mean batches")
        layers["cluster.retried"] = Metric(dispatcher.stats().retried,
                                           "count", 1, "total")
        return layers


WORKLOADS = {
    w.name: w for w in (
        ScanWorkload(
            "scan-full-jpeg", "full-jpeg", corpus_size=3, pass_images=3,
            warmup_images=0, producers=1,
            why=("the paper's naive baseline: full 375x375 JPEG decode is "
                 "over 99% of per-image time, so codecs dominates")),
        ScanWorkload(
            "scan-thumb-png", "161-png", corpus_size=32, pass_images=256,
            warmup_images=SCAN_BATCH, producers=2,
            why=("Smol's low-res plan: 161-px PNG decode, preprocess and "
                 "DNN overlap in the engine pipeline")),
        TenantServe(),
    )
}
