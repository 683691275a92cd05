"""Tests of the benchmark's own rules: percentiles, due-time accounting,
self time, and the shape of ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re
from concurrent.futures import Future
from pathlib import Path

import pytest

from perfbench.openloop import OpenLoopSender
from perfbench.spans import Recorder, Span, covered_seconds, self_seconds
from perfbench.tails import (
    faster_half,
    kept_slices,
    samples_beyond,
    summarize_ms,
    summarize_slices,
    supports,
)

ROOT = Path(__file__).resolve().parent.parent


class TestPercentileRule:
    @pytest.mark.parametrize("count, q, beyond", [
        (1000, 99.0, 10), (902, 99.0, 10), (901, 99.0, 9),
        (200, 90.0, 20), (21, 50.0, 10), (20, 50.0, 10), (19, 50.0, 9),
        (0, 99.0, 0),
    ])
    def test_samples_beyond_counts_ranks_above_the_point(self, count, q,
                                                         beyond):
        assert samples_beyond(count, q) == beyond
        assert supports(count, q) == (beyond >= 10)

    def test_samples_beyond_matches_a_direct_count(self):
        for count in range(1, 1200, 7):
            ordered = list(range(count))
            rank = (count - 1) * 0.99
            assert samples_beyond(count, 99.0) == sum(
                1 for index in ordered if index > rank)

    @pytest.mark.parametrize("count, label", [
        (1000, "p99"), (500, "p90"), (100, "p90"), (60, "p50"), (20, "p50"),
        (19, "max"), (1, "max"),
    ])
    def test_summary_reports_the_highest_supported_tail(self, count, label):
        summary = summarize_ms([i / 1000.0 for i in range(count)])
        assert summary.tail_label == label
        assert summary.count == count
        if label == "max":
            assert summary.tail_ms == pytest.approx(count - 1)

    def test_levels_cap_the_reported_tail(self):
        summary = summarize_ms([0.001 * i for i in range(1, 2001)],
                               levels=(90.0, 50.0))
        assert summary.tail_label == "p90"
        assert summary.tail_ms == pytest.approx(1800.1)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            summarize_ms([])


class TestSliceSummary:
    def test_a_slow_half_of_slices_moves_neither_median_nor_tail(self):
        steady = {k: [0.001 * (1 + i % 10) for i in range(300)]
                  for k in range(8)}
        disturbed = dict(steady)
        for k in (1, 3, 6, 7):
            disturbed[k] = [10 * v for v in steady[k]]
        calm, noisy = summarize_slices(steady), summarize_slices(disturbed)
        assert noisy.p50_ms == pytest.approx(calm.p50_ms)
        assert noisy.tail_ms == pytest.approx(calm.tail_ms)
        assert noisy.count == calm.count == 2400
        assert noisy.tail_label == "p99 of 1200"

    def test_a_slower_program_moves_both(self):
        steady = {k: [0.001 * (1 + i % 10) for i in range(300)]
                  for k in range(8)}
        slower = {k: [1.2 * v for v in values]
                  for k, values in steady.items()}
        calm, slow = summarize_slices(steady), summarize_slices(slower)
        assert slow.p50_ms == pytest.approx(1.2 * calm.p50_ms)
        assert slow.tail_ms == pytest.approx(1.2 * calm.tail_ms)

    def test_kept_slices_drop_the_highest_medians(self):
        slices = {"a": [1.0], "b": [4.0], "c": [2.0], "d": [3.0], "e": [9.0]}
        assert kept_slices(slices) == {"a", "c", "d"}

    def test_given_slices_restrict_median_and_tail(self):
        slices = {0: [0.001] * 30, 1: [0.002] * 30, 2: [1.0] * 30}
        summary = summarize_slices(slices, kept={0, 1})
        assert summary.tail_label == "p50 of 60"
        assert summary.tail_ms == pytest.approx(1.5)
        assert summary.p50_ms == pytest.approx(1.5)
        assert summary.count == 90

    def test_faster_half_ignores_the_slow_half(self):
        assert faster_half([10.0, 2.0, 8.0, 1.0, 9.0]) == pytest.approx(9.0)
        assert faster_half([4.0, 1.0, 3.0, 2.0]) == pytest.approx(3.5)
        assert faster_half([5.0]) == pytest.approx(5.0)


class FakeClock:
    """A clock that only moves when someone sleeps or stalls."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestDueTimeAccounting:
    def _resolved_after(self, clock: FakeClock, service_s: float,
                        stall_s: float = 0.0):
        def submit(item):
            clock.sleep(stall_s if item == "stall" else 0.0)
            future = Future()
            clock.sleep(service_s)
            future.set_result(item)
            return future
        return submit

    def test_a_stall_is_charged_to_the_requests_it_delays(self):
        clock = FakeClock()
        sender = OpenLoopSender(clock=clock, sleep=clock.sleep)
        schedule = [(0.00, "a"), (0.01, "stall"), (0.02, "b"), (0.03, "c"),
                    (0.10, "d")]
        records = sender.run(schedule,
                             self._resolved_after(clock, 0.001, stall_s=0.05))
        by_item = {r.item: r for r in records}
        # The stall holds the only sending thread from 10 ms to 60 ms, so
        # b and c go out late and their latency counts the wait.
        assert by_item["b"].late == pytest.approx(0.041)
        assert by_item["c"].late == pytest.approx(0.032)
        assert by_item["b"].latency == pytest.approx(0.042)
        assert by_item["c"].latency == pytest.approx(0.033)
        # Timing from the send instead would hide it entirely.
        assert by_item["b"].done - by_item["b"].sent == pytest.approx(0.001)
        # A request due after the stall cleared is on time again.
        assert by_item["d"].late == pytest.approx(0.0)
        assert by_item["d"].latency == pytest.approx(0.001)

    def test_refusals_are_recorded_not_raised(self):
        clock = FakeClock()
        sender = OpenLoopSender(clock=clock, sleep=clock.sleep)

        def submit(item):
            raise RuntimeError("queue full")

        records = sender.run([(0.0, "x")], submit)
        sender.wait(records, timeout_s=1.0)
        assert records[0].future is None
        assert records[0].error.startswith("refused: RuntimeError")

    def test_wait_marks_timeouts(self):
        clock = FakeClock()
        sender = OpenLoopSender(clock=clock, sleep=clock.sleep)
        records = sender.run([(0.0, "x")], lambda item: Future())
        sender.wait(records, timeout_s=0.0)
        assert records[0].error == "timed out"


def _span(span_id, name, start, end, parents=()):
    return Span(span_id, name, start, parents=parents, end=end)


class TestSelfTime:
    def test_overlapping_children_are_counted_once(self):
        parent = _span(1, "inference.run", 0.0, 10.0)
        children = [_span(2, "codecs.decode", 1.0, 4.0, (1,)),
                    _span(3, "codecs.decode", 2.0, 5.0, (1,)),
                    _span(4, "nn.predict", 8.0, 12.0, (1,))]
        assert covered_seconds(parent, children) == pytest.approx(6.0)
        totals = self_seconds([parent] + children)
        assert totals["inference"] == pytest.approx(4.0)
        assert totals["codecs"] == pytest.approx(6.0)
        assert totals["nn"] == pytest.approx(4.0)

    def test_a_batch_span_covers_each_of_its_requests(self):
        requests = [_span(1, "serving.request", 0.0, 5.0),
                    _span(2, "serving.request", 1.0, 6.0)]
        batch = _span(3, "serving.execute", 2.0, 4.0, (1, 2))
        predict = _span(4, "nn.predict", 2.5, 3.5, (3,))
        totals = self_seconds(requests + [batch, predict])
        assert totals["serving"] == pytest.approx((5 - 2) + (5 - 2) + 1.0)
        assert totals["nn"] == pytest.approx(1.0)

    def test_recorder_nests_spans_on_one_thread(self):
        ticks = iter(range(100))
        recorder = Recorder(clock=lambda: float(next(ticks)))
        with recorder.span("serving.execute") as outer:
            with recorder.span("nn.predict"):
                pass
        inner = recorder.spans("nn.predict")[0]
        assert inner.parents == (outer,)
        assert recorder.spans("serving.execute")[0].duration == 3.0


class TestBenchmarkSpec:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_spec_follows_its_contract(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 2 <= len(spec["workloads"]) <= 8
        assert 1 <= spec["run_seconds"] <= 60
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        assert len(names) == len(set(names))
        assert all(self.NAME.match(name) for name in names)
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert self.UNIT.match(metric["unit"])
            assert metric["better"] in ("higher", "lower")
        setup = {m["name"]: m for m in spec["end_to_end"]}["setup_s"]
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    def test_every_workload_is_runnable(self):
        from perfbench.workloads import WORKLOADS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
