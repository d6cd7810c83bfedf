"""Span trees: construction, conservation, reconciliation, exporters."""

import json

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.serve.bench import build_cluster
from repro.serve.loadgen import LoadGenerator
from repro.slo import (
    build_span_tree,
    build_span_trees,
    reconcile_with_latency,
    span_conservation_errors,
    spans_from_events,
    tenant_lane_trace_events,
)
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.exporters import render_chrome_trace, write_chrome_trace


def record(request_id=1, tenant="gold", status="ok", **overrides):
    """A fully-boundaried span record: 10 cycles per phase."""
    base = {
        "request_id": request_id,
        "tenant": tenant,
        "op": "get",
        "status": status,
        "shard": 0,
        "t_submit": 100.0,
        "t_enqueue": 110.0,
        "t_dequeue": 120.0,
        "t_result": 130.0,
        "t_complete": 140.0,
    }
    base.update(overrides)
    return base


class TestBuildSpanTree:
    def test_full_tree_tiles_the_root_exactly(self):
        tree = build_span_tree(record())
        assert [c.name for c in tree.root.children] == [
            "admission",
            "queue",
            "execute",
            "reply",
        ]
        assert tree.root.duration == 40.0
        assert tree.root.duration == tree.root.child_sum  # exact, not approx
        assert tree.errors() == []
        # Consecutive phases share their boundary instant.
        for left, right in zip(tree.root.children, tree.root.children[1:]):
            assert left.t_end == right.t_start

    def test_shed_at_admission_has_one_child(self):
        tree = build_span_tree(
            record(
                status="shed",
                shard=None,
                t_enqueue=None,
                t_dequeue=None,
                t_result=None,
            )
        )
        assert [c.name for c in tree.root.children] == ["admission"]
        assert tree.root.children[0].duration == tree.root.duration
        assert tree.errors() == []

    def test_evicted_from_queue_absorbs_into_queue_span(self):
        tree = build_span_tree(
            record(status="shed", t_dequeue=None, t_result=None)
        )
        assert [c.name for c in tree.root.children] == ["admission", "queue"]
        assert tree.root.children[1].t_end == 140.0
        assert tree.errors() == []

    def test_non_monotonic_boundaries_reported(self):
        tree = build_span_tree(record(t_dequeue=105.0))  # before t_enqueue
        problems = tree.errors()
        assert problems
        assert any("gap" in p or "ends before" in p for p in problems)


class TestConservation:
    def test_clean_records_have_no_errors(self):
        records = [record(request_id=i) for i in range(1, 6)]
        assert span_conservation_errors(records) == []

    def test_duplicate_request_id_detected(self):
        records = [record(request_id=7), record(request_id=7)]
        problems = span_conservation_errors(records)
        assert any("more than one span record" in p for p in problems)

    def test_reconcile_balances_exact_books(self):
        records = [record(request_id=i) for i in range(1, 4)]
        trees = build_span_trees(records)
        assert reconcile_with_latency(trees, 120.0) is None

    def test_reconcile_ignores_non_ok_requests(self):
        records = [
            record(request_id=1),
            record(request_id=2, status="shed", t_dequeue=None, t_result=None),
        ]
        trees = build_span_trees(records)
        # Only the ok request's 40 cycles are charged to the ledger.
        assert reconcile_with_latency(trees, 40.0) is None

    def test_reconcile_flags_unbalanced_books(self):
        trees = build_span_trees([record()])
        message = reconcile_with_latency(trees, 99.0)
        assert message is not None
        assert "unreconciled" in message


class TestLiveReconciliation:
    """Acceptance demo: span trees sum to the cycle-attribution ledger."""

    def test_bench_spans_reconcile_with_latency_ledger(self):
        spec = BenchSpec(
            serve=ServeSpec(
                shards=2,
                policy="round-robin",
                budget=4,
                tenants=(("bronze", 1.0), ("gold", 3.0)),
            ),
            rate=4_000.0,
            seconds=0.02,
            seed=3,
        )
        cluster = build_cluster(spec.serve, telemetry=False)
        try:
            router = cluster.router
            spans: list = []
            router.span_subscribers.append(spans.append)
            LoadGenerator(cluster.kernel, router, spec).run()
            assert spans, "the run recorded no spans"
            assert span_conservation_errors(spans) == []
            trees = build_span_trees(spans)
            # Every root equals the sum of its children to the bit...
            for tree in trees:
                assert tree.root.duration == tree.root.child_sum
            # ...and the ok roots sum to exactly what the latency
            # recorder charged, cycle for cycle.
            ledger_total = sum(router.latency.samples_cycles)
            assert reconcile_with_latency(trees, ledger_total) is None
            assert {tree.tenant for tree in trees} == {"gold", "bronze"}
        finally:
            cluster.close()


class TestEventSources:
    def test_spans_from_events_filters_and_projects(self):
        span = record()
        events = [
            TelemetryEvent(t_cycles=0.0, name="serve.request.submit", fields={}),
            TelemetryEvent(
                t_cycles=1.0, name="serve.request.span", fields=dict(span)
            ),
        ]
        extracted = spans_from_events(events)
        assert len(extracted) == 1
        assert extracted[0]["request_id"] == span["request_id"]
        assert extracted[0]["t_complete"] == span["t_complete"]


class TestChromeTrace:
    def test_one_process_lane_per_tenant(self):
        records = [
            record(request_id=1, tenant="gold"),
            record(request_id=2, tenant="bronze"),
            record(request_id=3, tenant="gold"),
        ]
        events = tenant_lane_trace_events(records, freq_hz=1e9)
        lanes = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert lanes == {"tenant bronze": 0, "tenant gold": 1}
        request_pids = {
            e["pid"]
            for e in events
            if e.get("name") == "request" and e["ph"] == "b"
        }
        assert request_pids == {0, 1}

    def test_begin_end_pairs_balance(self):
        events = tenant_lane_trace_events([record()], freq_hz=1e9)
        begins = [e for e in events if e.get("ph") == "b"]
        ends = [e for e in events if e.get("ph") == "e"]
        assert len(begins) == len(ends) == 5  # request + four phases
        # Timestamps scale cycles into microseconds at the given clock.
        root_begin = next(e for e in begins if e["name"] == "request")
        assert root_begin["ts"] == pytest.approx(100.0 * 1e6 / 1e9)

    def test_written_trace_is_stamped(self, tmp_path):
        # The evidence pack's trace.json is the one writer's text.
        events = tenant_lane_trace_events([record()], freq_hz=1e9)
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, events)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text == render_chrome_trace(events)
        document = json.loads(text)
        assert document["artifact"] == "chrome-trace"
        assert document["traceEvents"] == events
        assert len(events) == count
