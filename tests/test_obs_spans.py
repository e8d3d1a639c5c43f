"""Tests for span tracing: the tracer, the log, and the analysis tools."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.obs.spans import (
    SPAN_SCHEMA,
    TRACER,
    SpanNode,
    build_trees,
    configure_tracing,
    critical_path,
    disable_tracing,
    folded_stacks,
    read_spans,
    render_critical_path,
    render_tree,
    select_trace,
)


@pytest.fixture()
def span_log(tmp_path):
    """An enabled TRACER writing to a throwaway log; always restored."""
    path = tmp_path / "spans.jsonl"
    configure_tracing(str(path))
    try:
        yield path
    finally:
        disable_tracing()


def read_log(path):
    return [
        json.loads(line)
        for line in path.read_text().strip().splitlines()
        if line
    ]


class TestTracerDisabled:
    def test_disabled_by_default(self):
        assert TRACER.enabled is False

    def test_disabled_hooks_are_no_ops(self, tmp_path):
        assert TRACER.begin("x") is None
        TRACER.finish(None)
        TRACER.emit_span("x", 1.0, 2.0)
        with TRACER.span("x", attr=1):
            pass
        assert TRACER.current() is None

    def test_configure_then_deactivate_restores(self, tmp_path):
        configure_tracing(str(tmp_path / "s.jsonl"))
        assert TRACER.enabled is True
        disable_tracing()
        assert TRACER.enabled is False
        assert TRACER.path is None

    def test_unwritable_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            configure_tracing(str(tmp_path / "missing" / "s.jsonl"))
        assert TRACER.enabled is False


class TestTracerEmission:
    def test_span_record_shape(self, span_log):
        with TRACER.span("work", kind="test"):
            pass
        (record,) = read_log(span_log)
        assert record["schema"] == SPAN_SCHEMA
        assert record["name"] == "work"
        assert record["parent"] is None
        assert record["trace"] == f"t{record['span']}"
        assert record["pid"] == os.getpid()
        assert record["attrs"] == {"kind": "test"}
        assert record["start"] <= record["end"]

    def test_nested_spans_chain_via_ambient_context(self, span_log):
        with TRACER.span("outer"):
            with TRACER.span("inner"):
                pass
        inner, outer = read_log(span_log)  # inner closes (writes) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert inner["trace"] == outer["trace"]

    def test_begin_fixes_ids_before_finish_writes(self, span_log):
        root = TRACER.begin("request", job="j1")
        ctx = root.context()
        TRACER.emit_span("queue", 1.0, 2.0, ctx=ctx)
        assert read_log(span_log)[0]["name"] == "queue"  # root not yet written
        root.attrs["state"] = "done"
        TRACER.finish(root)
        queue, request = read_log(span_log)
        assert queue["parent"] == request["span"]
        assert request["attrs"] == {"job": "j1", "state": "done"}

    def test_finish_honours_explicit_end(self, span_log):
        span = TRACER.begin("request")
        TRACER.finish(span, end=span.start + 5.0)
        (record,) = read_log(span_log)
        assert record["end"] == pytest.approx(record["start"] + 5.0)

    def test_adopt_rehydrates_serialized_context(self, span_log):
        with TRACER.span("parent") as parent:
            ctx = dict(parent.context())  # what a Task would carry
        with TRACER.adopt(ctx):
            with TRACER.span("child"):
                pass
        records = {record["name"]: record for record in read_log(span_log)}
        assert records["child"]["parent"] == records["parent"]["span"]
        assert records["child"]["trace"] == records["parent"]["trace"]

    def test_explicit_ctx_beats_ambient(self, span_log):
        other = {"trace": "tX", "span": "X-1"}
        with TRACER.span("ambient"):
            TRACER.emit_span("routed", 1.0, 2.0, ctx=other)
        routed = read_log(span_log)[0]
        assert routed["trace"] == "tX"
        assert routed["parent"] == "X-1"

    def test_configure_truncates_previous_log(self, tmp_path):
        path = tmp_path / "s.jsonl"
        configure_tracing(str(path))
        with TRACER.span("old"):
            pass
        configure_tracing(str(path))
        try:
            with TRACER.span("new"):
                pass
        finally:
            disable_tracing()
        assert [record["name"] for record in read_log(path)] == ["new"]


class TestSimulatorSpans:
    """A traced run's span carries the misses and bytes the run returned."""

    def _trace(self):
        from repro.workloads import get_workload

        return get_workload("Espresso").generate(seed=3, max_refs=4000)

    def _attrs(self, path, name):
        (attrs,) = [r["attrs"] for r in read_log(path) if r["name"] == name]
        return attrs

    def test_cache_span_matches_the_returned_stats(self, span_log):
        from repro.mem.cache import Cache, CacheConfig

        config = CacheConfig(size_bytes=2048, block_bytes=32, associativity=2)
        stats = Cache(config).simulate(self._trace())
        attrs = self._attrs(span_log, "sim.cache")
        assert stats.misses > 0
        assert attrs["misses"] == stats.misses
        assert attrs["traffic_bytes"] == stats.total_traffic_bytes
        assert attrs["config"] == config.describe()

    def test_mtc_span_matches_the_returned_stats(self, span_log):
        from repro.mem.mtc import MinimalTrafficCache, MTCConfig

        config = MTCConfig(size_bytes=1024)
        stats = MinimalTrafficCache(config).simulate(self._trace())
        attrs = self._attrs(span_log, "sim.mtc")
        assert stats.misses > 0
        assert attrs["misses"] == stats.misses
        assert attrs["traffic_bytes"] == stats.total_traffic_bytes
        assert attrs["config"] == config.describe()


def _record(
    name,
    span,
    parent=None,
    trace="t1",
    start=0.0,
    end=1.0,
    **attrs,
):
    return {
        "schema": SPAN_SCHEMA,
        "trace": trace,
        "span": span,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "pid": 42,
        "attrs": attrs,
    }


class TestReadSpans:
    def test_round_trip(self, span_log):
        with TRACER.span("a"):
            pass
        records = read_spans(str(span_log))
        assert [record["name"] for record in records] == ["a"]

    def test_garbage_json_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError, match=":1:"):
            read_spans(str(path))

    def test_event_log_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"schema": "repro.events/v1"}) + "\n")
        with pytest.raises(ConfigurationError, match="event log"):
            read_spans(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_spans(str(tmp_path / "nope.jsonl"))


class TestBuildTrees:
    def test_parent_links_and_child_order(self):
        records = [
            _record("root", "1", start=0.0, end=10.0),
            _record("late", "3", parent="1", start=5.0, end=9.0),
            _record("early", "2", parent="1", start=1.0, end=4.0),
        ]
        (root,) = build_trees(records)
        assert [child.name for child in root.children] == ["early", "late"]

    def test_orphans_promoted_to_roots(self):
        records = [_record("lost", "2", parent="gone")]
        (root,) = build_trees(records)
        assert root.name == "lost"

    def test_multiple_traces_sorted_by_start(self):
        records = [
            _record("b", "2", trace="t2", start=5.0, end=6.0),
            _record("a", "1", trace="t1", start=0.0, end=1.0),
        ]
        roots = build_trees(records)
        assert [root.trace_id for root in roots] == ["t1", "t2"]

    def test_self_seconds_subtracts_children(self):
        records = [
            _record("root", "1", start=0.0, end=10.0),
            _record("child", "2", parent="1", start=2.0, end=8.0),
        ]
        (root,) = build_trees(records)
        assert root.seconds == 10.0
        assert root.self_seconds == 4.0
        assert root.children[0].self_seconds == 6.0


class TestSelectTrace:
    def _roots(self):
        return build_trees(
            [
                _record("req", "1", trace="t1", job="abcdef123456"),
                _record("req", "2", trace="t2", job="abzzzz999999"),
            ]
        )

    def test_by_trace_id(self):
        assert select_trace(self._roots(), trace="t2").span_id == "2"

    def test_by_exact_job(self):
        assert select_trace(self._roots(), job="abcdef123456").span_id == "1"

    def test_by_job_prefix(self):
        assert select_trace(self._roots(), job="abc").span_id == "1"

    def test_ambiguous_prefix_rejected(self):
        with pytest.raises(ConfigurationError, match="ambiguous"):
            select_trace(self._roots(), job="ab")

    def test_ambiguous_prefix_lists_every_candidate(self):
        with pytest.raises(ConfigurationError) as excinfo:
            select_trace(self._roots(), job="ab")
        message = str(excinfo.value)
        assert "abcdef123456" in message
        assert "abzzzz999999" in message

    def test_exact_job_wins_over_a_shared_prefix(self):
        # One job id being a prefix of another must not be ambiguous
        # when the query names the short one exactly.
        roots = build_trees(
            [
                _record("req", "1", trace="t1", job="abc"),
                _record("req", "2", trace="t2", job="abcdef"),
            ]
        )
        assert select_trace(roots, job="abc").span_id == "1"

    def test_empty_job_prefix_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            select_trace(self._roots(), job="")

    def test_prefix_never_matches_jobless_spans(self):
        roots = build_trees(
            [
                _record("req", "1", trace="t1", job="abcdef123456"),
                _record("cli", "2", trace="t2"),  # no job attribute
            ]
        )
        assert select_trace(roots, job="abc").span_id == "1"
        with pytest.raises(ConfigurationError, match="no spans"):
            select_trace(roots, job="Non")  # str(None) must not match

    def test_unknown_job_lists_known_traces(self):
        with pytest.raises(ConfigurationError, match="t1"):
            select_trace(self._roots(), job="nope")

    def test_neither_selector_rejected(self):
        with pytest.raises(ConfigurationError):
            select_trace(self._roots())


class TestAnalysis:
    def _tree(self):
        return build_trees(
            [
                _record("root", "1", start=0.0, end=10.0),
                _record("fast", "2", parent="1", start=0.0, end=2.0),
                _record("slow", "3", parent="1", start=2.0, end=9.5),
                _record("leaf", "4", parent="3", start=3.0, end=9.0),
            ]
        )[0]

    def test_render_tree_shows_times_and_indent(self):
        text = render_tree(self._tree())
        assert "trace t1" in text
        assert "root" in text and "leaf" in text
        assert "total=10000.0ms" in text
        lines = text.splitlines()
        leaf_line = next(line for line in lines if "leaf" in line)
        assert leaf_line.startswith("      ")  # depth 3

    def test_critical_path_follows_last_finisher(self):
        path = critical_path(self._tree())
        assert [node.name for node in path] == ["root", "slow", "leaf"]

    def test_render_critical_path_shares_sum_sensibly(self):
        text = render_critical_path(self._tree())
        assert "critical path of trace t1" in text
        assert "(path total)" in text
        assert "slow" in text and "fast" not in text

    def test_folded_stacks_merge_self_time(self):
        lines = folded_stacks([self._tree()])
        weights = dict(
            line.rsplit(" ", 1) for line in lines
        )
        assert weights["root;slow;leaf"] == str(6_000_000)
        assert weights["root;slow"] == str(1_500_000)
        # root self time: 10 - (2 + 7.5) = 0.5s
        assert weights["root"] == str(500_000)

    def test_folded_stacks_merge_across_traces(self):
        roots = build_trees(
            [
                _record("a", "1", trace="t1", start=0.0, end=1.0),
                _record("a", "2", trace="t2", start=0.0, end=2.0),
            ]
        )
        assert folded_stacks(roots) == ["a 3000000"]


class TestSpanNodeBasics:
    def test_negative_interval_clamped(self):
        node = SpanNode(_record("x", "1", start=5.0, end=4.0))
        assert node.seconds == 0.0
        assert node.self_seconds == 0.0

    def test_attr_of_missing_key(self):
        node = SpanNode(_record("x", "1"))
        assert node.attr("nope") is None
