"""Unit tests for Dapper-style spans, the span-column walk and the
trace-tree oracle it replaced; each malformed-trace rule is checked on
both."""

import pytest

from repro.core import stage_sequences, trace_walks
from repro.tracing import Span
from repro.tracing.columnar import columns_from_records
from tests.oracles import build_trace_trees, tree_stage_sequence


def _span(trace_id, span_id, parent_id, name, start, end):
    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        server="s1",
        start=start,
        end=end,
    )


def _walks(spans):
    """``(trace_id, names)`` of each trace's span-column walk."""
    walks = trace_walks(columns_from_records("spans", spans))
    return [(trace_id, names) for trace_id, names, _ in walks]


def _gfs_trace(trace_id=1, offset=0.0):
    """A Figure-1 shaped trace: root with six stage children."""
    stages = [
        ("network_rx", 0.0, 0.1),
        ("cpu_lookup", 0.1, 0.2),
        ("memory", 0.2, 0.3),
        ("storage", 0.3, 0.8),
        ("cpu_aggregate", 0.8, 0.9),
        ("network_tx", 0.9, 1.0),
    ]
    spans = [_span(trace_id, 100 * trace_id, None, "request", offset, offset + 1.0)]
    for i, (name, s, e) in enumerate(stages):
        spans.append(
            _span(trace_id, 100 * trace_id + i + 1, 100 * trace_id, name,
                  offset + s, offset + e)
        )
    return spans


def test_build_single_tree():
    trees = build_trace_trees(_gfs_trace())
    assert len(trees) == 1
    assert trees[0].root.name == "request"
    assert trees[0].span_count() == 7
    assert _walks(_gfs_trace()) == [(1, ["request", *FIGURE_1])]


FIGURE_1 = (
    "network_rx",
    "cpu_lookup",
    "memory",
    "storage",
    "cpu_aggregate",
    "network_tx",
)


def test_stage_sequence_matches_figure_1():
    spans = _gfs_trace()
    assert tree_stage_sequence(build_trace_trees(spans)[0]) == list(FIGURE_1)
    assert stage_sequences(columns_from_records("spans", spans)) == [
        (1, FIGURE_1)
    ]


def test_multiple_traces_grouped():
    spans = _gfs_trace(1) + _gfs_trace(2, offset=5.0)
    trees = build_trace_trees(spans)
    assert [t.trace_id for t in trees] == [1, 2]
    assert [trace_id for trace_id, _ in _walks(spans)] == [1, 2]


def test_orphan_spans_dropped():
    spans = _gfs_trace()
    spans.append(_span(1, 999, 888, "lost_child", 0.0, 0.1))  # parent 888 missing
    tree = build_trace_trees(spans)[0]
    assert tree.span_count() == 7  # orphan excluded
    assert _walks(spans) == _walks(_gfs_trace())


def test_trace_without_root_skipped():
    spans = [_span(3, 1, 42, "floating", 0.0, 1.0)]
    assert build_trace_trees(spans) == []
    assert _walks(spans) == []


def test_trace_with_two_roots_skipped():
    spans = [
        _span(4, 1, None, "root_a", 0.0, 1.0),
        _span(4, 2, None, "root_b", 0.0, 1.0),
    ]
    assert build_trace_trees(spans) == []
    assert _walks(spans) == []


def test_span_duration_and_annotation():
    span = _span(1, 1, None, "x", 2.0, 3.5)
    span.annotate(2.1, "cache miss")
    assert span.duration == pytest.approx(1.5)
    assert span.annotations[0].message == "cache miss"


def test_span_dict_round_trip():
    span = _span(1, 2, 1, "storage", 0.0, 0.5)
    span.annotate(0.2, "seek")
    restored = Span.from_dict(span.to_dict())
    assert restored.name == span.name
    assert restored.annotations[0].timestamp == pytest.approx(0.2)


def test_children_ordered_by_start():
    tree = build_trace_trees(_gfs_trace())[0]
    children = tree.children_of(tree.root)
    starts = [c.start for c in children]
    assert starts == sorted(starts)
