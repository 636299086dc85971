"""Stage sequences mined from span columns equal the trace-tree walk.

``repro.core.stage_sequences`` reads each trace's leaf order off the
span columns with array operations; ``tests/oracles.py`` keeps the walk
over reassembled ``TraceTree`` objects it replaced.  The properties run
both over random span forests that hold every malformed shape the tree
builder handles — orphans with their subtrees, traces with 0, 1 or 2
roots, parent cycles, equal start times and shuffled stream order — in
memory and through a 1–4-shard stitched store under both codecs, where
the trace and span ids of later shards are shifted.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KoozaTrainer, mine_dependency_queue, stage_sequences
from repro.datacenter import run_gfs_workload, run_webapp_workload
from repro.store import ShardStore, ShardWriter, shard_dirname
from repro.tracing import Span, source_columns
from repro.tracing.columnar import columns_from_records
from tests.oracles import tree_stage_sequences

NAMES = ("network_rx", "cpu_lookup", "memory", "storage", "master_lookup")


@st.composite
def span_forests(draw, max_traces=5):
    """Span lists over up to ``max_traces`` traces, in shuffled order.

    Span ids are unique within a trace and may repeat across traces.
    Each trace draws 0, 1 or 2 roots; every other span names a missing
    parent (an orphan) or any span of its trace, itself included, so
    parent cycles occur.  Starts come from four values, so ties do too.
    """
    trace_ids = draw(st.lists(st.integers(1, 9), max_size=max_traces, unique=True))
    spans = []
    for trace_id in trace_ids:
        ids = draw(st.lists(st.integers(1, 30), min_size=1, max_size=9, unique=True))
        n_roots = draw(st.sampled_from((0, 1, 1, 1, 2)))
        for i, span_id in enumerate(ids):
            if i < n_roots:
                parent = None
            elif draw(st.integers(0, 7)) == 0:
                parent = draw(st.integers(31, 40))
            else:
                parent = draw(st.sampled_from(ids))
            start = float(draw(st.integers(0, 3)))
            spans.append(
                Span(trace_id, span_id, parent, draw(st.sampled_from(NAMES)),
                     "s0", start, start + 1.0)
            )
    return draw(st.permutations(spans))


@settings(max_examples=400, deadline=None)
@given(spans=span_forests())
def test_column_stage_sequences_equal_the_tree_walk(spans):
    got = stage_sequences(columns_from_records("spans", spans))
    assert got == tree_stage_sequences(spans)


@settings(max_examples=40, deadline=None)
@given(
    forests=st.lists(span_forests(max_traces=3), min_size=1, max_size=4),
    codec=st.sampled_from(("jsonl", "columnar")),
)
def test_stitched_store_stage_sequences_equal_the_tree_walk(forests, codec):
    with tempfile.TemporaryDirectory() as directory:
        for index, spans in enumerate(forests):
            writer = ShardWriter(
                Path(directory) / shard_dirname(index), index=index, codec=codec
            )
            for span in spans:
                writer.write("spans", span)
            writer.finalize(duration=5.0)
        store = ShardStore(directory)
        got = stage_sequences(source_columns(store, "spans"))
        assert got == tree_stage_sequences(list(store.iter_records("spans")))


def _span(span_id, parent_id, name, start):
    return Span(1, span_id, parent_id, name, "s0", start, start + 1.0)


def test_start_ties_break_by_preorder_not_stream_order():
    # Leaves "late" and "early" both start at 5.0.  "early" sits under
    # the sibling that starts first, so the walk reaches it first even
    # though it comes later in the stream.
    spans = [
        _span(1, None, "request", 0.0),
        _span(2, 1, "cpu", 1.0),
        _span(4, 2, "late", 5.0),
        _span(3, 1, "cpu", 0.0),
        _span(5, 3, "early", 5.0),
    ]
    assert stage_sequences(columns_from_records("spans", spans)) == [
        (1, ("early", "late"))
    ]
    assert tree_stage_sequences(spans) == [(1, ("early", "late"))]


def test_orphans_cycles_and_rootless_traces_are_dropped():
    spans = [
        _span(1, None, "request", 0.0),
        _span(2, 1, "storage", 1.0),
        _span(3, 9, "lost", 0.5),  # parent 9 missing
        _span(4, 3, "lost_child", 0.6),  # under the orphan
        _span(5, 6, "cycle_a", 0.1),
        _span(6, 5, "cycle_b", 0.2),
        Span(2, 1, 7, "rootless", "s0", 0.0, 1.0),
    ]
    assert stage_sequences(columns_from_records("spans", spans)) == [
        (1, ("storage",))
    ]


def test_empty_and_duplicate_ids():
    assert stage_sequences(columns_from_records("spans", [])) == []
    duplicate = [_span(1, None, "request", 0.0), _span(1, 1, "x", 1.0)]
    with pytest.raises(ValueError, match="unique"):
        stage_sequences(columns_from_records("spans", duplicate))


@pytest.mark.parametrize(
    "traces",
    [
        run_gfs_workload(n_requests=300, seed=3).traces,
        run_webapp_workload(n_requests=120, seed=9),
    ],
    ids=["gfs", "webapp"],
)
def test_simulated_traces_match_the_tree_walk(traces):
    sequences = stage_sequences(source_columns(traces, "spans"))
    assert sequences == tree_stage_sequences(traces.spans)
    queue = mine_dependency_queue(sequences)
    assert queue.default == KoozaTrainer().fit(traces).dependency_queue.default
