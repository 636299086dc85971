"""Tracing substrate: subsystem records, Dapper-style spans, collection.

Provides the typed per-subsystem trace records, the span/trace-tree
machinery for in-depth request tracing, the :class:`Tracer` that the
simulated datacenter is instrumented with, and JSONL persistence.
"""

from .adapters import (
    read_cluster_jobs,
    read_spc_trace,
    write_cluster_jobs,
    write_spc_trace,
)
from .profiler import ClusterProfiler, ProfileSample
from .records import (
    READ,
    WRITE,
    CpuRecord,
    MemoryRecord,
    NetworkRecord,
    RequestRecord,
    StorageRecord,
)
from .span import Annotation, Span, TraceTree, build_trace_trees
from .source import FlatTraceDump, TraceSource, as_trace_set, source_columns
from .store import STREAM_TYPES, load_traces, save_traces
from .tracer import (
    STREAM_NAMES,
    Tracer,
    TraceSet,
    shift_request,
    shift_span,
    shift_subsystem_record,
)

__all__ = [
    "Annotation",
    "ClusterProfiler",
    "CpuRecord",
    "FlatTraceDump",
    "ProfileSample",
    "MemoryRecord",
    "NetworkRecord",
    "READ",
    "RequestRecord",
    "STREAM_NAMES",
    "STREAM_TYPES",
    "Span",
    "StorageRecord",
    "TraceSet",
    "TraceSource",
    "TraceTree",
    "Tracer",
    "WRITE",
    "as_trace_set",
    "build_trace_trees",
    "load_traces",
    "read_cluster_jobs",
    "read_spc_trace",
    "save_traces",
    "source_columns",
    "shift_request",
    "shift_span",
    "shift_subsystem_record",
    "write_cluster_jobs",
    "write_spc_trace",
]
