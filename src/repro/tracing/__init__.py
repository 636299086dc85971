"""Tracing substrate: subsystem records, Dapper-style spans, collection.

Provides the typed per-subsystem trace records, the span/trace-tree
machinery for in-depth request tracing, the :class:`Tracer` that the
simulated datacenter is instrumented with, and JSONL persistence.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".adapters": (
        "read_cluster_jobs", "read_spc_trace", "write_cluster_jobs",
        "write_spc_trace",
    ),
    ".profiler": ("ClusterProfiler", "ProfileSample"),
    ".records": (
        "READ", "WRITE", "CpuRecord", "MemoryRecord", "NetworkRecord",
        "RequestRecord", "StorageRecord",
    ),
    ".span": ("Annotation", "Span", "TraceTree", "build_trace_trees"),
    ".source": (
        "FlatTraceDump", "TraceSource", "as_trace_set", "source_columns",
    ),
    ".store": ("STREAM_TYPES", "load_traces", "save_traces"),
    ".tracer": (
        "STREAM_NAMES", "Tracer", "TraceSet", "shift_request", "shift_span",
        "shift_subsystem_record",
    ),
})

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
