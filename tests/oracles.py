"""Batch references the analysis fold path is tested against.

Characterization and Table-2 validation each have one fold path in
``src/``: column batches folded into mergeable accumulators
(``WorkloadProfileBuilder.update_batch``,
``WorkloadFeatureStats.update_batch``) and finished into a profile or a
report.  The references here compute the same results the plain way,
over materialized records with numpy, and share none of that code:

* :func:`reference_request_features` — the per-record request-feature
  walk the column join ``request_feature_columns`` replaced;
* :func:`compare_by_walk` — the Table-2 report as a walk over those
  ``RequestFeatures`` lists, grouped per profile in Python dicts;
* :func:`profile_from_traces` — ``WorkloadProfile`` characterization of
  a materialized trace set through the breadth models and stats helpers;
* :func:`tree_stage_sequence` / :func:`tree_stage_sequences` — the
  dependency queue's stage order as a walk over reassembled
  ``TraceTree`` objects, which the span-column mining
  (``repro.core.stage_sequences``) replaced.

``docs/streaming_analysis.md`` states the equality contract: counts,
fractions, quantiles, KS and modal ops match exactly; accumulated
means, variances and correlations within a relative 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.breadth import NetworkTrafficModel, StorageProfile, utilization_series
from repro.core import (
    CpuSummary,
    MemorySummary,
    NetworkSummary,
    ProfileComparison,
    RequestFeatures,
    RequestSummary,
    StorageSummary,
    ValidationReport,
    WorkloadProfile,
)
from repro.stats import (
    classify_utilization_pattern,
    cross_correlation,
    index_of_dispersion,
    interarrival_cov,
    ks_two_sample,
    peak_to_mean,
)
from repro.tracing import READ, TraceSource, TraceTree, as_trace_set, build_trace_trees

#: Servers whose records are control-plane, not data-path.
_CONTROL_SERVERS = ("master",)

#: Minimum windows before a utilization pattern is classified.
_MIN_PATTERN_WINDOWS = 8


def reference_request_features(source: TraceSource) -> list[RequestFeatures]:
    """Assemble per-request feature vectors, sorted by arrival time.

    The per-record walk: folds over the source's streams without
    requiring list attributes.  Control-plane records (master lookups)
    are excluded from the data-path features.  Requests missing any
    subsystem record (e.g. cut off at simulation end) are dropped.
    """
    storage_by_request: dict[int, list] = {}
    for r in source.iter_records("storage"):
        storage_by_request.setdefault(r.request_id, []).append(r)
    memory_by_request: dict[int, list] = {}
    for r in source.iter_records("memory"):
        memory_by_request.setdefault(r.request_id, []).append(r)
    cpu_by_request: dict[int, list] = {}
    for r in source.iter_records("cpu"):
        if r.server not in _CONTROL_SERVERS:
            cpu_by_request.setdefault(r.request_id, []).append(r)
    network_by_request: dict[int, list] = {}
    for r in source.iter_records("network"):
        if r.server not in _CONTROL_SERVERS:
            network_by_request.setdefault(r.request_id, []).append(r)

    completed = (
        r
        for r in source.iter_records("requests")
        if r.completion_time > r.arrival_time
    )
    features = []
    for record in completed:
        rid = record.request_id
        storage = sorted(
            storage_by_request.get(rid, []), key=lambda r: r.timestamp
        )
        memory = sorted(memory_by_request.get(rid, []), key=lambda r: r.timestamp)
        cpu = cpu_by_request.get(rid, [])
        network = network_by_request.get(rid, [])
        if not storage or not memory or not cpu or not network:
            continue
        lookup = sum(r.busy_seconds for r in cpu if r.phase == "lookup")
        aggregate = sum(r.busy_seconds for r in cpu if r.phase != "lookup")
        features.append(
            RequestFeatures(
                request_id=rid,
                request_class=record.request_class,
                server=record.server,
                arrival_time=record.arrival_time,
                latency=record.latency,
                network_bytes=max(r.size_bytes for r in network),
                cpu_lookup_busy=lookup,
                cpu_aggregate_busy=aggregate,
                memory_op=memory[0].op,
                memory_bytes=sum(r.size_bytes for r in memory),
                memory_bank=memory[0].bank,
                storage_op=storage[0].op,
                storage_bytes=sum(r.size_bytes for r in storage),
                storage_lbn=storage[0].lbn,
            )
        )
    features.sort(key=lambda f: f.arrival_time)

    # Seek deltas between consecutive requests on the same server.
    block = 4096
    last_end: dict[str, int] = {}
    for f in features:
        blocks = max(1, -(-f.storage_bytes // block))
        if f.server in last_end:
            f.storage_delta = f.storage_lbn - last_end[f.server]
        f.storage_delta = int(f.storage_delta)
        last_end[f.server] = f.storage_lbn + blocks
    return features


def tree_stage_sequence(tree: TraceTree) -> list[str]:
    """Ordered leaf-span names of one trace tree.

    The leaves of the depth-first, start-ordered walk, stably sorted by
    start time: the request's subsystem activation order.
    """
    leaves = [s for s in tree.walk() if not tree.children_of(s)]
    leaves.sort(key=lambda s: s.start)
    return [s.name for s in leaves]


def tree_stage_sequences(spans: list) -> list[tuple[int, tuple[str, ...]]]:
    """``(trace_id, stage names)`` of every tree ``spans`` reassemble to."""
    return [
        (tree.trace_id, tuple(tree_stage_sequence(tree)))
        for tree in build_trace_trees(spans)
    ]


def profile_key(features: RequestFeatures) -> tuple[str, int]:
    """Profile of a request: (storage op, log2 size bucket of payload)."""
    size = max(1, features.network_bytes)
    return (features.storage_op, int(round(np.log2(size))))


def _modal_op(ops: list[str]) -> str:
    values, counts = np.unique(ops, return_counts=True)
    return str(values[np.argmax(counts)])


def compare_by_walk(
    original: TraceSource,
    synthetic: TraceSource,
    min_profile_count: int = 5,
) -> ValidationReport:
    """The Table-2 report as a walk over per-request feature lists."""
    orig = reference_request_features(original)
    synth = reference_request_features(synthetic)
    if not orig or not synth:
        raise ValueError("both trace sets must contain complete requests")

    orig_by_profile: dict[tuple, list[RequestFeatures]] = {}
    for f in orig:
        orig_by_profile.setdefault(profile_key(f), []).append(f)
    synth_by_profile: dict[tuple, list[RequestFeatures]] = {}
    for f in synth:
        synth_by_profile.setdefault(profile_key(f), []).append(f)

    def means(o, s, name):
        return (
            float(np.mean([getattr(f, name) for f in o])),
            float(np.mean([getattr(f, name) for f in s])),
        )

    profiles = []
    for key in sorted(set(orig_by_profile) & set(synth_by_profile)):
        o, s = orig_by_profile[key], synth_by_profile[key]
        if len(o) < min_profile_count or len(s) < min_profile_count:
            continue
        modal_mem_op = _modal_op([f.memory_op for f in o])
        modal_sto_op = _modal_op([f.storage_op for f in o])
        profiles.append(
            ProfileComparison(
                profile=key,
                n_original=len(o),
                n_synthetic=len(s),
                network_bytes=means(o, s, "network_bytes"),
                cpu_utilization=means(o, s, "cpu_utilization"),
                memory_bytes=means(o, s, "memory_bytes"),
                storage_bytes=means(o, s, "storage_bytes"),
                latency=means(o, s, "latency"),
                latency_p95=(
                    float(np.percentile([f.latency for f in o], 95)),
                    float(np.percentile([f.latency for f in s], 95)),
                ),
                memory_op_match=float(
                    np.mean([f.memory_op == modal_mem_op for f in s])
                ),
                storage_op_match=float(
                    np.mean([f.storage_op == modal_sto_op for f in s])
                ),
            )
        )
    if not profiles:
        raise ValueError("no common profiles with enough requests to compare")

    ks, pvalue = ks_two_sample(
        [f.latency for f in orig], [f.latency for f in synth]
    )
    return ValidationReport(
        profiles=profiles,
        latency_ks=ks,
        latency_ks_pvalue=pvalue,
        joint_correlation_original=cross_correlation(
            [f.network_bytes for f in orig], [f.storage_bytes for f in orig]
        ),
        joint_correlation_synthetic=cross_correlation(
            [f.network_bytes for f in synth], [f.storage_bytes for f in synth]
        ),
        n_original=len(orig),
        n_synthetic=len(synth),
    )


def profile_from_traces(
    source: TraceSource,
    window: float = 0.25,
    cores: int = 8,
) -> WorkloadProfile:
    """Characterize a materialized trace set through the numpy helpers."""
    traces = as_trace_set(source)
    storage = None
    if len(traces.storage) >= 2:
        sp = StorageProfile.characterize(traces.storage)
        storage = StorageSummary(
            n_ios=sp.n_ios,
            read_fraction=sp.read_fraction,
            mean_size=sp.mean_size,
            p95_size=sp.p95_size,
            sequential_fraction=sp.sequential_fraction,
            mean_abs_seek=sp.mean_abs_seek,
            mean_queue_depth=sp.mean_queue_depth,
            mean_interarrival=sp.mean_interarrival,
        )
    cpu = None
    if traces.cpu:
        series = utilization_series(
            traces.cpu, window=window, cores=cores, origin=0.0
        )
        cpu = CpuSummary(
            n_bursts=len(traces.cpu),
            n_windows=int(series.size),
            mean_utilization=float(series.mean()),
            peak_utilization=float(series.max()),
            pattern=(
                classify_utilization_pattern(series)
                if series.size >= _MIN_PATTERN_WINDOWS
                else None
            ),
        )
    network = None
    arrivals = NetworkTrafficModel._arrival_records(traces.network)
    if len(arrivals) >= 2:
        times = np.array([r.timestamp for r in arrivals])
        span = float(times[-1] - times[0])
        gaps = np.diff(times)
        positive = gaps[gaps > 0]
        cov = float(interarrival_cov(positive)) if positive.size >= 2 else None
        try:
            idc = float(index_of_dispersion(times, window, origin=0.0))
            ptm = float(peak_to_mean(times, window, origin=0.0))
        except ValueError:
            idc = ptm = None
        network = NetworkSummary(
            n_arrivals=len(arrivals),
            mean_rate=len(arrivals) / span if span > 0 else 0.0,
            interarrival_cov=cov,
            index_of_dispersion=idc,
            peak_to_mean=ptm,
            mean_size=float(np.mean([r.size_bytes for r in arrivals])),
        )
    memory = None
    if traces.memory:
        memory = MemorySummary(
            n_accesses=len(traces.memory),
            read_fraction=float(
                np.mean([1.0 if r.op == READ else 0.0 for r in traces.memory])
            ),
            mean_size=float(np.mean([r.size_bytes for r in traces.memory])),
        )
    requests = None
    completed = traces.completed_requests()
    if completed:
        latencies = [r.latency for r in completed]
        requests = RequestSummary(
            n_requests=len(completed),
            mean_latency=float(np.mean(latencies)),
            p95_latency=float(np.percentile(latencies, 95)),
        )
    return WorkloadProfile(
        window=window,
        cores=cores,
        extent=traces.extent(),
        classes=traces.classes(),
        storage=storage,
        cpu=cpu,
        network=network,
        memory=memory,
        requests=requests,
    )
