"""repro: datacenter workload modeling — in-breadth, in-depth and KOOZA.

A from-scratch reproduction of Delimitrou & Kozyrakis,
"Cross-Examination of Datacenter Workload Modeling Techniques" (2011):
a simulated datacenter substrate (discrete-event engine, device models,
GFS / 3-tier / MapReduce applications, Dapper-style tracing), the two
surveyed modeling families (per-subsystem in-breadth models and
queueing-network in-depth models), and KOOZA — the combined approach
with four subsystem models plus a time-dependency queue.

Quickstart::

    import numpy as np
    from repro import run_gfs_workload, KoozaTrainer, ReplayHarness
    from repro import compare_workloads

    run = run_gfs_workload(n_requests=2000, seed=7)
    model = KoozaTrainer().fit(run.traces)
    synthetic = model.synthesize(2000, np.random.default_rng(42))
    replayed = ReplayHarness().replay(synthetic)
    print(compare_workloads(run.traces, replayed).to_table())
"""

import importlib

from ._version import tool_version


def _lazy_exports(namespace, exports):
    """The module ``__getattr__`` and ``__dir__`` of a lazy package (PEP 562).

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule (relative to the package, e.g. ``".model"``) to the names
    it defines that the package re-exports.  The submodule is imported
    on the first access to one of its names, so importing the package
    loads none of its submodules, and a command loads only the modules
    it runs.

    Every access reads the name from its submodule again; nothing is
    cached in the package.  Code that rebinds a submodule's function
    and restores it later (the traced benchmark wraps layer functions
    in every loaded module that holds them) is then seen through the
    package while the wrapper is installed, and never left behind in it
    afterwards.
    """
    package = namespace["__name__"]
    where = {
        name: package + module for module, names in exports.items() for name in names
    }

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__():
        return sorted(set(namespace) | set(where) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__


_getattr, __dir__ = _lazy_exports(globals(), {
    ".core.capabilities": ("CAPABILITIES", "capability_table"),
    ".core.dependency": ("mine_dependency_queue",),
    ".core.features": ("extract_request_features",),
    ".core.model": ("KoozaConfig", "KoozaModel"),
    ".core.profile": ("WorkloadProfile", "WorkloadProfileBuilder"),
    ".core.replay": ("ReplayHarness",),
    ".core.synthetic": ("SyntheticRequest",),
    ".core.trainer": ("KoozaTrainer",),
    ".core.validation": (
        "ValidationReport", "WorkloadFeatureStats", "compare_feature_stats",
        "compare_workloads",
    ),
    ".breadth.combined": ("InBreadthWorkloadModel",),
    ".datacenter.gfs": ("GfsCluster", "GfsRequest", "GfsSpec"),
    ".datacenter.machine": ("Machine", "MachineSpec"),
    ".datacenter.session": (
        "run_gfs_workload", "run_mapreduce_jobs", "run_webapp_workload",
    ),
    ".depth.model": ("InDepthModel",),
    ".tracing.source": ("FlatTraceDump", "TraceSource", "as_trace_set"),
    ".tracing.store": ("load_traces", "save_traces"),
    ".tracing.tracer": ("TraceSet", "Tracer"),
})


def __getattr__(name: str):
    if name == "__version__":
        # Resolved from installed metadata when available, so stamped
        # shard manifests, `repro --version` and `/healthz` all agree.
        # The one cached name: it never changes in a process.
        global __version__
        __version__ = tool_version()
        return __version__
    return _getattr(name)


__all__ = [
    "CAPABILITIES",
    "FlatTraceDump",
    "GfsCluster",
    "GfsRequest",
    "GfsSpec",
    "InBreadthWorkloadModel",
    "InDepthModel",
    "KoozaConfig",
    "KoozaModel",
    "KoozaTrainer",
    "Machine",
    "MachineSpec",
    "ReplayHarness",
    "SyntheticRequest",
    "TraceSet",
    "TraceSource",
    "Tracer",
    "ValidationReport",
    "WorkloadFeatureStats",
    "WorkloadProfile",
    "WorkloadProfileBuilder",
    "as_trace_set",
    "capability_table",
    "compare_feature_stats",
    "compare_workloads",
    "extract_request_features",
    "load_traces",
    "mine_dependency_queue",
    "run_gfs_workload",
    "run_mapreduce_jobs",
    "run_webapp_workload",
    "save_traces",
    "__version__",
    "tool_version",
]
