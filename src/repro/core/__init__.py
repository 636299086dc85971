"""KOOZA: the paper's combined workload-modeling approach.

Public API:

* :class:`KoozaTrainer` / :class:`KoozaModel` / :class:`KoozaConfig` —
  train the four-subsystem-models-plus-dependency-queue model from a
  :class:`~repro.tracing.TraceSet` and generate synthetic workloads.
* :class:`ReplayHarness` — replay synthetic requests on simulated
  server hardware.
* :func:`compare_workloads` — Table-2 style fidelity validation.
* :func:`extract_request_features` — joint per-request feature vectors.
* :func:`stage_sequences` / :func:`mine_dependency_queue` — the
  structural component, mined from span columns.
* :data:`CAPABILITIES` — the Table 1 qualitative matrix.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".capabilities": ("CAPABILITIES", "Capability", "capability_table"),
    ".dependency": (
        "DependencyQueue", "mine_dependency_queue", "stage_sequences",
    ),
    ".features": (
        "RequestFeatures", "extract_request_features",
        "request_feature_columns",
    ),
    ".instances": (
        "MultiServerKooza", "split_traces_by_class", "split_traces_by_server",
    ),
    ".model": ("KoozaConfig", "KoozaModel", "SubsystemCoupler"),
    ".profile": (
        "CpuSummary", "MemorySummary", "NetworkSummary", "RequestSummary",
        "StorageSummary", "WorkloadProfile", "WorkloadProfileBuilder",
    ),
    ".replay": ("ReplayHarness",),
    ".serialize": (
        "load_model", "model_from_dict", "model_to_dict", "save_model",
    ),
    ".synthetic": ("Stage", "SyntheticRequest"),
    ".trainer": (
        "InsufficientTrainingData", "KoozaTrainer", "read_training_input",
    ),
    ".validation": (
        "ProfileComparison", "ProfileFeatureStats", "ValidationReport",
        "WorkloadFeatureStats", "compare_feature_stats", "compare_workloads",
    ),
})

__all__ = [
    "CAPABILITIES",
    "Capability",
    "CpuSummary",
    "DependencyQueue",
    "InsufficientTrainingData",
    "KoozaConfig",
    "KoozaModel",
    "KoozaTrainer",
    "MemorySummary",
    "NetworkSummary",
    "ProfileComparison",
    "ProfileFeatureStats",
    "ReplayHarness",
    "RequestFeatures",
    "RequestSummary",
    "Stage",
    "StorageSummary",
    "SubsystemCoupler",
    "SyntheticRequest",
    "ValidationReport",
    "WorkloadFeatureStats",
    "WorkloadProfile",
    "WorkloadProfileBuilder",
    "capability_table",
    "compare_feature_stats",
    "compare_workloads",
    "extract_request_features",
    "load_model",
    "mine_dependency_queue",
    "MultiServerKooza",
    "model_from_dict",
    "split_traces_by_class",
    "split_traces_by_server",
    "model_to_dict",
    "read_training_input",
    "request_feature_columns",
    "save_model",
    "stage_sequences",
]
