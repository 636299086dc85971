"""In-breadth modeling: per-subsystem workload models.

The paper's first family: models of the workload's behaviour in
specific system parts — storage (Sankar, Gulati), CPU (Abrahao,
Huang), memory (Barroso, Moro's ECHMM) and network (Feitelson,
Sengupta) — plus the combined four-model workload generator used as
the in-breadth baseline in the comparison benches.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".combined": ("InBreadthWorkloadModel",),
    ".cpu": ("CpuUtilizationModel", "utilization_series"),
    ".memory": ("EchmmMemoryModel", "MemoryAccessModel"),
    ".network": ("NetworkCharacterization", "NetworkTrafficModel"),
    ".storage": ("StorageModel", "StorageProfile", "seek_distances"),
})

__all__ = [
    "CpuUtilizationModel",
    "EchmmMemoryModel",
    "InBreadthWorkloadModel",
    "MemoryAccessModel",
    "NetworkCharacterization",
    "NetworkTrafficModel",
    "StorageModel",
    "StorageProfile",
    "seek_distances",
    "utilization_series",
]
