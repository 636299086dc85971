"""In-depth modeling: request-flow queueing models.

The paper's second family: trace a request through the system and
model the flow as a queueing network (Liu et al., Kamra et al.), with
Dapper-style span traces as the training input.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".admission": ("AdmissionController", "AdmissionStats"),
    ".anomaly": ("AnomalyDetector", "AnomalyVerdict", "StageProfile"),
    ".model": ("InDepthModel",),
})

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AnomalyDetector",
    "AnomalyVerdict",
    "InDepthModel",
    "StageProfile",
]
