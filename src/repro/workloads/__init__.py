"""Workload generation: request mixes and client drivers.

Request-class mixes (including the paper's Table 2 workload), open- and
closed-loop clients, and the MediSyn streaming-media generator.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".clients": ("ClosedLoopClient", "OpenLoopClient"),
    ".mixes": (
        "FileAccessPattern", "RequestClass", "WorkloadMix", "oltp_mix",
        "table2_mix", "web_serving_mix",
    ),
    ".mediasyn": ("MediaSession", "MediSynSpec", "MediSynWorkload"),
})

__all__ = [
    "ClosedLoopClient",
    "FileAccessPattern",
    "MediaSession",
    "MediSynSpec",
    "MediSynWorkload",
    "OpenLoopClient",
    "RequestClass",
    "WorkloadMix",
    "oltp_mix",
    "table2_mix",
    "web_serving_mix",
]
