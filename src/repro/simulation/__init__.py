"""Discrete-event simulation substrate.

A compact generator-based simulation kernel (:class:`Environment`,
:class:`Process`, :class:`Event`), shared resources (:class:`Resource`,
:class:`Store`) and deterministic random streams
(:class:`RandomStreams`).  All datacenter device and application models
in :mod:`repro.datacenter` run on this engine.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".checkpoint": ("engine_digest", "verify_engine_digest"),
    ".engine": (
        "AllOf", "AnyOf", "Environment", "Event", "Interrupt", "Process",
        "SimulationError", "Timeout",
    ),
    ".parallel": ("available_workers", "resolve_workers", "run_sharded"),
    ".resources": ("Request", "Resource", "Store", "UtilizationMeter"),
    ".rng": ("RandomStreams",),
})

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RandomStreams",
    "SimulationError",
    "Store",
    "Timeout",
    "UtilizationMeter",
    "available_workers",
    "engine_digest",
    "resolve_workers",
    "run_sharded",
    "verify_engine_digest",
]
