"""Queueing substrate: arrival processes, analytic queues, networks.

Provides the arrival-process zoo used by open-loop workload clients,
distribution fitting with KS-test selection (Feitelson's method),
closed-form M/M/1, M/M/c and M/G/1 results, and a class-routed
multi-station queueing-network simulator — the machinery of the
in-depth modeling baseline.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".analytic": (
        "MG1", "MG1_saturating", "MM1", "MM1_saturating", "MMc",
        "MMc_saturating", "QueueMetrics", "erlang_c", "erlang_c_saturating",
        "saturated_metrics",
    ),
    ".arrivals": (
        "ArrivalProcess", "BModelArrivals", "DeterministicArrivals",
        "DistributionArrivals", "EmpiricalArrivals", "MMPPArrivals",
        "PoissonArrivals",
    ),
    ".autocorrelated": ("CopulaArrivals", "fit_ar_coefficients"),
    ".fitting": (
        "CANDIDATE_FAMILIES", "FittedDistribution", "fit_distribution",
    ),
    ".lqn": ("Activity", "LqnResult", "LqnSimulator", "LqnTask"),
    ".mva": (
        "AnalyticStation", "JacksonSolution", "MvaSolution", "solve_jackson",
        "solve_jackson_saturating", "solve_mva",
    ),
    ".network": (
        "NetworkResult", "QueueingNetwork", "Station", "StationVisit",
    ),
    ".plan": (
        "CapacityPlan", "ClassDemand", "ClusterModel", "PlanPoint",
        "ValidationPoint", "cross_validate", "fit_cluster_model",
        "parse_multipliers", "plan_sweep", "solve_point",
    ),
})

__all__ = [
    "Activity",
    "AnalyticStation",
    "ArrivalProcess",
    "BModelArrivals",
    "CANDIDATE_FAMILIES",
    "CapacityPlan",
    "ClassDemand",
    "ClusterModel",
    "CopulaArrivals",
    "JacksonSolution",
    "fit_ar_coefficients",
    "LqnResult",
    "LqnSimulator",
    "LqnTask",
    "MvaSolution",
    "PlanPoint",
    "QueueMetrics",
    "ValidationPoint",
    "cross_validate",
    "fit_cluster_model",
    "parse_multipliers",
    "plan_sweep",
    "solve_jackson",
    "solve_jackson_saturating",
    "solve_mva",
    "solve_point",
    "DeterministicArrivals",
    "DistributionArrivals",
    "EmpiricalArrivals",
    "FittedDistribution",
    "MG1",
    "MG1_saturating",
    "MM1",
    "MM1_saturating",
    "MMc",
    "MMc_saturating",
    "MMPPArrivals",
    "NetworkResult",
    "PoissonArrivals",
    "QueueingNetwork",
    "Station",
    "StationVisit",
    "erlang_c",
    "erlang_c_saturating",
    "fit_distribution",
    "saturated_metrics",
]
