"""Simulated datacenter substrate.

Machines built from device models, plus the three applications the
repository's experiments run: the GFS-like file system (the paper's
Figure 1 workload), a 3-tier web application (the in-depth baseline's
native workload) and a MapReduce-like batch framework.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".dvfs": (
        "DvfsPolicyResult", "DvfsSetting", "evaluate_dvfs_policy",
        "model_guided_policy",
    ),
    ".gfs": ("GfsCluster", "GfsRequest", "GfsSpec"),
    ".machine": ("Machine", "MachineSpec"),
    ".mapreduce": (
        "JobResult", "MapReduceCluster", "MapReduceJob", "MapReduceSpec",
    ),
    ".power": ("EnergyReport", "MachinePowerSpec", "PowerModel"),
    ".fleet": (
        "FleetResult", "FleetSpec", "ReplicaResult", "StoreFleetResult",
        "collect_fleet", "collect_fleet_to_store", "collect_replicas",
        "merge_replicas", "resume_fleet_collection", "run_replica",
        "sweep_grid", "sweep_replica_specs",
    ),
    ".session": (
        "GfsRun", "ReplicaSession", "ReplicaSpec", "default_mapreduce_jobs",
        "run_gfs_workload", "run_mapreduce_jobs", "run_webapp_workload",
    ),
    ".webapp": (
        "WebAppCluster", "WebAppSpec", "WebRequest", "WebRequestClass",
    ),
})

__all__ = [
    "DvfsPolicyResult",
    "DvfsSetting",
    "GfsCluster",
    "evaluate_dvfs_policy",
    "model_guided_policy",
    "GfsRequest",
    "GfsRun",
    "GfsSpec",
    "EnergyReport",
    "FleetResult",
    "StoreFleetResult",
    "collect_fleet_to_store",
    "collect_replicas",
    "merge_replicas",
    "sweep_grid",
    "sweep_replica_specs",
    "FleetSpec",
    "JobResult",
    "Machine",
    "MachinePowerSpec",
    "MachineSpec",
    "PowerModel",
    "MapReduceCluster",
    "MapReduceJob",
    "MapReduceSpec",
    "WebAppCluster",
    "WebAppSpec",
    "WebRequest",
    "WebRequestClass",
    "ReplicaResult",
    "ReplicaSession",
    "ReplicaSpec",
    "collect_fleet",
    "resume_fleet_collection",
    "default_mapreduce_jobs",
    "run_gfs_workload",
    "run_mapreduce_jobs",
    "run_replica",
    "run_webapp_workload",
]
