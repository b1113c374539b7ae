"""Collie's core: search space, workload engine, anomaly monitor, MFS
algorithm, simulated-annealing search, and the top-level orchestration.

The quickest route in::

    from repro.core import Collie
    report = Collie.for_subsystem("F", seed=0, budget_hours=10.0).run()
    for anomaly in report.anomalies:
        print(anomaly.describe())
"""

from repro import lazy_attribute

#: Public name -> the submodule defining it, imported on first use (the
#: executor pulls in ``multiprocessing``, which a search never needs).
_SUBMODULES = {
    "Collie": "collie",
    "SearchReport": "collie",
    "WorkloadEngine": "engine",
    "EvalCache": "evalcache",
    "CampaignExecutor": "executor",
    "ExecutorStats": "executor",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "FaultyTestbed": "faults",
    "RetryPolicy": "faults",
    "TaskFailed": "faults",
    "MinimalFeatureSet": "mfs",
    "AnomalyMonitor": "monitor",
    "AnomalyVerdict": "monitor",
    "PopulationCollie": "population",
    "PopulationReport": "population",
    "SearchSpace": "space",
}

__all__ = list(_SUBMODULES)
__getattr__ = lazy_attribute(__name__, _SUBMODULES)
