"""Online non-preemptive weighted flow-time scheduling with job rejection.

Event-driven simulator, exact offline baselines, and a dual-fitting
verifier, all in exact rational arithmetic.

``import flowsched`` runs this file only: each public name is imported
from its home module on first access (PEP 562) and kept here. So
``generate``, ``WorkloadModel`` and ``serialize_trace`` load ``harness``
and ``core``; ``run`` adds ``scheduler``, ``impact`` and ``rejection``;
``verify_duals`` adds ``analysis``; ``import *`` loads all eight.
``flowsched.cli`` (the ``flowsched`` command) imports them all up front;
networkx waits for the first solve (see ``baselines``). A submodule's
name, ``dispatch`` among them, always means the submodule.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": "DualCertificate Metrics RejectionAudit audit_rejections beta_series "
                "compute_metrics fractional_flow_plan verify_duals",
    "baselines": "default_horizon lp_cost preemptive_hdf transport_opt",
    "core": "Instance InvalidInstance Job JobNotRunnableOnMachine Rational ResidualJob "
            "density_scale validate_instance",
    "dispatch": "NoEligibleMachine run_multi",
    "harness": "BadParameters WorkloadModel format_trace generate parse_trace "
               "parse_trace_text serialize_trace",
    "impact": "ArrivalImpact arrival_impact",
    "rejection": "BucketReport ImmediateDecision MinusKey PlusKey RejectionTables bucket_keys",
    "scheduler": "Event MachineScheduler Run ScheduleTrace run",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
        return value
    if name in _EXPORTS:     # a submodule; importing it binds it here
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
