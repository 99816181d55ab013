"""Online non-preemptive weighted flow-time scheduling with job rejection.

Event-driven simulator, exact offline baselines, and a dual-fitting
verifier, all in exact rational arithmetic.

``import flowsched`` runs this file only: each public name is imported
from its home module on first access (PEP 562) and kept here. So
``generate``, ``WorkloadModel`` and ``serialize_trace`` load ``harness``
and ``core``; ``run`` adds ``scheduler``, ``impact`` and ``rejection``;
``verify_duals`` adds ``analysis``; ``import *`` loads all eight.
``flowsched.cli`` (the ``flowsched`` command) imports them all up front;
networkx waits for the first solve (see ``baselines``).

``dispatch`` is the function, though it also names its submodule: the
import system binds a submodule on its package when it is first loaded,
as ``flowsched.cli`` loads this one, and the package ignores that one
binding. ``importlib.import_module("flowsched.dispatch")`` is the module.
"""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "analysis": "DualCertificate Metrics RejectionAudit audit_rejections beta_series "
                "compute_metrics fractional_flow_plan verify_duals",
    "baselines": "HorizonTooShort default_horizon lp_cost preemptive_hdf transport_opt",
    "core": "Instance InvalidInstance Job JobNotRunnableOnMachine Rational ResidualJob "
            "density_scale validate_instance",
    "dispatch": "NoEligibleMachine dispatch run_multi",
    "harness": "BadParameters MalformedLine MissingHeader WorkloadModel format_trace "
               "generate parse_trace parse_trace_text serialize_trace",
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


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        if name != "dispatch" or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
