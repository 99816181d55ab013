"""Online non-preemptive weighted flow-time scheduling with job rejection.

Discrete-slot simulator, exact offline baselines, and a dual-fitting
verifier, all in exact rational arithmetic.
"""

from .analysis import (DualCertificate, Metrics, RejectionAudit, audit_rejections,
                       beta_series, compute_metrics, fractional_flow_plan, verify_duals)
from .baselines import (FractionalSchedule, HorizonTooShort, default_horizon, lp_cost,
                        preemptive_hdf, transport_opt)
from .core import (Instance, InvalidInstance, Job, JobNotRunnableOnMachine,
                   Rational, ResidualJob, validate_instance)
from .dispatch import DispatchDecision, MultiTrace, NoEligibleMachine, dispatch, run_multi
from .harness import (BadParameters, MalformedLine, MissingHeader, WorkloadModel,
                      format_trace, generate, parse_trace, parse_trace_text,
                      serialize_trace)
from .impact import ArrivalImpact, arrival_impact, floor_log
from .rejection import (BucketReport, ImmediateDecision, MinusKey, PlusKey,
                        RejectionTables, bucket_keys)
from .scheduler import Event, MachineScheduler, ScheduleTrace, Slot, run

__all__ = [
    "ArrivalImpact", "BadParameters", "BucketReport", "DispatchDecision",
    "DualCertificate", "Event", "FractionalSchedule", "HorizonTooShort",
    "ImmediateDecision", "Instance", "InvalidInstance", "Job",
    "JobNotRunnableOnMachine", "MachineScheduler", "MalformedLine", "Metrics",
    "MinusKey", "MissingHeader", "MultiTrace", "NoEligibleMachine", "PlusKey",
    "Rational", "RejectionAudit", "RejectionTables", "ResidualJob",
    "ScheduleTrace", "Slot", "WorkloadModel", "arrival_impact",
    "audit_rejections", "beta_series", "bucket_keys", "compute_metrics",
    "default_horizon", "dispatch", "floor_log", "format_trace",
    "fractional_flow_plan", "generate", "lp_cost", "parse_trace",
    "parse_trace_text", "preemptive_hdf", "run", "run_multi", "serialize_trace",
    "transport_opt", "validate_instance", "verify_duals",
]
