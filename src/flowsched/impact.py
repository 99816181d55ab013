"""Arrival impact accounting.

The impact of an arriving job j (weight w, size p, density rho) is the
exact increase in total fractional weighted flow time it would cause if
the machine switched to preemptive HDF over the current active set from
this instant on, with no further arrivals. One pass over the active set
sums three aggregates: ``S1``, the remaining work of active jobs at least
as dense as j (j waits behind it); ``S2``, the residual weight of less
dense jobs of j's own density class, and ``S3``, that of jobs of strictly
lower classes (j delays both). The impact splits into three nonnegative
parts: ``plus = w*S1 + p*S2``, ``self_term = w*p/2`` (j's own processing
half) and ``minus = p*S3``. The two side terms drive the immediate-rejection
tables, and the total is reused as a per-job dual variable by the
analysis module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

# NonPositiveArgument and floor_log are re-exported from here
from .core import HALF, Job, NonPositiveArgument, Rational, ResidualJob, ZERO, floor_log


class JobInActiveSet(ValueError):
    """The arriving job is already present in the active set."""


def density_class(job: Job, machine: int = 0) -> int:
    """Floor-log of the job's density on the given machine."""
    return floor_log(job.density(machine))


@dataclass(frozen=True)
class ArrivalImpact:
    """Exact decomposition ``total = plus + self_term + minus``.

    ``in_plus`` / ``in_minus`` record whether the respective side meets its
    rejection-table threshold: ``plus >= weight*size/epsilon`` (inclusive)
    versus ``minus > weight*size/epsilon`` (strict). The asymmetry is
    deliberate and load-bearing for the rejection cadence.
    """

    total: Rational
    plus: Rational
    minus: Rational
    self_term: Rational
    density_class: int
    in_plus: bool
    in_minus: bool


def arrival_impact(job: Job, active: Collection[ResidualJob], epsilon: Rational,
                   machine: int = 0) -> ArrivalImpact:
    """Compute the impact of ``job`` against the current active set.

    ``active`` must reflect the state the arrival actually sees: earlier
    same-time arrivals included, the job itself excluded. It is read once,
    through each job's cached density and class.
    """
    size = job.size_on(machine)
    rho = job.density(machine)
    klass = floor_log(rho)

    denser = 0          # S1
    same_class = ZERO   # S2
    lower_class = ZERO  # S3
    for res in active:
        if res.job.id == job.id:
            raise JobInActiveSet(f"job {job.id} is already active")
        if res.density >= rho:
            denser += res.remaining
        elif res.density_class >= klass:
            same_class += res.residual_weight
        else:
            lower_class += res.residual_weight

    plus = job.weight * denser + size * same_class
    minus = size * lower_class
    work = job.weight * size
    self_term = work * HALF
    threshold = work / epsilon
    return ArrivalImpact(
        total=plus + self_term + minus,
        plus=plus,
        minus=minus,
        self_term=self_term,
        density_class=klass,
        in_plus=plus >= threshold,
        in_minus=minus > threshold,
    )
