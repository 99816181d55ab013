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

The pass is one integer kernel, :func:`impact_sums`, on the scaled
density ``rho`` each ``ResidualJob`` caches at activation: the density
times the machine's ``scale``, one :func:`~flowsched.core.density_scale`
for the whole run, which spans every weight too. The ``rho_o >= rho``
test compares two ``int``s, and ``S2`` and ``S3`` are integer numerators
over ``scale``. :func:`arrival_impact` keeps each output an integer
numerator over ``2 * scale`` and decides the rejection-table thresholds by
cross-multiplication, so it builds no ``Fraction``; the values are exactly
those of ``Fraction`` sums, and only ``simulate`` renders them as
rationals when it prints them. Dispatch ranks machines on the same sums:
every machine shares ``scale``, so it compares the totals' integer
numerators alone, and hands the chosen machine's sums to
:func:`arrival_impact`, so each (arrival, machine) pair is passed over
once.
"""

from __future__ import annotations

from typing import Collection, NamedTuple

# NonPositiveArgument is re-exported from here
from .core import (Job, NonPositiveArgument, Rational, ResidualJob, floor_log_ratio,
                   scaled_density)


class JobInActiveSet(ValueError):
    """The arriving job is already present in the active set."""


class ArrivalImpact(NamedTuple):
    """Exact decomposition ``total = plus + self_term + minus``, each an
    integer numerator over ``2 * scale`` for the run's density ``scale``.

    ``in_plus`` / ``in_minus`` record whether the respective side meets its
    rejection-table threshold: ``plus >= weight*size/epsilon`` (inclusive)
    versus ``minus > weight*size/epsilon`` (strict). The asymmetry is
    deliberate and load-bearing for the rejection cadence.
    """

    total: int
    plus: int
    minus: int
    self_term: int
    density_class: int
    in_plus: bool
    in_minus: bool


def impact_sums(job: Job, active: Collection[ResidualJob], rho: int,
                klass: int) -> tuple[int, int, int]:
    """The one pass over ``active`` for ``job``, whose scaled density on this
    machine is ``rho``, of density class ``klass``; the active jobs were
    built over the same scale.

    Returns ``(S1, S2 * scale, S3 * scale)``: the three aggregates as
    integers.
    """
    jid = job.id
    denser = 0       # S1
    same_class = 0   # S2 * scale
    lower_class = 0  # S3 * scale
    for res in active:
        if res.job.id == jid:
            raise JobInActiveSet(f"job {jid} is already active")
        if res.rho >= rho:
            denser += res.remaining
        elif res.density_class >= klass:
            same_class += res.rho * res.remaining
        else:
            lower_class += res.rho * res.remaining
    return denser, same_class, lower_class


def arrival_impact(job: Job, active: Collection[ResidualJob], epsilon: Rational,
                   machine: int, scale: int,
                   sums: tuple[int, int, int, int] | None = None) -> ArrivalImpact:
    """Compute the impact of ``job`` against the current active set, whose
    jobs were built over ``scale``.

    ``active`` must reflect the state the arrival actually sees: earlier
    same-time arrivals included, the job itself excluded. It is read once,
    by :func:`impact_sums`, unless the caller already made that pass and
    hands over ``sums``: the job's ``(density_class, S1, S2 * scale,
    S3 * scale)`` on this machine.
    """
    size = job.size_on(machine)
    wn, wd = job.weight.as_integer_ratio()
    weight = wn * (scale // wd)    # w * scale: the scale spans every weight
    if sums is None:
        rho = scaled_density(job, machine, scale)
        klass = floor_log_ratio(rho, scale)
        sums = (klass, *impact_sums(job, active, rho, klass))
    klass, denser, same_class, lower_class = sums

    # plus = w*S1 + p*S2, minus = p*S3 and w*p, each times scale
    plus = weight * denser + size * same_class
    minus = size * lower_class
    work = weight * size
    # threshold w*p/epsilon: plus >= it and minus > it, cross-multiplied
    en, ed = epsilon.numerator, epsilon.denominator
    return ArrivalImpact(
        total=2 * (plus + minus) + work,
        plus=2 * plus,
        minus=2 * minus,
        self_term=work,
        density_class=klass,
        in_plus=plus * en >= work * ed,
        in_minus=lower_class * en > weight * ed,
    )
