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
half) and ``minus = p*S3``. The rejection tables judge the side terms
against a multiple of ``self_term``; the analysis module reuses the total
as a per-job dual variable.

The pass is one integer kernel, :func:`impact_sums`, over
:class:`~flowsched.core.ResidualJob` views filled from the instance's
integer table (``weight`` is ``w * scale``, ``rho`` the density times
``scale``), so ``S2`` and ``S3`` are integer numerators over ``scale``.
:func:`arrival_impact` converts nothing: its outputs are numerators over
``2 * scale``, exactly as ``Fraction`` sums would give. Dispatch ranks
machines on the same sums and hands the chosen one's over as ``sums``, so
each (arrival, machine) is passed once.
"""

from __future__ import annotations

from typing import Collection, NamedTuple

from .core import ResidualJob


class JobInActiveSet(ValueError):
    """The arriving job is already present in the active set."""


class ArrivalImpact(NamedTuple):
    """The impact's split, each part an integer numerator over
    ``2 * scale`` for the run's density ``scale``."""

    plus: int
    minus: int
    self_term: int

    @property
    def total(self) -> int:
        return self.plus + self.minus + self.self_term


def impact_sums(arrival: ResidualJob,
                active: Collection[ResidualJob]) -> tuple[int, int, int]:
    """The one pass over ``active`` for ``arrival``; the active jobs were
    built over the same scale.

    Returns ``(S1, S2 * scale, S3 * scale)``: the three aggregates as
    integers.
    """
    jid = arrival.job.id
    rho = arrival.rho
    klass = arrival.density_class
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


def arrival_impact(arrival: ResidualJob, active: Collection[ResidualJob],
                   sums: tuple[int, int, int] | None = None) -> ArrivalImpact:
    """Compute the impact of ``arrival``, not yet processed, against the
    current active set, whose jobs were built over the same scale.

    ``active`` must reflect the state the arrival actually sees: earlier
    same-time arrivals included, the job itself excluded. It is read once,
    by :func:`impact_sums`, unless the caller already made that pass and
    hands over its ``sums``.
    """
    denser, same_class, lower_class = impact_sums(arrival, active) if sums is None else sums
    size = arrival.remaining
    # plus = w*S1 + p*S2, minus = p*S3 and w*p/2, each times 2 * scale
    return ArrivalImpact(2 * (arrival.weight * denser + size * same_class),
                         2 * size * lower_class, arrival.weight * size)
