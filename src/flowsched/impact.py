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

The pass runs in ``int`` arithmetic on the density numerator and
denominator each ``ResidualJob`` caches at activation. The ``rho_o >= rho``
test is a cross-multiplication. ``S2`` and ``S3`` are integer numerators
over one running common denominator, which grows by ``math.lcm`` only when
an active job brings a denominator it does not already divide. Each output
is built once as a ``Fraction``, and the rejection-table thresholds are
decided by cross-multiplication, so the values are exactly those of
``Fraction`` sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Collection

# NonPositiveArgument and floor_log are re-exported from here
from .core import (Job, NonPositiveArgument, Rational, ResidualJob, floor_log,
                   floor_log_ratio)


class JobInActiveSet(ValueError):
    """The arriving job is already present in the active set."""


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
    through each job's cached density numerator, denominator and class.
    """
    size = job.size_on(machine)
    jid = job.id
    wn, wd = job.weight.numerator, job.weight.denominator
    rn, rd = wn, wd * size  # rho = rn/rd, not necessarily in lowest terms
    klass = floor_log_ratio(rn, rd)

    denser = 0       # S1
    den = 1          # common denominator of S2 and S3
    same_class = 0   # S2 * den
    lower_class = 0  # S3 * den
    for res in active:
        if res.job.id == jid:
            raise JobInActiveSet(f"job {jid} is already active")
        n, d = res.num, res.den
        if n * rd >= rn * d:
            denser += res.remaining
            continue
        if den % d:
            grown = lcm(den, d)
            same_class *= grown // den
            lower_class *= grown // den
            den = grown
        weighted = n * res.remaining * (den // d)
        if res.density_class >= klass:
            same_class += weighted
        else:
            lower_class += weighted

    # plus = w*S1 + p*S2 over wd*den; minus = p*S3 over den; w*p/2 over 2*wd
    plus = wn * denser * den + size * same_class * wd
    minus = size * lower_class
    work = wn * size
    # threshold w*p/epsilon: plus >= it and minus > it, cross-multiplied
    en, ed = epsilon.numerator, epsilon.denominator
    return ArrivalImpact(
        total=Rational(2 * plus + work * den + 2 * minus * wd, 2 * wd * den),
        plus=Rational(plus, wd * den),
        minus=Rational(minus, den),
        self_term=Rational(work, 2 * wd),
        density_class=klass,
        in_plus=plus * en >= work * ed * den,
        in_minus=lower_class * wd * en > wn * ed * den,
    )
