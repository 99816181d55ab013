"""Straightforward reference implementations kept as test oracles.

``arrival_impact`` classifies every active job by its density class and
prices it on its own, ``fractional_flow_plan`` prices every plan slot,
``beta_series`` walks each kept job's lifetime and ``verify_duals`` tests
every (job, time) pair one at a time. They are the definitions the fast
versions in ``flowsched`` must reproduce exactly.
"""

from __future__ import annotations

from typing import Iterable

from flowsched.analysis import DualCertificate, _jobs_by_id
from flowsched.core import HALF, Instance, Job, ONE, Rational, ResidualJob, ZERO
from flowsched.impact import ArrivalImpact, JobInActiveSet, floor_log
from flowsched.scheduler import ScheduleTrace


def arrival_impact(job: Job, active: Iterable[ResidualJob], epsilon: Rational,
                   machine: int = 0) -> ArrivalImpact:
    """Impact of ``job`` against the active set, one active job at a time."""
    size = Rational(job.size_on(machine))
    rho = job.density(machine)
    klass = floor_log(rho)

    plus = ZERO
    minus = ZERO
    for res in active:
        if res.job.id == job.id:
            raise JobInActiveSet(f"job {job.id} is already active")
        other_rho = res.density
        if floor_log(other_rho) >= klass:
            if other_rho >= rho:
                plus += job.weight * res.remaining
            else:
                plus += size * res.residual_weight
        else:
            # a strictly smaller class implies strictly smaller density
            minus += size * res.residual_weight

    self_term = job.weight * size * HALF
    threshold = job.weight * size / epsilon
    return ArrivalImpact(
        total=plus + self_term + minus,
        plus=plus,
        minus=minus,
        self_term=self_term,
        density_class=klass,
        in_plus=plus >= threshold,
        in_minus=minus > threshold,
    )


def fractional_flow_plan(trace: ScheduleTrace, instance: Instance) -> Rational:
    """Continuous fractional weighted flow of the plan, priced slot by slot:
    a unit processed in [s, s+1) contributes ``rho (s - r + 1/2)``."""
    by_id = _jobs_by_id(instance)
    total = ZERO
    for jid, slots in trace.plan_slots().items():
        job = by_id[jid]
        rho = job.density(trace.machine)
        for s in slots:
            total += rho * (Rational(s - job.release) + HALF)
    return total


def beta_series(trace: ScheduleTrace, instance: Instance) -> list[Rational]:
    """Total residual weight at each integer time 0..horizon, sampled just
    after arrival processing (new arrivals count at full weight)."""
    by_id = _jobs_by_id(instance)
    horizon = trace.horizon()
    betas = [ZERO] * (horizon + 1)
    slots = trace.plan_slots()
    completions = trace.completion_plan
    for jid in trace.kept:
        job = by_id[jid]
        rho = job.density(trace.machine)
        completion = completions[jid]
        my_slots = slots.get(jid, [])
        index = 0
        residual = Rational(job.size_on(trace.machine))
        for t in range(job.release, completion):
            while index < len(my_slots) and my_slots[index] < t:
                residual -= 1
                index += 1
            betas[t] += rho * residual
    return betas


def verify_duals(trace: ScheduleTrace, instance: Instance,
                 speedup: Rational = ZERO) -> DualCertificate:
    """Check every (job, time) dual constraint exactly and price the
    certificate ``sum alpha - (1 + speedup) sum beta``.

    The constraint is ``alpha_j / p_j - beta_t <= w_j (t - r_j)/p_j + w_j/2``
    for all t >= r_j. Infeasibility is reported, not raised.
    """
    by_id = _jobs_by_id(instance)
    betas = beta_series(trace, instance)
    horizon = len(betas) - 1
    alphas = {jid: trace.impacts[jid].total for jid in trace.arrivals}
    violations: list[tuple[int, int]] = []
    for jid in trace.arrivals:
        job = by_id[jid]
        size = job.size_on(trace.machine)
        rho = job.density(trace.machine)
        lhs_base = alphas[jid] / size
        rhs = job.weight * HALF
        for t in range(job.release, horizon + 1):
            if lhs_base - betas[t] > rhs:
                violations.append((jid, t))
            rhs += rho
    objective = sum(alphas.values(), start=ZERO) \
        - (ONE + Rational(speedup)) * sum(betas, start=ZERO)
    return DualCertificate(trace.machine, alphas, tuple(betas),
                           not violations, objective, Rational(speedup),
                           tuple(violations))
