"""Straightforward reference implementations kept as test oracles.

``arrival_impact`` classifies every active job by its density class and
prices it on its own, ``fractional_flow_plan`` prices every plan slot,
``beta_series`` walks each kept job's lifetime and ``verify_duals`` tests
every (job, time) pair one at a time. They are the definitions the fast
versions in ``flowsched`` must reproduce exactly.

The offline references: ``transport_opt_full`` solves the time-indexed
relaxation with arcs to every slot of the horizon, the check on
``transport_opt``'s windows; ``brute_force_nonpreemptive`` enumerates
every processing order of a tiny instance; ``validate_schedule`` checks a
fractional schedule's capacities, releases and sizes; and
``lower_bound_check`` tests the two impact inequalities against the
transport optimum on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import lcm
from typing import Iterable

import networkx as nx

from flowsched.analysis import DualCertificate, _jobs_by_id
from flowsched.baselines import FractionalSchedule, default_horizon, transport_opt
from flowsched.core import HALF, Instance, Job, ONE, Rational, ResidualJob, ZERO
from flowsched.dispatch import MultiTrace, each_trace
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


# -- offline references ---------------------------------------------------------


class TooLarge(ValueError):
    pass


class TooLargeForOracle(ValueError):
    pass


def validate_schedule(sched: FractionalSchedule) -> None:
    """Raise ``ValueError`` unless no allocation is negative or before its
    job's release, no slot exceeds the speed and every job gets its size."""
    per_slot: dict[int, Rational] = {}
    per_job: dict[int, Rational] = {}
    by_id = {j.id: j for j in sched.jobs}
    for (t, jid), amount in sched.allocation.items():
        if amount < 0:
            raise ValueError(f"negative allocation at slot {t} job {jid}")
        if t < by_id[jid].release:
            raise ValueError(f"job {jid} processed before release in slot {t}")
        per_slot[t] = per_slot.get(t, ZERO) + amount
        per_job[jid] = per_job.get(jid, ZERO) + amount
    for t, used in per_slot.items():
        if used > sched.speed:
            raise ValueError(f"slot {t} over capacity: {used} > {sched.speed}")
    for job in sched.jobs:
        if per_job.get(job.id, ZERO) != job.size_on(0):
            raise ValueError(f"job {job.id} not fully processed")


def transport_opt_full(jobs, speed: Rational = ONE) -> Rational:
    """Optimum of the time-indexed relaxation with an arc from each job to
    every slot of the default horizon from its release on."""
    jobs = list(jobs)
    if not jobs:
        return ZERO
    speed = Rational(speed)
    horizon = default_horizon(jobs, speed)
    q = speed.denominator
    scale = lcm(*(lcm(j.density().denominator, (j.weight * HALF).denominator)
                  for j in jobs))
    graph = nx.DiGraph()
    total_units = 0
    for job in jobs:
        units = job.size_on(0) * q
        total_units += units
        graph.add_node(("job", job.id), demand=-units)
        for t in range(job.release, horizon):
            cost = (job.density() * (t - job.release) + job.weight * HALF) * scale
            assert cost.denominator == 1
            graph.add_edge(("job", job.id), ("slot", t), capacity=units,
                           weight=cost.numerator)
    graph.add_node("sink", demand=total_units)
    for t in range(horizon):
        graph.add_edge(("slot", t), "sink", capacity=speed.numerator, weight=0)
    cost, _ = nx.network_simplex(graph)
    return Rational(cost, scale * q)


def brute_force_nonpreemptive(jobs) -> Rational:
    """Minimum total weighted flow over all non-preemptive single-machine
    schedules (no rejection), by enumerating every processing order."""
    jobs = list(jobs)
    if len(jobs) > 6:
        raise TooLarge(f"brute force limited to 6 jobs, got {len(jobs)}")
    if not jobs:
        return ZERO
    best: Rational | None = None
    for order in permutations(jobs):
        t = 0
        value = ZERO
        for job in order:
            start = max(t, job.release)
            t = start + job.size_on(0)
            value += job.weight * (t - job.release)
        if best is None or value < best:
            best = value
    assert best is not None
    return best


@dataclass(frozen=True)
class LowerBoundVerdict:
    oracle_value: Rational
    immediate_impact_total: Rational
    kept_impact_total: Rational
    slack: Rational                    # sum w_j p_j / eps
    plan_flow: Rational
    holds_oracle_bound: bool           # immediate impacts <= oracle + slack
    holds_plan_bound: bool             # plan flow <= kept impacts + slack

    @property
    def ok(self) -> bool:
        return self.holds_oracle_bound and self.holds_plan_bound


def lower_bound_check(run: ScheduleTrace | MultiTrace, instance: Instance,
                      limit: int = 12) -> LowerBoundVerdict:
    """Verify the two impact inequalities against the exact transport
    optimum of each machine's jobs, projected to that machine's sizes.

    Only intended for small instances; raises :class:`TooLargeForOracle`
    beyond ``limit`` jobs.
    """
    if len(instance.jobs) > limit:
        raise TooLargeForOracle(
            f"instance has {len(instance.jobs)} jobs, limit is {limit}")
    by_id = _jobs_by_id(instance)
    oracle = ZERO
    immediate = kept = ZERO
    slack = ZERO
    plan_flow = ZERO
    for trace in each_trace(run):
        projected = [Job(jid, by_id[jid].release, by_id[jid].weight,
                         (by_id[jid].size_on(trace.machine),))
                     for jid in trace.arrivals]
        oracle += transport_opt(projected)
        rejected = trace.immediate_rejected
        for jid in trace.arrivals:
            total = trace.impacts[jid].total
            if jid in rejected:
                immediate += total
            else:
                kept += total
            job = by_id[jid]
            slack += job.weight * job.size_on(trace.machine) / instance.epsilon
        plan_flow += fractional_flow_plan(trace, instance)
    return LowerBoundVerdict(
        oracle_value=oracle,
        immediate_impact_total=immediate,
        kept_impact_total=kept,
        slack=slack,
        plan_flow=plan_flow,
        holds_oracle_bound=immediate <= oracle + slack,
        holds_plan_bound=plan_flow <= kept + slack,
    )
