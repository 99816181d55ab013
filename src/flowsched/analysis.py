"""Post-run analysis: metrics, rejection budgets, dual certificates.

Two accounting conventions coexist on purpose:

* the plan's fractional flow uses continuous (trapezoid within a slot)
  accounting, so a job processed without interruption from s accrues
  exactly ``w (s - r) + w p / 2``;
* the per-time dual variable beta_t is the total residual weight sampled
  at integer t, immediately after arrival processing. Residuals never
  increase within a slot, so ``sum_t beta_t >= fractional flow`` and the
  certified lower bound stays conservative.

The dual constraint of job j must hold at every time t >= r_j. Written as
``beta_t + rho_j t >= alpha_j / p_j - w_j / 2 + rho_j r_j``, it holds at all
those t at once iff it holds at the minimum of the left-hand side, and
that minimum over t in [r_j, H] is attained at a vertex of the lower convex
hull of the points (t, beta_t), t >= r_j. The verifier builds these suffix
hulls once, in decreasing t, and answers each job with one binary search,
in exact arithmetic: O((n + H) log H) comparisons instead of one per
(job, time) pair. Times past the trace horizon H need no check: beta_H is
already zero and stays zero, while the right-hand side of the original
constraint only grows with t, so the pair (j, H) implies every later one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import HALF, Instance, Job, ONE, Rational, ZERO
from .dispatch import MultiTrace, each_trace
from .scheduler import ScheduleTrace


class IncompleteTrace(ValueError):
    pass


def _jobs_by_id(instance: Instance) -> dict[int, Job]:
    return {j.id: j for j in instance.jobs}


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    weighted_flow: Rational            # real schedule, completed jobs only
    fractional_flow_plan: Rational     # continuous accounting over the plan
    departure_objective: Rational      # sum w_j (D_j - r_j) over all jobs
    rejected_weight_immediate: Rational
    rejected_weight_delayed: Rational
    total_weight: Rational


def fractional_flow_plan(trace: ScheduleTrace, instance: Instance) -> Rational:
    """Continuous fractional weighted flow of the plan on one machine.

    A unit processed in slot [s, s+1) contributes ``rho (s - r + 1/2)``:
    it waited s - r at full residual and drained linearly within the slot.
    Over a job's k plan slots that sums to ``rho (sum s - k r + k/2)``,
    priced once per job from an integer sum.
    """
    by_id = _jobs_by_id(instance)
    total = ZERO
    for jid, slots in trace.plan_slots().items():
        job = by_id[jid]
        k = len(slots)
        total += job.density(trace.machine) * (sum(slots) - k * job.release + HALF * k)
    return total


def compute_metrics(run: ScheduleTrace | MultiTrace, instance: Instance) -> Metrics:
    by_id = _jobs_by_id(instance)
    delivered: set[int] = set()
    weighted_flow = ZERO
    fractional = ZERO
    departure_objective = ZERO
    rejected_immediate = ZERO
    rejected_delayed = ZERO
    for trace in each_trace(run):
        delivered.update(trace.arrivals)
        fractional += fractional_flow_plan(trace, instance)
        for jid, completion in trace.completion_real.items():
            job = by_id[jid]
            weighted_flow += job.weight * (completion - job.release)
        departures = trace.departure
        for jid, departure in departures.items():
            job = by_id[jid]
            departure_objective += job.weight * (departure - job.release)
        for jid in trace.immediate_rejected:
            rejected_immediate += by_id[jid].weight
        for jid in trace.promoted_at:
            rejected_delayed += by_id[jid].weight
        missing = set(trace.arrivals) - set(departures)
        if missing:
            raise IncompleteTrace(f"no departure recorded for jobs {sorted(missing)}")
    if delivered != set(by_id):
        raise IncompleteTrace("trace does not cover every job in the instance")
    total_weight = sum((j.weight for j in instance.jobs), start=ZERO)
    return Metrics(weighted_flow, fractional, departure_objective,
                   rejected_immediate, rejected_delayed, total_weight)


# -- residual reconstruction --------------------------------------------------


def beta_series(trace: ScheduleTrace, instance: Instance) -> list[Rational]:
    """Total residual weight at each integer time 0..horizon, sampled just
    after arrival processing (new arrivals count at full weight).

    beta is a running total: it gains w_j at each kept job's release and
    loses the density of the plan's job after each slot, so one pass over
    releases and slots builds it. A job's residual weight reaches exactly
    zero at its plan completion.
    """
    by_id = _jobs_by_id(instance)
    steps = [ZERO] * (trace.horizon() + 1)    # beta_t - beta_{t-1}
    densities: dict[int, Rational] = {}
    for jid in trace.kept:
        job = by_id[jid]
        steps[job.release] += job.weight
        densities[jid] = job.density(trace.machine)
    for slot in trace.slots:
        steps[slot.t + 1] -= densities[slot.plan]
    return list(accumulate(steps))


# -- rejection budgets ---------------------------------------------------------


@dataclass(frozen=True)
class BudgetCheck:
    name: str
    value: Rational
    bound: Rational
    ok: bool


@dataclass(frozen=True)
class RejectionAudit:
    checks: tuple[BudgetCheck, ...]
    delayed_fraction: Rational
    immediate_fraction: Rational
    total_weight: Rational

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def audit_rejections(run: ScheduleTrace | MultiTrace, instance: Instance) -> RejectionAudit:
    """Check the exact rejection-weight budgets of one run.

    (a) delayed-rejected weight <= eps * W;
    (b) minus-table rejected weight <= 4 eps * weight assigned to it;
    (c) plus-table rejected weight beyond each bucket's first job
        <= 2 eps * weight assigned to the plus table;
    (d) weight of first-in-bucket plus jobs <= 8 eps * W;
    (e) total rejected weight <= 15 eps * W.
    """
    by_id = _jobs_by_id(instance)
    eps = instance.epsilon
    total_weight = sum((j.weight for j in instance.jobs), start=ZERO)

    delayed = ZERO
    immediate = ZERO
    plus_assigned = minus_assigned = ZERO
    plus_rejected_first = plus_rejected_rest = ZERO
    minus_rejected = ZERO
    for trace in each_trace(run):
        for jid in trace.promoted_at:
            delayed += by_id[jid].weight
        for jid in trace.immediate_rejected:
            immediate += by_id[jid].weight
        for bucket in trace.table_report:
            if bucket.table == "plus":
                plus_assigned += bucket.weight_assigned
                plus_rejected_first += bucket.weight_rejected_first
                plus_rejected_rest += bucket.weight_rejected - bucket.weight_rejected_first
            else:
                minus_assigned += bucket.weight_assigned
                minus_rejected += bucket.weight_rejected

    checks = (
        BudgetCheck("delayed_weight", delayed, eps * total_weight,
                    delayed <= eps * total_weight),
        BudgetCheck("minus_rejected", minus_rejected, 4 * eps * minus_assigned,
                    minus_rejected <= 4 * eps * minus_assigned),
        BudgetCheck("plus_rejected_nonfirst", plus_rejected_rest,
                    2 * eps * plus_assigned,
                    plus_rejected_rest <= 2 * eps * plus_assigned),
        BudgetCheck("plus_first_in_bucket", plus_rejected_first,
                    8 * eps * total_weight,
                    plus_rejected_first <= 8 * eps * total_weight),
        BudgetCheck("grand_total", immediate + delayed, 15 * eps * total_weight,
                    immediate + delayed <= 15 * eps * total_weight),
    )
    delayed_fraction = delayed / total_weight if total_weight else ZERO
    immediate_fraction = immediate / total_weight if total_weight else ZERO
    return RejectionAudit(checks, delayed_fraction, immediate_fraction, total_weight)


# -- dual certificate ----------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    machine: int
    alphas: dict[int, Rational]
    betas: tuple[Rational, ...]
    feasible: bool
    objective: Rational
    speedup: Rational
    violations: tuple[tuple[int, int], ...] = ()


def verify_duals(trace: ScheduleTrace, instance: Instance,
                 speedup: Rational = ZERO) -> DualCertificate:
    """Check every (job, time) dual constraint exactly and price the
    certificate ``sum alpha - (1 + speedup) sum beta``.

    The constraint is ``alpha_j / p_j - beta_t <= w_j (t - r_j)/p_j + w_j/2``
    for all t >= r_j. Jobs are visited in decreasing release order while
    the points (t, beta_t) for t = H down to r_j are pushed onto a lower
    hull (Andrew's monotone chain, growing at the left end); one binary
    search for the minimum of ``beta_t + rho_j t`` on that hull decides the
    job. Only a job that fails is rescanned over [r_j, H] to list its
    violating times, in arrival order, then by t. Infeasibility is
    reported, not raised; a negative ``speedup`` raises ``ValueError``,
    since it would inflate the bound.
    """
    speedup = Rational(speedup)
    if speedup < 0:
        raise ValueError(f"speedup must be nonnegative, got {speedup}")
    by_id = _jobs_by_id(instance)
    betas = beta_series(trace, instance)
    horizon = len(betas) - 1
    alphas = {jid: trace.impacts[jid].total for jid in trace.arrivals}
    failing: dict[int, tuple[Rational, Rational]] = {}    # job -> (rho, bound)
    # lower hull of (t, beta_t) for t >= the current release, leftmost last
    hull_t: list[int] = []
    hull_beta: list[Rational] = []
    t = horizon
    for job in sorted((by_id[jid] for jid in trace.arrivals),
                      key=lambda j: j.release, reverse=True):
        while t >= job.release:
            beta = betas[t]
            # drop the leftmost vertex while it is not strictly below the
            # segment from the new point to the vertex after it
            while len(hull_t) >= 2 and (hull_t[-1] - t) * (hull_beta[-2] - beta) \
                    <= (hull_beta[-1] - beta) * (hull_t[-2] - t):
                hull_t.pop()
                hull_beta.pop()
            hull_t.append(t)
            hull_beta.append(beta)
            t -= 1
        rho = job.density(trace.machine)
        bound = alphas[job.id] / job.size_on(trace.machine) \
            - job.weight * HALF + rho * job.release
        if hull_t and _hull_minimum(hull_t, hull_beta, rho) < bound:
            failing[job.id] = (rho, bound)
    violations: list[tuple[int, int]] = []
    for jid in trace.arrivals:
        if jid in failing:
            rho, bound = failing[jid]
            violations.extend((jid, t) for t in range(by_id[jid].release, horizon + 1)
                              if betas[t] + rho * t < bound)
    objective = sum(alphas.values(), start=ZERO) \
        - (ONE + speedup) * sum(betas, start=ZERO)
    return DualCertificate(trace.machine, alphas, tuple(betas),
                           not violations, objective, speedup, tuple(violations))


def _hull_minimum(hull_t: list[int], hull_beta: list[Rational],
                  rho: Rational) -> Rational:
    """Minimum of ``beta + rho t`` over a nonempty lower hull stored right to
    left. Hull slopes rise from left to right, so the value falls while a
    slope is below -rho and rises after: the minimum is at the leftmost
    vertex whose value does not exceed its right neighbour's, or at the
    rightmost vertex if there is none."""
    lo, hi = 0, len(hull_t) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if hull_beta[mid - 1] - hull_beta[mid] >= rho * (hull_t[mid] - hull_t[mid - 1]):
            lo = mid
        else:
            hi = mid - 1
    return hull_beta[lo] + rho * hull_t[lo]
