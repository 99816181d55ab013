"""Post-run analysis: metrics, rejection budgets, dual certificates.

Two accounting conventions coexist on purpose:

* the plan's fractional flow uses continuous (trapezoid within a slot)
  accounting, so a job processed without interruption from s accrues
  exactly ``w (s - r) + w p / 2``;
* the per-time dual variable beta_t is the total residual weight sampled
  at integer t, immediately after arrival processing. The plan drains a
  residual linearly within its slot, so each kept job j adds w_j / 2 more
  to the betas than to the flow: ``2 sum_t beta_t = 2 (plan fractional
  flow) + sum_{kept j} w_j``, exactly.

The dual constraint of job j must hold at every time t >= r_j. Written as
``beta_t + rho_j t >= alpha_j / p_j - w_j / 2 + rho_j r_j``, it holds at all
those t at once iff it holds at the minimum of the left-hand side, and
that minimum over t in [r_j, H] is attained at a vertex of the lower convex
hull of the points (t, beta_t), t >= r_j. The verifier builds these suffix
hulls once, in decreasing t, and answers each job with one binary search:
O((n + H) log H) comparisons instead of one per (job, time) pair. Times
past the trace horizon H need no check: beta_H is already zero and stays
zero, while the right-hand side of the original constraint only grows with
t, so the pair (j, H) implies every later one.

The arithmetic stays exact but runs on Python ints: every weighted
quantity is an integer numerator over ``scale``, the instance's one
:func:`~flowsched.core.density_scale` (the scale the engine ran on), or
over a fixed multiple of it. So the beta series, the hull and its searches,
each job's ceiling step, the budgets and the certificate build no Fraction;
``cli`` prints them as rationals. Each metric builds one Fraction, as do
the audit's two rejected fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import Instance, Rational, ZERO, run_flow
from .scheduler import ScheduleTrace


class IncompleteTrace(ValueError):
    pass


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
    """Continuous fractional weighted flow of the plan on one machine, priced
    per run in closed form (:func:`~flowsched.core.run_flow`)."""
    return Rational(run_flow(instance, trace.runs, trace.machine), 2 * instance.scale)


def compute_metrics(traces: list[ScheduleTrace], instance: Instance) -> Metrics:
    """The six metrics of the traces of one run. Each weight sum is an integer
    numerator over the density scale; only the totals become Fractions."""
    scale, by_id = instance.scale, instance.by_id
    weight = {jid: row[0] for jid, row in instance.table.items()}    # w * scale
    delivered: set[int] = set()
    weighted_flow = departure_objective = rejected_immediate = rejected_delayed = 0
    fractional = ZERO
    for trace in traces:
        delivered.update(trace.arrivals)
        fractional += fractional_flow_plan(trace, instance)
        weighted_flow += sum(weight[jid] * (completion - by_id[jid].release)
                             for jid, completion in trace.completion_real.items())
        departures = trace.departure
        departure_objective += sum(weight[jid] * (departure - by_id[jid].release)
                                   for jid, departure in departures.items())
        rejected_immediate += sum(weight[jid] for jid in trace.immediate_rejected)
        rejected_delayed += sum(weight[jid] for jid in trace.promoted_at)
        missing = set(trace.arrivals) - set(departures)
        if missing:
            raise IncompleteTrace(f"no departure recorded for jobs {sorted(missing)}")
    if delivered != set(weight):
        raise IncompleteTrace("trace does not cover every job in the instance")
    return Metrics(Rational(weighted_flow, scale), fractional,
                   Rational(departure_objective, scale),
                   Rational(rejected_immediate, scale), Rational(rejected_delayed, scale),
                   Rational(sum(weight.values()), scale))


# -- residual reconstruction --------------------------------------------------


def beta_series(trace: ScheduleTrace, instance: Instance) -> tuple[int, list[int]]:
    """Total residual weight at each integer time 0..horizon, sampled just
    after arrival processing (new arrivals count at full weight), as
    ``(scale, numerators)``: beta_t is ``numerators[t] / scale``.

    ``scale`` is the instance's density scale, so ``rho_j * scale`` and
    ``w_j * scale`` are integers for every job. beta gains w_j at each
    kept job's release and loses the plan job's density after each slot of
    its runs, so its second difference has two nonzero entries per kept
    job and two per run: summing that twice builds it. A job's residual
    weight reaches exactly zero at its plan completion.
    """
    by_id, table, machine = instance.by_id, instance.table, trace.machine
    rho = {jid: table[jid][2][machine][0] for jid in trace.kept}    # rho * scale
    horizon = trace.horizon()
    bends = [0] * (horizon + 2)    # second difference of beta, one spare entry
    for jid in trace.kept:
        release = by_id[jid].release
        weight = table[jid][0]
        bends[release] += weight
        bends[release + 1] -= weight
    for run in trace.runs:
        bends[run.start + 1] -= rho[run.plan]
        bends[run.end + 1] += rho[run.plan]
    numerators = list(accumulate(accumulate(bends)))
    numerators.pop()
    return instance.scale, numerators


# -- rejection budgets ---------------------------------------------------------


@dataclass(frozen=True)
class BudgetCheck:
    """``value <= bound``: integer numerators over the audit's denominator."""
    name: str
    value: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class RejectionAudit:
    """``denominator`` is ``scale / epsilon`` for the instance's density scale."""
    checks: tuple[BudgetCheck, ...]
    delayed_fraction: Rational
    immediate_fraction: Rational
    denominator: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def audit_rejections(traces: list[ScheduleTrace], instance: Instance) -> RejectionAudit:
    """Check the exact rejection-weight budgets of the traces of one run.

    (a) delayed-rejected weight <= eps * W;
    (b) minus-table rejected weight <= 4 eps * weight assigned to it;
    (c) plus-table rejected weight beyond each bucket's first job
        <= 2 eps * weight assigned to the plus table;
    (d) weight of first-in-bucket plus jobs <= 8 eps * W;
    (e) total rejected weight <= 15 eps * W.
    """
    weight = {jid: row[0] for jid, row in instance.table.items()}    # w * scale
    total_weight = sum(weight.values())

    delayed = immediate = 0
    plus_assigned = minus_assigned = 0
    plus_rejected_first = plus_rejected_rest = minus_rejected = 0
    for trace in traces:
        delayed += sum(weight[jid] for jid in trace.promoted_at)
        immediate += sum(weight[jid] for jid in trace.immediate_rejected)
        for bucket in trace.table_report:
            if bucket.table == "plus":
                plus_assigned += bucket.weight_assigned
                plus_rejected_first += bucket.weight_rejected_first
                plus_rejected_rest += bucket.weight_rejected - bucket.weight_rejected_first
            else:
                minus_assigned += bucket.weight_assigned
                minus_rejected += bucket.weight_rejected

    en, ed = instance.epsilon.as_integer_ratio()

    def check(name: str, value: int, factor: int, base: int) -> BudgetCheck:
        # value <= factor * eps * base, both sides times ed
        bound = factor * en * base
        return BudgetCheck(name, value * ed, bound, value * ed <= bound)

    checks = (
        check("delayed_weight", delayed, 1, total_weight),
        check("minus_rejected", minus_rejected, 4, minus_assigned),
        check("plus_rejected_nonfirst", plus_rejected_rest, 2, plus_assigned),
        check("plus_first_in_bucket", plus_rejected_first, 8, total_weight),
        check("grand_total", immediate + delayed, 15, total_weight),
    )
    shares = ((Rational(delayed, total_weight), Rational(immediate, total_weight))
              if total_weight else (ZERO, ZERO))
    return RejectionAudit(checks, *shares, ed * instance.scale)


# -- dual certificate ----------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """``betas`` are integer numerators over ``scale``, the instance's
    density scale: beta_t is ``betas[t] / scale`` for t = 0..H. ``alphas``
    and the three totals are integer numerators over ``2 * scale``."""
    machine: int
    alphas: dict[int, int]
    scale: int
    betas: tuple[int, ...]
    alpha_total: int
    beta_total: int
    feasible: bool
    objective: int
    violations: tuple[tuple[int, int], ...] = ()


def verify_duals(trace: ScheduleTrace, instance: Instance) -> DualCertificate:
    """Check every (job, time) dual constraint exactly and price the
    certificate ``sum alpha - sum beta``.

    The constraint is ``alpha_j / p_j - beta_t <= w_j (t - r_j)/p_j + w_j/2``
    for all t >= r_j. Jobs are visited in decreasing release order while
    the points (t, beta_t * scale) for t = H down to r_j are pushed onto a
    lower hull (Andrew's monotone chain, growing at the left end); one
    binary search for the minimum of ``(beta_t + rho_j t) * scale`` on that
    hull decides the job. The minimum is an integer, so it falls below the
    rational ``bound * scale`` iff it falls below that value's ceiling, one
    floor division per job. Only a job that fails is rescanned over [r_j, H]
    to list its violating times, in arrival order, then by t. Infeasibility
    is reported, not raised.
    """
    by_id, table = instance.by_id, instance.table
    scale, betas = beta_series(trace, instance)
    horizon = len(betas) - 1
    alphas = {jid: trace.impacts[jid].total for jid in trace.arrivals}
    failing: dict[int, tuple[int, int]] = {}    # job -> (rho, ceil(bound)), scaled
    # lower hull of (t, beta_t * scale) for t >= the current release, leftmost last
    hull_t: list[int] = []
    hull_beta: list[int] = []
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
        size = job.size_on(trace.machine)
        weight, _, cells = table[job.id]
        rho = cells[trace.machine][0]
        # the ceiling of (alpha_j / p_j - w_j / 2 + rho_j r_j) * scale, where
        # alpha_j * scale is alphas[j] / 2
        least = rho * job.release - (weight * size - alphas[job.id]) // (2 * size)
        if hull_t and _hull_minimum(hull_t, hull_beta, rho) < least:
            failing[job.id] = (rho, least)
    violations: list[tuple[int, int]] = []
    for jid in trace.arrivals:
        if jid in failing:
            rho, least = failing[jid]
            violations.extend((jid, t) for t in range(by_id[jid].release, horizon + 1)
                              if betas[t] + rho * t < least)
    alpha_total = sum(alphas.values())
    beta_total = 2 * sum(betas)
    return DualCertificate(trace.machine, alphas, scale, tuple(betas),
                           alpha_total, beta_total, not violations,
                           alpha_total - beta_total, tuple(violations))


def _hull_minimum(hull_t: list[int], hull_beta: list[int], rho: int) -> int:
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
