"""Straightforward reference implementations kept as test oracles.

``floor_log`` finds a Fraction's power-of-two class by Fraction
comparisons, ``density_scale`` takes the lcm of the jobs' densities as
Fractions, ``arrival_impact`` classifies every active job by its density
class and prices it on its own, ``priced`` judges both sides against
``w*p/epsilon`` on its own, ``bucket_keys`` takes each rejection-table
class as a ``floor_log`` of a Fraction, ``fractional_flow_plan`` prices
every plan slot, ``compute_metrics`` sums every metric job by job in Fractions,
``beta_series`` walks each kept job's lifetime and ``verify_duals`` tests
every (job, time) pair one at a time, ``buckets`` re-derives each
rejection-table bucket from the ``floor_log`` keys and the cadence rules,
and ``bucket_report`` and ``audit_rejections`` sum its weights and compare
every rejection budget in Fractions. They are the definitions the fast versions in ``flowsched``
must reproduce exactly.

The engine keeps each weighted value as an integer numerator over a fixed
multiple of the run's density scale: ``2 * scale`` for impacts, dispatch
scores and certificate alphas, ``scale`` for bucket weights and
``scale / epsilon`` for budgets. ``impact_values`` turns an engine impact
into the Fractions of the ``split`` of the :class:`FractionImpact` that
``arrival_impact`` gives, and ``whole`` turns a Fraction back into such a
numerator, asserting that it is one. Records
the oracles build for the engine's own types (the per-slot engine's
impacts and dispatch scores, ``bucket_report``, ``audit_rejections``) are
computed in Fractions and stored as those numerators, so they compare
with ``==``.

The per-slot engine ``SlotScheduler``, driven by ``slot_run`` and
``slot_run_multi``, steps every machine one unit slot at a time in
lock-step, picks each new run with a ``min`` over the active jobs' HDF
keys (``hdf_key``, in Fractions), tests the marking budget in Fractions,
scores each arrival with the ``arrival_impact`` below, checks that the
tables' keys agree with its threshold flags, and records each
slot as a unit :class:`Run`; the event-driven
engine must produce the same slots, events, impacts and decisions. Its
traces are :class:`SlotTrace`s, which also record the charging map phi of
the paper's dual-fitting proof; the engine keeps no phi.
``slot_run_multi`` routes with ``dispatch``, which scores every eligible
machine in full with the ``arrival_impact`` above, and records each of its
decisions, which the engine keeps only in its traces: ``dispatched``
reads them from there, and ``trace_record`` is what two traces of the
same machine must share.

The per-call conversion: ``scaled_weight`` and ``scaled_density`` turn
one job's weight and one of its densities into integers over a given
scale, ``residual_job`` builds a :class:`ResidualJob` from them and
``integer_table`` builds an instance's whole table from them, the
reference for :attr:`Instance.table`.

Views of engine state that only the tests read: ``slots`` expands a
trace's runs into unit :class:`Slot` records, ``plan_slots`` lists each
job's plan slots for the per-slot references, ``completion_plan`` maps
each job to its plan completion time, ``residual_weight`` prices an
active job's remaining work, and ``runnable_on`` tells whether a job has
a size on a machine.

``simulate_text`` is ``simulate``'s output built the buffered way: every
line in one list (:class:`RecordBuffer`), each record but the slot lines
formatted by the generic ``emit``, the ``dispatch`` lines from the
decisions the per-slot engine recorded, the whole text joined at the end.
The command's streaming writer must give the same bytes.

The offline references: ``preemptive_hdf`` rescans every job in every
slot into a per-slot :class:`FractionalSchedule`, and ``lp_cost`` prices
one slot by slot in Fractions, the references for the runs of
``flowsched.baselines.preemptive_hdf`` and their per-run ``lp_cost``;
``fractional_schedule`` expands such runs into unit slots;
``busy_period_end`` and ``window_first_slot`` walk one job's denser set
in release order, the checks on the two ends of ``transport_opt``'s
windows; ``transport_opt_full`` solves the time-indexed relaxation with
arcs to every slot of the horizon, the check that those windows keep the
optimum; ``brute_force_nonpreemptive`` enumerates
every processing order of a tiny instance; ``greedy_nonpreemptive`` runs
non-preemptive HDF without rejection, the control that a long job strands
the jobs behind it; ``validate_schedule`` checks a
fractional schedule's capacities, releases and sizes; and
``lower_bound_check`` tests the two impact inequalities against the
transport optimum on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from itertools import permutations
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence

import networkx as nx

from flowsched.analysis import BudgetCheck, IncompleteTrace, Metrics, RejectionAudit
from flowsched.baselines import default_horizon, transport_opt
from flowsched.cli import _ratio
from flowsched.core import (HALF, DensityNotSpanned, Instance, Job, NonPositiveArgument,
                            ONE, Rational, ResidualJob, ZERO)
from flowsched.dispatch import NoEligibleMachine
from flowsched.impact import ArrivalImpact, JobInActiveSet
from flowsched.rejection import (BucketReport, ImmediateDecision, MinusKey, PlusKey,
                                 RejectionTables)
from flowsched.scheduler import (EVENT_DELAYED_REJECT, EVENT_IMMEDIATE_REJECT,
                                 EVENT_PLAN_COMPLETE, EVENT_PROMOTED, EVENT_REAL_COMPLETE,
                                 ArrivalInPast, DriverContractError, Event, Run,
                                 ScheduleTrace)


def floor_log(x: Rational) -> int:
    """Largest integer ``i`` with ``2**i <= x``, by exact Fraction
    comparisons from a guess within one of the answer."""
    if x <= 0:
        raise NonPositiveArgument(f"floor_log needs a positive argument, got {x}")
    i = x.numerator.bit_length() - x.denominator.bit_length()
    while Rational(2) ** i > x:
        i -= 1
    while Rational(2) ** (i + 1) <= x:
        i += 1
    return i


def runnable_on(job: Job, machine: int) -> bool:
    """Whether ``job`` has a size on ``machine``."""
    return 0 <= machine < len(job.sizes) and job.sizes[machine] is not None


def density_scale(jobs: Iterable[Job]) -> int:
    """The lcm of the denominators of every job's density, as a Fraction,
    on every machine that can run it."""
    return lcm(*(job.density(m).denominator for job in jobs
                 for m in range(len(job.sizes)) if runnable_on(job, m)))


def scaled_density(job: Job, machine: int, scale: int) -> int:
    """``w / p * scale`` for the job on ``machine``, exactly; raises
    :class:`DensityNotSpanned` if that is not an integer."""
    rho = job.weight / job.size_on(machine) * scale
    if rho.denominator != 1:
        raise DensityNotSpanned(
            f"scale {scale} does not span the density of job {job.id} on machine {machine}")
    return rho.numerator


def scaled_weight(job: Job, scale: int) -> int:
    """``w * scale``, for a ``scale`` that spans the job's weight."""
    return whole(job.weight * scale)


def job_row(job: Job, scale: int) -> tuple:
    """The job's row of integers over ``scale``, as ``Instance.table`` holds
    it, converted one call at a time."""
    cells = tuple(None if not runnable_on(job, m) else
                  (scaled_density(job, m, scale), floor_log(job.weight / job.sizes[m]))
                  for m in range(len(job.sizes)))
    return scaled_weight(job, scale), floor_log(job.weight), cells


def integer_table(instance: Instance) -> dict[int, tuple]:
    """The reference for ``instance.table``: every job's row over the
    Fraction lcm of the densities."""
    scale = density_scale(instance.jobs)
    return {job.id: job_row(job, scale) for job in instance.jobs}


def residual_job(job: Job, remaining: int, machine: int, scale: int) -> ResidualJob:
    """The job's view on ``machine`` over ``scale``, converted on the spot."""
    return ResidualJob(job, remaining, machine, job_row(job, scale))


def whole(value: Rational) -> int:
    """An engine numerator: ``value`` after scaling, which must be an integer."""
    assert value.denominator == 1, f"{value} is not a whole numerator"
    return value.numerator


def impact_values(impact: ArrivalImpact, scale: int) -> ArrivalImpact:
    """An engine impact, whose three values are numerators over
    ``2 * scale``, with those values as Fractions."""
    return ArrivalImpact(*(Rational(value, 2 * scale) for value in impact))


def impact_numerators(impact: ArrivalImpact, scale: int) -> ArrivalImpact:
    """The inverse of :func:`impact_values`."""
    return ArrivalImpact(*(whole(value * 2 * scale) for value in impact))


class FractionImpact(NamedTuple):
    """The oracle's impact in Fractions: the engine's split, its total, the
    arrival's density class, and whether each side meets its
    rejection-table threshold ``w*p/epsilon``, plus inclusively
    (``>=``) and minus strictly (``>``)."""

    total: Rational
    plus: Rational
    minus: Rational
    self_term: Rational
    density_class: int
    in_plus: bool
    in_minus: bool

    @property
    def split(self) -> ArrivalImpact:
        """The ``(plus, minus, self_term)`` that the engine keeps, as
        Fractions: what the oracle compares with :func:`impact_values`."""
        return ArrivalImpact(self.plus, self.minus, self.self_term)


def priced(job: Job, plus: Rational, minus: Rational, epsilon: Rational,
           machine: int = 0) -> FractionImpact:
    """The oracle's impact record of ``job`` on ``machine`` with these two
    side terms."""
    size = Rational(job.size_on(machine))
    self_term = job.weight * size * HALF
    threshold = job.weight * size / epsilon
    return FractionImpact(plus + self_term + minus, plus, minus, self_term,
                          floor_log(job.density(machine)),
                          plus >= threshold, minus > threshold)


def arrival_impact(job: Job, active: Iterable[ResidualJob], epsilon: Rational,
                   machine: int = 0) -> FractionImpact:
    """Impact of ``job`` against the active set, one active job at a time."""
    size = Rational(job.size_on(machine))
    rho = job.density(machine)
    klass = floor_log(rho)

    plus = ZERO
    minus = ZERO
    for res in active:
        if res.job.id == job.id:
            raise JobInActiveSet(f"job {job.id} is already active")
        other_rho = res.job.density(res.machine)
        if floor_log(other_rho) >= klass:
            if other_rho >= rho:
                plus += job.weight * res.remaining
            else:
                plus += size * residual_weight(res)
        else:
            # a strictly smaller class implies strictly smaller density
            minus += size * residual_weight(res)
    return priced(job, plus, minus, epsilon, machine)


def bucket_keys(impact: FractionImpact, job: Job,
                machine: int = 0) -> tuple[PlusKey | None, MinusKey | None]:
    """The rejection-table keys, each class a ``floor_log`` of a Fraction."""
    plus_key = None
    minus_key = None
    if impact.in_plus:
        plus_key = PlusKey(floor_log(impact.plus / job.weight), floor_log(job.weight))
    if impact.in_minus:
        minus_key = MinusKey(floor_log(impact.minus), impact.density_class,
                             floor_log(Rational(job.size_on(machine))))
    return plus_key, minus_key


def buckets(trace: ScheduleTrace, instance: Instance):
    """Each rejection-table bucket as ``(table, key, weights, rejected)``,
    in the tables' report order, rebuilt from the trace's impacts: each
    arrival goes to the buckets of :func:`bucket_keys` above, in arrival
    order, and a bucket rejects the ordinals ``1 mod 1/epsilon`` (plus) or
    ``0 mod 1/epsilon`` (minus). ``weights`` are the Fraction weights by
    ordinal."""
    by_id, cadence = instance.by_id, instance.epsilon.denominator
    assigned: dict[tuple[str, tuple[int, ...]], list[Rational]] = {}
    for jid in trace.arrivals:
        job = by_id[jid]
        impact = priced(job, *impact_values(trace.impacts[jid], instance.scale)[:2],
                        instance.epsilon, trace.machine)
        for table, key in zip(("plus", "minus"), bucket_keys(impact, job, trace.machine)):
            if key is not None:
                assigned.setdefault((table, tuple(key)), []).append(job.weight)
    for (table, key), weights in sorted(assigned.items(),
                                        key=lambda item: (item[0][0] == "minus", item[0])):
        first = 1 if table == "plus" else 0
        yield table, key, weights, tuple(o for o in range(1, len(weights) + 1)
                                         if o % cadence == first)


def bucket_report(trace: ScheduleTrace, instance: Instance) -> list[BucketReport]:
    """The tables' report of :func:`buckets`, its weights summed in
    Fractions and stored over ``scale``."""
    scale = instance.scale
    return [BucketReport(table, key, len(weights), rejected,
                         whole(sum(weights, start=ZERO) * scale),
                         whole(sum((weights[o - 1] for o in rejected), start=ZERO) * scale),
                         whole(weights[0] * scale) if 1 in rejected else 0)
            for table, key, weights, rejected in buckets(trace, instance)]


def audit_rejections(traces: list[ScheduleTrace], instance: Instance) -> RejectionAudit:
    """Every rejection budget summed and compared in Fractions, over the
    :func:`buckets` above; the values and bounds are stored over
    ``scale / epsilon``."""
    by_id, eps = instance.by_id, instance.epsilon
    total = sum((j.weight for j in instance.jobs), start=ZERO)
    delayed = immediate = ZERO
    plus_assigned = minus_assigned = ZERO
    plus_first = plus_rest = minus_rejected = ZERO
    for trace in traces:
        delayed += sum((by_id[jid].weight for jid in trace.promoted_at), start=ZERO)
        immediate += sum((by_id[jid].weight for jid in trace.immediate_rejected), start=ZERO)
        for table, _, weights, rejected in buckets(trace, instance):
            assigned = sum(weights, start=ZERO)
            dropped = sum((weights[o - 1] for o in rejected), start=ZERO)
            if table == "plus":
                first = weights[0] if 1 in rejected else ZERO
                plus_assigned += assigned
                plus_first += first
                plus_rest += dropped - first
            else:
                minus_assigned += assigned
                minus_rejected += dropped
    denominator = instance.scale * eps.denominator
    checks = tuple(
        BudgetCheck(name, whole(value * denominator), whole(bound * denominator),
                    value <= bound)
        for name, value, bound in (
            ("delayed_weight", delayed, eps * total),
            ("minus_rejected", minus_rejected, 4 * eps * minus_assigned),
            ("plus_rejected_nonfirst", plus_rest, 2 * eps * plus_assigned),
            ("plus_first_in_bucket", plus_first, 8 * eps * total),
            ("grand_total", immediate + delayed, 15 * eps * total)))
    return RejectionAudit(checks, delayed / total if total else ZERO,
                          immediate / total if total else ZERO, denominator)


def fractional_flow_plan(trace: ScheduleTrace, instance: Instance) -> Rational:
    """Continuous fractional weighted flow of the plan, priced slot by slot:
    a unit processed in [s, s+1) contributes ``rho (s - r + 1/2)``."""
    by_id = instance.by_id
    total = ZERO
    for jid, slots in plan_slots(trace).items():
        job = by_id[jid]
        rho = job.density(trace.machine)
        for s in slots:
            total += rho * (Rational(s - job.release) + HALF)
    return total


def compute_metrics(traces: list[ScheduleTrace], instance: Instance) -> Metrics:
    """The six metrics summed job by job in Fractions; the plan's
    fractional flow is the per-slot ``fractional_flow_plan`` above."""
    by_id = instance.by_id
    delivered: set[int] = set()
    weighted_flow = ZERO
    fractional = ZERO
    departure_objective = ZERO
    rejected_immediate = ZERO
    rejected_delayed = ZERO
    for trace in traces:
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


def beta_series(trace: ScheduleTrace, instance: Instance) -> list[Rational]:
    """Total residual weight at each integer time 0..horizon, sampled just
    after arrival processing (new arrivals count at full weight)."""
    by_id = instance.by_id
    horizon = trace.horizon()
    betas = [ZERO] * (horizon + 1)
    slots = plan_slots(trace)
    completions = completion_plan(trace)
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


@dataclass(frozen=True)
class PairCertificate:
    """The pair-by-pair verifier's verdict, with each beta_t a Fraction."""
    machine: int
    alphas: dict[int, Rational]
    betas: tuple[Rational, ...]
    feasible: bool
    objective: Rational
    violations: tuple[tuple[int, int], ...]


def verify_duals(trace: ScheduleTrace, instance: Instance) -> PairCertificate:
    """Check every (job, time) dual constraint exactly and price the
    certificate ``sum alpha - sum beta``, in Fractions throughout.

    The constraint is ``alpha_j / p_j - beta_t <= w_j (t - r_j)/p_j + w_j/2``
    for all t >= r_j. Infeasibility is reported, not raised.
    """
    by_id = instance.by_id
    betas = beta_series(trace, instance)
    horizon = len(betas) - 1
    alphas = {jid: Rational(trace.impacts[jid].total, 2 * instance.scale)
              for jid in trace.arrivals}
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
    objective = sum(alphas.values(), start=ZERO) - sum(betas, start=ZERO)
    return PairCertificate(trace.machine, alphas, tuple(betas),
                           not violations, objective, tuple(violations))


# -- test-only views of engine state ----------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One busy slot [t, t+1): what the plan ran and what really ran."""
    t: int
    plan: int
    real: int | None

    @property
    def idled(self) -> bool:
        return self.real is None


def slots(trace: ScheduleTrace) -> list[Slot]:
    """The trace's runs expanded into unit slots, in time order."""
    return [Slot(t, run.plan, run.real)
            for run in trace.runs for t in range(run.start, run.end)]


def completion_plan(trace: ScheduleTrace) -> dict[int, int]:
    """Plan completion time of each job the plan finished."""
    return {e.job: e.time for e in trace.events if e.kind == EVENT_PLAN_COMPLETE}


def residual_weight(res: ResidualJob) -> Rational:
    """Weight of an active job's remaining work, ``density * remaining``."""
    return res.job.density(res.machine) * res.remaining


def hdf_key(res: ResidualJob) -> tuple[Rational, int, int]:
    """HDF priority of an active job, smallest first: (-density, release, id)."""
    return (-res.job.density(res.machine), res.job.release, res.job.id)


def plan_slots(trace: ScheduleTrace) -> dict[int, list[int]]:
    """Slot start times the plan spent on each job, in order."""
    out: dict[int, list[int]] = {}
    for slot in slots(trace):
        out.setdefault(slot.plan, []).append(slot.t)
    return out


# -- the buffered simulate formatter ---------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class RecordBuffer:
    """Holds every record line in a list until :meth:`text` joins them."""

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, record: str, **fields) -> None:
        parts = [record] + [f"{k}={_fmt(v)}" for k, v in fields.items()]
        self.lines.append(" ".join(parts))

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def simulate_text(instance: Instance, traces: list[ScheduleTrace], metrics: Metrics,
                  decisions: Sequence[DispatchDecision] = ()) -> str:
    """``simulate``'s output for a run's traces, its metrics and, on several
    machines, the dispatch ``decisions`` as :func:`slot_run_multi` records
    them, every record but the slot lines formatted through the generic
    ``emit``."""
    writer = RecordBuffer()
    # instances carry no speed; the fixed field keeps the record's bytes
    writer.emit("header", m=instance.machines, epsilon=instance.epsilon, speedup=0)
    double = 2 * instance.scale    # the impacts' denominator
    totals: dict[int, str] = {}    # a score's text, reused as its impact's total
    for decision in decisions:
        totals[decision.job] = score = _ratio(decision.score, double)
        writer.emit("dispatch", job=decision.job, machine=decision.machine, score=score)
    for trace in traces:
        writer.emit("machine", index=trace.machine,
                    arrivals=",".join(map(str, trace.arrivals)) or "-")
        # one line per unit slot, formatted straight from the runs
        head = f"slot machine={trace.machine} t="
        for seg in trace.runs:
            tail = (f" plan={seg.plan} real=- idled=1" if seg.real is None
                    else f" plan={seg.plan} real={seg.real} idled=0")
            writer.lines.extend(f"{head}{t}{tail}" for t in range(seg.start, seg.end))
        for event in trace.events:
            writer.emit("event", machine=trace.machine, t=event.time,
                        job=event.job, kind=event.kind)
        departures = trace.departure
        for jid in trace.arrivals:
            writer.emit("departure", machine=trace.machine, job=jid,
                        time=departures[jid])
        for jid in trace.arrivals:
            impact, decision = trace.impacts[jid], trace.decisions[jid]
            writer.emit("impact", machine=trace.machine, job=jid,
                        total=totals.pop(jid, None) or _ratio(impact.total, double),
                        plus=_ratio(impact.plus, double),
                        minus=_ratio(impact.minus, double),
                        self_term=_ratio(impact.self_term, double),
                        density_class=floor_log(instance.by_id[jid].density(trace.machine)),
                        in_plus=decision.plus_key is not None,
                        in_minus=decision.minus_key is not None)
        for jid in trace.arrivals:
            decision = trace.decisions[jid]
            writer.emit("decision", machine=trace.machine, job=jid,
                        reject=decision.reject, reason=decision.reason,
                        plus_ordinal=decision.plus_ordinal,
                        minus_ordinal=decision.minus_ordinal)
    for field in fields(metrics):    # one line per metric, in field order
        writer.emit("metric", name=field.name, value=getattr(metrics, field.name))
    return writer.text()


# -- the per-slot engine ---------------------------------------------------------


@dataclass
class SlotTrace(ScheduleTrace):
    """A trace with the charging map of the dual-fitting proof: ``phi[j]``
    is the unmarked job that ran in the slot just before j arrived, if it
    is still active. Only the tests read it."""
    phi: dict[int, int] = field(default_factory=dict)


class SlotScheduler:
    """The per-slot engine: one :meth:`select_slot` call per unit slot.
    It scores arrivals with the per-job ``arrival_impact`` above."""

    def __init__(self, epsilon: Rational, machine: int, scale: int):
        self.machine = machine
        self.epsilon = epsilon
        # to build ResidualJobs and to record impacts as the engine does;
        # this engine reads no scaled density
        self.scale = scale
        self.clock = 0
        self.active: dict[int, ResidualJob] = {}
        self.preemptible: set[int] = set()
        self.tables = RejectionTables(epsilon, scale)
        # current uninterrupted run of an unmarked job
        self.run_job: int | None = None
        self.run_released: Rational = ZERO
        # job processed in [clock-1, clock), None after idling or a completion
        self.last_slot_job: int | None = None
        self._trace = SlotTrace(machine, self.tables)

    # -- step 1: arrivals ------------------------------------------------

    def on_arrival(self, job: Job) -> ImmediateDecision:
        """Score, admit or reject, and book-keep one arriving job; return the
        decision recorded."""
        if job.release != self.clock:
            error = ArrivalInPast if job.release < self.clock else DriverContractError
            raise error(f"job {job.id} released at {job.release}, clock is {self.clock}")
        tr = self._trace

        scored = arrival_impact(job, self.active.values(), self.epsilon, self.machine)
        impact = impact_numerators(scored.split, self.scale)
        arrival = residual_job(job, job.size_on(self.machine), self.machine, self.scale)
        decision = self.tables.admit(arrival, impact)
        # the tables judge the thresholds on their own; the oracle's flags agree
        assert (decision.plus_key is not None, decision.minus_key is not None) \
            == (scored.in_plus, scored.in_minus), job.id
        tr.impacts[job.id] = impact
        tr.decisions[job.id] = decision

        if self.last_slot_job is not None and self.last_slot_job not in self.preemptible:
            tr.phi[job.id] = self.last_slot_job

        if decision.reject:
            tr.events.append(Event(self.clock, job.id, EVENT_IMMEDIATE_REJECT))
        else:
            self.active[job.id] = arrival

        # released weight counts toward the current run whether or not the
        # arrival survived; the marking budget charges all released weight
        if self.run_job is not None:
            self.run_released += job.weight
        self.promote_check()
        return decision

    # -- step 2: marking -------------------------------------------------

    def promote_check(self) -> Event | None:
        """Mark the running job preemptible if its run accumulated enough
        released weight (strictly more than weight/epsilon)."""
        if self.run_job is None:
            return None
        runner = self.active[self.run_job]
        if self.run_released <= runner.job.weight / self.epsilon:
            return None
        jid = self.run_job
        tr = self._trace
        self.preemptible.add(jid)
        event = Event(self.clock, jid, EVENT_PROMOTED)
        tr.events.append(event)
        # the real schedule gives up on the job right here
        tr.events.append(Event(self.clock, jid, EVENT_DELAYED_REJECT))
        self.run_job = None
        return event

    # -- step 3: slot selection -------------------------------------------

    def select_slot(self) -> int | None:
        """Run one slot [clock, clock+1); returns the job the plan ran."""
        t = self.clock
        if self.run_job is not None:
            chosen = self.run_job  # non-preemption: an unmarked run continues
        else:
            if not self.active:
                self.last_slot_job = None
                self.clock = t + 1
                return None
            chosen = min(self.active.values(), key=hdf_key).job.id
            if chosen not in self.preemptible:
                self.run_job = chosen
                self.run_released = ZERO

        tr = self._trace
        mirrored = chosen not in self.preemptible
        tr.runs.append(Run(t, t + 1, chosen, chosen if mirrored else None))

        res = self.active[chosen]
        res.remaining -= 1
        if res.remaining == 0:
            del self.active[chosen]
            tr.events.append(Event(t + 1, chosen, EVENT_PLAN_COMPLETE))
            if chosen not in self.preemptible:
                tr.events.append(Event(t + 1, chosen, EVENT_REAL_COMPLETE))
            if self.run_job == chosen:
                self.run_job = None
            # a finished job can no longer be marked or charged against
            self.last_slot_job = None
        else:
            self.last_slot_job = chosen
        self.clock = t + 1
        return chosen

    # -- driver helpers ----------------------------------------------------

    def skip_to(self, t: int) -> None:
        """Advance over an idle gap (no active jobs)."""
        if self.active or t < self.clock:
            raise DriverContractError(
                f"cannot skip from {self.clock} to {t} with {len(self.active)} active jobs")
        self.clock = t
        self.last_slot_job = None

    def finish_trace(self) -> SlotTrace:
        return self._trace


def slot_run(instance: Instance, machine: int = 0) -> SlotTrace:
    """Drive the online engine over a (single-machine view of a) validated
    instance.

    Every job must be runnable on ``machine``. Deterministic for a fixed
    input order; the returned trace satisfies all structural invariants
    (mirror property, one terminal event per job, non-preemptive real
    schedule).
    """
    for job in instance.jobs:
        job.size_on(machine)  # raises JobNotRunnableOnMachine early
    sched = SlotScheduler(instance.epsilon, machine, density_scale(instance.jobs))
    return slot_drive(instance.jobs, [sched], lambda job, machines: 0)[0]


def slot_drive(jobs: Sequence[Job], machines: Sequence[SlotScheduler],
               route: Callable[[Job, Sequence[SlotScheduler]], int]) -> list[SlotTrace]:
    """Deliver each job at its release to ``machines[route(job, machines)]``,
    one arrival at a time in input order (sorted by release), and run all
    machines in lock-step slots until every one is empty. The shared clock
    skips gaps where all idle and never passes an undelivered arrival."""
    i, n = 0, len(jobs)
    while i < n or any(s.active for s in machines):
        if i < n and jobs[i].release > machines[0].clock \
                and not any(s.active for s in machines):
            for sched in machines:
                sched.skip_to(jobs[i].release)
        t = machines[0].clock
        while i < n and jobs[i].release == t:
            machines[route(jobs[i], machines)].on_arrival(jobs[i])
            i += 1
        for sched in machines:
            sched.select_slot()
    return [s.finish_trace() for s in machines]


class DispatchDecision(NamedTuple):
    job: int
    machine: int
    score: int  # the chosen machine's impact total, over twice the density scale


@dataclass
class SlotRun:
    """The per-slot engine's traces of one run, with the dispatch decisions
    it recorded as it routed each arrival."""
    traces: list[SlotTrace]
    decisions: list[DispatchDecision]


def dispatched(traces: list[ScheduleTrace], instance: Instance) -> list[DispatchDecision]:
    """The dispatch decisions a run's traces hold, in input order: a job's
    machine is the trace it arrived on, its score that trace's impact total."""
    return [DispatchDecision(job.id, trace.machine, trace.impacts[job.id].total)
            for job in instance.jobs for trace in traces if job.id in trace.impacts]


def trace_record(trace: ScheduleTrace) -> tuple:
    """What a trace records, comparable between the two engines: its
    arrivals, unit slots, events, impacts and decisions."""
    return trace.arrivals, slots(trace), trace.events, trace.impacts, trace.decisions


def dispatch(job: Job, machines: Sequence[SlotScheduler], epsilon: Rational,
             scale: int) -> DispatchDecision:
    """Pick the machine where the job's arrival impact is smallest, scoring
    every eligible machine in full; ties go to the smaller index. The score
    is recorded over twice the machines' shared density ``scale``."""
    best: tuple[Rational, int] | None = None
    for index, sched in enumerate(machines):
        if not runnable_on(job, index):
            continue
        score = arrival_impact(job, sched.active.values(), epsilon, index).total
        if best is None or score < best[0]:
            best = (score, index)
    if best is None:
        raise NoEligibleMachine(f"job {job.id} is not runnable on any machine")
    return DispatchDecision(job.id, best[1], whole(best[0] * 2 * scale))


def slot_run_multi(instance: Instance) -> SlotRun:
    """Dispatch every arrival of a validated instance, then drive all
    machines in lock-step slots.

    With a single machine this reduces to :func:`slot_run` bit for bit;
    both share :func:`slot_drive`.
    """
    scale = density_scale(instance.jobs)
    machines = [SlotScheduler(instance.epsilon, i, scale) for i in range(instance.machines)]
    decisions: list[DispatchDecision] = []

    def route(job: Job, machines: Sequence[SlotScheduler]) -> int:
        decision = dispatch(job, machines, instance.epsilon, scale)
        decisions.append(decision)
        return decision.machine

    return SlotRun(slot_drive(instance.jobs, machines, route), decisions)


# -- offline references ---------------------------------------------------------


class TooLarge(ValueError):
    pass


class TooLargeForOracle(ValueError):
    pass


@dataclass(frozen=True)
class FractionalSchedule:
    """Per-slot fractional assignment ``allocation[(t, job id)] = amount``."""

    jobs: tuple[Job, ...]
    allocation: dict[tuple[int, int], Rational]


def fractional_schedule(instance: Instance, runs) -> FractionalSchedule:
    """``(start, end, job id)`` runs on one machine, one whole unit per slot."""
    return FractionalSchedule(instance.jobs, {(t, jid): ONE for start, end, jid in runs
                                              for t in range(start, end)})


def lp_cost(sched: FractionalSchedule) -> Rational:
    """Exact time-indexed objective value of a fractional schedule, slot by
    slot: ``w_j ((t - r_j)/p_j + 1/2)`` per unit of job j in slot t."""
    by_id = {j.id: j for j in sched.jobs}
    total = ZERO
    for (t, jid), amount in sched.allocation.items():
        job = by_id[jid]
        size = job.size_on(0)
        total += job.weight * (Rational(t - job.release, size) + HALF) * amount
    return total


def preemptive_hdf(jobs: list[Job] | tuple[Job, ...]) -> FractionalSchedule:
    """Slot-by-slot preemptive HDF.

    Each slot hands up to one unit to the densest released unfinished
    jobs, in priority order; ties break by earlier release, then smaller
    id (same rule as the online engine).
    """
    jobs = tuple(jobs)
    remaining = {j.id: Rational(j.size_on(0)) for j in jobs}
    by_priority = sorted(jobs, key=lambda j: (-j.density(), j.release, j.id))
    allocation: dict[tuple[int, int], Rational] = {}
    unfinished = {j.id for j in jobs}
    if not unfinished:
        return FractionalSchedule(jobs, allocation)
    t = min(j.release for j in jobs)
    while unfinished:
        released = [j for j in by_priority if j.id in unfinished and j.release <= t]
        if not released:
            t = min(j.release for j in jobs if j.id in unfinished)
            continue
        capacity = ONE
        for job in released:
            if capacity <= 0:
                break
            amount = min(capacity, remaining[job.id])
            allocation[(t, job.id)] = amount
            remaining[job.id] -= amount
            capacity -= amount
            if remaining[job.id] == 0:
                unfinished.discard(job.id)
        t += 1
    return FractionalSchedule(jobs, allocation)


def busy_period_end(jobs, job: Job) -> int:
    """End of the busy period that contains ``job.release`` when the
    machine serves only the jobs at least as dense as ``job``."""
    denser = sorted((j for j in jobs if j.density() >= job.density()),
                    key=lambda j: j.release)
    end = None
    for other in denser:
        if end is not None and other.release >= end:
            if end > job.release:
                break
            end = None
        if end is None:
            end = other.release
        end += other.size_on(0)
    return end


def window_first_slot(jobs, job: Job) -> int:
    """End of the busy period that contains ``job.release`` when the
    machine serves only the jobs strictly denser than ``job``, or
    ``job.release`` if none of their busy periods contains it."""
    denser = sorted((j for j in jobs if j.density() > job.density()),
                    key=lambda j: j.release)
    start = end = None
    for other in denser:
        if end is None or other.release >= end:
            if end is not None and start <= job.release < end:
                break
            start = end = other.release
        end += other.size_on(0)
    if end is not None and start <= job.release < end:
        return end
    return job.release


def validate_schedule(sched: FractionalSchedule) -> None:
    """Raise ``ValueError`` unless no allocation is negative or before its
    job's release, no slot holds more than one unit and every job gets its
    size."""
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
        if used > 1:
            raise ValueError(f"slot {t} over capacity: {used} > 1")
    for job in sched.jobs:
        if per_job.get(job.id, ZERO) != job.size_on(0):
            raise ValueError(f"job {job.id} not fully processed")


def transport_opt_full(jobs) -> Rational:
    """Optimum of the time-indexed relaxation with an arc from each job to
    every slot of the default horizon from its release on."""
    jobs = list(jobs)
    if not jobs:
        return ZERO
    horizon = default_horizon(jobs)
    scale = lcm(*(lcm(j.density().denominator, (j.weight * HALF).denominator)
                  for j in jobs))
    graph = nx.DiGraph()
    total_units = 0
    for job in jobs:
        units = job.size_on(0)
        total_units += units
        graph.add_node(("job", job.id), demand=-units)
        for t in range(job.release, horizon):
            cost = (job.density() * (t - job.release) + job.weight * HALF) * scale
            assert cost.denominator == 1
            graph.add_edge(("job", job.id), ("slot", t), capacity=units,
                           weight=cost.numerator)
    graph.add_node("sink", demand=total_units)
    for t in range(horizon):
        graph.add_edge(("slot", t), "sink", capacity=1, weight=0)
    cost, _ = nx.network_simplex(graph)
    return Rational(cost, scale)


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


def greedy_nonpreemptive(jobs) -> Rational:
    """Total weighted flow of non-preemptive HDF without rejection on one
    machine, the no-rejection control: at each completion it starts the
    densest released job (ties by earlier release, then smaller id) and
    runs it to the end; an idle machine waits for the next release."""
    pending = sorted(jobs, key=lambda j: j.release, reverse=True)
    ready: list[tuple[Rational, int, int, Job]] = []
    t, total = 0, ZERO
    while pending or ready:
        if not ready:
            t = max(t, pending[-1].release)
        while pending and pending[-1].release <= t:
            job = pending.pop()
            heappush(ready, (-job.density(0), job.release, job.id, job))
        job = heappop(ready)[3]
        t += job.size_on(0)
        total += job.weight * (t - job.release)
    return total


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


def lower_bound_check(traces: list[ScheduleTrace], instance: Instance,
                      limit: int = 12) -> LowerBoundVerdict:
    """Verify the two impact inequalities against the exact transport
    optimum of each machine's jobs, projected to that machine's sizes.

    Only intended for small instances; raises :class:`TooLargeForOracle`
    beyond ``limit`` jobs.
    """
    if len(instance.jobs) > limit:
        raise TooLargeForOracle(
            f"instance has {len(instance.jobs)} jobs, limit is {limit}")
    by_id = instance.by_id
    oracle = ZERO
    immediate = kept = ZERO
    slack = ZERO
    plan_flow = ZERO
    for trace in traces:
        projected = [Job(jid, by_id[jid].release, by_id[jid].weight,
                         (by_id[jid].size_on(trace.machine),))
                     for jid in trace.arrivals]
        oracle += transport_opt(Instance(tuple(projected)))
        rejected = trace.immediate_rejected
        for jid in trace.arrivals:
            total = Rational(trace.impacts[jid].total, 2 * instance.scale)
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
