"""Single-machine online engine.

The engine maintains two coupled schedules:

* the *plan*: eventually finishes every job it admits. A job that started
  running is never preempted unless it has been marked preemptible; marked
  jobs compete under plain HDF.
* the *real* schedule: mirrors the plan, but idles whenever the plan runs a
  job that has been marked preemptible. Such jobs count as rejected at the
  moment they were marked (their departure time), so the real schedule is
  non-preemptive and rejection-only.

Decisions change only at events. At an arrival at integer time t, in input
order: (1) the job is scored against the active set and offered to the
rejection tables; (2) the currently running job is checked for marking: it
is marked once the weight released since its run began exceeds
weight/epsilon (strictly). Simultaneous arrivals repeat (1)-(2) one at a
time, so a marking can fire mid-batch and later same-time arrivals see it.
(3) Between events the plan runs one job: a mid-run unmarked job
continues, otherwise the densest active job wins (ties: earlier release,
then smaller id), read from the top of a per-machine heap of HDF keys.
Keys never change order, so each is pushed once, at activation; a
completed job's key is popped only when it reaches the top (lazy
deletion), since a non-preemptive run can finish a job that is not the
densest. The job keeps running until it completes or the next release,
whichever comes first, so the engine advances one segment per step and
stores each segment as one :class:`Run`. Unit slots ``[t, t+1)`` exist only
in ``simulate``'s slot lines.

The engine converts nothing: each arrival is a
:class:`~flowsched.core.ResidualJob` filled, here or in dispatch, from the
instance's integer table over its one ``scale``, and that one object is
scored, admitted and, if kept, activated. A heap key is
``(-rho * scale, release, id)``; the marking budget ``run_released`` sums
each arrival's ``w * scale`` since the run began, against the running
job's ``weight * (1/epsilon)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import groupby
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .core import Instance, Job, ResidualJob
from .impact import ArrivalImpact, arrival_impact
from .rejection import BucketReport, ImmediateDecision, RejectionTables

EVENT_IMMEDIATE_REJECT = "immediate_reject"
EVENT_PROMOTED = "promoted"
EVENT_DELAYED_REJECT = "delayed_reject"
EVENT_PLAN_COMPLETE = "plan_complete"
EVENT_REAL_COMPLETE = "real_complete"

TERMINAL_EVENTS = (EVENT_IMMEDIATE_REJECT, EVENT_DELAYED_REJECT, EVENT_REAL_COMPLETE)

class DriverContractError(ValueError):
    """The driver called the engine out of order: an arrival delivered off
    the clock, a skip over active jobs or back in time, or a segment asked
    to stop at or before the clock."""


class ArrivalInPast(DriverContractError):
    """A job was delivered after the scheduler clock passed its release."""


class Run(NamedTuple):
    """The plan ran job ``plan`` over [start, end); ``real`` is the same job,
    or None where the real schedule idled because the job was marked. A
    tuple, because the engine makes one per segment and a frozen dataclass
    costs about four times as much to build."""
    start: int
    end: int
    plan: int
    real: int | None


class Event(NamedTuple):
    time: int
    job: int
    kind: str


@dataclass
class ScheduleTrace:
    """Complete, replayable record of one machine's run.

    ``runs`` is the only record of processing: one :class:`Run` per
    segment between events, in time order. ``events`` is the only record
    of each job's fate, and ``decisions`` (kept in arrival order) of which
    jobs arrived. ``arrivals``, ``departure``, ``completion_real`` and
    ``promoted_at`` are read-only views rebuilt from them on every
    access, so bind one to a local before a loop. ``departure[j]`` is the
    completion time for jobs the real schedule finishes, the release time
    for immediate rejections, and the marking time for delayed
    rejections. Every delivered job has exactly one terminal event.

    ``impacts`` are numerators over twice the density scale. The bucket
    report ``table_report`` is built from ``tables`` when first read, so
    read it after the run; only ``audit`` does.
    """

    machine: int
    tables: RejectionTables = field(repr=False, compare=False)
    runs: list[Run] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    impacts: dict[int, ArrivalImpact] = field(default_factory=dict)
    decisions: dict[int, ImmediateDecision] = field(default_factory=dict)

    @cached_property
    def table_report(self) -> list[BucketReport]:
        return self.tables.audit()

    def _times(self, *kinds: str) -> dict[int, int]:
        return {e.job: e.time for e in self.events if e.kind in kinds}

    arrivals = property(lambda self: tuple(self.decisions))
    departure = property(lambda self: self._times(*TERMINAL_EVENTS))
    completion_real = property(lambda self: self._times(EVENT_REAL_COMPLETE))
    promoted_at = property(lambda self: self._times(EVENT_PROMOTED))

    @property
    def immediate_rejected(self) -> set[int]:
        return {jid for jid, d in self.decisions.items() if d.reject}

    @property
    def kept(self) -> list[int]:
        return [jid for jid in self.arrivals if not self.decisions[jid].reject]

    def horizon(self) -> int:
        """First time by which the machine is provably empty."""
        end = self.runs[-1].end if self.runs else 0
        return max([end, *self.departure.values()])


class MachineScheduler:
    """Mutable engine state for one machine of ``instance``, whose jobs it is
    delivered, over the instance's ``scale``. Single-threaded use only."""

    def __init__(self, instance: Instance, machine: int):
        self.instance = instance
        self.machine = machine
        self.clock = 0
        # a segment never runs past this time; the driver sets it to the
        # next release, and None runs the chosen job to completion
        self.stop: int | None = None
        # (arrival, impact) from dispatch, which built and scored the job's
        # view here; the next on_arrival uses it only for that same job and
        # clears it either way
        self.scored: tuple[ResidualJob, ArrivalImpact] | None = None
        self.active: dict[int, ResidualJob] = {}
        # HDF keys (-rho * scale, release, id) of activated jobs; entries of
        # completed jobs linger below the top until select_slot pops them
        self.heap: list[tuple[int, int, int]] = []
        self.preemptible: set[int] = set()
        self.tables = RejectionTables(instance.epsilon, instance.scale)
        # current uninterrupted run of an unmarked job, and the weight
        # released since it began, times scale
        self.run_job: int | None = None
        self.run_released = 0
        self._trace = ScheduleTrace(machine, self.tables)

    # -- step 1: arrivals ------------------------------------------------

    def on_arrival(self, job: Job) -> ImmediateDecision:
        """Fill the job's view on this machine and score it (or take
        dispatch's ``scored`` view and impact of this job), admit or reject,
        and book-keep one arriving job. Returns the decision it recorded."""
        if job.release != self.clock:
            error = ArrivalInPast if job.release < self.clock else DriverContractError
            raise error(f"job {job.id} released at {job.release}, clock is {self.clock}")
        tr = self._trace

        scored, self.scored = self.scored, None
        if scored is not None and scored[0].job is job:
            arrival, impact = scored
        else:
            arrival = ResidualJob(job, job.size_on(self.machine), self.machine,
                                  self.instance.table[job.id])
            impact = arrival_impact(arrival, self.active.values())
        decision = self.tables.admit(arrival, impact)
        tr.impacts[job.id] = impact
        tr.decisions[job.id] = decision

        if decision.reject:
            tr.events.append(Event(self.clock, job.id, EVENT_IMMEDIATE_REJECT))
        else:
            self.active[job.id] = arrival
            heappush(self.heap, (-arrival.rho, job.release, job.id))

        # released weight counts toward the current run whether or not the
        # arrival survived; the marking budget charges all released weight
        if self.run_job is not None:
            self.run_released += arrival.weight
        self.promote_check()
        return decision

    # -- step 2: marking -------------------------------------------------

    def promote_check(self) -> Event | None:
        """Mark the running job preemptible if its run accumulated enough
        released weight (strictly more than weight/epsilon)."""
        if self.run_job is None:
            return None
        if self.run_released <= self.active[self.run_job].weight * self.tables.cadence:
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

    # -- step 3: one segment ----------------------------------------------

    def select_slot(self) -> int | None:
        """Run the plan from the clock until its job completes or until
        ``stop``, whichever comes first; returns the job the plan ran, or
        None if the machine is empty. A new run takes the densest active
        job from the top of the heap, after popping the keys of jobs that
        completed while they were not on top."""
        t = self.clock
        if self.run_job is not None:
            chosen = self.run_job  # non-preemption: an unmarked run continues
        else:
            if not self.active:
                return None
            heap, active = self.heap, self.active
            while heap[0][2] not in active:
                heappop(heap)
            chosen = heap[0][2]
            if chosen not in self.preemptible:
                self.run_job = chosen
                self.run_released = 0

        res = self.active[chosen]
        end = t + res.remaining
        if self.stop is not None and self.stop < end:
            end = self.stop
        if end <= t:
            raise DriverContractError(f"stop time {self.stop} is not after clock {t}")
        tr = self._trace
        mirrored = chosen not in self.preemptible
        tr.runs.append(Run(t, end, chosen, chosen if mirrored else None))

        res.remaining -= end - t
        if res.remaining == 0:
            del self.active[chosen]
            tr.events.append(Event(end, chosen, EVENT_PLAN_COMPLETE))
            if mirrored:
                tr.events.append(Event(end, chosen, EVENT_REAL_COMPLETE))
            if self.run_job == chosen:
                self.run_job = None  # a finished job can no longer be marked
        self.clock = end
        return chosen

    # -- driver helpers ----------------------------------------------------

    def skip_to(self, t: int) -> None:
        """Advance over an idle gap (no active jobs)."""
        if self.active or t < self.clock:
            raise DriverContractError(
                f"cannot skip from {self.clock} to {t} with {len(self.active)} active jobs")
        self.clock = t

    def finish_trace(self) -> ScheduleTrace:
        return self._trace


def run(instance: Instance) -> ScheduleTrace:
    """Drive the online engine over a validated instance, which it does not
    validate again, on machine 0 of the instance.

    An arrival that machine 0 cannot run raises
    :class:`~flowsched.core.JobNotRunnableOnMachine` when its view is built.
    Deterministic for a fixed input order; the returned trace satisfies all
    structural invariants (mirror property, one terminal event per job,
    non-preemptive real schedule).
    """
    sched = MachineScheduler(instance, 0)
    return drive(instance.jobs, [sched], lambda job, machines: 0)[0]


def drive(jobs: Sequence[Job], machines: Sequence[MachineScheduler],
          route: Callable[[Job, Sequence[MachineScheduler]], int]) -> list[ScheduleTrace]:
    """Deliver each job at its release to ``machines[route(job, machines)]``,
    one arrival at a time in input order (sorted by release), then run every
    machine until it is empty.

    Before the arrivals at time t, each machine is brought to t on its own:
    by segments that stop at t, or by a skip once it is empty. Machines
    share no clock; they interact only through ``route`` at arrivals.
    """
    for t, batch in groupby(jobs, key=attrgetter("release")):
        for sched in machines:
            sched.stop = t
            while sched.active and sched.clock < t:
                sched.select_slot()
            if sched.clock < t:
                sched.skip_to(t)
        for job in batch:
            machines[route(job, machines)].on_arrival(job)
    for sched in machines:
        sched.stop = None
        while sched.active:
            sched.select_slot()
    return [s.finish_trace() for s in machines]
