"""Multi-machine orchestration.

Each arriving job is immediately and irrevocably assigned to one machine,
then the per-machine engines run independently between arrivals. The
dispatch rule is greedy minimum impact: send the job where it would
inflate fractional flow time the least right now (the marginal-increase
principle), breaking ties toward the smaller machine index. Every machine
runs over the instance's one density scale, so machines are ranked by the
exact integer numerators of their totals, each from one pass of a
:class:`~flowsched.core.ResidualJob` filled from the instance's integer
table; the chosen machine admits or rejects the job with that pass's
impact and activates that same view. Rejection tables are per machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import Instance, Job, ResidualJob
from .impact import arrival_impact, impact_sums
from .scheduler import MachineScheduler, ScheduleTrace, drive


class NoEligibleMachine(ValueError):
    pass


class DispatchDecision(NamedTuple):
    job: int
    machine: int
    score: int  # the chosen machine's impact total, over twice the density scale


@dataclass
class MultiTrace:
    traces: list[ScheduleTrace]
    decisions: list[DispatchDecision]


def each_trace(result: ScheduleTrace | MultiTrace) -> list[ScheduleTrace]:
    """The per-machine traces of a single- or multi-machine run."""
    return result.traces if isinstance(result, MultiTrace) else [result]


def dispatch(job: Job, machines: Sequence[MachineScheduler]) -> DispatchDecision:
    """Pick the machine where the job's arrival impact is smallest.

    Reads only the machines' current active sets, so the decision depends
    solely on state at the release time. Each machine that can run the job
    gets one :class:`~flowsched.core.ResidualJob` of it and one
    :func:`impact_sums` pass; the chosen machine's view and sums become its
    full :func:`arrival_impact`, handed to its scheduler as ``scored``.
    """
    best: tuple[int, ResidualJob, tuple[int, int, int]] | None = None  # total, view, sums
    for index, (size, sched) in enumerate(zip(job.sizes, machines)):
        if size is None:
            continue
        arrival = ResidualJob(job, size, index, sched.instance.table[job.id])
        denser, same_class, lower_class = sums = impact_sums(arrival, sched.active.values())
        # the impact total (see arrival_impact): every machine shares the
        # scale, so these numerators rank the totals
        weight = arrival.weight
        total = 2 * (weight * denser + size * (same_class + lower_class)) + weight * size
        if best is None or total < best[0]:
            best = (total, arrival, sums)
    if best is None:
        raise NoEligibleMachine(f"job {job.id} is not runnable on any machine")
    _, arrival, sums = best
    sched = machines[arrival.machine]
    impact = arrival_impact(arrival, sched.active.values(), sched.epsilon, sums)
    sched.scored = (arrival, impact)
    return DispatchDecision(job.id, arrival.machine, impact.total)


def run_multi(instance: Instance) -> MultiTrace:
    """Dispatch every arrival of a validated instance, which it does not
    validate again, and run each machine up to every release, all machines
    on the instance's ``scale``.

    With a single machine this reduces to :func:`flowsched.scheduler.run`
    bit for bit; both share :func:`flowsched.scheduler.drive`.
    """
    machines = [MachineScheduler(instance, i) for i in range(instance.machines)]
    decisions: list[DispatchDecision] = []

    def route(job: Job, machines: Sequence[MachineScheduler]) -> int:
        decision = dispatch(job, machines)
        decisions.append(decision)
        return decision.machine

    return MultiTrace(drive(instance.jobs, machines, route), decisions)
