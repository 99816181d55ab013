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
A run is its machines' traces, which record each choice once: a job's
machine is the trace it arrived on, its score that trace's impact total.
"""

from __future__ import annotations

from typing import Sequence

from .core import Instance, Job, ResidualJob
from .impact import arrival_impact, impact_sums
from .scheduler import MachineScheduler, ScheduleTrace, drive


class NoEligibleMachine(ValueError):
    pass


def dispatch(job: Job, machines: Sequence[MachineScheduler]) -> int:
    """The index of the machine where the job's arrival impact is smallest.

    Reads only the machines' current active sets, so the decision depends
    solely on state at the release time. Each machine that can run the job
    gets one :class:`~flowsched.core.ResidualJob` of it and one
    :func:`impact_sums` pass; the chosen machine's view and sums become its
    full :func:`arrival_impact`, handed to its scheduler as ``scored``, so
    that impact's total is the score the machine won with.
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
    impact = arrival_impact(arrival, sched.active.values(), sums)
    sched.scored = (arrival, impact)
    return arrival.machine


def run_multi(instance: Instance) -> list[ScheduleTrace]:
    """The per-machine traces of a validated instance, which it does not
    validate again: :func:`dispatch` routes every arrival, and each machine
    runs up to every release, all on the instance's ``scale``.

    With a single machine this reduces to :func:`flowsched.scheduler.run`
    bit for bit; both share :func:`flowsched.scheduler.drive`.
    """
    machines = [MachineScheduler(instance, i) for i in range(instance.machines)]
    return drive(instance.jobs, machines, dispatch)
