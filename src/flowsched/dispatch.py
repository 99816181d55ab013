"""Multi-machine orchestration.

Each arriving job is immediately and irrevocably assigned to one machine,
then the per-machine engines run independently between arrivals. The
dispatch rule is greedy minimum impact: send the job where it would
inflate fractional flow time the least right now (the marginal-increase
principle), breaking ties toward the smaller machine index. Every machine
runs over the instance's one density scale, so machines are ranked by the
exact integer numerators of their totals. Each (arrival, machine) pair is
passed over once, and the arrival is fully scored from that pass on the
machine it goes to; that machine admits or rejects it with this same
impact. Rejection tables are per machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import DensityNotSpanned, Instance, Job, floor_log_ratio
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
    gets one :func:`impact_sums` pass; the chosen machine's sums become its
    full :func:`arrival_impact`, handed to its scheduler as ``scored``.
    """
    wn, wd = job.weight.as_integer_ratio()
    best: tuple[int, int, tuple[int, int, int, int]] | None = None  # numerator, index, sums
    for index, (size, sched) in enumerate(zip(job.sizes, machines)):
        if size is None:
            continue
        scale = sched.scale
        rho, rest = divmod(wn * scale, wd * size)
        if rest:
            raise DensityNotSpanned(f"scale {scale} does not span the density "
                                    f"of job {job.id} on machine {index}")
        klass = floor_log_ratio(rho, scale)
        denser, same_class, lower_class = impact_sums(
            job, sched.active.values(), rho, klass)
        # 2*wd*scale times the total (see arrival_impact); wd and scale are
        # the same on every machine, so these numerators rank the totals
        num = wn * scale * (2 * denser + size) + 2 * wd * size * (same_class + lower_class)
        if best is None or num < best[0]:
            best = (num, index, (klass, denser, same_class, lower_class))
    if best is None:
        raise NoEligibleMachine(f"job {job.id} is not runnable on any machine")
    _, index, sums = best
    sched = machines[index]
    impact = arrival_impact(job, sched.active.values(), sched.epsilon, index, sched.scale,
                            sums)
    sched.scored = (job, impact)
    return DispatchDecision(job.id, index, impact.total)


def run_multi(instance: Instance) -> MultiTrace:
    """Dispatch every arrival of a validated instance, which it does not
    validate again, and run each machine up to every release, all machines
    on the instance's ``scale``.

    With a single machine this reduces to :func:`flowsched.scheduler.run`
    bit for bit; both share :func:`flowsched.scheduler.drive`.
    """
    machines = [MachineScheduler(instance.epsilon, i, instance.scale)
                for i in range(instance.machines)]
    decisions: list[DispatchDecision] = []

    def route(job: Job, machines: Sequence[MachineScheduler]) -> int:
        decision = dispatch(job, machines)
        decisions.append(decision)
        return decision.machine

    return MultiTrace(drive(instance.jobs, machines, route), decisions)
