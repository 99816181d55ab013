"""Offline benchmarks for single-machine instances.

Two independent routes to the same reference cost:

* :func:`preemptive_hdf` simulates highest-density-first on one machine of
  a given speed, splitting within slots, and :func:`lp_cost` prices any
  fractional schedule with the time-indexed objective
  ``sum_j w_j ((t - r_j)/p_j + 1/2) x_{t,j}``;
* :func:`transport_opt` solves that time-indexed relaxation exactly as a
  min-cost transportation problem (integer-scaled network simplex), with
  each job's arcs always limited to a window of slots. It never touches
  the HDF code path, so it can serve as the oracle for it.

Jobs are read through their size on machine 0, since ``baseline`` refuses
multi-machine instances. Everything returns exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, lcm

import networkx as nx

from .core import HALF, Job, ONE, Rational, ZERO


class HorizonTooShort(ValueError):
    """The slot horizon cannot fit all demanded processing."""


class NonIntegralCost(ValueError):
    """Integer scaling left a fractional arc cost (a bug, not bad input)."""


@dataclass(frozen=True)
class FractionalSchedule:
    """Per-slot fractional assignment ``allocation[(t, job id)] = amount``."""

    jobs: tuple[Job, ...]
    speed: Rational
    allocation: dict[tuple[int, int], Rational]


def preemptive_hdf(jobs: list[Job] | tuple[Job, ...],
                   speed: Rational = ONE) -> FractionalSchedule:
    """Slot-by-slot preemptive HDF at the given positive speed.

    Each slot hands up to ``speed`` units to the densest released
    unfinished jobs, splitting within the slot; ties break by earlier
    release, then smaller id (same rule as the online engine).
    """
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    jobs = tuple(jobs)
    remaining = {j.id: Rational(j.size_on(0)) for j in jobs}
    by_priority = sorted(jobs, key=lambda j: (-j.density(), j.release, j.id))
    allocation: dict[tuple[int, int], Rational] = {}
    unfinished = {j.id for j in jobs}
    if not unfinished:
        return FractionalSchedule(jobs, Rational(speed), allocation)
    t = min(j.release for j in jobs)
    while unfinished:
        released = [j for j in by_priority if j.id in unfinished and j.release <= t]
        if not released:
            t = min(j.release for j in jobs if j.id in unfinished)
            continue
        capacity = Rational(speed)
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
    return FractionalSchedule(jobs, Rational(speed), allocation)


def lp_cost(sched: FractionalSchedule) -> Rational:
    """Exact time-indexed objective value of a fractional schedule."""
    by_id = {j.id: j for j in sched.jobs}
    total = ZERO
    for (t, jid), amount in sched.allocation.items():
        job = by_id[jid]
        size = job.size_on(0)
        total += job.weight * (Rational(t - job.release, size) + HALF) * amount
    return total


def default_horizon(jobs, speed: Rational = ONE) -> int:
    """Always-feasible slot horizon: max release + ceil(total work / speed) + 1."""
    jobs = list(jobs)
    if not jobs:
        return 1
    total = sum(j.size_on(0) for j in jobs)
    return max(j.release for j in jobs) + ceil(Rational(total) / Rational(speed)) + 1


def transport_opt(jobs, speed: Rational = ONE, horizon: int | None = None) -> Rational:
    """Exact optimum of the time-indexed relaxation, via min-cost flow.

    Demands are job sizes, slot capacities equal ``speed``, and the unit
    cost of giving job j a unit in slot t is ``w_j (t - r_j)/p_j + w_j/2``.
    Flows and costs are scaled to integers so the network simplex stays
    exact; the result is descaled back to a rational.

    Each job only gets arcs to slots in ``[r_j, r_j + ceil(P_j / speed)]``
    where ``P_j`` is the total size of jobs with density >= its own, which
    take that many slots at ``speed``. Some optimal solution lives inside
    these windows: whenever a cheaper in-window slot is not fully used,
    moving flow there reduces cost (costs grow with t), and a
    density-exchange between any two jobs never increases cost, so an
    optimum exists that grants every slot to the densest available job and
    never parks j beyond its window. Tests cross-check the windows against
    arcs to every slot of the horizon.
    """
    jobs = list(jobs)
    if not jobs:
        return ZERO
    speed = Rational(speed)
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if horizon is None:
        horizon = default_horizon(jobs, speed)

    q = speed.denominator
    slot_capacity = speed.numerator  # speed * q
    densities = [j.density() for j in jobs]
    scale = lcm(*(lcm(rho.denominator, (j.weight * HALF).denominator)
                  for rho, j in zip(densities, jobs)))
    sizes = [(rho, j.size_on(0)) for rho, j in zip(densities, jobs)]

    graph = nx.DiGraph()
    total_units = 0
    used_slots: set[int] = set()
    for job, rho in zip(jobs, densities):
        units = job.size_on(0) * q
        total_units += units
        graph.add_node(("job", job.id), demand=-units)
        reach = sum(p for other_rho, p in sizes if other_rho >= rho)
        end = min(horizon, job.release + ceil(reach / speed) + 1)
        if end <= job.release:
            raise HorizonTooShort(
                f"horizon {horizon} leaves no slot for job {job.id}")
        # the arc cost (rho (t - r) + w/2) * scale is integral at every t
        # when its slope and intercept are, so check those once per job
        slope, cost = rho * scale, job.weight * HALF * scale
        if slope.denominator != 1 or cost.denominator != 1:
            raise NonIntegralCost(f"scaled costs {slope}, {cost} for job {job.id}")
        slope, cost = slope.numerator, cost.numerator
        for t in range(job.release, end):
            graph.add_edge(("job", job.id), ("slot", t), capacity=units, weight=cost)
            used_slots.add(t)
            cost += slope
    graph.add_node("sink", demand=total_units)
    for t in used_slots:
        graph.add_edge(("slot", t), "sink", capacity=slot_capacity, weight=0)

    try:
        cost, _ = nx.network_simplex(graph)
    except nx.NetworkXUnfeasible as exc:
        raise HorizonTooShort(
            f"horizon {horizon} cannot fit {total_units}/{q} units at speed {speed}"
        ) from exc
    return Rational(cost, scale * q)
