"""Offline benchmarks for single-machine instances.

Two independent routes to the same reference cost:

* :func:`preemptive_hdf` simulates highest-density-first on one machine of
  a given speed, splitting within slots, and :func:`lp_cost` prices any
  fractional schedule with the time-indexed objective
  ``sum_j w_j ((t - r_j)/p_j + 1/2) x_{t,j}``;
* :func:`transport_opt` solves that time-indexed relaxation exactly as a
  min-cost transportation problem (integer-scaled network simplex). It
  never touches the HDF code path, so it can serve as the oracle for it.

Preemptive HDF attains the relaxation's optimum (Becchetti, Leonardi,
Marchetti-Spaccamela and Pruhs, 2006). HDF serves the jobs at least as dense
as j, j included, ahead of all others and never idles while one of them
waits, so j is done by the end of the busy period of those jobs that
contains ``r_j``. :func:`transport_opt` therefore gives each job arcs only
to the slots of that busy period, which keeps the HDF optimum feasible.

Jobs are read through their size on machine 0, since ``baseline`` refuses
multi-machine instances. Everything returns exact rationals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import groupby
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
    release, then smaller id (same rule as the online engine). Released
    jobs wait in a heap on that key, and an idle machine jumps straight
    to the next release.
    """
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    jobs = tuple(jobs)
    speed = Rational(speed)
    pending = sorted(jobs, key=lambda j: j.release, reverse=True)
    remaining: dict[int, Rational] = {}
    ready: list[tuple[Rational, int, int]] = []
    allocation: dict[tuple[int, int], Rational] = {}
    t = 0
    while pending or ready:
        if not ready:
            t = pending[-1].release
        while pending and pending[-1].release <= t:
            job = pending.pop()
            remaining[job.id] = Rational(job.size_on(0))
            heappush(ready, (-job.density(), job.release, job.id))
        capacity = speed
        while ready and capacity > 0:
            jid = ready[0][2]
            amount = min(capacity, remaining[jid])
            allocation[(t, jid)] = amount
            remaining[jid] -= amount
            capacity -= amount
            if remaining[jid] == 0:
                heappop(ready)
        t += 1
    return FractionalSchedule(jobs, speed, allocation)


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


def _busy_period_ends(jobs: list[Job], densities: list[Rational],
                      speed: Rational) -> list[Rational]:
    """For each job j, the end of the busy period that contains ``r_j`` when
    a machine of the given speed serves only the jobs at least as dense as j
    (``densities[i]`` is ``jobs[i].density()``).

    Jobs go in by decreasing density into a sorted list of disjoint busy
    periods ``[starts[k], ends[k])``. A job released inside a period extends
    its end by ``p/speed``; otherwise it opens a new period. Either way the
    period then absorbs every later period that now starts before its end.
    All jobs of one density go in before any of them is looked up.
    """
    starts: list[int] = []
    ends: list[Rational] = []
    out: list[Rational] = [ZERO] * len(jobs)
    order = sorted(range(len(jobs)), key=densities.__getitem__, reverse=True)
    for _, tied in groupby(order, key=densities.__getitem__):
        tied = list(tied)
        for i in tied:
            release, work = jobs[i].release, jobs[i].size_on(0) / speed
            k = bisect_right(starts, release) - 1
            if k >= 0 and release < ends[k]:
                ends[k] += work
            else:
                k += 1
                starts.insert(k, release)
                ends.insert(k, release + work)
            while k + 1 < len(starts) and starts[k + 1] < ends[k]:
                ends[k] += ends[k + 1] - starts[k + 1]
                del starts[k + 1], ends[k + 1]
        for i in tied:
            out[i] = ends[bisect_right(starts, jobs[i].release) - 1]
    return out


def transport_opt(jobs, speed: Rational = ONE, horizon: int | None = None) -> Rational:
    """Exact optimum of the time-indexed relaxation, via min-cost flow.

    Demands are job sizes, slot capacities equal ``speed``, and the unit
    cost of giving job j a unit in slot t is ``w_j (t - r_j)/p_j + w_j/2``.
    Flows and costs are scaled to integers so the network simplex stays
    exact; the result is descaled back to a rational.

    Job j only gets arcs to the slots ``r_j .. ceil(E_j) - 1`` (and below
    ``horizon``), where ``E_j`` is the end of the busy period that contains
    ``r_j`` among the jobs of density >= rho_j (:func:`_busy_period_ends`).
    Preemptive HDF is optimal for the relaxation and serves that set ahead
    of every other job without idling while any of it waits, so it finishes
    j by ``E_j``. Its schedule therefore lies inside the windows, and since
    dropping arcs can only raise the optimum, the windowed problem keeps
    the same one. When no other job has j's density, ``ceil(E_j) - 1`` is
    exactly j's last HDF slot; a tie can only lengthen the window. If
    ``horizon`` cuts into a window, no schedule finishes that busy period's
    work by ``horizon``, so the problem is infeasible either way. Tests
    cross-check the windows against HDF and against arcs to every slot of
    the horizon.
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

    graph = nx.DiGraph()
    total_units = 0
    used_slots: set[int] = set()
    busy_ends = _busy_period_ends(jobs, densities, speed)
    for job, rho, busy_end in zip(jobs, densities, busy_ends):
        units = job.size_on(0) * q
        total_units += units
        graph.add_node(("job", job.id), demand=-units)
        end = min(horizon, ceil(busy_end))
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
