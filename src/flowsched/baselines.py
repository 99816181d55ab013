"""Offline benchmarks for single-machine instances.

Two independent routes to the same reference cost:

* :func:`preemptive_hdf` runs highest-density-first on one machine in
  segments, as ``(start, end, job id)`` runs, and :func:`lp_cost` prices
  them per run with the objective ``sum_j w_j ((t - r_j)/p_j + 1/2) x_{t,j}``;
* :func:`transport_opt` solves that time-indexed relaxation exactly as a
  balanced transportation problem (integer network simplex). Job j's window
  starts where the busy period around ``r_j`` of the strictly denser jobs
  ends and stops where that of the jobs at least as dense ends
  (:func:`_lp_windows`): busy periods, never HDF, so it is HDF's oracle.

Every schedule runs at unit speed, as the paper's offline optimum does:
its only relaxation is rejection. Sizes are integers, so a slot never
splits between jobs. Preemptive HDF attains the relaxation's optimum
(Becchetti, Leonardi, Marchetti-Spaccamela and Pruhs, 2006).

Jobs are read through their size on machine 0, since ``baseline`` refuses
multi-machine instances. Weights and densities are the integers of the
instance's table; each result becomes an exact rational only at the end.

networkx is imported by :func:`transport_opt` on its first non-empty solve,
not with this module, so of all the commands only ``baseline`` loads it.
``baselines.nx`` still names networkx, imported on first access, so a
caller can wrap ``baselines.nx.network_simplex`` before a solve.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from itertools import groupby

from .core import Instance, Job, Rational, ZERO, run_flow


def preemptive_hdf(instance: Instance) -> list[tuple[int, int, int]]:
    """Preemptive HDF on machine 0, as ``(start, end, job id)`` runs.

    The densest released unfinished job runs until it completes or the
    next release; ties break by earlier release, then smaller id (same
    rule as the online engine). Released jobs wait in a heap on that key,
    and an idle machine jumps straight to the next release. Each run ends
    at a completion or a release, so there are at most ``2 n`` runs.
    """
    pending = list(reversed(instance.jobs))    # latest release first
    remaining: dict[int, int] = {}
    ready: list[tuple[Rational, int, int]] = []
    runs: list[tuple[int, int, int]] = []
    t = 0
    while pending or ready:
        if not ready:
            t = pending[-1].release
        while pending and pending[-1].release <= t:
            job = pending.pop()
            remaining[job.id] = job.size_on(0)
            heappush(ready, (-job.density(), job.release, job.id))
        jid = ready[0][2]
        end = t + remaining[jid]
        if pending and pending[-1].release < end:
            end = pending[-1].release
        else:
            heappop(ready)
        remaining[jid] -= end - t
        runs.append((t, end, jid))
        t = end
    return runs


def lp_cost(instance: Instance, runs) -> Rational:
    """Exact time-indexed objective value of ``(start, end, job id)`` runs
    on machine 0. Slot t of job j costs ``rho_j (t - r_j) + w_j / 2``: its
    fractional flow (:func:`~flowsched.core.run_flow`) plus ``(w_j - rho_j) / 2``.
    Only the total is a Fraction."""
    table = instance.table
    rest = sum((table[jid][0] - table[jid][2][0][0]) * (end - start)
               for start, end, jid in runs)
    return Rational(run_flow(instance, runs, 0) + rest, 2 * instance.scale)


def default_horizon(jobs) -> int:
    """The ``horizon=`` field that ``baseline`` prints: max release + total
    work + 1. The transport LP's windows need no horizon."""
    jobs = list(jobs)
    if not jobs:
        return 1
    return max(j.release for j in jobs) + sum(j.size_on(0) for j in jobs) + 1


def _lp_windows(jobs: list[Job], densities: list[Rational]) -> list[tuple[int, int]]:
    """For each job j, its transport-LP window ``(first, end)``: ``end`` is
    the end of the busy period that contains ``r_j`` when the machine serves
    only the jobs at least as dense as j, and ``first`` that of the jobs
    strictly denser than j, or ``r_j`` if none of their periods contains it
    (``densities[i]`` is ``jobs[i].density()``, or that times one positive
    factor shared by every job).

    Jobs go in by decreasing density into a sorted list of disjoint busy
    periods ``[starts[k], ends[k])``. A job released inside a period extends
    its end by its size; otherwise it opens a new period. Either way the
    period then absorbs every later period that now starts before its end.
    Each job's ``first`` is looked up before its density's jobs go in, and
    its ``end`` after all of them have.
    """
    starts: list[int] = []
    ends: list[int] = []
    out: list[tuple[int, int]] = [(0, 0)] * len(jobs)
    order = sorted(range(len(jobs)), key=densities.__getitem__, reverse=True)
    for _, tied in groupby(order, key=densities.__getitem__):
        tied = list(tied)
        firsts = []
        for i in tied:
            release = jobs[i].release
            k = bisect_right(starts, release) - 1
            firsts.append(ends[k] if k >= 0 and release < ends[k] else release)
        for i in tied:
            release, work = jobs[i].release, jobs[i].size_on(0)
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
        for i, first in zip(tied, firsts):
            out[i] = (first, ends[bisect_right(starts, jobs[i].release) - 1])
    return out


def transport_opt(instance: Instance) -> Rational:
    """Exact optimum of the time-indexed relaxation, via min-cost flow.

    Job j supplies ``p_j`` units, each slot of a window demands 1, and a
    unit of j in slot t costs ``w_j (t - r_j)/p_j + w_j/2``. Times
    ``2 * scale`` it is ``w_j * scale + 2 rho_j * scale * (t - r_j)``, from
    the instance's table, so every arc cost is an integer by construction
    and the network simplex stays exact.

    Job j only gets arcs to the slots ``first .. end - 1`` of its window
    (:func:`_lp_windows`): ``end`` ends the busy period around ``r_j`` of
    the jobs of density >= rho_j, and ``first`` ends that of the strictly
    denser set S, or is ``r_j`` outside S's periods. Preemptive HDF is
    optimal for the relaxation and serves either set ahead of every other
    job without idling while any of it waits: it finishes j by ``end``, and
    S's busy periods are busy with S alone, so j gets no slot before
    ``first``. The windows thus contain its schedule, so the LP is feasible
    by construction and, as dropping arcs can only raise the optimum, keeps
    HDF's. For a job of unique density, ``end - 1`` is its last HDF slot and
    ``first`` its first unless S releases a job at ``first``; a tie only
    widens a window. The windows cover exactly the busy slots, sum p_j of
    them: each lies in the whole set's busy period around ``r_j`` and holds
    its job's HDF slots. Windows that reach an idle slot or miss a busy one
    unbalance the network: networkx raises NetworkXUnfeasible, a fault
    (exit 1). Tests check the windows against HDF and arcs to every slot.
    """
    jobs = instance.jobs
    if not jobs:
        return ZERO
    import networkx as nx

    rows = [instance.table[job.id] for job in jobs]
    slopes = [2 * cells[0][0] for _, _, cells in rows]    # 2 rho * scale

    graph = nx.DiGraph()
    windows = _lp_windows(jobs, slopes)
    for job, (cost, _, _), slope, (first, end) in zip(jobs, rows, slopes, windows):
        node, release = ("job", job.id), job.release    # cost is w * scale at t = r
        graph.add_node(node, demand=-job.size_on(0))
        graph.add_edges_from((node, ("slot", t), {"weight": cost + slope * (t - release)})
                             for t in range(first, end))
    graph.add_nodes_from([node for node in graph if node[0] == "slot"], demand=1)

    cost, _ = nx.network_simplex(graph)
    return Rational(cost, 2 * instance.scale)


def __getattr__(name: str):
    """``nx``: networkx, imported on first access (PEP 562)."""
    if name == "nx":
        import networkx
        return networkx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
