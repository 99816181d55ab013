"""The event-driven engine against the per-slot oracle engine.

The oracle (``oracles.SlotScheduler``) steps every machine one unit slot
at a time in lock-step; the engine runs one segment per step, between
arrivals and completions. Both must give the same slots, events, impacts,
decisions, bucket reports and horizon, and the same dispatch decisions on
several machines. Only the oracle records the charging map phi.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from flowsched import (Instance, Job, MachineScheduler, WorkloadModel, density_scale,
                       generate, run, run_multi, validate_instance)
from flowsched.core import DensityNotSpanned
from flowsched.scheduler import EVENT_PROMOTED

import oracles

F = Fraction


def engine_instance(seed: int, machines: int) -> Instance:
    """A small instance with same-time arrivals, idle gaps and long jobs
    that dense short arrivals get marked and then preempt."""
    rng = random.Random(seed)
    jobs, t = [], 0
    for jid in range(rng.randint(1, 18)):
        t += rng.choice((0, 0, 1, 1, 2, 3, 12))
        sizes: list[int | None] = [rng.choice((1, 1, 2, 3, 5, 9, 20))
                                   for _ in range(machines)]
        for m in range(machines):
            if rng.random() < 0.2 and sum(s is not None for s in sizes) > 1:
                sizes[m] = None
        jobs.append(Job(jid, t, F(rng.randint(1, 12), rng.choice((1, 2, 4))),
                        tuple(sizes)))
    return validate_instance(
        Instance(tuple(jobs), machines, rng.choice((F(1, 2), F(1, 3), F(1, 4)))))


def assert_same_trace(fast, slow):
    assert oracles.slots(fast) == oracles.slots(slow)
    assert fast.events == slow.events
    assert fast.impacts == slow.impacts
    assert fast.decisions == slow.decisions
    assert fast.table_report == slow.table_report
    assert fast.horizon() == slow.horizon()
    assert all(type(field) is int for decision in fast.decisions.values()
               for key in (decision.plus_key, decision.minus_key) if key is not None
               for field in key)


def assert_matches_slot_engine(inst: Instance):
    fast, slow = run_multi(inst), oracles.slot_run_multi(inst)
    assert oracles.dispatched(fast, inst) == slow.decisions
    assert len(fast) == len(slow.traces) == inst.machines
    for fast_trace, slow_trace in zip(fast, slow.traces):
        assert_same_trace(fast_trace, slow_trace)
    if inst.machines == 1:
        assert_same_trace(run(inst), oracles.slot_run(inst))
    return slow


@settings(max_examples=150)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
def test_event_engine_matches_slot_engine(seed, machines):
    assert_matches_slot_engine(engine_instance(seed, machines))


def features(trace, inst: Instance) -> set[str]:
    """Which of the hard cases one machine's oracle trace exercises."""
    found = set()
    releases = {j.id: j.release for j in inst.jobs}
    slots = oracles.slots(trace)
    if any(b.t > a.t + 1 for a, b in zip(slots, slots[1:])):
        found.add("idle gap")
    at: dict[int, list[int]] = {}
    for jid in trace.arrivals:
        at.setdefault(releases[jid], []).append(jid)
    if any(len(batch) > 1 for batch in at.values()):
        found.add("same-time arrivals")
    for event in trace.events:
        if event.kind != EVENT_PROMOTED:
            continue
        # arrivals before the marking charge the runner; later ones do not
        charged = [trace.phi.get(jid) == event.job for jid in at.get(event.time, [])]
        if True in charged and False in charged[charged.index(True):]:
            found.add("marking mid-batch")
        later = [s for s in slots if s.t >= event.time]
        mine = [i for i, s in enumerate(later) if s.plan == event.job]
        if mine and mine[-1] + 1 > len(mine):
            found.add("marked job resumes under HDF")
    return found


def test_seeded_instances_cover_every_hard_case():
    wanted = {"idle gap", "same-time arrivals", "marking mid-batch",
              "marked job resumes under HDF"}
    for machines in (1, 2, 4):
        seen: set[str] = set()
        for seed in range(60):
            inst = engine_instance(seed, machines)
            for trace in assert_matches_slot_engine(inst).traces:
                seen |= features(trace, inst)
        assert seen == wanted, (machines, wanted - seen)


def test_pileup_takes_one_step_per_segment(monkeypatch):
    # each step ends at a completion or a release, so at most 2n + 1 steps;
    # the per-slot engine takes one per slot, about 36,000 here
    inst = generate(WorkloadModel(kind="adversarial_L", L=60, scale=10))
    calls = []
    select_slot = MachineScheduler.select_slot
    monkeypatch.setattr(MachineScheduler, "select_slot",
                        lambda sched: calls.append(sched.clock) or select_slot(sched))
    trace = run(inst)
    assert len(oracles.slots(trace)) >= 36_000
    assert len(calls) <= 2 * len(inst.jobs) + 1


# -- the HDF heap on hand-built cases ------------------------------------------
# epsilon = 1/10 keeps every arrival below the rejection-table thresholds


def runs_of(jobs, epsilon=F(1, 10)):
    inst = validate_instance(Instance(tuple(jobs), 1, epsilon))
    slow = assert_matches_slot_engine(inst)
    assert not any(d.reject for d in slow.traces[0].decisions.values())
    return [tuple(r) for r in run(inst).runs]


def test_heap_skips_a_job_that_finished_below_the_top():
    # A (rho 2) and C (rho 1/5) arrive at 0 and A starts; B (rho 3) arrives
    # at 1 but A runs on to 5 unmarked, so A's key is stale but not on top
    a, c, b = (Job(0, 0, F(10), (5,)), Job(1, 0, F(1), (5,)), Job(2, 1, F(3), (1,)))
    sched = MachineScheduler(Instance((a, c, b), 1, F(1, 10)), 0)
    sched.on_arrival(a)
    sched.on_arrival(c)
    sched.stop = 1
    assert sched.select_slot() == a.id
    sched.on_arrival(b)
    sched.stop = None
    assert sched.select_slot() == a.id and sched.clock == 5
    assert a.id not in sched.active
    assert sched.heap[0][2] == b.id and a.id in {key[2] for key in sched.heap}
    assert sched.select_slot() == b.id
    assert sched.select_slot() == c.id    # pops the stale keys of B and A
    assert [key[2] for key in sched.heap] == [c.id]
    assert runs_of([a, c, b]) == [(0, 1, 0, 0), (1, 5, 0, 0), (5, 6, 2, 2), (6, 11, 1, 1)]


def test_heap_resumes_a_marked_job():
    # B's weight 12 exceeds A's 1/epsilon = 10, so A is marked at 1; after
    # B completes, A comes back off the heap and runs with the real idle
    runs = runs_of([Job(0, 0, F(1), (10,)), Job(1, 1, F(12), (1,))])
    assert runs == [(0, 1, 0, 0), (1, 2, 1, 1), (2, 11, 0, None)]


def test_heap_ties_on_release_then_id():
    # all three have density 1: job 3 beats job 5 on id at the same
    # release, and job 5 beats job 0 on the earlier release
    runs = runs_of([Job(5, 0, F(2), (2,)), Job(3, 0, F(1), (1,)), Job(0, 1, F(1), (1,))])
    assert runs == [(0, 1, 3, 3), (1, 3, 5, 5), (3, 4, 0, 0)]


def test_scale_is_fixed_under_live_and_stale_heap_keys():
    # A (rho 2) runs 0..5 and finishes below B's key (rho 3), so A's key is
    # stale while B (running, so it is charged) and C (rho 1/5) are live.
    # At 6, densities 1/3, 2/7 and 3/11 each bring a new prime denominator,
    # which the scale spans from the start.
    a, c, b = Job(0, 0, F(10), (5,)), Job(1, 0, F(1), (5,)), Job(2, 1, F(6), (2,))
    late = [Job(3, 6, F(1), (3,)), Job(4, 6, F(2), (7,)), Job(5, 6, F(3), (11,))]
    jobs = [a, c, b, *late]
    scale = density_scale(jobs)
    assert scale == 5 * 3 * 7 * 11
    sched = MachineScheduler(Instance(tuple(jobs), 1, F(1, 10)), 0)
    sched.on_arrival(a)
    sched.on_arrival(c)
    sched.stop = 1
    sched.select_slot()
    sched.on_arrival(b)
    for stop in (5, 6):
        sched.stop = stop
        sched.select_slot()
    assert sched.run_job == b.id and a.id not in sched.active
    for job in late:
        sched.on_arrival(job)
    assert sched.instance.scale == scale
    assert sched.run_released == (1 + 2 + 3) * scale
    keys = {jid: (key, release) for key, release, jid in sched.heap}
    assert len(keys) == len(sched.heap) == len(jobs)
    for job in jobs:
        assert keys[job.id] == (-oracles.scaled_density(job, 0, scale), job.release)
        assert keys[job.id][0] == -job.density() * scale
    assert all(type(x) is int for key in sched.heap for x in key)
    assert type(sched.run_released) is int
    runs = runs_of(jobs)
    assert [r[2] for r in runs] == [0, 0, 2, 2, 3, 4, 5, 1]


def test_an_arrival_outside_the_scale_raises(monkeypatch):
    # the scale 5 spans A (rho 2) and C (rho 1/5) but not rho 1/3. The
    # instance's table converts every job at the first arrival, so that
    # arrival raises, wherever the job outside the scale stands; the
    # machine is left unchanged
    a, c, late = Job(0, 0, F(10), (5,)), Job(1, 0, F(1), (5,)), Job(2, 0, F(1), (3,))
    monkeypatch.setattr(importlib.import_module("flowsched.core"), "density_scale",
                        lambda jobs: 5)
    for jobs in ([late], [a, c, late]):
        sched = MachineScheduler(Instance(tuple(jobs), 1, F(1, 10)), 0)
        heap = list(sched.heap)
        with pytest.raises(DensityNotSpanned, match="job 2 on machine 0"):
            sched.on_arrival(late)
        assert sched.heap == heap and late.id not in sched.active
        assert late.id not in sched.finish_trace().decisions
