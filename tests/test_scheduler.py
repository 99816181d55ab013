import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowsched
from flowsched import Instance, MachineScheduler, WorkloadModel, generate, run
from flowsched.scheduler import (ArrivalInPast, DriverContractError, EVENT_DELAYED_REJECT,
                                 EVENT_PROMOTED, EVENT_REAL_COMPLETE, TERMINAL_EVENTS)

import oracles
from conftest import job, make_instance

F = Fraction


def machine_of(jobs, epsilon=F(1, 2)) -> MachineScheduler:
    """Machine 0 of an instance of ``jobs``, to deliver them one by one."""
    return MachineScheduler(Instance(tuple(jobs), 1, epsilon), 0)


def worked_instance():
    return make_instance(
        [job(0, 0, 1, 4), job(1, 1, F(3, 2), 1), job(2, 1, F(3, 2), 1)],
        epsilon=F(1, 2))


def test_worked_run_slots_and_events():
    trace = run(worked_instance())
    assert [(s.t, s.plan, s.real) for s in oracles.slots(trace)] == [
        (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, None), (4, 0, None), (5, 0, None)]
    assert trace.promoted_at == {0: 1}
    assert trace.departure == {0: 1, 1: 2, 2: 3}
    assert trace.completion_real == {1: 2, 2: 3}
    assert oracles.completion_plan(trace) == {0: 6, 1: 2, 2: 3}
    kinds = {(e.job, e.kind) for e in trace.events}
    assert (0, EVENT_PROMOTED) in kinds and (0, EVENT_DELAYED_REJECT) in kinds
    assert (0, EVENT_REAL_COMPLETE) not in kinds


def test_worked_run_promotion_fires_mid_batch():
    # after j1 (weight 3/2) the accumulated weight is 3/2 <= 2: no marking;
    # after j2 it is 3 > 2: the runner is marked, phi still points at it
    inst = worked_instance()
    assert oracles.slot_run(inst).phi == {1: 0, 2: 0}
    trace = run(inst)
    promoted = [e for e in trace.events if e.kind == EVENT_PROMOTED]
    assert [(e.time, e.job) for e in promoted] == [(1, 0)]


def test_single_job_real_equals_plan():
    trace = run(make_instance([job(0, 0, 1, 3)]))
    assert [(s.t, s.plan, s.real) for s in oracles.slots(trace)] == [
        (0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert trace.departure == {0: 3}
    assert trace.events[-1].kind == EVENT_REAL_COMPLETE


def test_simultaneous_equal_density_jobs_run_in_id_order():
    trace = run(make_instance([job(0, 0, 1, 2), job(1, 0, 1, 2)]))
    assert [s.plan for s in oracles.slots(trace)] == [0, 0, 1, 1]


def test_hdf_tiebreak_earlier_release_first():
    # equal density, different release: the earlier release wins at t=2
    trace = run(make_instance([job(0, 0, 2, 4), job(1, 1, 1, 1), job(2, 2, 1, 1)],
                              epsilon=F(1, 2)))
    # runner (w=2, threshold 4) never promoted: cumulative arrivals 2 <= 4
    assert [s.plan for s in oracles.slots(trace)] == [0, 0, 0, 0, 1, 2]


def test_promotion_threshold_is_strict():
    jobs = [job(0, 0, 1, 10), job(1, 1, 2, 1), job(2, 2, F(1, 1000), 1)]
    sched = machine_of(jobs)
    sched.on_arrival(jobs[0])
    sched.stop = 1
    sched.select_slot()
    # exactly w/eps = 2 released: no marking
    decision = sched.on_arrival(jobs[1])
    assert not decision.reject and decision is sched._trace.decisions[1]
    assert sched.promote_check() is None
    assert not sched.preemptible
    sched.stop = 2
    sched.select_slot()
    # one more sliver tips it
    sched.on_arrival(jobs[2])
    assert 0 in sched.preemptible
    assert sched._trace.promoted_at == {0: 2}


def test_promote_check_noop_without_runner():
    sched = machine_of([])
    assert sched.promote_check() is None


def test_running_l_job_yields_to_densest_with_smaller_id():
    # the preemptible job keeps losing HDF to the denser pair, id order
    jobs = [job(0, 0, 1, 4), job(1, 1, F(3, 2), 1), job(2, 1, F(3, 2), 1)]
    sched = machine_of(jobs)
    sched.on_arrival(jobs[0])                  # rho 1/4
    sched.stop = 1
    sched.select_slot()
    sched.on_arrival(jobs[1])                  # rho 3/2
    sched.on_arrival(jobs[2])                  # rho 3/2, tips marking
    assert 0 in sched.preemptible
    sched.stop = 2
    assert sched.select_slot() == 1


def test_arrival_in_past_raises():
    first, late = job(0, 0, 1, 2), job(1, 0, 1, 2)
    sched = machine_of([first, late])
    sched.on_arrival(first)
    sched.stop = 1
    sched.select_slot()
    with pytest.raises(ArrivalInPast):
        sched.on_arrival(late)



def test_segment_runs_to_completion_or_stop():
    sched = machine_of([job(0, 0, 1, 10)])
    sched.on_arrival(job(0, 0, 1, 10))
    sched.stop = 4
    assert sched.select_slot() == 0
    assert (sched.clock, sched.active[0].remaining) == (4, 6)
    with pytest.raises(DriverContractError):
        sched.select_slot()  # stop is not after the clock
    assert sched.clock == 4 and len(sched._trace.runs) == 1
    sched.stop = None
    assert sched.select_slot() == 0
    assert sched.clock == 10 and not sched.active
    assert sched.select_slot() is None
    assert [(r.start, r.end, r.plan, r.real) for r in sched._trace.runs] == [
        (0, 4, 0, 0), (4, 10, 0, 0)]


def test_driver_contracts_hold_under_optimize_flag():
    # python -O strips assert statements; the engine's contracts must still raise
    program = textwrap.dedent("""
        from fractions import Fraction
        from flowsched import Instance, Job, MachineScheduler
        from flowsched.scheduler import DriverContractError

        def attempt(call, *args):
            try:
                call(*args)
            except DriverContractError:
                return "raised"
            return "accepted"

        early, held = Job(0, 5, Fraction(1), (1,)), Job(1, 0, Fraction(1), (2,))
        sched = MachineScheduler(Instance((early, held), 1, Fraction(1, 2)), 0)
        outcomes = [attempt(sched.on_arrival, early)]
        sched.on_arrival(held)
        outcomes.append(attempt(sched.skip_to, 0))  # machine still has a job
        idle = MachineScheduler(Instance((), 1, Fraction(1, 2)), 0)
        idle.skip_to(4)
        outcomes.append(attempt(idle.skip_to, 2))  # back in time
        print(__debug__, *outcomes)
    """)
    src = str(Path(flowsched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split() == ["False", "raised", "raised", "raised"]

def test_immediate_rejection_departs_at_release():
    # congested enough that the plus table fires on some arrival
    inst = generate(WorkloadModel(kind="uniform", n=60, seed=11, max_release=25,
                                  max_size=8, epsilon=F(1, 4)))
    trace = run(inst)
    assert trace.immediate_rejected, "expected at least one immediate rejection"
    releases = {j.id: j.release for j in inst.jobs}
    for jid in trace.immediate_rejected:
        assert trace.departure[jid] == releases[jid]
        assert all(s.plan != jid for s in oracles.slots(trace))


def test_rejected_arrivals_still_count_toward_marking():
    jobs = [job(0, 0, 1, 10), job(1, 1, F(3, 2), 1), job(2, 1, F(3, 2), 1)]
    sched = machine_of(jobs)
    sched.on_arrival(jobs[0])
    sched.stop = 1
    sched.select_slot()
    # hand the tables a qualifying stream so one of them rejects, while the
    # runner's budget (2) is crossed by total released weight anyway
    sched.on_arrival(jobs[1])
    sched.on_arrival(jobs[2])
    assert 0 in sched.preemptible


# -- structural invariants on random workloads --------------------------------


def random_instance(seed, eps):
    if seed % 2:
        return generate(WorkloadModel(kind="uniform", n=3 + seed % 34, seed=seed,
                                      max_release=2 + seed % 19, max_size=6,
                                      max_weight=12, epsilon=eps))
    return generate(WorkloadModel(kind="poisson_pareto", n=4 + seed % 30,
                                  seed=seed, rate=0.8, shape=1.7, size_cap=12,
                                  epsilon=eps))


instances = st.builds(
    random_instance, st.integers(0, 10 ** 6),
    st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(1, 10)]))


@settings(max_examples=60)
@given(instances)
def test_every_job_has_exactly_one_terminal_event(inst):
    trace = run(inst)
    terminal = {}
    for event in trace.events:
        if event.kind in TERMINAL_EVENTS:
            assert event.job not in terminal, "two terminal events for one job"
            terminal[event.job] = event.kind
    assert set(terminal) == {j.id for j in inst.jobs}


@settings(max_examples=60)
@given(instances)
def test_mirror_property_per_slot(inst):
    trace = run(inst)
    for slot in oracles.slots(trace):
        promoted_by_now = slot.plan in trace.promoted_at \
            and trace.promoted_at[slot.plan] <= slot.t
        if promoted_by_now:
            assert slot.real is None and slot.idled
        else:
            assert slot.real == slot.plan and not slot.idled


@settings(max_examples=60)
@given(instances)
def test_real_schedule_never_preempts(inst):
    trace = run(inst)
    sizes = {j.id: j.size_on(0) for j in inst.jobs}
    real_slots = {}
    for slot in oracles.slots(trace):
        if slot.real is not None:
            real_slots.setdefault(slot.real, []).append(slot.t)
    for jid, slots in real_slots.items():
        assert slots == list(range(slots[0], slots[0] + len(slots))), \
            "real run must be consecutive"
        if jid in trace.completion_real:
            assert len(slots) == sizes[jid]
            assert trace.completion_real[jid] == slots[0] + sizes[jid]
        else:
            # abandoned at marking time, never resumed
            assert len(slots) < sizes[jid]
            assert slots[-1] + 1 <= trace.promoted_at[jid]


@settings(max_examples=60)
@given(instances)
def test_delayed_rejection_budget_exact(inst):
    trace = run(inst)
    weights = {j.id: j.weight for j in inst.jobs}
    delayed = sum((weights[jid] for jid in trace.promoted_at), start=F(0))
    total = sum(weights.values(), start=F(0))
    assert delayed <= inst.epsilon * total


@settings(max_examples=60)
@given(instances)
def test_phi_load_bounded_excluding_last_arrival(inst):
    # phi is the dual-fitting proof's charging map, which only the oracle keeps
    trace = oracles.slot_run(inst)
    weights = {j.id: j.weight for j in inst.jobs}
    order = {jid: i for i, jid in enumerate(trace.arrivals)}
    inverse = {}
    for src, dst in trace.phi.items():
        inverse.setdefault(dst, []).append(src)
    for dst, sources in inverse.items():
        sources.sort(key=lambda jid: order[jid])
        load = sum((weights[jid] for jid in sources[:-1]), start=F(0))
        assert load <= weights[dst] / inst.epsilon


@settings(max_examples=60)
@given(instances)
def test_promoted_jobs_accrued_half_their_waiting_flow(inst):
    # continuous fractional flow accrued by the marking instant is at least
    # w (l - r) / 2 for every marked job
    trace = run(inst)
    by_id = {j.id: j for j in inst.jobs}
    plan_slots = oracles.plan_slots(trace)
    for jid, marked_at in trace.promoted_at.items():
        j = by_id[jid]
        slots = [s for s in plan_slots[jid] if s < marked_at]
        residual = F(j.size_on(0))
        accrued = F(0)
        prev = j.release
        for s in slots:
            accrued += residual * (s - prev)
            accrued += residual - F(1, 2)
            residual -= 1
            prev = s + 1
        accrued += residual * (marked_at - prev)
        assert j.density(0) * accrued >= j.weight * (marked_at - j.release) / 2


@settings(max_examples=40)
@given(instances)
def test_replay_is_deterministic(inst):
    assert run(inst) == run(inst)


@pytest.mark.parametrize("scale", [1, 40])
def test_slot_selection_reads_cached_densities(monkeypatch, scale):
    # the pile-up steps one long job through far more slots than there are
    # jobs; the engine reads each density once per arrival, as the int pair
    # ResidualJob caches, and never calls Job.density
    inst = generate(WorkloadModel(kind="adversarial_L", L=8, scale=scale))
    calls = []
    density = flowsched.Job.density
    monkeypatch.setattr(flowsched.Job, "density",
                        lambda j, machine=0: calls.append(j.id) or density(j, machine))
    trace = run(inst)
    assert len(oracles.slots(trace)) >= 64 * scale
    assert calls == []
