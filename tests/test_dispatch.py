from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (Instance, Job, MachineScheduler, NoEligibleMachine,
                       WorkloadModel, dispatch, generate, run, run_multi,
                       validate_instance)

F = Fraction


def mjob(jid, release, weight, sizes):
    return Job(jid, release, F(weight), tuple(sizes))


def empty_machines(count, eps=F(1, 2)):
    return [MachineScheduler(eps, i) for i in range(count)]


def test_dispatch_prefers_smaller_impact():
    machines = empty_machines(2)
    decision = dispatch(mjob(0, 0, 2, (1, 10)), machines)
    assert decision.machine == 0
    assert decision.score == 1  # w p / 2 on the fast machine


def test_dispatch_respects_runnability():
    machines = empty_machines(2)
    decision = dispatch(mjob(0, 0, 2, (None, 3)), machines)
    assert decision.machine == 1


def test_dispatch_tie_breaks_to_smaller_index():
    machines = empty_machines(3)
    decision = dispatch(mjob(0, 0, 2, (4, 4, 4)), machines)
    assert decision.machine == 0


def test_dispatch_no_eligible_machine():
    machines = empty_machines(2)
    with pytest.raises(NoEligibleMachine):
        dispatch(mjob(0, 0, 1, (None, None)), machines)


def test_two_jobs_split_across_their_cheap_machines():
    inst = validate_instance(Instance(
        (mjob(0, 0, 1, (1, 5)), mjob(1, 0, 1, (5, 1))), machines=2))
    result = run_multi(inst)
    assert [d.machine for d in result.decisions] == [0, 1]
    for trace, jid in ((result.traces[0], 0), (result.traces[1], 1)):
        assert trace.arrivals == (jid,)
        assert trace.completion_real[jid] == 1  # flow equals size


def test_single_eligible_machine_receives_everything():
    inst = validate_instance(Instance(
        tuple(mjob(i, i, 1, (None, 2)) for i in range(4)), machines=2))
    result = run_multi(inst)
    assert result.traces[0].arrivals == ()
    assert result.traces[1].arrivals == (0, 1, 2, 3)


def multi_instance(seed, machines):
    return generate(WorkloadModel(kind="uniform", n=4 + seed % 28, seed=seed,
                                  machines=machines, max_release=2 + seed % 15,
                                  max_size=6, max_weight=12, epsilon=F(1, 4)))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_partition_every_job_on_exactly_one_machine(seed, machines):
    inst = multi_instance(seed, machines)
    result = run_multi(inst)
    seen = [jid for trace in result.traces for jid in trace.arrivals]
    assert sorted(seen) == [j.id for j in sorted(inst.jobs, key=lambda j: j.id)]
    assert len(result.decisions) == len(inst.jobs)


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_single_machine_reduction_is_bit_identical(seed):
    inst = multi_instance(seed, 1)
    assert run_multi(inst).traces[0] == run(inst)


@settings(max_examples=15)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_dispatch_depends_only_on_prefix_state(seed, machines):
    inst = multi_instance(seed, machines)
    full = run_multi(inst)
    for stop in range(1, len(inst.jobs) + 1):
        prefix = validate_instance(Instance(inst.jobs[:stop], inst.machines,
                                            inst.epsilon))
        partial = run_multi(prefix)
        assert partial.decisions == full.decisions[:stop]


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_per_machine_traces_keep_scheduler_invariants(seed, machines):
    inst = multi_instance(seed, machines)
    result = run_multi(inst)
    for trace in result.traces:
        for slot in trace.slots:
            if slot.plan in trace.promoted_at and trace.promoted_at[slot.plan] <= slot.t:
                assert slot.real is None
            else:
                assert slot.real == slot.plan
        for jid in trace.arrivals:
            assert jid in trace.departure
