import importlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsched import (Instance, Job, MachineScheduler, NoEligibleMachine, ResidualJob,
                       WorkloadModel, arrival_impact, generate, run, run_multi,
                       serialize_trace, validate_instance)
from flowsched.cli import main
from flowsched.core import DensityNotSpanned
from flowsched.dispatch import dispatch

import oracles
from conftest import seeded_instance

F = Fraction


def mjob(jid, release, weight, sizes):
    return Job(jid, release, F(weight), tuple(sizes))


def empty_machines(count, job, eps=F(1, 2)):
    """``count`` empty machines of an instance of ``job`` alone."""
    inst = Instance((job,), count, eps)
    return [MachineScheduler(inst, i) for i in range(count)]


def test_dispatch_prefers_smaller_impact():
    job = mjob(0, 0, 2, (1, 10))
    machines = empty_machines(2, job)
    assert dispatch(job, machines) == 0
    # w p / 2 on the fast machine, a numerator over twice the scale
    assert F(machines[0].scored[1].total, 2 * machines[0].instance.scale) == 1


def test_dispatch_respects_runnability():
    job = mjob(0, 0, 2, (None, 3))
    assert dispatch(job, empty_machines(2, job)) == 1


def test_dispatch_tie_breaks_to_smaller_index():
    job = mjob(0, 0, 2, (4, 4, 4))
    assert dispatch(job, empty_machines(3, job)) == 0


def test_dispatch_no_eligible_machine():
    machines = empty_machines(2, mjob(0, 0, 1, (1, 1)))
    with pytest.raises(NoEligibleMachine):
        dispatch(mjob(0, 0, 1, (None, None)), machines)
    assert all(s.scored is None for s in machines)


def test_dispatch_refuses_a_scale_that_misses_a_density(monkeypatch):
    # scale 2 spans the density 1/2 on machine 1 but not 1/3 on machine 0
    job = mjob(0, 0, 1, (3, 2))
    monkeypatch.setattr(importlib.import_module("flowsched.core"), "density_scale",
                        lambda jobs: 2)
    machines = empty_machines(2, job)
    with pytest.raises(DensityNotSpanned, match="job 0 on machine 0"):
        dispatch(job, machines)
    assert all(s.scored is None for s in machines)


def test_two_jobs_split_across_their_cheap_machines():
    inst = validate_instance(Instance(
        (mjob(0, 0, 1, (1, 5)), mjob(1, 0, 1, (5, 1))), machines=2))
    traces = run_multi(inst)
    assert [trace.arrivals for trace in traces] == [(0,), (1,)]
    for trace, jid in zip(traces, (0, 1)):
        assert trace.completion_real[jid] == 1  # flow equals size


def test_single_eligible_machine_receives_everything():
    inst = validate_instance(Instance(
        tuple(mjob(i, i, 1, (None, 2)) for i in range(4)), machines=2))
    traces = run_multi(inst)
    assert traces[0].arrivals == ()
    assert traces[1].arrivals == (0, 1, 2, 3)


def multi_instance(seed, machines):
    return generate(WorkloadModel(kind="uniform", n=4 + seed % 28, seed=seed,
                                  machines=machines, max_release=2 + seed % 15,
                                  max_size=6, max_weight=12, epsilon=F(1, 4)))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_partition_every_job_on_exactly_one_machine(seed, machines):
    inst = multi_instance(seed, machines)
    traces = run_multi(inst)
    assert len(traces) == machines
    seen = [jid for trace in traces for jid in trace.arrivals]
    assert sorted(seen) == [j.id for j in sorted(inst.jobs, key=lambda j: j.id)]


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_single_machine_reduction_is_bit_identical(seed):
    inst = multi_instance(seed, 1)
    assert run_multi(inst) == [run(inst)]


def score_values(traces, inst):
    """Each dispatch decision the traces hold, with its score, a numerator
    over twice the instance's density scale, as a Fraction."""
    return [d._replace(score=F(d.score, 2 * inst.scale))
            for d in oracles.dispatched(traces, inst)]


@settings(max_examples=15)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_dispatch_depends_only_on_prefix_state(seed, machines):
    inst = multi_instance(seed, machines)
    full = run_multi(inst)
    for stop in range(1, len(inst.jobs) + 1):
        prefix = validate_instance(Instance(inst.jobs[:stop], inst.machines,
                                            inst.epsilon))
        partial = run_multi(prefix)
        # the prefix has its own density scale, so compare the scores' values
        assert score_values(partial, prefix) == score_values(full, inst)[:stop]


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_per_machine_traces_keep_scheduler_invariants(seed, machines):
    inst = multi_instance(seed, machines)
    for trace in run_multi(inst):
        for slot in oracles.slots(trace):
            if slot.plan in trace.promoted_at and trace.promoted_at[slot.plan] <= slot.t:
                assert slot.real is None
            else:
                assert slot.real == slot.plan
        for jid in trace.arrivals:
            assert jid in trace.departure


# -- integer ranking against the oracle's full scoring ----------------------------


def machines_with(arrivals, states, eps=F(1, 2)):
    """One scheduler per entry of ``states``, machine i's active set built
    from ``states[i]``, a list of (weight, size, remaining) triples, all
    machines of one instance of the ``arrivals`` and every active job."""
    actives = [{100 + k: (Job(100 + k, 0, F(weight), (size,) * (index + 1)), remaining)
                for k, (weight, size, remaining) in enumerate(active)}
               for index, active in enumerate(states)]
    inst = Instance((*arrivals, *(other for active in actives
                                  for other, _ in active.values())), len(states), eps)
    machines = [MachineScheduler(inst, index) for index in range(len(states))]
    for index, (sched, active) in enumerate(zip(machines, actives)):
        for jid, (other, remaining) in active.items():
            sched.active[jid] = oracles.residual_job(other, remaining, index, inst.scale)
    return machines


def assert_matches_oracle(job, machines):
    try:
        expected = oracles.dispatch(job, machines, machines[0].instance.epsilon,
                                    machines[0].instance.scale)
    except NoEligibleMachine:
        with pytest.raises(NoEligibleMachine):
            dispatch(job, machines)
        assert all(s.scored is None for s in machines)
        return
    assert dispatch(job, machines) == expected.machine
    chosen = machines[expected.machine]
    scored, impact = chosen.scored
    assert scored.job is job and impact.total == expected.score
    assert oracles.impact_values(impact, chosen.instance.scale) == oracles.arrival_impact(
        job, chosen.active.values(), chosen.instance.epsilon, expected.machine).split


weights = st.sampled_from((F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 4)))
active_jobs = st.lists(
    st.tuples(weights, st.integers(1, 6)).flatmap(
        lambda ws: st.tuples(st.just(ws[0]), st.just(ws[1]), st.integers(1, ws[1]))),
    max_size=4)


@settings(max_examples=300)
@given(weights, st.lists(st.tuples(st.one_of(st.none(), st.integers(1, 6)), active_jobs),
                         min_size=2, max_size=4),
       st.sampled_from((F(1, 2), F(1, 4))))
def test_dispatch_matches_full_scoring_oracle(weight, states, eps):
    job = Job(0, 0, weight, tuple(size for size, _ in states))
    machines = machines_with([job], [active for _, active in states], eps)
    assert_matches_oracle(job, machines)


@settings(max_examples=150)
@given(weights, st.integers(1, 6), active_jobs, st.booleans())
@example(F(1), 1, [(F(3, 2), 3, 3)], False)
@example(F(1), 1, [(F(3, 2), 3, 3)], True)
def test_equal_totals_over_different_denominators_tie_to_smaller_index(
        weight, size, active, stretched_first):
    # halving a less dense job's density and doubling its remaining time
    # keeps its residual weight, so the total is unchanged while the
    # machines' integer sums come from different densities
    job = Job(0, 0, weight, (size, size))
    stretched = [(w, 2 * p, 2 * r) if F(w) / p < weight / size else (w, p, r)
                 for w, p, r in active]
    states = [stretched, active] if stretched_first else [active, stretched]
    machines = machines_with([job], states)
    totals = {oracles.arrival_impact(job, m.active.values(), m.instance.epsilon, i).total
              for i, m in enumerate(machines)}
    assert len(totals) == 1
    assert_matches_oracle(job, machines)
    assert dispatch(job, machines) == 0


# -- each arrival is scored once -------------------------------------------------


def assert_traces_match_the_slot_oracle(traces, inst):
    """Every machine's whole trace equals the per-slot engine's, and so do
    the dispatch decisions the traces hold and the ones it recorded."""
    slow = oracles.slot_run_multi(inst)
    assert list(map(oracles.trace_record, traces)) == \
        list(map(oracles.trace_record, slow.traces))
    assert oracles.dispatched(traces, inst) == slow.decisions


def test_run_multi_scores_each_arrival_once(monkeypatch):
    inst = generate(WorkloadModel(kind="poisson_pareto", n=150, seed=7, rate=1.2,
                                  shape=1.6, size_cap=20, machines=4))
    calls = []
    # the package exports the function dispatch under the module's name
    for module in map(importlib.import_module, ("flowsched.dispatch",
                                                "flowsched.scheduler")):
        def counted(arrival, *rest, _score=module.arrival_impact):
            calls.append(arrival.job.id)
            return _score(arrival, *rest)
        monkeypatch.setattr(module, "arrival_impact", counted)
    traces = run_multi(inst)
    assert sorted(calls) == sorted(j.id for j in inst.jobs)
    assert_traces_match_the_slot_oracle(traces, inst)


@pytest.mark.parametrize("machines", [2, 4])
def test_simulate_dispatch_lines_are_the_oracles_decisions(tmp_path, machines):
    # simulate reads each job's machine and score from the traces; the
    # per-slot engine records its own as it routes
    for seed in range(10):
        inst = seeded_instance(seed, machines)
        path, out = tmp_path / f"{seed}.txt", tmp_path / f"{seed}.out"
        serialize_trace(inst, path)
        assert main(["simulate", "--trace", str(path), "--out", str(out)]) == 0
        lines = [line for line in out.read_text(encoding="ascii").splitlines()
                 if line.startswith("dispatch ")]
        assert lines == [f"dispatch job={d.job} machine={d.machine} "
                         f"score={F(d.score, 2 * inst.scale)}"
                         for d in oracles.slot_run_multi(inst).decisions]


def test_run_multi_passes_once_per_arrival_and_eligible_machine(monkeypatch):
    # the chosen machine's pass in dispatch is the one its admission uses
    inst = generate(WorkloadModel(kind="poisson_pareto", n=150, seed=11, rate=1.2,
                                  shape=1.6, size_cap=20, machines=4))
    passes = Counter()
    for module in map(importlib.import_module, ("flowsched.dispatch", "flowsched.impact")):
        def counted(arrival, *rest, _sums=module.impact_sums):
            passes[arrival.job.id] += 1
            return _sums(arrival, *rest)
        monkeypatch.setattr(module, "impact_sums", counted)
    traces = run_multi(inst)
    assert passes == Counter({j.id: sum(s is not None for s in j.sizes) for j in inst.jobs})
    assert_traces_match_the_slot_oracle(traces, inst)


def test_handed_over_impact_is_never_used_for_another_job():
    job_a, job_b = mjob(0, 0, 3, (2, 2)), mjob(1, 0, 1, (5, 5))
    machines = machines_with([job_a, job_b], [[(1, 4, 3)]] * 2)
    chosen = machines[dispatch(job_a, machines)]
    stale = chosen.scored[1]
    scale = chosen.instance.scale
    fresh_b = arrival_impact(oracles.residual_job(job_b, 5, chosen.machine, scale),
                             chosen.active.values())
    assert fresh_b != stale
    chosen.on_arrival(job_b)
    assert chosen.scored is None
    # job A arrives after B: its handed-over score is gone and B is active
    fresh_a = arrival_impact(oracles.residual_job(job_a, 2, chosen.machine, scale),
                             chosen.active.values())
    chosen.on_arrival(job_a)
    trace = chosen.finish_trace()
    assert trace.impacts[job_b.id] == fresh_b
    assert trace.impacts[job_a.id] == fresh_a != stale


def test_each_arrival_is_converted_once_per_machine(monkeypatch):
    # the instance's table converts each distinct weight, and each distinct
    # (weight, size), once: at most one w * scale per job and one (rho,
    # class) per (job, eligible machine), and none in a second run of the
    # same instance. Dispatch fills one view per eligible machine from it,
    # and the chosen one is scored, admitted and activated; a single
    # machine fills one per arrival
    core = importlib.import_module("flowsched.core")
    classes, views = Counter(), Counter()

    def counted_class(n, d, _class=core.floor_log_ratio):
        classes["core"] += 1
        return _class(n, d)

    class CountedView(ResidualJob):
        __slots__ = ()

        def __init__(self, job, *rest):
            views[job.id] += 1
            super().__init__(job, *rest)

    monkeypatch.setattr(core, "floor_log_ratio", counted_class)
    for module in ("flowsched.dispatch", "flowsched.scheduler"):
        monkeypatch.setattr(importlib.import_module(module), "ResidualJob", CountedView)
    for machines, runner in ((1, run), (4, run_multi)):
        inst = generate(WorkloadModel(kind="poisson_pareto", n=300, seed=7, rate=0.9 * machines,
                                      shape=1.6, size_cap=20, machines=machines))
        eligible = Counter({j.id: sum(s is not None for s in j.sizes) for j in inst.jobs})
        weights = {j.weight for j in inst.jobs}
        pairs = {(j.weight, s) for j in inst.jobs for s in j.sizes if s is not None}
        assert len(weights) < len(inst.jobs) and len(pairs) < eligible.total()
        for counter in (classes, views):
            counter.clear()
        runner(inst)
        # a weight class per distinct weight, a density class per distinct pair
        assert classes["core"] == len(weights) + len(pairs)
        assert inst.table == oracles.integer_table(inst)
        assert views == eligible
        classes.clear()
        runner(inst)
        assert classes["core"] == 0
