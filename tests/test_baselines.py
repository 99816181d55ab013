import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (Job, WorkloadModel, default_horizon, generate, lp_cost,
                       preemptive_hdf, transport_opt)
from flowsched import baselines
from flowsched.core import ZERO

import oracles
from conftest import job, make_instance, rational_instances
from oracles import (FractionalSchedule, TooLarge, brute_force_nonpreemptive,
                     fractional_schedule, transport_opt_full, validate_schedule)

F = Fraction


def test_hdf_runs_denser_job_first():
    inst = make_instance((job(0, 0, 1, 2), job(1, 0, 4, 2)))
    runs = preemptive_hdf(inst)
    assert runs == [(0, 2, 1), (2, 4, 0)]
    sched = fractional_schedule(inst, runs)
    assert sched.allocation == {(0, 1): F(1), (1, 1): F(1), (2, 0): F(1), (3, 0): F(1)}
    validate_schedule(sched)


def test_hdf_empty_input():
    assert preemptive_hdf(make_instance(())) == []


def test_hdf_splits_a_run_only_at_a_completion_or_a_release():
    # job 0 is preempted at 2 by the denser job 1 and resumes at 3; job 2,
    # less dense, is released under job 0's run and splits it at 4
    inst = make_instance((job(0, 0, 1, 4), job(1, 2, 4, 1), job(2, 4, 1, 8)))
    assert preemptive_hdf(inst) == [(0, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 0), (5, 13, 2)]


def test_lp_cost_examples():
    single = make_instance((job(0, 0, 1, 2),))
    assert lp_cost(single, preemptive_hdf(single)) == F(3, 2)
    delayed = [(1, 3, 0)]
    assert lp_cost(single, delayed) == F(5, 2)
    assert lp_cost(single, delayed) == oracles.lp_cost(fractional_schedule(single, delayed))
    assert lp_cost(make_instance(()), []) == 0


def test_transport_single_job():
    assert transport_opt(make_instance((job(0, 0, 1, 2),))) == F(3, 2)


def test_transport_matches_hdf_on_two_jobs():
    inst = make_instance((job(0, 0, 1, 2), job(1, 0, 4, 2)))
    assert transport_opt(inst) == lp_cost(inst, preemptive_hdf(inst))


def test_transport_empty():
    assert transport_opt(make_instance(())) == 0


def test_default_horizon_always_feasible():
    # the printed horizon covers HDF's schedule, which the LP's windows contain
    inst = make_instance((job(0, 0, 1, 3), job(1, 7, 2, 5)))
    runs = preemptive_hdf(inst)
    assert max(end for _, end, _ in runs) < default_horizon(inst.jobs) == 16
    assert transport_opt(inst) == lp_cost(inst, runs)


def random_instance(seed, n, max_release=6):
    return generate(WorkloadModel(kind="uniform", n=n, seed=seed, max_release=max_release,
                                  max_size=6, max_weight=9))


def assert_runs_match_the_slot_references(inst):
    """HDF's runs, expanded to slots, are the rescanning oracle's schedule,
    and their closed-form price is its per-slot Fraction price."""
    runs = preemptive_hdf(inst)
    expected = oracles.preemptive_hdf(inst.jobs)
    assert fractional_schedule(inst, runs).allocation == expected.allocation
    assert lp_cost(inst, runs) == oracles.lp_cost(expected)
    assert len(runs) <= 2 * len(inst.jobs)


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(0, 40))
def test_heap_hdf_matches_the_rescanning_oracle(seed, n, max_release):
    assert_runs_match_the_slot_references(random_instance(seed, n, max_release))


@settings(max_examples=50)
@given(rational_instances())
def test_hdf_runs_match_the_slot_references_on_rational_weights(drawn):
    # the jobs that machine 0 can run, with their sizes there
    instance, _ = drawn
    assert_runs_match_the_slot_references(make_instance(
        [Job(j.id, j.release, j.weight, (j.sizes[0],))
         for j in instance.jobs if j.sizes[0] is not None]))


def test_pileup_hdf_has_at_most_two_runs_per_job():
    inst = generate(WorkloadModel(kind="adversarial_L", L=60, scale=10))
    runs = preemptive_hdf(inst)
    assert len(runs) <= 2 * len(inst.jobs)
    assert sum(end - start for start, end, _ in runs) == 36_060
    assert lp_cost(inst, runs) == oracles.lp_cost(fractional_schedule(inst, runs))


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(0, 40))
def test_lp_windows_match_the_per_job_scan(seed, n, max_release):
    jobs = list(random_instance(seed, n, max_release).jobs)
    densities = [j.density() for j in jobs]
    assert baselines._lp_windows(jobs, densities) == [
        (oracles.window_first_slot(jobs, j), oracles.busy_period_end(jobs, j)) for j in jobs]


def lp_windows(monkeypatch, inst):
    """The value, each job's slots and the graph ``transport_opt`` hands to
    the solver."""
    graphs = []
    solve = baselines.nx.network_simplex
    monkeypatch.setattr(baselines.nx, "network_simplex",
                        lambda graph: graphs.append(graph) or solve(graph))
    value = transport_opt(inst)
    assert len(graphs) == 1
    windows = {j.id: [] for j in inst.jobs}
    for (_, jid), (_, t) in graphs[0].out_edges(("job", j.id) for j in inst.jobs):
        windows[jid].append(t)
    return value, windows, graphs[0]


def hdf_slot_spans(runs):
    """Each job's first and last HDF slot; runs come in time order."""
    spans = {}
    for start, end, jid in runs:
        spans[jid] = (spans.get(jid, (start,))[0], end - 1)
    return spans


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(1, 10), st.integers(0, 30))
def test_each_window_spans_the_jobs_hdf_slots(seed, n, max_release):
    # a job of unique density is the last of its denser set that HDF serves,
    # so its busy period ends in its last HDF slot; it runs as soon as its
    # strictly denser set's busy period ends, unless that set then starts
    # another; a tie can only widen the window
    inst = random_instance(seed, n, max_release)
    jobs = inst.jobs
    with pytest.MonkeyPatch.context() as monkeypatch:
        value, windows, graph = lp_windows(monkeypatch, inst)
    runs = preemptive_hdf(inst)
    assert value == lp_cost(inst, runs)
    # balanced: the windows tile the busy slots, each of which demands 1
    assert "sink" not in graph
    assert graph.number_of_edges() == sum(map(len, windows.values()))
    slots = [node for node in graph if node[0] == "slot"]
    assert len(slots) == sum(j.size_on(0) for j in jobs)
    assert all(graph.nodes[node]["demand"] == 1 for node in slots)
    assert all(graph.nodes["job", j.id]["demand"] == -j.size_on(0) for j in jobs)
    spans = hdf_slot_spans(runs)
    densities = [j.density() for j in jobs]
    for j in jobs:
        first, last = windows[j.id][0], windows[j.id][-1]
        assert windows[j.id] == list(range(first, last + 1))
        assert j.release <= first <= spans[j.id][0]
        if densities.count(j.density()) == 1:
            assert first == spans[j.id][0] or any(
                other.release == first for other in jobs if other.density() > j.density())
            assert last == spans[j.id][1]
        else:
            assert last >= spans[j.id][1]


def test_tied_window_covers_the_earlier_tied_job(monkeypatch):
    # equal densities: HDF runs the earlier job 1 in slots 0-1 first, so the
    # later job 0 (smaller id) must still reach slot 2
    inst = make_instance((job(1, 0, 2, 2), job(0, 1, 1, 1)))
    value, windows, _ = lp_windows(monkeypatch, inst)
    assert windows == {1: [0, 1, 2], 0: [1, 2]}
    runs = preemptive_hdf(inst)
    assert fractional_schedule(inst, runs).allocation == \
        {(0, 1): F(1), (1, 1): F(1), (2, 0): F(1)}
    assert value == lp_cost(inst, runs) == F(9, 2)


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 7))
def test_windowed_arcs_match_full_horizon(seed, n):
    inst = random_instance(seed, n)
    assert transport_opt(inst) == transport_opt_full(inst.jobs)


def test_overloaded_lp_has_at_most_7208_arcs(monkeypatch):
    # a host-independent cost gate: windows that start at r_j give this
    # instance 30,897 arcs
    inst = generate(WorkloadModel(kind="poisson_pareto", n=250, rate=0.7, shape=1.6,
                                  size_cap=20, epsilon=F(1, 4), seed=7))
    value, _, graph = lp_windows(monkeypatch, inst)
    assert graph.number_of_edges() <= 7_208
    assert value == lp_cost(inst, preemptive_hdf(inst))


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(1, 7))
def test_hdf_attains_the_transport_optimum(seed, n):
    inst = random_instance(seed, n)
    runs = preemptive_hdf(inst)
    validate_schedule(fractional_schedule(inst, runs))
    assert lp_cost(inst, runs) == transport_opt(inst)


def residual_weight_series(jobs, schedule, horizon):
    """Total residual weight at each integer time under a fractional schedule."""
    series = []
    for t in range(horizon + 1):
        total = ZERO
        for j in jobs:
            done = sum((amount for (s, jid), amount in schedule.allocation.items()
                        if jid == j.id and s < t), start=ZERO)
            if j.release <= t:
                total += j.density(0) * (j.size_on(0) - done)
        series.append(total)
    return series


def fixed_permutation_schedule(jobs, order):
    """Fractional slot schedule that serves released jobs in a fixed order."""
    remaining = {j.id: F(j.size_on(0)) for j in jobs}
    allocation = {}
    t = min((j.release for j in jobs), default=0)
    unfinished = {j.id for j in jobs}
    while unfinished:
        ready = [j for j in order if j.id in unfinished and j.release <= t]
        if not ready:
            t = min(j.release for j in jobs if j.id in unfinished)
            continue
        capacity = F(1)
        for j in ready:
            if capacity <= 0:
                break
            amount = min(capacity, remaining[j.id])
            allocation[(t, j.id)] = amount
            remaining[j.id] -= amount
            capacity -= amount
            if remaining[j.id] == 0:
                unfinished.discard(j.id)
        t += 1
    return FractionalSchedule(tuple(jobs), allocation)


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_hdf_residual_weight_dominates_fixed_orders(seed, n):
    inst = random_instance(seed, n)
    jobs = inst.jobs
    horizon = default_horizon(jobs)
    hdf_series = residual_weight_series(jobs, fractional_schedule(inst, preemptive_hdf(inst)),
                                        horizon)
    fifo = sorted(jobs, key=lambda j: (j.release, j.id))
    orders = [fifo] + [list(p) for p in itertools.islice(itertools.permutations(jobs), 6)]
    for order in orders:
        other = residual_weight_series(jobs, fixed_permutation_schedule(jobs, order),
                                       horizon)
        assert all(h <= o for h, o in zip(hdf_series, other))


def test_brute_force_single_job():
    assert brute_force_nonpreemptive((job(0, 0, 2, 3),)) == 6


def test_brute_force_orders_by_density_at_common_release():
    jobs = (job(0, 0, 1, 4), job(1, 0, 4, 2))
    # WSPT: dense first: 4*2 + 1*6 = 14; other order: 1*4 + 4*6 = 28
    assert brute_force_nonpreemptive(jobs) == 14


def test_brute_force_pileup_instance():
    inst = generate(WorkloadModel(kind="adversarial_L", L=3))
    # long job last: unit jobs flow 1 each, long job completes at 13
    assert brute_force_nonpreemptive(inst.jobs) == 16
    # greedy starts the long job alone at 0; the unit jobs wait until 9
    assert oracles.greedy_nonpreemptive(inst.jobs) == 9 + 9 + 9 + 9


def test_brute_force_size_guard():
    jobs = tuple(job(i, 0, 1, 1) for i in range(7))
    with pytest.raises(TooLarge):
        brute_force_nonpreemptive(jobs)


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_relaxation_lower_bounds_any_real_schedule(seed, n):
    # a non-preemptive schedule is LP-feasible and its LP cost sits w/2 per
    # job below its integral flow, so the optimum is a true lower bound;
    # greedy's schedule is one of those the brute force enumerates
    inst = random_instance(seed, n)
    assert transport_opt(inst) <= brute_force_nonpreemptive(inst.jobs) \
        <= oracles.greedy_nonpreemptive(inst.jobs)
