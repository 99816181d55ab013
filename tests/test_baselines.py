import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (FractionalSchedule, HorizonTooShort, WorkloadModel,
                       default_horizon, generate, lp_cost, preemptive_hdf, transport_opt)
from flowsched import baselines
from flowsched.core import ZERO

import oracles
from conftest import job
from oracles import (TooLarge, brute_force_nonpreemptive, transport_opt_full,
                     validate_schedule)

F = Fraction


def test_hdf_runs_denser_job_first():
    jobs = (job(0, 0, 1, 2), job(1, 0, 4, 2))
    sched = preemptive_hdf(jobs)
    assert sched.allocation == {(0, 1): F(1), (1, 1): F(1), (2, 0): F(1), (3, 0): F(1)}
    validate_schedule(sched)


def test_hdf_empty_input():
    sched = preemptive_hdf(())
    assert sched.allocation == {}


def test_lp_cost_examples():
    single = (job(0, 0, 1, 2),)
    sched = preemptive_hdf(single)
    assert lp_cost(sched) == F(3, 2)
    delayed = FractionalSchedule(single, {(1, 0): F(1), (2, 0): F(1)})
    assert lp_cost(delayed) == F(5, 2)
    assert lp_cost(FractionalSchedule((), {})) == 0


def test_transport_single_job():
    assert transport_opt((job(0, 0, 1, 2),)) == F(3, 2)


def test_transport_matches_hdf_on_two_jobs():
    jobs = (job(0, 0, 1, 2), job(1, 0, 4, 2))
    assert transport_opt(jobs) == lp_cost(preemptive_hdf(jobs))


def test_transport_empty():
    assert transport_opt(()) == 0


def test_transport_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        transport_opt((job(0, 0, 1, 5),), horizon=3)
    with pytest.raises(HorizonTooShort):
        transport_opt((job(0, 9, 1, 1),), horizon=5)


def test_default_horizon_always_feasible():
    jobs = (job(0, 0, 1, 3), job(1, 7, 2, 5))
    h = default_horizon(jobs)
    assert transport_opt(jobs, horizon=h) is not None


def random_jobs(seed, n, max_release=6):
    inst = generate(WorkloadModel(kind="uniform", n=n, seed=seed, max_release=max_release,
                                  max_size=6, max_weight=9))
    return inst.jobs


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(0, 40))
def test_heap_hdf_matches_the_rescanning_oracle(seed, n, max_release):
    jobs = random_jobs(seed, n, max_release)
    expected = oracles.preemptive_hdf(jobs).allocation
    assert preemptive_hdf(jobs).allocation == expected


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(0, 40))
def test_busy_period_ends_match_the_per_job_scan(seed, n, max_release):
    jobs = list(random_jobs(seed, n, max_release))
    densities = [j.density() for j in jobs]
    assert baselines._busy_period_ends(jobs, densities) == [
        oracles.busy_period_end(jobs, j) for j in jobs]


def lp_windows(monkeypatch, jobs):
    """Each job's slots in the graph ``transport_opt`` hands to the solver."""
    graphs = []
    solve = baselines.nx.network_simplex
    monkeypatch.setattr(baselines.nx, "network_simplex",
                        lambda graph: graphs.append(graph) or solve(graph))
    value = transport_opt(jobs)
    assert len(graphs) == 1
    windows = {j.id: [] for j in jobs}
    for (_, jid), (_, t) in graphs[0].out_edges(("job", j.id) for j in jobs):
        windows[jid].append(t)
    return value, windows


def last_hdf_slots(sched):
    last = {}
    for t, jid in sched.allocation:
        last[jid] = max(last.get(jid, t), t)
    return last


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(1, 10), st.integers(0, 30))
def test_each_window_ends_at_the_jobs_last_hdf_slot(seed, n, max_release):
    # a job of unique density is the last of its denser set that HDF serves,
    # so its busy period ends in its last HDF slot; a tie can only lengthen it
    jobs = random_jobs(seed, n, max_release)
    with pytest.MonkeyPatch.context() as monkeypatch:
        value, windows = lp_windows(monkeypatch, jobs)
    sched = preemptive_hdf(jobs)
    assert value == lp_cost(sched)
    last = last_hdf_slots(sched)
    densities = [j.density() for j in jobs]
    for j in jobs:
        assert windows[j.id] == list(range(j.release, windows[j.id][-1] + 1))
        if densities.count(j.density()) == 1:
            assert windows[j.id][-1] == last[j.id]
        else:
            assert windows[j.id][-1] >= last[j.id]


def test_tied_window_covers_the_earlier_tied_job(monkeypatch):
    # equal densities: HDF runs the earlier job 1 in slots 0-1 first, so the
    # later job 0 (smaller id) must still reach slot 2
    jobs = (job(1, 0, 2, 2), job(0, 1, 1, 1))
    value, windows = lp_windows(monkeypatch, jobs)
    assert windows == {1: [0, 1, 2], 0: [1, 2]}
    sched = preemptive_hdf(jobs)
    assert sched.allocation == {(0, 1): F(1), (1, 1): F(1), (2, 0): F(1)}
    assert value == lp_cost(sched) == F(9, 2)


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 7))
def test_windowed_arcs_match_full_horizon(seed, n):
    jobs = random_jobs(seed, n)
    assert transport_opt(jobs) == transport_opt_full(jobs)


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(1, 7))
def test_hdf_attains_the_transport_optimum(seed, n):
    jobs = random_jobs(seed, n)
    sched = preemptive_hdf(jobs)
    validate_schedule(sched)
    assert lp_cost(sched) == transport_opt(jobs)


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
    jobs = random_jobs(seed, n)
    horizon = default_horizon(jobs)
    hdf_series = residual_weight_series(jobs, preemptive_hdf(jobs), horizon)
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
    jobs = random_jobs(seed, n)
    assert transport_opt(jobs) <= brute_force_nonpreemptive(jobs) \
        <= oracles.greedy_nonpreemptive(jobs)
