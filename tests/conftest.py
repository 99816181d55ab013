"""Shared strategies, the seeded acceptance workload suite and a per-test
time limit."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from flowsched import (ArrivalImpact, Instance, Job, ResidualJob, WorkloadModel,
                       arrival_impact, density_scale, generate, validate_instance)
from flowsched.rejection import RejectionTables

from oracles import impact_values, residual_job

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")

# Longer than any test needs, and than the 120 s a test_cli subprocess may
# take, so a looping bug fails its test instead of hanging the suite.
TEST_TIME_LIMIT_S = 300


class TestTimeLimitExceeded(BaseException):
    """Not an Exception, so neither a command's error boundary nor
    Hypothesis's shrinking catches it: the test fails at once."""
    __test__ = False


def _time_limit_exceeded(signum, frame):
    raise TestTimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT_S, by SIGALRM; the
    previous handler and timer are restored after it."""
    previous = signal.signal(signal.SIGALRM, _time_limit_exceeded)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        signal.setitimer(signal.ITIMER_REAL, *timer)


def make_instance(jobs, epsilon=Fraction(1, 2), machines=1):
    """A validated instance, as the engine and the analysis take it."""
    return validate_instance(Instance(tuple(jobs), machines, epsilon))


def job(jid, release, weight, size) -> Job:
    return Job(jid, release, Fraction(weight), (size,))


def impact_of(arrival: Job, entries, machine: int = 0
              ) -> tuple[ArrivalImpact, list[ResidualJob]]:
    """The impact of ``arrival`` on ``machine`` against the active set of
    ``(job, remaining)`` entries, with its values as Fractions, and that
    active set, both over the density scale of the arrival and those jobs,
    as a run on them would pick it."""
    scale = density_scale([arrival, *(j for j, _ in entries)])
    active = [residual_job(j, remaining, machine, scale) for j, remaining in entries]
    view = residual_job(arrival, arrival.size_on(machine), machine, scale)
    return impact_values(arrival_impact(view, active), scale), active


def seeded_instance(seed: int, machines: int) -> Instance:
    kind = "uniform" if seed % 2 else "poisson_pareto"
    return generate(WorkloadModel(
        kind=kind, n=4 + seed % 30, seed=seed, max_release=2 + seed % 13,
        max_size=6, rate=0.7 * machines, size_cap=12, machines=machines,
        epsilon=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))[seed % 3]))


@st.composite
def rational_instances(draw) -> tuple[Instance, frozenset[int]]:
    """Up to 12 jobs whose weights have denominators 3, 5, 7 or 9, which
    the generator never makes, and sizes up to 20, some machines missing;
    with the ids of at least one job to reject on arrival under
    :func:`rejecting`, since the tables alone rarely reject one."""
    machines = draw(st.sampled_from([1, 2, 4]))
    jobs = []
    for jid in range(draw(st.integers(1, 12))):
        sizes = draw(st.lists(st.one_of(st.none(), st.integers(1, 20)),
                              min_size=machines, max_size=machines)
                     .filter(lambda sizes: any(s is not None for s in sizes)))
        weight = Fraction(draw(st.integers(1, 40)), draw(st.sampled_from([3, 5, 7, 9])))
        jobs.append(Job(jid, draw(st.integers(0, 12)), weight, tuple(sizes)))
    epsilon = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)]))
    forced = draw(st.sets(st.sampled_from(range(len(jobs))), min_size=1))
    return validate_instance(Instance(tuple(jobs), machines, epsilon)), frozenset(forced)


@contextmanager
def rejecting(forced):
    """Runs inside this block reject every job in ``forced`` on arrival:
    the tables still assign it to its buckets, and its decision is flipped
    to a rejection, so the trace stays consistent."""
    admit = RejectionTables.admit

    def flipped(tables, arrival, impact):
        decision = admit(tables, arrival, impact)
        if arrival.job.id in forced and not decision.reject:
            return decision._replace(reject=True, reason="forced")
        return decision

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(RejectionTables, "admit", flipped)
        yield


# -- the criterion-1 suite: 200 seeded instances, eps in {1/2, 1/4, 1/10} ----

EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
LARGE = {60: 100, 130: 150, 190: 200}  # index -> job count, small sizes


def build_suite() -> list[tuple[str, Instance]]:
    out = []
    for i in range(200):
        eps = EPSILONS[i % 3]
        seed = 1000 + i
        if i in LARGE:
            n = LARGE[i]
            model = WorkloadModel(kind="uniform", n=n, seed=seed, max_release=n // 2,
                                  max_size=3, max_weight=8, epsilon=eps)
        elif i % 2 == 0:
            n = 3 + seed % 38
            model = WorkloadModel(kind="uniform", n=n, seed=seed,
                                  max_release=max(2, (2 * n) // 3),
                                  max_size=8, max_weight=16, epsilon=eps)
        else:
            n = 5 + seed % 45
            model = WorkloadModel(kind="poisson_pareto", n=n, seed=seed,
                                  rate=0.7, shape=1.6, size_cap=20,
                                  max_weight=16, epsilon=eps)
        out.append((f"suite-{i:03d}-eps{eps.denominator}", generate(model)))
    return out


@pytest.fixture(scope="session")
def suite() -> list[tuple[str, Instance]]:
    return build_suite()

