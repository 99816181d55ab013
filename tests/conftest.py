"""Shared strategies and the seeded acceptance workload suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from flowsched import Instance, Job, WorkloadModel, generate

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


def make_instance(jobs, epsilon=Fraction(1, 2), machines=1):
    return Instance(tuple(jobs), machines, epsilon)


def job(jid, release, weight, size) -> Job:
    return Job(jid, release, Fraction(weight), (size,))


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

