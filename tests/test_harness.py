from fractions import Fraction

import pytest

from flowsched import WorkloadModel, generate, parse_trace, serialize_trace
from flowsched.harness import KINDS


# the fixed and adversarial_L generators build single-machine instances only
@pytest.mark.parametrize("kind, machines", [(kind, 1) for kind in KINDS]
                         + [("uniform", 4), ("poisson_pareto", 4)])
def test_trace_file_round_trip_is_exact(tmp_path, kind, machines):
    for seed in range(5):
        instance = generate(WorkloadModel(
            kind=kind, n=30, seed=seed, L=4, machines=machines,
            epsilon=Fraction(1, 2 + seed), speedup=Fraction(seed, 4)))
        path = tmp_path / f"{kind}-{seed}.txt"
        serialize_trace(instance, path, seed=seed)
        assert parse_trace(path) == instance


def test_round_trip_covers_machines_that_cannot_run_a_job():
    instance = generate(WorkloadModel(kind="uniform", n=30, seed=0, machines=4))
    assert any(size is None for job in instance.jobs for size in job.sizes)
