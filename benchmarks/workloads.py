"""The benchmark's workload matrix.

Every workload is a closed batch on one thread: each subcommand starts
when the previous one returns, and one repetition runs every command on
each of the workload's instances. All workloads use epsilon = 1/4 (the
``WorkloadModel`` default).

A seeded workload is several smaller instances rather than one large one.
Run time on ``poisson_pareto`` inputs varies a lot between seeds (the
heavy-tailed sizes make the active set's integral differ by about 18%
between seeds at n=1000), and each repetition must stay short for a run's
median to be steady on a host whose speed drifts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict         # WorkloadModel keywords, seed excluded
    instances: int      # instance k uses seed 100*seed + k
    commands: tuple[str, ...]
    why: str

    def seeds(self, seed: int) -> list[int]:
        return [100 * seed + k for k in range(self.instances)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "overload_m1",
        dict(kind="poisson_pareto", n=120, rate=0.7, shape=1.6, size_cap=20, machines=1),
        12, ("simulate", "verify", "audit"),
        "overloaded single machine: the active set grows, so arrival scoring "
        "and the O(n*H) dual verifier dominate"),
    Workload(
        "light_m4",
        dict(kind="poisson_pareto", n=750, rate=1.2, shape=1.6, size_cap=20, machines=4),
        4, ("simulate", "audit"),
        "light load on 4 machines: many cheap impact scorings over small "
        "active sets, and the only min-impact dispatch path"),
    Workload(
        "pileup_m1",
        dict(kind="adversarial_L", L=60, scale=10, machines=1),
        1, ("simulate", "audit"),
        "one 36,000-unit job then 60 unit jobs: per-slot stepping, slot "
        "records and output lines dominate while scoring idles"),
    Workload(
        "baseline_m1",
        dict(kind="poisson_pareto", n=60, rate=0.3, shape=1.6, size_cap=20, machines=1),
        12, ("simulate", "baseline", "report"),
        "the transport-LP baseline, which rejects m>1 and grows with n times "
        "total size, measured where the other layers are nearly idle"),
)}
