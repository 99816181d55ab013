"""Exact domain types shared by the whole simulator.

All times are integers (processing happens in unit slots ``[t, t+1)``) and
all weights are rationals, so every invariant downstream is checkable with
zero tolerance. ``Rational`` is ``fractions.Fraction``: stored in lowest
terms with a positive denominator, and compared exactly via
cross-multiplication. No floating point enters any persisted quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

ZERO = Rational(0)
ONE = Rational(1)
HALF = Rational(1, 2)


class InvalidInstance(ValueError):
    """Raised by :func:`validate_instance` when a type invariant fails."""


class NonIntegralEpsilonReciprocal(InvalidInstance):
    pass


class EpsilonTooLarge(InvalidInstance):
    pass


class DuplicateJobId(InvalidInstance):
    pass


class NonPositiveSizeOrWeight(InvalidInstance):
    pass


class MachineCountMismatch(InvalidInstance):
    pass


class JobNotRunnableOnMachine(ValueError):
    """The job has no size entry for the requested machine."""


class NonPositiveArgument(ValueError):
    pass


def floor_log(x: Rational) -> int:
    """Largest integer ``i`` with ``2**i <= x``, computed exactly.

    Works for any positive rational; no floating point is involved, so the
    answer is correct even when ``x`` sits on a power-of-two boundary.
    """
    if x <= 0:
        raise NonPositiveArgument(f"floor_log needs a positive argument, got {x}")
    return floor_log_ratio(x.numerator, x.denominator)


def floor_log_ratio(n: int, d: int) -> int:
    """:func:`floor_log` of ``n/d`` for integers ``n`` and ``d > 0``, which
    need not be in lowest terms."""
    if n <= 0:
        raise NonPositiveArgument(f"floor_log needs a positive argument, got {n}/{d}")

    def at_most(i: int) -> bool:
        # 2**i <= n/d, cross-multiplied
        return (d << i) <= n if i >= 0 else d <= (n << -i)

    i = n.bit_length() - d.bit_length()  # within one of the true value
    while not at_most(i):
        i -= 1
    while at_most(i + 1):
        i += 1
    return i


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``sizes[i]`` is the integer processing time on machine ``i``; ``None``
    marks a machine that cannot run the job. Single-machine instances use
    a length-1 tuple. A job never migrates: once dispatched, only the size
    on its machine matters.
    """

    id: int
    release: int
    weight: Rational
    sizes: tuple[int | None, ...]

    def runnable_on(self, machine: int) -> bool:
        return 0 <= machine < len(self.sizes) and self.sizes[machine] is not None

    def size_on(self, machine: int) -> int:
        if not self.runnable_on(machine):
            raise JobNotRunnableOnMachine(
                f"job {self.id} has no size on machine {machine}")
        size = self.sizes[machine]
        assert size is not None
        return size

    def density(self, machine: int = 0) -> Rational:
        """Weight per unit of processing, the HDF priority key."""
        return self.weight / self.size_on(machine)


@dataclass(frozen=True)
class Instance:
    """A validated workload plus the run parameters.

    Invariants (enforced by :func:`validate_instance`):
      * ``1/epsilon`` is a positive integer and ``epsilon**2 <= 1/2``;
      * job ids are unique, jobs are sorted stably by release time;
      * every job is runnable somewhere, all sizes are >= 1, weights > 0.
    """

    jobs: tuple[Job, ...]
    machines: int = 1
    epsilon: Rational = Rational(1, 2)


class ResidualJob:
    """A job with its remaining processing time on one machine.

    ``density``, its lowest-terms ``num``/``den`` as ``int``s, the
    ``density_class`` and the HDF ``key`` (-density, release, id) are
    constant while the job is active, so they are computed once, here.
    ``remaining`` is decremented in place by the engine; the residual
    weight is derived from it on every read, never stored, so it cannot go
    stale as ``remaining`` shrinks.
    """

    __slots__ = ("job", "remaining", "machine", "density", "num", "den",
                 "density_class", "key")

    def __init__(self, job: Job, remaining: int, machine: int = 0):
        self.job = job
        self.remaining = remaining
        self.machine = machine
        self.density = job.density(machine)
        self.num, self.den = self.density.numerator, self.density.denominator
        self.density_class = floor_log_ratio(self.num, self.den)
        self.key = (-self.density, job.release, job.id)

    @property
    def residual_weight(self) -> Rational:
        return self.density * self.remaining


def validate_instance(raw: Instance) -> Instance:
    """Check every type invariant and return a canonical instance.

    Jobs are re-sorted stably by release time (input order breaks ties),
    weights are coerced to ``Rational`` and size lists to tuples, so two
    validated instances with equal content compare equal.
    """
    eps = Rational(raw.epsilon)
    if eps <= 0 or eps.numerator != 1:
        raise NonIntegralEpsilonReciprocal(
            f"1/epsilon must be a positive integer, got epsilon={eps}")
    if eps * eps > HALF:
        raise EpsilonTooLarge(f"epsilon^2 must be at most 1/2, got epsilon={eps}")
    if raw.machines < 1:
        raise MachineCountMismatch(f"need at least one machine, got {raw.machines}")

    seen: set[int] = set()
    jobs: list[Job] = []
    for job in raw.jobs:
        if job.id in seen:
            raise DuplicateJobId(f"job id {job.id} appears twice")
        seen.add(job.id)
        if not isinstance(job.id, int) or job.id < 0:
            raise InvalidInstance(f"job id must be a nonnegative integer, got {job.id!r}")
        if not isinstance(job.release, int) or job.release < 0:
            raise InvalidInstance(
                f"job {job.id} release must be a nonnegative integer, got {job.release!r}")
        sizes = tuple(job.sizes)
        if len(sizes) != raw.machines:
            raise MachineCountMismatch(
                f"job {job.id} lists {len(sizes)} sizes for {raw.machines} machines")
        present = [s for s in sizes if s is not None]
        if not present:
            raise NonPositiveSizeOrWeight(f"job {job.id} is not runnable on any machine")
        if any(not isinstance(s, int) or s < 1 for s in present):
            raise NonPositiveSizeOrWeight(f"job {job.id} has a size below 1")
        weight = Rational(job.weight)
        if weight <= 0:
            raise NonPositiveSizeOrWeight(f"job {job.id} has nonpositive weight {weight}")
        jobs.append(Job(job.id, job.release, weight, sizes))

    jobs.sort(key=lambda j: j.release)  # stable sort keeps input order within a release
    return Instance(tuple(jobs), raw.machines, eps)
