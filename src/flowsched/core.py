"""Exact domain types shared by the whole simulator.

All times are integers (processing happens in unit slots ``[t, t+1)``) and
all weights are rationals, so every invariant downstream is checkable with
zero tolerance. ``Rational`` is ``fractions.Fraction``: stored in lowest
terms with a positive denominator, and compared exactly via
cross-multiplication. No floating point enters any persisted quantity.

Only :attr:`Instance.table` turns weights and densities into integers
over the instance's one :func:`density_scale`, in one pass on first use;
every reader looks them up there, and a :class:`ResidualJob` is a row's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

Rational = Fraction

ZERO = Rational(0)
ONE = Rational(1)
HALF = Rational(1, 2)


class InvalidInstance(ValueError):
    """Bad input: raised by :func:`validate_instance` when a type invariant
    fails, and by the trace parser for a file it refuses."""


class JobNotRunnableOnMachine(ValueError):
    """The job has no size entry for the requested machine."""


class NonPositiveArgument(ValueError):
    pass


class DensityNotSpanned(ArithmeticError):
    """A scale misses a job's density denominator: a bug, never bad input."""


def floor_log_ratio(n: int, d: int) -> int:
    """Largest integer ``i`` with ``2**i <= n/d``, for integers ``n`` and
    ``d > 0`` that need not be in lowest terms. Exact: no floating point is
    involved, so the answer is correct on a power-of-two boundary too."""
    if n <= 0:
        raise NonPositiveArgument(f"floor_log_ratio needs a positive argument, got {n}/{d}")
    # n has a bits and d has b, so 2**(a-b-1) < n/d < 2**(a-b+1): the answer
    # is a-b when 2**(a-b) <= n/d (cross-multiplied), and a-b-1 otherwise
    i = n.bit_length() - d.bit_length()
    return i if ((d << i) <= n if i >= 0 else d <= (n << -i)) else i - 1


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

    def size_on(self, machine: int) -> int:
        size = self.sizes[machine] if 0 <= machine < len(self.sizes) else None
        if size is None:
            raise JobNotRunnableOnMachine(
                f"job {self.id} has no size on machine {machine}")
        return size

    def density(self, machine: int = 0) -> Rational:
        """Weight per unit of processing, the HDF priority key."""
        return self.weight / self.size_on(machine)


@dataclass(frozen=True)
class Instance:
    """A workload plus the run parameters, validated once where it is built
    (the parser or the generators); every consumer takes it as validated
    and does not validate it again.

    Invariants (enforced by :func:`validate_instance`):
      * ``1/epsilon`` is a positive integer and ``epsilon**2 <= 1/2``;
      * job ids are unique, jobs are sorted stably by release time;
      * every job is runnable somewhere, all sizes are >= 1, weights > 0.

    The cached ``scale``, ``table`` and ``by_id`` derive from the frozen
    fields, so they are neither constructor arguments nor compared.
    """

    jobs: tuple[Job, ...]
    machines: int = 1
    epsilon: Rational = Rational(1, 2)

    @cached_property
    def scale(self) -> int:
        """The :func:`density_scale` of the jobs, shared by every machine."""
        return density_scale(self.jobs)

    @cached_property
    def table(self) -> dict[int, tuple[int, int, tuple[tuple[int, int] | None, ...]]]:
        """Each job's row by id, ``(w * scale, weight class, cells)``, where
        ``cells[i]`` is ``(rho * scale, density class)`` for ``rho = w / p_i``,
        or None where machine ``i`` cannot run the job. Jobs repeat weights
        and sizes, so each distinct weight and (weight, size) is converted
        once. Classes are :func:`floor_log_ratio`'s."""
        scale, table = self.scale, {}
        converted: dict[tuple[int, int], list] = {}    # (wn, wd) -> [weight pair, cells by size]
        for job in self.jobs:
            wn, wd = ratio = job.weight.as_integer_ratio()
            known = converted.get(ratio) or converted.setdefault(ratio, [None, {}])
            by_size = known[1]
            cells = []
            for size in job.sizes:
                cell = by_size.get(size)
                if cell is None and size is not None:
                    rho, rest = divmod(wn * scale, wd * size)
                    if rest:
                        raise DensityNotSpanned(
                            f"scale {scale} does not span the density of job {job.id} "
                            f"on machine {job.sizes.index(size)}")
                    cell = by_size[size] = (rho, floor_log_ratio(rho, scale))
                cells.append(cell)
            if known[0] is None:
                weight = wn * (scale // wd)    # exact: a scale spanning a density spans w
                known[0] = (weight, floor_log_ratio(weight, scale))
            table[job.id] = (*known[0], tuple(cells))
        return table

    @cached_property
    def by_id(self) -> dict[int, Job]:
        """Each job by id; one dict shared by every reader, never mutated."""
        return {job.id: job for job in self.jobs}


def density_scale(jobs) -> int:
    """The lcm of the denominators of ``w_j / p_ji`` over every job and every
    machine that can run it. It spans every weight too: for ``w = a/b`` and
    ``g = gcd(a, p)``, ``w/p`` is ``(a/g) / (b p/g)`` in lowest terms, and
    ``b`` divides ``b p/g``."""
    return lcm(*{wd * size // gcd(wn, size) for job in jobs
                 for wn, wd in [job.weight.as_integer_ratio()]
                 for size in job.sizes if size is not None})


def run_flow(instance: Instance, runs, machine: int) -> int:
    """Twice the fractional weighted flow of ``(start, end, job, ...)`` runs
    on ``machine``, over the instance's scale. A unit processed in slot
    [s, s+1) costs ``rho (s - r + 1/2)``, so a run [a, b) of k = b - a slots
    costs ``rho k (a + b - 2 r) / 2``."""
    by_id, table = instance.by_id, instance.table
    return sum(table[jid][2][machine][0] * (end - start) * (start + end - 2 * by_id[jid].release)
               for start, end, jid, *_ in runs)


class ResidualJob:
    """A job on one machine, filled from its row of :attr:`Instance.table`.
    Dispatch and the engine fill one per (arrival, machine); that same object
    is scored, admitted, activated and has its ``remaining`` decremented."""

    __slots__ = ("job", "remaining", "machine", "weight", "weight_class", "rho", "density_class")

    def __init__(self, job: Job, remaining: int, machine: int, row: tuple):
        self.job = job
        self.remaining = remaining
        self.machine = machine
        self.weight, self.weight_class, cells = row
        self.rho, self.density_class = cells[machine]


def _rational(value, field: str) -> Rational:
    try:
        return Rational(value)
    except (TypeError, ValueError, OverflowError):    # OverflowError: infinity
        raise InvalidInstance(f"{field} must be a rational number, got {value!r}") from None


def validate_instance(raw: Instance) -> Instance:
    """Check every type invariant and return a canonical instance.

    Jobs are re-sorted stably by release time (input order breaks ties),
    weights are coerced to ``Rational`` and size lists to tuples, so two
    validated instances with equal content compare equal. A job that is
    already canonical is kept as the same object.
    """
    eps = _rational(raw.epsilon, "epsilon")
    if eps <= 0 or eps.numerator != 1:
        raise InvalidInstance(f"1/epsilon must be a positive integer, got epsilon={eps}")
    if eps * eps > HALF:
        raise InvalidInstance(f"epsilon^2 must be at most 1/2, got epsilon={eps}")
    if type(raw.machines) is not int:
        raise InvalidInstance(f"machines must be an integer, got {raw.machines!r}")
    if raw.machines < 1:
        raise InvalidInstance(f"need at least one machine, got {raw.machines}")

    seen: set[int] = set()
    jobs: list[Job] = []
    for job in raw.jobs:
        # exact type checks: they are the fast path, and they refuse bool
        jid = job.id
        if type(jid) is not int or jid < 0:
            raise InvalidInstance(f"job id must be a nonnegative integer, got {jid!r}")
        if jid in seen:
            raise InvalidInstance(f"job id {jid} appears twice")
        seen.add(jid)
        if type(job.release) is not int or job.release < 0:
            raise InvalidInstance(
                f"job {jid} release must be a nonnegative integer, got {job.release!r}")
        sizes = job.sizes
        if type(sizes) is not tuple:
            try:
                sizes = tuple(sizes)
            except TypeError:
                raise InvalidInstance(
                    f"job {jid} sizes must be a sequence, got {job.sizes!r}") from None
        if len(sizes) != raw.machines:
            raise InvalidInstance(
                f"job {jid} lists {len(sizes)} sizes for {raw.machines} machines")
        present = [s for s in sizes if s is not None]
        if not present:
            raise InvalidInstance(f"job {jid} is not runnable on any machine")
        for size in present:
            if type(size) is not int:
                raise InvalidInstance(f"job {jid} size must be an integer, got {size!r}")
            if size < 1:
                raise InvalidInstance(f"job {jid} has a size below 1")
        weight = job.weight if type(job.weight) is Rational else \
            _rational(job.weight, f"job {jid} weight")
        if weight.numerator <= 0:
            raise InvalidInstance(f"job {jid} has nonpositive weight {weight}")
        if weight is not job.weight or sizes is not job.sizes or type(job) is not Job:
            job = Job(job.id, job.release, weight, sizes)
        jobs.append(job)

    jobs.sort(key=lambda j: j.release)  # stable sort keeps input order within a release
    return Instance(tuple(jobs), raw.machines, eps)
