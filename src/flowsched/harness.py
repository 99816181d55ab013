"""Workload generation and instance file round-trips.

The workload trace file is line oriented and purely textual:

    m=1 epsilon=1/2 speedup=0 seed=42
    0 0 1 4
    1 1 3/2 1

Header: machine count, epsilon, a ``speedup`` field fixed at 0, generator
seed ("-" when not applicable). One job per line: id, release, weight
("num" or "num/den"), sizes as comma-separated integers with "-" for a
machine that cannot run the job. ``parse_trace_text(format_trace(x)) == x``
bit-exactly for a validated instance ``x``. The parser and the generators
are where instances are built, so each ends in ``validate_instance``.

The paper's only relaxation is rejection: its offline optimum runs at the
algorithm's speed, so every schedule runs at unit speed and an instance
carries no speed. The header keeps ``speedup=0`` so that files keep their
bytes and older files still parse; a nonzero value is refused, not
ignored.

Policies are compared through files: ``simulate`` and ``baseline`` write
``metric`` and ``baseline`` records that ``report`` joins.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from math import ceil, isfinite
from pathlib import Path

from .core import Instance, InvalidInstance, Job, ONE, Rational, validate_instance


class BadParameters(ValueError):
    """Bad input other than an instance: generator parameters, options, record files."""


# -- generators ----------------------------------------------------------------

KINDS = ("poisson_pareto", "uniform", "adversarial_L", "fixed")


@dataclass(frozen=True)
class WorkloadModel:
    """Parameters for one generator; a fixed seed yields an identical job list."""

    kind: str
    n: int = 0
    seed: int = 0
    L: int = 10
    scale: int = 1
    rate: float = 0.5       # poisson arrival rate
    shape: float = 1.8      # pareto tail index
    size_cap: int = 25
    max_release: int = 20
    max_size: int = 8
    max_weight: int = 12
    machines: int = 1
    epsilon: Rational = Rational(1, 4)


def generate(model: WorkloadModel) -> Instance:
    if model.kind not in KINDS:
        raise BadParameters(f"unknown workload kind {model.kind!r}")
    if model.n < 0:
        raise BadParameters("n must be nonnegative")
    if model.max_size < 1 or model.max_weight < 1:
        raise BadParameters("max_size and max_weight must be at least 1")
    if model.max_release < 0:
        raise BadParameters("max_release must be nonnegative")
    if model.kind == "poisson_pareto" and not (model.rate > 0 and model.shape > 0):
        raise BadParameters("poisson_pareto needs rate > 0 and shape > 0")
    if model.kind in ("adversarial_L", "fixed") and model.machines != 1:
        raise BadParameters(f"{model.kind} generates single-machine instances")
    if model.kind == "adversarial_L":
        return _adversarial(model)
    if model.kind == "fixed":
        jobs = _fixed_jobs(model.n)
    elif model.kind == "uniform":
        jobs = _uniform_jobs(model)
    else:
        jobs = _poisson_pareto_jobs(model)
    return validate_instance(Instance(tuple(jobs), model.machines, model.epsilon))


def _adversarial(model: WorkloadModel) -> Instance:
    """Pile-up workload: a long unit-weight job, then L unit jobs.

    The construction is rescaled to integer slots: the long job has size
    L*L*scale so that a policy that refuses to abandon it strands the L
    followers for its whole run.
    """
    if model.L < 1 or model.scale < 1:
        raise BadParameters("adversarial_L needs L >= 1 and scale >= 1")
    jobs = [Job(0, 0, ONE, (model.L * model.L * model.scale,))]
    for i in range(1, model.L + 1):
        jobs.append(Job(i, i, ONE, (1,)))
    return validate_instance(Instance(tuple(jobs), 1, model.epsilon))


def _fixed_jobs(n: int) -> list[Job]:
    dens = (1, 2, 4)
    return [Job(i, (2 * i) // 3, Rational(1 + i % 5, dens[i % 3]), (1 + i % 4,))
            for i in range(n)]


def _rand_weight(rng: random.Random, max_weight: int) -> Rational:
    return Rational(rng.randint(1, max_weight), rng.choice((1, 2, 4)))


def _rand_sizes(rng: random.Random, machines: int, max_size: int) -> tuple[int | None, ...]:
    sizes: list[int | None] = [rng.randint(1, max_size) for _ in range(machines)]
    if machines > 1:
        for m in range(machines):
            if rng.random() < 0.15 and sum(s is not None for s in sizes) > 1:
                sizes[m] = None
    return tuple(sizes)


def _uniform_jobs(model: WorkloadModel) -> list[Job]:
    rng = random.Random(model.seed)
    raw = []
    for _ in range(model.n):
        raw.append((rng.randint(0, model.max_release),
                    _rand_weight(rng, model.max_weight),
                    _rand_sizes(rng, model.machines, model.max_size)))
    raw.sort(key=lambda r: r[0])
    return [Job(i, r, w, s) for i, (r, w, s) in enumerate(raw)]


def _poisson_pareto_jobs(model: WorkloadModel) -> list[Job]:
    rng = random.Random(model.seed)
    t = 0.0
    raw = []
    for _ in range(model.n):
        t += rng.expovariate(model.rate)
        draw = rng.paretovariate(model.shape)
        # a tiny rate or shape overflows a draw to infinity, which no
        # integer release or size can hold
        if not isfinite(t) or not isfinite(draw):
            raise BadParameters(
                f"rate={model.rate} and shape={model.shape} draw an infinite arrival time or size")
        size = min(model.size_cap, max(1, ceil(draw)))
        sizes: list[int | None] = []
        for m in range(model.machines):
            stretch = 1 if model.machines == 1 else rng.choice((1, 1, 2, 3))
            sizes.append(min(model.size_cap, size * stretch))
        raw.append((int(t), _rand_weight(rng, model.max_weight), tuple(sizes)))
    raw.sort(key=lambda r: r[0])
    return [Job(i, r, w, s) for i, (r, w, s) in enumerate(raw)]


# -- trace file round-trips -------------------------------------------------------

# ASCII only: without re.ASCII, \d and \s also match other Unicode digits and spaces
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)
_HEADER_RE = re.compile(
    r"^m=(?P<m>\d+)\s+epsilon=(?P<eps>\S+)\s+speedup=(?P<spd>\S+)\s+seed=(?P<seed>\S+)$",
    re.ASCII)


def _parse_rational(text: str) -> Rational:
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Rational(num, den)


def _parse_int(text: str) -> int:
    """An optional minus sign and ASCII digits, nothing else: ``int`` alone
    would also take ``+2``, ``1_0`` and non-ASCII digits. A negative value
    is left for :func:`~flowsched.core.validate_instance` to refuse."""
    if not (text.isascii() and (text[1:] if text[:1] == "-" else text).isdecimal()):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def serialize_trace(instance: Instance, path: str | Path,
                    seed: int | None = None) -> None:
    Path(path).write_text(format_trace(instance, seed), encoding="ascii")


def format_trace(instance: Instance, seed: int | None = None) -> str:
    lines = [f"m={instance.machines} epsilon={instance.epsilon} "
             f"speedup=0 seed={'-' if seed is None else seed}"]
    for job in instance.jobs:
        sizes = ",".join("-" if s is None else str(s) for s in job.sizes)
        lines.append(f"{job.id} {job.release} {job.weight} {sizes}")
    return "\n".join(lines) + "\n"


def parse_trace(path: str | Path) -> Instance:
    return parse_trace_text(Path(path).read_text(encoding="ascii"))


def parse_trace_text(text: str) -> Instance:
    lines = text.splitlines()
    header = None
    jobs: list[Job] = []
    # generated files repeat weight texts and size fields: parse each once per call
    weight_of = functools.cache(_parse_rational)
    sizes_of = functools.cache(lambda text: tuple(
        None if tok == "-" else _parse_int(tok) for tok in text.split(",")))
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise InvalidInstance(f"line {line_no} is not a valid header: {line!r}")
            try:
                header = (int(match["m"]), _parse_rational(match["eps"]))
                speedup = _parse_rational(match["spd"])
            except ValueError as exc:
                raise InvalidInstance(f"bad header on line {line_no}: {exc}") from exc
            if speedup != 0:
                raise InvalidInstance(
                    f"bad header on line {line_no}: speedup={match['spd']} is not "
                    f"supported; schedules run at unit speed")
            continue
        fields = line.split()
        if len(fields) != 4:
            raise InvalidInstance(f"line {line_no}: expected 4 fields, got {len(fields)}")
        try:
            jid = _parse_int(fields[0])
            release = _parse_int(fields[1])
            weight = weight_of(fields[2])
            sizes = sizes_of(fields[3])
        except ValueError as exc:
            raise InvalidInstance(f"line {line_no}: {exc}") from exc
        jobs.append(Job(jid, release, weight, sizes))
    if header is None:
        raise InvalidInstance("no header line found")
    machines, epsilon = header
    return validate_instance(Instance(tuple(jobs), machines, epsilon))

