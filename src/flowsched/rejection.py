"""Immediate-rejection tables.

Arrivals whose impact crosses a threshold are assigned to buckets in one
or both of two tables, and each bucket rejects on a fixed cadence of
period ``1/epsilon``:

* plus table, keyed by (floor_log(plus/weight), floor_log(weight)):
  rejects assignment ordinals 1, 1+k, 1+2k, ... (the first job in a fresh
  bucket is always rejected);
* minus table, keyed by (floor_log(minus), density class, floor_log(size)):
  rejects ordinals k, 2k, 3k, ... (nothing before the k-th assignment).

Counters advance on every assignment, even when the other table already
rejected the job, so replaying an arrival sequence is deterministic.
Buckets are never garbage-collected within a run.

Each class is computed from ``int``s, with no ``Fraction`` division:
:func:`~flowsched.core.floor_log_ratio` of the numerator and denominator
of ``plus/weight``, ``weight`` and ``minus``, and ``size.bit_length() - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .core import Job, Rational, ZERO, floor_log_ratio
from .impact import ArrivalImpact

REASON_NONE = "none"
REASON_PLUS_FIRST = "plus_first"
REASON_PLUS_CADENCE = "plus_cadence"
REASON_MINUS_CADENCE = "minus_cadence"


class DuplicateAdmission(ValueError):
    """The same job id was offered to the tables twice."""


class PlusKey(NamedTuple):
    impact_class: int  # floor_log(plus / weight)
    weight_class: int  # floor_log(weight)


class MinusKey(NamedTuple):
    impact_class: int   # floor_log(minus)
    density_class: int
    size_class: int     # floor_log(size)


def bucket_keys(impact: ArrivalImpact, job: Job,
                machine: int = 0) -> tuple[PlusKey | None, MinusKey | None]:
    """Keys for whichever tables the arrival qualifies for (possibly both)."""
    plus_key = None
    minus_key = None
    if impact.in_plus:
        wn, wd = job.weight.numerator, job.weight.denominator
        plus = impact.plus
        plus_key = PlusKey(floor_log_ratio(plus.numerator * wd, plus.denominator * wn),
                           floor_log_ratio(wn, wd))
    if impact.in_minus:
        minus = impact.minus
        minus_key = MinusKey(floor_log_ratio(minus.numerator, minus.denominator),
                             impact.density_class, job.size_on(machine).bit_length() - 1)
    return plus_key, minus_key


class ImmediateDecision(NamedTuple):
    job: int
    plus_key: PlusKey | None
    minus_key: MinusKey | None
    plus_ordinal: int | None
    minus_ordinal: int | None
    reject: bool
    reason: str


@dataclass(frozen=True)
class BucketReport:
    # not a NamedTuple: the field ``count`` would shadow ``tuple.count``
    table: str
    key: tuple[int, ...]
    count: int
    rejected_ordinals: tuple[int, ...]
    weight_assigned: Rational
    weight_rejected: Rational
    weight_rejected_first: Rational  # weight of ordinal 1 when it was rejected


@dataclass
class _Bucket:
    assigned: list[tuple[int, Rational]] = field(default_factory=list)
    rejected: list[int] = field(default_factory=list)

    def assign(self, job: Job) -> int:
        self.assigned.append((job.id, job.weight))
        return len(self.assigned)


class RejectionTables:
    """Mutable bucket state for one machine (single-writer)."""

    def __init__(self, epsilon: Rational):
        if epsilon <= 0 or epsilon.numerator != 1:
            raise ValueError(f"1/epsilon must be a positive integer, got {epsilon}")
        self.cadence: int = epsilon.denominator
        self._plus: dict[PlusKey, _Bucket] = {}
        self._minus: dict[MinusKey, _Bucket] = {}
        self._seen: set[int] = set()

    def admit(self, job: Job, impact: ArrivalImpact, machine: int = 0) -> ImmediateDecision:
        """Assign the arrival to its buckets and decide immediate rejection.

        Must be called exactly once per arrival, in arrival order. When
        both tables would reject, the plus-side reason is recorded; every
        budget invariant treats the order as immaterial.
        """
        if job.id in self._seen:
            raise DuplicateAdmission(f"job {job.id} admitted twice")
        self._seen.add(job.id)

        plus_key, minus_key = bucket_keys(impact, job, machine)
        reject = False
        reason = REASON_NONE
        plus_ordinal = minus_ordinal = None

        if plus_key is not None:
            bucket = self._plus.setdefault(plus_key, _Bucket())
            plus_ordinal = bucket.assign(job)
            if plus_ordinal % self.cadence == 1:
                bucket.rejected.append(plus_ordinal)
                reject = True
                reason = REASON_PLUS_FIRST if plus_ordinal == 1 else REASON_PLUS_CADENCE
        if minus_key is not None:
            bucket = self._minus.setdefault(minus_key, _Bucket())
            minus_ordinal = bucket.assign(job)
            if minus_ordinal % self.cadence == 0:
                bucket.rejected.append(minus_ordinal)
                if not reject:
                    reject = True
                    reason = REASON_MINUS_CADENCE

        return ImmediateDecision(job.id, plus_key, minus_key,
                                 plus_ordinal, minus_ordinal, reject, reason)

    def audit(self) -> list[BucketReport]:
        """Exhaustive per-bucket report, deterministically ordered by key."""
        reports = []
        for table, buckets in (("plus", self._plus), ("minus", self._minus)):
            for key in sorted(buckets):
                bucket = buckets[key]
                rejected = tuple(bucket.rejected)
                rejected_weight = sum(
                    (bucket.assigned[o - 1][1] for o in rejected), start=ZERO)
                first_weight = bucket.assigned[0][1] if 1 in bucket.rejected else ZERO
                reports.append(BucketReport(
                    table=table,
                    key=tuple(key),
                    count=len(bucket.assigned),
                    rejected_ordinals=rejected,
                    weight_assigned=sum((w for _, w in bucket.assigned), start=ZERO),
                    weight_rejected=rejected_weight,
                    weight_rejected_first=first_weight,
                ))
        return reports
