"""Immediate-rejection tables.

An arrival whose impact side crosses ``w*p/epsilon`` is assigned to a
bucket in that side's table, and each bucket rejects on a fixed cadence
of period ``k = 1/epsilon``:

* plus table, keyed by (floor_log(plus/weight), floor_log(weight)):
  rejects assignment ordinals 1, 1+k, 1+2k, ... (the first job in a fresh
  bucket is always rejected);
* minus table, keyed by (floor_log(minus), density class, floor_log(size)):
  rejects ordinals k, 2k, 3k, ... (nothing before the k-th assignment).

Counters advance on every assignment, even when the other table already
rejected the job, so replaying an arrival sequence is deterministic.
Buckets are never garbage-collected within a run.

The arrival is the :class:`~flowsched.core.ResidualJob` that was scored,
so this module converts nothing: the weight and density classes are the
arrival's, from the instance's integer table, and the others are the
``floor_log_ratio`` of the numerators of ``plus/weight`` and ``minus``,
and ``size.bit_length() - 1``. A bucket is its assigned weights, numerators
over the run's density ``scale``; its rejected ordinals follow from its
length and the cadence, so :meth:`RejectionTables.audit` derives them, in
a report built only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import Rational, ResidualJob, floor_log_ratio
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


def bucket_keys(impact: ArrivalImpact, arrival: ResidualJob, scale: int,
                cadence: int) -> tuple[PlusKey | None, MinusKey | None]:
    """Keys for whichever tables the arrival qualifies for (possibly both),
    from an impact whose values are numerators over ``2 * scale``.

    A side qualifies against ``w*p/epsilon``, which is ``2 * cadence *
    self_term`` over the same denominator: plus at or above it (inclusive),
    minus strictly above it. The asymmetry is deliberate and load-bearing
    for the rejection cadence.
    """
    threshold = 2 * cadence * impact.self_term
    plus_key = None
    minus_key = None
    if impact.plus >= threshold:
        # plus / w = (plus / (2 scale)) / (weight / scale)
        plus_key = PlusKey(floor_log_ratio(impact.plus, 2 * arrival.weight),
                           arrival.weight_class)
    if impact.minus > threshold:
        minus_key = MinusKey(floor_log_ratio(impact.minus, 2 * scale),
                             arrival.density_class, arrival.remaining.bit_length() - 1)
    return plus_key, minus_key


class ImmediateDecision(NamedTuple):
    plus_key: PlusKey | None
    minus_key: MinusKey | None
    plus_ordinal: int | None
    minus_ordinal: int | None
    reject: bool
    reason: str


@dataclass(frozen=True)
class BucketReport:
    """One bucket; its weights are numerators over the density scale."""
    # not a NamedTuple: the field ``count`` would shadow ``tuple.count``
    table: str
    key: tuple[int, ...]
    count: int
    rejected_ordinals: tuple[int, ...]
    weight_assigned: int
    weight_rejected: int
    weight_rejected_first: int  # weight of ordinal 1 when it was rejected


class RejectionTables:
    """Mutable bucket state for one machine (single-writer), over the run's
    density ``scale``; ``1/epsilon`` (validated) is the cadence."""

    def __init__(self, epsilon: Rational, scale: int):
        self.cadence: int = epsilon.denominator
        self.scale = scale
        # each bucket is its assigned weights, w * scale, by ordinal
        self._plus: dict[PlusKey, list[int]] = {}
        self._minus: dict[MinusKey, list[int]] = {}
        self._seen: set[int] = set()

    def admit(self, arrival: ResidualJob, impact: ArrivalImpact) -> ImmediateDecision:
        """Assign the arrival to its buckets and decide immediate rejection.

        Must be called exactly once per arrival, in arrival order. When
        both tables would reject, the plus-side reason is recorded; every
        budget invariant treats the order as immaterial.
        """
        jid = arrival.job.id
        if jid in self._seen:
            raise DuplicateAdmission(f"job {jid} admitted twice")
        self._seen.add(jid)

        plus_key, minus_key = bucket_keys(impact, arrival, self.scale, self.cadence)
        weight = arrival.weight
        reject = False
        reason = REASON_NONE
        plus_ordinal = minus_ordinal = None

        if plus_key is not None:
            bucket = self._plus.setdefault(plus_key, [])
            bucket.append(weight)
            plus_ordinal = len(bucket)
            if plus_ordinal % self.cadence == 1:
                reject = True
                reason = REASON_PLUS_FIRST if plus_ordinal == 1 else REASON_PLUS_CADENCE
        if minus_key is not None:
            bucket = self._minus.setdefault(minus_key, [])
            bucket.append(weight)
            minus_ordinal = len(bucket)
            if minus_ordinal % self.cadence == 0 and not reject:
                reject = True
                reason = REASON_MINUS_CADENCE

        return ImmediateDecision(plus_key, minus_key, plus_ordinal, minus_ordinal,
                                 reject, reason)

    def audit(self) -> list[BucketReport]:
        """Exhaustive per-bucket report, deterministically ordered by key;
        each bucket's rejected ordinals follow from its count and cadence."""
        k = self.cadence
        reports = []
        for table, buckets, first in (("plus", self._plus, 1), ("minus", self._minus, k)):
            for key in sorted(buckets):
                weights = buckets[key]
                rejected = range(first, len(weights) + 1, k)
                reports.append(BucketReport(
                    table=table,
                    key=tuple(key),
                    count=len(weights),
                    rejected_ordinals=tuple(rejected),
                    weight_assigned=sum(weights),
                    weight_rejected=sum(weights[first - 1::k]),
                    weight_rejected_first=weights[0] if 1 in rejected else 0,
                ))
        return reports
