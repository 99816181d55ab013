from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowsched import (Job, MinusKey, PlusKey, RejectionTables, ResidualJob, bucket_keys,
                       run, run_multi)
from flowsched.impact import ArrivalImpact
from flowsched.rejection import (DuplicateAdmission, REASON_MINUS_CADENCE,
                                 REASON_NONE, REASON_PLUS_CADENCE,
                                 REASON_PLUS_FIRST)

import oracles
from conftest import job, seeded_instance

F = Fraction
SCALE = 4  # the density scale of the stubs below; it spans every weight they use


def arrival(jid, release, weight, size):
    """The job's view over ``SCALE``, as the engine offers it to the tables."""
    j = job(jid, release, weight, size)
    return ResidualJob(j, size, 0, oracles.job_row(j, SCALE))


def impact_stub(view, plus=F(0), minus=F(0), scale=SCALE):
    """The impact of the arrival ``view`` with these side terms, as the
    engine stores it: numerators over ``2 * scale``, its self term
    ``w*p/2``."""
    self_term = view.job.weight * view.remaining / 2
    return oracles.impact_numerators(ArrivalImpact(F(plus), F(minus), self_term), scale)


def test_bucket_key_examples():
    j = arrival(0, 0, 3, 1)
    impact = impact_stub(j, plus=F(30))  # plus / w = 10, above w p / eps = 6
    plus_key, minus_key = bucket_keys(impact, j, SCALE, 2)
    assert plus_key == PlusKey(impact_class=3, weight_class=1)
    assert minus_key is None

    j = arrival(1, 0, 2, 8)  # density 1/4: class -2
    impact = impact_stub(j, minus=F(36))  # above w p / eps = 32
    plus_key, minus_key = bucket_keys(impact, j, SCALE, 2)
    assert plus_key is None
    assert minus_key == MinusKey(impact_class=5, density_class=-2, size_class=3)


def test_no_threshold_no_keys():
    j = arrival(0, 0, 1, 1)
    plus_key, minus_key = bucket_keys(impact_stub(j), j, SCALE, 2)
    assert plus_key is None and minus_key is None


def plus_qualifier(jid, weight=F(4)):
    # identical keys for every call: plus/w in [8,16), weight class fixed
    j = arrival(jid, 0, weight, 1)
    return j, impact_stub(j, plus=weight * 9)


def minus_qualifier(jid, weight=F(4)):
    j = arrival(jid, 0, weight, 1)  # density 4: class 2
    return j, impact_stub(j, minus=F(40))


def test_plus_cadence_rejects_first_then_every_kth():
    tables = RejectionTables(F(1, 2), SCALE)
    rejected = []
    for jid in range(1, 7):
        j, imp = plus_qualifier(jid)
        d = tables.admit(j, imp)
        if d.reject:
            rejected.append(d.plus_ordinal)
    assert rejected == [1, 3, 5]


def test_minus_cadence_waits_for_the_kth():
    tables = RejectionTables(F(1, 2), SCALE)
    rejected = []
    for jid in range(1, 7):
        j, imp = minus_qualifier(jid)
        d = tables.admit(j, imp)
        if d.reject:
            rejected.append(d.minus_ordinal)
    assert rejected == [2, 4, 6]


def test_nonqualifying_job_never_rejected():
    tables = RejectionTables(F(1, 2), SCALE)
    for jid in range(10):
        j = arrival(jid, 0, 1, 1)
        d = tables.admit(j, impact_stub(j))
        assert not d.reject and d.reason == REASON_NONE


def test_reasons():
    tables = RejectionTables(F(1, 2), SCALE)
    j, imp = plus_qualifier(1)
    assert tables.admit(j, imp).reason == REASON_PLUS_FIRST
    j, imp = plus_qualifier(2)
    assert tables.admit(j, imp).reason == REASON_NONE
    j, imp = plus_qualifier(3)
    assert tables.admit(j, imp).reason == REASON_PLUS_CADENCE


def test_both_tables_minus_fires_while_plus_keeps():
    # plus ordinal 2 (keep), minus ordinal 2 (reject) at eps = 1/2
    tables = RejectionTables(F(1, 2), SCALE)
    j1, imp1 = plus_qualifier(1)
    tables.admit(j1, imp1)
    j2, imp2 = minus_qualifier(2)
    tables.admit(j2, imp2)
    j3 = arrival(3, 0, 4, 1)
    d = tables.admit(j3, impact_stub(j3, plus=F(36), minus=F(40)))
    assert d.plus_ordinal == 2 and d.minus_ordinal == 2
    assert d.reject and d.reason == REASON_MINUS_CADENCE


def test_counters_advance_despite_other_table_verdict():
    tables = RejectionTables(F(1, 2), SCALE)
    j1, j2 = arrival(1, 0, 4, 1), arrival(2, 0, 4, 1)
    d1 = tables.admit(j1, impact_stub(j1, plus=F(36), minus=F(40)))
    assert d1.reject and d1.reason == REASON_PLUS_FIRST
    assert d1.minus_ordinal == 1  # assigned even though plus already rejected
    d2 = tables.admit(j2, impact_stub(j2, plus=F(36), minus=F(40)))
    assert d2.minus_ordinal == 2 and d2.reject  # minus cadence saw both


def test_duplicate_admission_raises():
    tables = RejectionTables(F(1, 2), SCALE)
    j, imp = plus_qualifier(5)
    tables.admit(j, imp)
    with pytest.raises(DuplicateAdmission):
        tables.admit(j, imp)


def test_audit_fresh_tables_empty():
    assert RejectionTables(F(1, 2), SCALE).audit() == []


def test_audit_counts_and_weights():
    tables = RejectionTables(F(1, 2), SCALE)
    for jid, w in ((1, F(4)), (2, F(5)), (3, F(6))):
        j, imp = plus_qualifier(jid, weight=w)
        tables.admit(j, imp)
    (report,) = tables.audit()
    assert report.table == "plus"
    assert report.count == 3
    assert report.rejected_ordinals == (1, 3)
    # weights are numerators over the tables' scale
    assert F(report.weight_assigned, SCALE) == 15
    assert F(report.weight_rejected, SCALE) == 10
    assert F(report.weight_rejected_first, SCALE) == 4


@given(st.integers(2, 10), st.integers(0, 40))
def test_cadence_ordinal_rule(k, n):
    eps = F(1, k)
    tables = RejectionTables(eps, SCALE)
    for jid in range(1, n + 1):
        j = arrival(jid, 0, 4, 1)
        # both sides above w p / eps = 4k for every k here
        d = tables.admit(j, impact_stub(j, plus=F(60), minus=F(60)))
        assert d.reject == (d.plus_ordinal % k == 1 or d.minus_ordinal % k == 0)
    # every arrival lands in the same plus and the same minus bucket
    rejected = {report.table: report.rejected_ordinals for report in tables.audit()}
    assert rejected == ({} if n == 0 else {
        "plus": tuple(o for o in range(1, n + 1) if o % k == 1),
        "minus": tuple(o for o in range(1, n + 1) if o % k == 0)})


def buckets_from_decisions(trace, k):
    """Each bucket's count and rejected ordinals, read from the trace's
    decisions: a bucket's keyed decisions draw the ordinals 1, 2, ... in
    arrival order, and a decision rejects exactly when one of its ordinals
    is on its table's cadence (k + 1, 2k + 1, ... after the first in the
    plus table; k, 2k, ... in the minus table)."""
    counts: dict[tuple, int] = {}
    rejected: dict[tuple, list[int]] = {}
    for d in trace.decisions.values():
        on_cadence = False
        for table, key, ordinal, phase in (("plus", d.plus_key, d.plus_ordinal, 1),
                                           ("minus", d.minus_key, d.minus_ordinal, 0)):
            if key is None:
                assert ordinal is None
                continue
            bucket = (table, tuple(key))
            counts[bucket] = counts.get(bucket, 0) + 1
            assert ordinal == counts[bucket]
            rejected.setdefault(bucket, [])
            if ordinal % k == phase:
                rejected[bucket].append(ordinal)
                on_cadence = True
        assert d.reject == on_cadence
    return {bucket: (count, tuple(rejected[bucket])) for bucket, count in counts.items()}


def test_bucket_reports_match_the_decisions_on_seeded_runs():
    rejections = set()
    for machines in (1, 2, 4):
        for seed in range(40):
            inst = seeded_instance(seed, machines)
            traces = [run(inst)] if machines == 1 else run_multi(inst)
            for trace in traces:
                reports = {(r.table, r.key): (r.count, r.rejected_ordinals)
                           for r in trace.table_report}
                assert reports == buckets_from_decisions(trace, inst.epsilon.denominator)
                rejections |= {(table, len(ordinals) > 1)
                               for (table, _), (_, ordinals) in reports.items() if ordinals}
    # both tables reject, and some bucket rejects more than once
    assert {table for table, _ in rejections} == {"plus", "minus"}
    assert (("plus", True) in rejections) or (("minus", True) in rejections)


@given(st.lists(st.tuples(st.integers(1, 16), st.booleans(), st.booleans()),
                max_size=30),
       st.sampled_from([F(1, 2), F(1, 4)]))
def test_replay_determinism(specs, eps):
    def play():
        tables = RejectionTables(eps, SCALE)
        out = []
        for jid, (w, in_plus, in_minus) in enumerate(specs):
            # w * 9 is above w p / eps, and 0 below it
            j = arrival(jid, 0, w, 1)
            out.append(tables.admit(j, impact_stub(j, plus=F(w * 9) if in_plus else F(0),
                                                   minus=F(w * 9) if in_minus else F(0))))
        return out
    assert play() == play()


# -- integer classes against the Fraction floor_log oracle --------------------

powers_of_two = st.integers(-12, 12).map(lambda k: F(2) ** k)
positive = st.fractions(F(1, 10 ** 3), F(10 ** 4), max_denominator=10 ** 3)
# a power of two, or one off it by less than any representable step here
near_powers = st.tuples(powers_of_two, st.sampled_from([F(1, 10 ** 9), F(-1, 10 ** 9)])
                        ).map(sum)


@given(st.one_of(powers_of_two, positive),
       st.one_of(powers_of_two, near_powers, positive),
       st.one_of(powers_of_two, near_powers, positive),
       st.one_of(st.integers(0, 20).map(lambda k: 2 ** k), st.integers(1, 10 ** 6)),
       st.sampled_from([2, 4, 10]), st.booleans(), st.booleans())
def test_integer_bucket_keys_match_fraction_oracle(weight, ratio, minus, size, cadence,
                                                   plus_tie, minus_tie):
    # ratio is plus / weight, so plus / w = 2^k lands exactly on a boundary;
    # a tie puts that side exactly on its threshold w p / epsilon
    j = Job(0, 0, weight, (size,))
    threshold = weight * size * cadence
    plus = threshold if plus_tie else weight * ratio
    minus = threshold if minus_tie else minus
    # the least scale that spans the weight, its density and both sides
    scale = lcm(weight.denominator, (weight / size).denominator,
                plus.denominator, minus.denominator)
    view = ResidualJob(j, size, 0, oracles.job_row(j, scale))
    keys = bucket_keys(impact_stub(view, plus, minus, scale), view, scale, cadence)
    assert keys == oracles.bucket_keys(oracles.priced(j, plus, minus, F(1, cadence)), j)
    assert all(type(field) is int for key in keys if key is not None for field in key)
