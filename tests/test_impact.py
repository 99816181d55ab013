from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (Instance, Job, MinusKey, RejectionTables, ResidualJob, bucket_keys,
                       density_scale)
from flowsched.core import NonPositiveArgument, floor_log_ratio
from flowsched.impact import JobInActiveSet

import oracles
from conftest import impact_of, job
from oracles import floor_log

F = Fraction


def hdf_fractional_flow(entries):
    """Independent oracle: continuous fractional weighted flow of preemptive
    HDF over (residual weight, residual size) pairs all present at time 0.

    Total residual weight decreases linearly while each job is processed,
    so the integral is an exact sum of trapezoids. The order of equal
    densities does not change the value.
    """
    ordered = sorted(((F(w), F(p)) for w, p in entries),
                     key=lambda e: -(e[0] / e[1]))
    level = sum((w for w, _ in ordered), start=F(0))
    total = F(0)
    for w, p in ordered:
        total += p * (level + (level - w)) / 2
        level -= w
    return total


def test_floor_log_examples():
    assert floor_log(F(8)) == 3
    assert floor_log(F(7)) == 2
    assert floor_log(F(1, 2)) == -1


def test_floor_log_rejects_nonpositive():
    with pytest.raises(NonPositiveArgument):
        floor_log(F(0))
    with pytest.raises(NonPositiveArgument):
        floor_log(F(-3, 2))


@given(st.fractions(min_value=F(1, 10 ** 6), max_value=F(10 ** 6),
                    max_denominator=10 ** 6))
def test_floor_log_bracket_property(x):
    i = floor_log(x)
    assert F(2) ** i <= x < F(2) ** (i + 1)


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.integers(1, 50))
def test_floor_log_ratio_ignores_common_factors(n, d, k):
    assert floor_log_ratio(n * k, d * k) == floor_log(F(n, d))


def test_floor_log_ratio_on_and_next_to_powers_of_two():
    # n/d = 2^k exactly, and one unit of n either side of it
    for d in (1, 2, 3, 5, 7, 1024, 10 ** 6 + 3, 10 ** 12 - 1, 10 ** 12):
        for k in range(-40, 41):
            n, den = (d << k, d) if k >= 0 else (d, d << -k)
            for num in (n - 1, n, n + 1):
                if num > 0:
                    assert floor_log_ratio(num, den) == floor_log(F(num, den)), (num, den)


def test_floor_log_ratio_rejects_nonpositive():
    with pytest.raises(NonPositiveArgument):
        floor_log_ratio(0, 3)


def test_density_class_examples():
    for j, klass in ((job(0, 0, 6, 3), 1), (job(0, 0, 1, 4), -2), (job(0, 0, 3, 3), 0)):
        row = Instance((j,)).table[j.id]
        assert ResidualJob(j, j.size_on(0), 0, row).density_class == klass
        assert oracles.arrival_impact(j, [], F(1, 2)).density_class == klass


def test_empty_active_only_self_term():
    impact, _ = impact_of(job(0, 0, 2, 4), [])
    assert (impact.plus, impact.minus, impact.total) == (0, 0, 4)
    assert impact.self_term == 4


def test_denser_active_job_contributes_to_plus():
    impact, _ = impact_of(job(9, 0, 2, 4), [(job(1, 0, 6, 3), F(3))])
    assert (impact.plus, impact.minus, impact.total) == (6, 0, 10)
    # oracle cross-check: HDF difference with and without the arrival
    with_job = hdf_fractional_flow([(6, 3), (2, 4)])
    without = hdf_fractional_flow([(6, 3)])
    assert with_job - without == impact.total


def test_sparser_active_job_contributes_to_minus():
    impact, _ = impact_of(job(9, 0, 4, 2), [(job(1, 0, 1, 2), F(2))])
    assert (impact.plus, impact.minus, impact.total) == (0, 2, 6)
    with_job = hdf_fractional_flow([(1, 2), (4, 2)])
    without = hdf_fractional_flow([(1, 2)])
    assert with_job - without == impact.total


def test_same_class_lower_density_goes_to_plus_delay_branch():
    # class 0 both, but the active job is strictly less dense
    active = [(job(1, 0, 5, 4), F(4))]  # rho 5/4
    impact, _ = impact_of(job(9, 0, 3, 2), active)  # rho 3/2
    assert impact.plus == 2 * 5  # p_new * residual weight
    assert impact.minus == 0


def test_rejects_job_already_active():
    with pytest.raises(JobInActiveSet):
        impact_of(job(7, 0, 1, 2), [(job(7, 0, 1, 2), F(2))])


def judged(arrival: Job, entries, epsilon, machine: int = 0):
    """:func:`impact_of`'s impact and active set, and the decision that
    fresh rejection tables of ``epsilon`` make on that impact, whose keys
    :func:`bucket_keys` gives too."""
    impact, active = impact_of(arrival, entries, machine)
    scale = density_scale([arrival, *(j for j, _ in entries)])
    view = oracles.residual_job(arrival, arrival.size_on(machine), machine, scale)
    numerators = oracles.impact_numerators(impact, scale)
    decision = RejectionTables(epsilon, scale).admit(view, numerators)
    assert bucket_keys(numerators, view, scale, epsilon.denominator) == decision[:2]
    return impact, active, decision


def test_plus_threshold_is_inclusive():
    # new job (w=1, p=4), eps=1/2: threshold w p / eps = 8; a denser job
    # with residual 8 yields plus = w_new * 8 = 8, an exact tie, which counts
    active = [(job(1, 0, 16, 8), F(8))]  # rho 2
    impact, _, decision = judged(job(9, 0, 1, 4), active, F(1, 2))
    assert impact.plus == 8
    assert decision.plus_key is not None and decision.plus_ordinal == 1 and decision.reject
    # one unit less of denser work falls short
    impact, _, decision = judged(job(9, 0, 1, 4), [(job(1, 0, 16, 8), F(7))], F(1, 2))
    assert impact.plus == 7
    assert decision.plus_key is None and not decision.reject


def test_minus_threshold_is_strict():
    # new job (w=1, p=2), eps=1/2: threshold 4; sparser residual weight 2
    # gives minus = p * 2 = 4, an exact tie, which must NOT qualify
    active = [(job(1, 0, 2, 16), F(16))]  # rho 1/8, class -3
    impact, _, decision = judged(job(9, 0, 1, 2), active, F(1, 2))  # class -1
    assert impact.minus == 4
    assert decision.minus_key is None and decision.minus_ordinal is None
    # one extra sparser unit of weight tips it over
    active.append((job(2, 0, 1, 8), F(1)))  # residual weight 1/8
    impact, _, decision = judged(job(9, 0, 1, 2), active, F(1, 2))
    assert impact.minus == F(17, 4)
    assert decision.minus_key == MinusKey(2, -1, 1) and decision.minus_ordinal == 1
    assert not decision.reject    # the minus cadence waits for the 2nd


active_entries = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 8), st.integers(1, 8)),
    min_size=0, max_size=8)


@given(active_entries, st.integers(1, 12), st.integers(1, 8))
def test_decomposition_and_oracle_equivalence(entries, w, p):
    new = job(0, 0, F(w), p)
    impact, active = impact_of(new, [(job(i + 1, 0, F(wi), pi), F(ri))
                                     for i, (wi, pi, ri) in enumerate(
                                         (w0, p0, min(r0, p0)) for w0, p0, r0 in entries)])
    assert impact.total == impact.plus + impact.self_term + impact.minus
    assert impact.plus >= 0 and impact.minus >= 0
    base = [(oracles.residual_weight(res), res.remaining) for res in active]
    diff = hdf_fractional_flow(base + [(new.weight, F(p))]) - hdf_fractional_flow(base)
    assert impact.total == diff


@given(active_entries, st.integers(1, 12), st.integers(1, 8),
       st.integers(1, 12), st.integers(1, 8))
def test_impact_monotone_in_active_set(entries, w, p, we, pe):
    active = [(job(i + 1, 0, F(wi), pi), F(min(ri, pi)))
              for i, (wi, pi, ri) in enumerate(entries)]
    extra = (job(99, 0, F(we), pe), F(pe))
    new = job(0, 0, F(w), p)
    before = impact_of(new, active)[0].total
    after = impact_of(new, active + [extra])[0].total
    assert after >= before


# -- the one-pass sums against the per-job oracle ----------------------------


@st.composite
def arrival_and_active(draw):
    """An arrival on ``machine`` of two and an active set whose densities
    sit on the arrival's density (the ``>=`` tie), on powers of two and
    just below them (one class apart), or anywhere."""
    machine = draw(st.sampled_from([0, 1]))

    def sized(jid, rho, size):
        sizes = [draw(st.integers(1, 8)), draw(st.integers(1, 8))]
        sizes[machine] = size
        return Job(jid, 0, rho * size, tuple(sizes))

    powers = [F(2) ** k for k in range(-4, 5)]
    rho = draw(st.one_of(st.sampled_from(powers),
                         st.fractions(F(1, 16), F(16), max_denominator=16)))
    arrival = sized(0, rho, draw(st.integers(1, 8)))
    klass = floor_log(rho)
    boundaries = [F(2) ** (klass + d) for d in (-1, 0, 1, 2)]
    special = [rho, 2 * rho, rho / 2] + boundaries + [b * F(63, 64) for b in boundaries]
    active = []
    for jid in range(1, draw(st.integers(0, 8)) + 1):
        other = draw(st.one_of(st.sampled_from(special + powers),
                               st.fractions(F(1, 32), F(32), max_denominator=32)))
        size = draw(st.integers(1, 8))
        remaining = draw(st.integers(1, size))
        if draw(st.booleans()):
            remaining = F(remaining)
        active.append((sized(jid, other, size), remaining))
    return arrival, active, machine


@settings(max_examples=200)
@given(arrival_and_active(), st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(1, 10)]))
def test_one_pass_impact_matches_per_job_oracle(case, eps):
    arrival, entries, machine = case
    impact, active, decision = judged(arrival, entries, eps, machine)
    expected = oracles.arrival_impact(arrival, active, eps, machine)
    assert impact == expected.split
    # the oracle judges the thresholds on its own, and the tables agree
    assert (decision.plus_key is not None, decision.minus_key is not None) \
        == (expected.in_plus, expected.in_minus)


def test_a_density_tie_prices_the_same_in_either_sum():
    # w * rem == p * rho * rem when rho_o == rho_j, so the ">=" that sends a
    # tie to S1 is a convention: no test can tell it from ">"
    new = job(0, 0, 4, 2)  # rho 2
    impact, tied = impact_of(new, [(job(1, 0, 2, 1), 1)])
    assert impact.plus == 4 * 1 == 2 * 2 * 1
    assert impact == oracles.arrival_impact(new, tied, F(1, 4)).split


@given(st.lists(st.one_of(st.none(), st.integers(1, 9)), min_size=1, max_size=4),
       st.fractions(F(1, 8), F(40), max_denominator=8), st.integers(0, 50),
       st.integers(0, 99))
def test_residual_job_caches_its_constant_keys(sizes, weight, release, jid):
    sizes[0] = sizes[0] or 1
    j = Job(jid, release, weight, tuple(sizes))
    for m, size in enumerate(sizes):
        if size is None:
            continue
        scale = density_scale([j])
        res = ResidualJob(j, size, m, Instance((j,), len(sizes)).table[j.id])
        assert type(res.rho) is int and F(res.rho, scale) == j.density(m)
        assert res.density_class == floor_log(j.density(m))
        assert F(res.weight, scale) == j.weight and res.weight_class == floor_log(j.weight)
        res.remaining -= 1
        assert oracles.residual_weight(res) == j.density(m) * (size - 1)


# -- the integer sums: many denominators, long active sets --------------------


@st.composite
def arrival_and_crowd(draw):
    """An arrival and up to 25 active jobs whose weight denominators come
    from {1, 2, 3, 4, 7, 97}, so the density scale has many prime factors
    and each job spans only part of it."""
    def weighted(jid, size):
        weight = F(draw(st.integers(1, 200)), draw(st.sampled_from([1, 2, 3, 4, 7, 97])))
        return Job(jid, 0, weight, (size,))

    arrival = weighted(0, draw(st.integers(1, 20)))
    active = []
    for jid in range(1, draw(st.integers(0, 25)) + 1):
        size = draw(st.integers(1, 20))
        remaining = draw(st.integers(1, size))
        if draw(st.booleans()):
            remaining = F(remaining)
        active.append((weighted(jid, size), remaining))
    return arrival, active


@settings(max_examples=300)
@given(arrival_and_crowd(), st.sampled_from([F(1, 2), F(1, 4), F(1, 10)]))
def test_integer_sums_match_oracle_on_many_denominators(case, eps):
    arrival, entries = case
    impact, active, decision = judged(arrival, entries, eps)
    expected = oracles.arrival_impact(arrival, active, eps)
    assert impact == expected.split
    assert (decision.plus_key is not None, decision.minus_key is not None) \
        == (expected.in_plus, expected.in_minus)


@settings(max_examples=50)
@given(arrival_and_crowd())
def test_impact_reads_only_the_cached_integer_densities(case):
    arrival, entries = case
    expected = oracles.arrival_impact(arrival, impact_of(arrival, entries)[1],
                                      F(1, 10)).split
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.delattr(Job, "density")
        assert impact_of(arrival, entries)[0] == expected
