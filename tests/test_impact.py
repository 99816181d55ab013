from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import Job, ResidualJob, arrival_impact, floor_log
from flowsched.core import floor_log_ratio
from flowsched.impact import JobInActiveSet, NonPositiveArgument

import oracles
from conftest import job

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


def test_floor_log_ratio_rejects_nonpositive():
    with pytest.raises(NonPositiveArgument):
        floor_log_ratio(0, 3)


def test_density_class_examples():
    for j, klass in ((job(0, 0, 6, 3), 1), (job(0, 0, 1, 4), -2), (job(0, 0, 3, 3), 0)):
        assert ResidualJob(j, j.size_on(0)).density_class == klass
        assert arrival_impact(j, [], F(1, 2)).density_class == klass


def test_empty_active_only_self_term():
    impact = arrival_impact(job(0, 0, 2, 4), [], F(1, 2))
    assert (impact.plus, impact.minus, impact.total) == (0, 0, 4)
    assert impact.self_term == 4


def test_denser_active_job_contributes_to_plus():
    active = [ResidualJob(job(1, 0, 6, 3), F(3))]
    impact = arrival_impact(job(9, 0, 2, 4), active, F(1, 2))
    assert (impact.plus, impact.minus, impact.total) == (6, 0, 10)
    # oracle cross-check: HDF difference with and without the arrival
    with_job = hdf_fractional_flow([(6, 3), (2, 4)])
    without = hdf_fractional_flow([(6, 3)])
    assert with_job - without == impact.total


def test_sparser_active_job_contributes_to_minus():
    active = [ResidualJob(job(1, 0, 1, 2), F(2))]
    impact = arrival_impact(job(9, 0, 4, 2), active, F(1, 2))
    assert (impact.plus, impact.minus, impact.total) == (0, 2, 6)
    with_job = hdf_fractional_flow([(1, 2), (4, 2)])
    without = hdf_fractional_flow([(1, 2)])
    assert with_job - without == impact.total


def test_same_class_lower_density_goes_to_plus_delay_branch():
    # class 0 both, but the active job is strictly less dense
    active = [ResidualJob(job(1, 0, 5, 4), F(4))]  # rho 5/4
    impact = arrival_impact(job(9, 0, 3, 2), active, F(1, 2))  # rho 3/2
    assert impact.plus == 2 * 5  # p_new * residual weight
    assert impact.minus == 0


def test_rejects_job_already_active():
    active = [ResidualJob(job(7, 0, 1, 2), F(2))]
    with pytest.raises(JobInActiveSet):
        arrival_impact(job(7, 0, 1, 2), active, F(1, 2))


def test_plus_threshold_is_inclusive():
    # new job (w=1, p=4), eps=1/2: threshold w p / eps = 8; a denser job
    # with residual 8 yields plus = w_new * 8 = 8, an exact tie, which counts
    active = [ResidualJob(job(1, 0, 16, 8), F(8))]  # rho 2
    impact = arrival_impact(job(9, 0, 1, 4), active, F(1, 2))
    assert impact.plus == 8
    assert impact.in_plus


def test_minus_threshold_is_strict():
    # new job (w=1, p=2), eps=1/2: threshold 4; sparser residual weight 2
    # gives minus = p * 2 = 4, an exact tie, which must NOT qualify
    active = [ResidualJob(job(1, 0, 2, 16), F(16))]  # rho 1/8, class -3
    impact = arrival_impact(job(9, 0, 1, 2), active, F(1, 2))  # class -1
    assert impact.minus == 4
    assert not impact.in_minus
    # one extra sparser unit of weight tips it over
    active.append(ResidualJob(job(2, 0, 1, 8), F(1)))  # residual weight 1/8
    impact = arrival_impact(job(9, 0, 1, 2), active, F(1, 2))
    assert impact.minus == F(17, 4)
    assert impact.in_minus


active_entries = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 8), st.integers(1, 8)),
    min_size=0, max_size=8)


@given(active_entries, st.integers(1, 12), st.integers(1, 8),
       st.sampled_from([F(1, 2), F(1, 3), F(1, 4)]))
def test_decomposition_and_oracle_equivalence(entries, w, p, eps):
    active = [ResidualJob(job(i + 1, 0, F(wi), pi), F(ri), 0)
              for i, (wi, pi, ri) in enumerate((w0, p0, min(r0, p0))
                                               for w0, p0, r0 in entries)]
    new = job(0, 0, F(w), p)
    impact = arrival_impact(new, active, eps)
    assert impact.total == impact.plus + impact.self_term + impact.minus
    assert impact.plus >= 0 and impact.minus >= 0
    base = [(res.residual_weight, res.remaining) for res in active]
    diff = hdf_fractional_flow(base + [(new.weight, F(p))]) - hdf_fractional_flow(base)
    assert impact.total == diff


@given(active_entries, st.integers(1, 12), st.integers(1, 8),
       st.integers(1, 12), st.integers(1, 8))
def test_impact_monotone_in_active_set(entries, w, p, we, pe):
    active = [ResidualJob(job(i + 1, 0, F(wi), pi), F(min(ri, pi)), 0)
              for i, (wi, pi, ri) in enumerate(entries)]
    extra = ResidualJob(job(99, 0, F(we), pe), F(pe), 0)
    new = job(0, 0, F(w), p)
    before = arrival_impact(new, active, F(1, 2)).total
    after = arrival_impact(new, active + [extra], F(1, 2)).total
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
        active.append(ResidualJob(sized(jid, other, size), remaining, machine))
    return arrival, active, machine


@settings(max_examples=200)
@given(arrival_and_active(), st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(1, 10)]))
def test_one_pass_impact_matches_per_job_oracle(case, eps):
    arrival, active, machine = case
    assert arrival_impact(arrival, active, eps, machine) == \
        oracles.arrival_impact(arrival, active, eps, machine)


def test_a_density_tie_prices_the_same_in_either_sum():
    # w * rem == p * rho * rem when rho_o == rho_j, so the ">=" that sends a
    # tie to S1 is a convention: no test can tell it from ">"
    new = job(0, 0, 4, 2)  # rho 2
    tied = [ResidualJob(job(1, 0, 2, 1), 1)]
    assert arrival_impact(new, tied, F(1, 4)).plus == 4 * 1 == 2 * 2 * 1
    assert arrival_impact(new, tied, F(1, 4)) == oracles.arrival_impact(new, tied, F(1, 4))


@given(st.lists(st.one_of(st.none(), st.integers(1, 9)), min_size=1, max_size=4),
       st.fractions(F(1, 8), F(40), max_denominator=8), st.integers(0, 50),
       st.integers(0, 99))
def test_residual_job_caches_its_constant_keys(sizes, weight, release, jid):
    sizes[0] = sizes[0] or 1
    j = Job(jid, release, weight, tuple(sizes))
    for m, size in enumerate(sizes):
        if size is None:
            continue
        res = ResidualJob(j, size, m)
        assert res.density == j.density(m)
        assert (res.num, res.den) == j.density(m).as_integer_ratio()
        assert res.density_class == floor_log(j.density(m))
        assert res.key == (-j.density(m), j.release, j.id)
        res.remaining -= 1
        assert res.residual_weight == j.density(m) * (size - 1)


# -- the integer sums: many denominators, long active sets --------------------


@st.composite
def arrival_and_crowd(draw):
    """An arrival and up to 25 active jobs whose weight denominators come
    from {1, 2, 3, 4, 7, 97}, so the running common denominator of S2 and
    S3 grows several times within one call."""
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
        active.append(ResidualJob(weighted(jid, size), remaining))
    return arrival, active


@settings(max_examples=300)
@given(arrival_and_crowd(), st.sampled_from([F(1, 2), F(1, 4), F(1, 10)]))
def test_integer_sums_match_oracle_on_many_denominators(case, eps):
    arrival, active = case
    assert arrival_impact(arrival, active, eps) == oracles.arrival_impact(arrival, active, eps)


@settings(max_examples=50)
@given(arrival_and_crowd())
def test_impact_reads_only_the_cached_integer_densities(case):
    arrival, active = case
    expected = oracles.arrival_impact(arrival, active, F(1, 10))
    for res in active:
        res.density = None
    assert arrival_impact(arrival, active, F(1, 10)) == expected
