from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flowsched
from flowsched import (Instance, InvalidInstance, Job, JobNotRunnableOnMachine,
                       ResidualJob, validate_instance)
from flowsched.core import (DuplicateJobId, EpsilonTooLarge, MachineCountMismatch,
                            NonIntegralEpsilonReciprocal, NonPositiveSizeOrWeight)

from conftest import job, make_instance


def test_accepts_simple_instance():
    inst = validate_instance(make_instance([job(0, 0, 1, 2)], epsilon=Fraction(1, 3)))
    assert inst.epsilon == Fraction(1, 3)
    assert inst.jobs[0].weight == 1


def test_epsilon_reciprocal_must_be_integral():
    with pytest.raises(NonIntegralEpsilonReciprocal):
        validate_instance(make_instance([job(0, 0, 1, 2)], epsilon=Fraction(2, 5)))


def test_epsilon_one_is_too_large():
    with pytest.raises(EpsilonTooLarge):
        validate_instance(make_instance([job(0, 0, 1, 2)], epsilon=Fraction(1, 1)))


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateJobId):
        validate_instance(make_instance([job(3, 0, 1, 2), job(3, 1, 1, 2)]))


def test_nonpositive_weight_and_size():
    with pytest.raises(NonPositiveSizeOrWeight):
        validate_instance(make_instance([job(0, 0, 0, 2)]))
    with pytest.raises(NonPositiveSizeOrWeight):
        validate_instance(make_instance([job(0, 0, 1, 0)]))
    with pytest.raises(NonPositiveSizeOrWeight):
        validate_instance(make_instance([Job(0, 0, Fraction(1), (None,))]))


def test_sizes_must_match_machine_count():
    with pytest.raises(MachineCountMismatch):
        validate_instance(Instance((Job(0, 0, Fraction(1), (1, 2)),), machines=1))


def test_missing_size_allowed_only_with_an_alternative():
    inst = validate_instance(
        Instance((Job(0, 0, Fraction(1), (None, 3)),), machines=2))
    assert not inst.jobs[0].runnable_on(0)
    assert inst.jobs[0].size_on(1) == 3
    with pytest.raises(JobNotRunnableOnMachine):
        inst.jobs[0].size_on(0)


def test_jobs_resorted_stably_by_release():
    inst = validate_instance(make_instance(
        [job(0, 5, 1, 1), job(1, 2, 1, 1), job(2, 5, 1, 1)]))
    assert [j.id for j in inst.jobs] == [1, 0, 2]


def test_negative_release_rejected():
    with pytest.raises(InvalidInstance):
        validate_instance(make_instance([job(0, -1, 1, 2)]))


def test_density_and_residual_weight():
    j = job(0, 0, Fraction(6), 3)
    assert j.density() == 2
    res = ResidualJob(j, Fraction(2))
    assert res.residual_weight == 4  # density stays 2 as remaining shrinks


rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=64)


@given(rationals, rationals)
def test_rational_addition_matches_cross_multiplication(a, b):
    s = a + b
    lhs = s.numerator * a.denominator * b.denominator
    rhs = (a.numerator * b.denominator + b.numerator * a.denominator) * s.denominator
    assert lhs == rhs


@given(rationals)
def test_rational_stored_in_lowest_terms(a):
    import math
    assert a.denominator > 0
    assert math.gcd(a.numerator, a.denominator) == 1
    assert Fraction(a.numerator, a.denominator) == a


def test_every_exported_name_exists():
    assert [name for name in flowsched.__all__ if not hasattr(flowsched, name)] == []
