"""``compute_metrics``, which sums integer numerators over one ``scale``,
against the oracle that sums every metric job by job in Fractions.

``scale`` is the instance's density scale, so it must span jobs
rejected on arrival too: ``rational_instances`` forces such a rejection
in every example, with weight denominators the generator never makes.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import Instance, compute_metrics, run, run_multi, validate_instance

import oracles
from conftest import job, make_instance, rational_instances, rejecting, seeded_instance


def one_machine(inst: Instance) -> Instance:
    """The instance on one machine, each job at its first listed size."""
    jobs = tuple(replace(j, sizes=(next(s for s in j.sizes if s is not None),))
                 for j in inst.jobs)
    return validate_instance(Instance(jobs, 1, inst.epsilon))


def assert_metrics_match(traces, inst):
    fast = compute_metrics(traces, inst)
    assert fast == oracles.compute_metrics(traces, inst)
    assert all(type(value) is Fraction for value in astuple(fast))
    return fast


def assert_run_and_run_multi_match(inst):
    assert_metrics_match(run_multi(inst), inst)
    single = one_machine(inst)
    assert_metrics_match([run(single)], single)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
def test_metrics_match_oracle_on_seeded_instances(seed, machines):
    assert_run_and_run_multi_match(seeded_instance(seed, machines))


@settings(max_examples=60)
@given(rational_instances())
def test_metrics_match_oracle_on_rational_weights(case):
    inst, forced = case
    with rejecting(forced):
        multi = run_multi(inst)
        single = one_machine(inst)
        trace = run(single)
    assert any(t.immediate_rejected for t in multi)
    assert trace.immediate_rejected
    assert_metrics_match(multi, inst)
    assert_metrics_match([trace], single)


def test_seeded_instances_cover_empty_and_nonempty_rejections():
    seen = set()
    for machines in (1, 2, 4):
        for seed in range(40):
            inst = seeded_instance(seed, machines)
            traces = run_multi(inst)
            assert_metrics_match(traces, inst)
            seen.add(("immediate", any(t.immediate_rejected for t in traces)))
            seen.add(("delayed", any(t.promoted_at for t in traces)))
    assert seen == {(kind, flag) for kind in ("immediate", "delayed")
                    for flag in (False, True)}


def test_metrics_with_nothing_rejected():
    inst = make_instance([job(0, 0, Fraction(2, 3), 2), job(1, 1, Fraction(1, 7), 3)])
    trace = run(inst)
    assert not trace.immediate_rejected and not trace.promoted_at
    metrics = assert_metrics_match([trace], inst)
    assert metrics.rejected_weight_immediate == metrics.rejected_weight_delayed == 0
    assert metrics.total_weight == Fraction(17, 21)


def test_metrics_of_an_empty_instance():
    inst = validate_instance(make_instance([]))
    assert astuple(assert_metrics_match([run(inst)], inst)) == (0,) * 6
