"""Weighted quantities stay integers until ``cli`` prints them.

Impacts, dispatch scores, bucket weights, budgets and the certificate's
alphas and totals are integer numerators over a fixed multiple of the
instance's density scale. Here each must equal its Fraction oracle in
``oracles``, on the seeded suite and on rational-weight instances. The
runs and the verifiers must build no ``Fraction`` beyond the few totals
they return, and the bucket report is built only when ``audit`` reads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings

from flowsched import (RejectionTables, WorkloadModel, audit_rejections, generate, run,
                       run_multi, serialize_trace, verify_duals)
from flowsched.cli import main

import oracles
from conftest import rational_instances, rejecting, seeded_instance

F = Fraction


def assert_records_match_oracles(inst):
    fast, slow = run_multi(inst), oracles.slot_run_multi(inst)
    # impacts (in full: total, plus, minus, self_term) and dispatch scores
    # come from the Fraction arrival_impact in the per-slot engine
    assert oracles.dispatched(fast, inst) == slow.decisions
    for fast_trace, slow_trace in zip(fast, slow.traces):
        assert fast_trace.impacts == slow_trace.impacts
        assert fast_trace.table_report == oracles.bucket_report(fast_trace, inst)
        cert, pairs = verify_duals(fast_trace, inst), oracles.verify_duals(fast_trace, inst)
        half = 2 * cert.scale
        assert {jid: F(alpha, half) for jid, alpha in cert.alphas.items()} == pairs.alphas
        assert F(cert.alpha_total, half) == sum(pairs.alphas.values(), start=F(0))
        assert F(cert.beta_total, half) == sum(pairs.betas, start=F(0))
        assert F(cert.objective, half) == pairs.objective
        assert all(type(alpha) is int for alpha in cert.alphas.values())
    audit = audit_rejections(fast, inst)
    assert audit == oracles.audit_rejections(fast, inst)
    assert all(type(n) is int for check in audit.checks for n in (check.value, check.bound))


def test_integer_records_match_oracles_on_the_suite(suite):
    for _, inst in suite:
        assert_records_match_oracles(inst)
    for seed in range(12):
        assert_records_match_oracles(seeded_instance(seed, 4))


@settings(max_examples=60, derandomize=True)
@given(rational_instances())
def test_integer_records_match_oracles_on_rational_weights(case):
    inst, forced = case
    with rejecting(forced):
        assert_records_match_oracles(inst)


def test_suite_rejects_in_both_tables(suite):
    # the suite exercises every budget: both tables reject somewhere
    tables = {bucket.table for _, inst in suite for bucket in run(inst).table_report
              if bucket.rejected_ordinals}
    assert tables == {"plus", "minus"}


# -- no Fraction on the per-arrival path -------------------------------------------


@contextmanager
def counting_fractions():
    """Count every ``Fraction`` built inside the block, in a one-item list."""
    original = vars(Fraction)["__new__"]
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield count
    finally:
        Fraction.__new__ = original


@pytest.mark.parametrize("machines", [1, 4])
def test_runs_and_verifiers_build_no_fractions(machines):
    # an overloaded seeded instance, so arrivals are rejected and runs marked
    inst = generate(WorkloadModel(kind="poisson_pareto", n=120, seed=700 + machines,
                                  rate=0.7 * machines, shape=1.6, size_cap=20,
                                  machines=machines))
    for drive in [run, run_multi] if machines == 1 else [run_multi]:
        with counting_fractions() as built:
            traces = drive(inst)
        assert built == [0], drive.__name__
    assert any(trace.immediate_rejected for trace in traces)
    assert any(trace.promoted_at for trace in traces)
    for trace in traces:
        with counting_fractions() as built:
            verify_duals(trace, inst)
        assert built == [0]
    with counting_fractions() as built:
        audit_rejections(traces, inst)
    assert built == [2]  # the delayed and immediate fractions it returns


def test_counting_sees_every_fraction_and_only_inside():
    with counting_fractions() as built:
        F(1, 3) + F(1, 6)    # two operands and their sum
    assert built == [3]
    F(2, 4)
    assert built == [3] and "__new__" in vars(Fraction)


# -- the bucket report is built for audit only --------------------------------------


@pytest.mark.parametrize("machines", [1, 4])
def test_bucket_report_is_built_only_by_audit(monkeypatch, tmp_path, machines):
    inst = generate(WorkloadModel(kind="poisson_pareto", n=60, seed=3, rate=0.7 * machines,
                                  shape=1.6, size_cap=20, machines=machines))
    trace = tmp_path / "trace.txt"
    serialize_trace(inst, trace)
    audit = RejectionTables.audit
    calls = []

    def counted(tables):
        calls.append(tables)
        return audit(tables)
    monkeypatch.setattr(RejectionTables, "audit", counted)
    for command, expected in (("simulate", 0), ("verify", 0), ("audit", machines)):
        calls.clear()
        assert main([command, "--trace", str(trace), "--out",
                     str(tmp_path / command)]) in (0, 1)
        assert len(calls) == expected, command
        assert len(set(map(id, calls))) == expected
