"""The hull-based dual verifier against the pair-by-pair oracle, and the
per-job fractional flow against the per-slot oracle.

No real trace violates its dual constraints, so most cases scale the
recorded alphas to force violations: that is the only way to reach the
rescan that lists a failing job's violating times.

The fast verifier keeps each beta_t as an integer numerator over the
instance's density ``scale``, and each alpha and total over ``2 * scale``;
every comparison with the oracle's Fractions goes through
``Fraction(numerator, scale)`` or ``Fraction(numerator, 2 * scale)``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (WorkloadModel, beta_series, fractional_flow_plan, generate, run,
                       run_multi, verify_duals)
from flowsched.impact import ArrivalImpact
from flowsched.rejection import ImmediateDecision
from flowsched.scheduler import (EVENT_IMMEDIATE_REJECT, EVENT_PLAN_COMPLETE,
                                 EVENT_REAL_COMPLETE, Event, Run, ScheduleTrace)

import oracles
from conftest import job, make_instance, rational_instances, rejecting, seeded_instance

F = Fraction
ALPHA_MODES = ("recorded", "scaled", "scaled_offset")


def with_alphas(trace: ScheduleTrace, alphas: dict[int, Fraction],
                scale: int) -> ScheduleTrace:
    """A copy of ``trace`` whose arrival impacts total ``alphas``, each
    stored as the engine stores it, over ``2 * scale``, all in ``plus``. An
    alpha that this denominator does not clear stays a Fraction numerator:
    the verifier's ceiling step is a floor division, exact on it too."""
    impacts = {jid: ArrivalImpact(alphas[jid] * 2 * scale, 0, 0) for jid in trace.impacts}
    return replace(trace, impacts=impacts)


def perturbed(trace: ScheduleTrace, inst, mode: str, rng: random.Random) -> ScheduleTrace:
    """``scaled``: each alpha times a rational in [1/2, 4];
    ``scaled_offset``: that plus a rational in [-1/2, 1/2]."""
    if mode == "recorded":
        return trace
    alphas = {}
    for jid, impact in trace.impacts.items():
        alpha = F(impact.total, 2 * inst.scale) * F(rng.randint(8, 64), 16)
        if mode == "scaled_offset":
            alpha += F(rng.randint(-4, 4), 8)
        alphas[jid] = alpha
    return with_alphas(trace, alphas, inst.scale)


def exact(scale: int, numerators) -> tuple[Fraction, ...]:
    return tuple(F(b, scale) for b in numerators)


def assert_matches_oracle(trace, inst):
    assert fractional_flow_plan(trace, inst) == oracles.fractional_flow_plan(trace, inst)
    scale, numerators = beta_series(trace, inst)
    assert all(type(b) is int for b in numerators)
    assert exact(scale, numerators) == tuple(oracles.beta_series(trace, inst))
    fast = verify_duals(trace, inst)
    slow = oracles.verify_duals(trace, inst)
    assert len(fast.betas) == trace.horizon() + 1
    assert exact(fast.scale, fast.betas) == slow.betas
    half = 2 * fast.scale
    assert F(fast.alpha_total, half) == sum(slow.alphas.values(), start=F(0))
    assert F(fast.beta_total, half) == sum(slow.betas, start=F(0))
    alphas = {jid: F(alpha, half) for jid, alpha in fast.alphas.items()}
    assert (fast.machine, alphas, fast.feasible, F(fast.objective, half), fast.violations) \
        == (slow.machine, slow.alphas, slow.feasible, slow.objective, slow.violations)
    return fast


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]), st.sampled_from(ALPHA_MODES))
def test_fast_verifier_matches_pair_oracle(seed, machines, mode):
    inst = seeded_instance(seed, machines)
    rng = random.Random(seed)
    for trace in run_multi(inst):
        assert_matches_oracle(perturbed(trace, inst, mode, rng), inst)


@settings(max_examples=60)
@given(rational_instances(), st.sampled_from(ALPHA_MODES), st.integers(0, 10 ** 6))
def test_fast_verifier_matches_pair_oracle_on_rational_weights(case, mode, seed):
    # some job is rejected on arrival in every example, so a scale that
    # misses a rejected job's density denominator fails here
    inst, forced = case
    with rejecting(forced):
        traces = run_multi(inst)
    assert any(trace.immediate_rejected for trace in traces)
    rng = random.Random(seed)
    for trace in traces:
        assert_matches_oracle(perturbed(trace, inst, mode, rng), inst)


def test_fractional_flow_plan_matches_slot_oracle_on_the_pileup():
    inst = generate(WorkloadModel(kind="adversarial_L", L=12, scale=5))
    trace = run(inst)
    assert len(oracles.slots(trace)) > 10 * len(inst.jobs)
    assert fractional_flow_plan(trace, inst) == oracles.fractional_flow_plan(trace, inst)


def test_scaled_alphas_reach_the_rescan():
    violations = {mode: 0 for mode in ALPHA_MODES}
    for seed in range(12):
        inst = seeded_instance(seed, 1 + seed % 2)
        rng = random.Random(seed)
        for trace in run_multi(inst):
            for mode in ALPHA_MODES:
                cert = assert_matches_oracle(perturbed(trace, inst, mode, rng), inst)
                violations[mode] += len(cert.violations)
    assert violations["recorded"] == 0
    assert violations["scaled"] > 0 and violations["scaled_offset"] > 0


# -- hand-built hulls ------------------------------------------------------


def hand_built(alphas, s_size=2):
    """Jobs S (w=1, p=``s_size``) and D (w=4, p=2) at t=0 and E (w=8, p=1)
    at t=1.

    S and E are rejected on arrival, D runs in [0, 2), so beta = (4, 2, 0)
    and H = 2. Over t >= r_j, ``beta_t + rho_j t`` is (4, 5/2, 1) for S
    with p=2, its minimum at t = H; (4, 4, 4) for D, collinear points whose
    hull keeps only the ends; and (10, 16) for E, its minimum at t = r_E.
    """
    inst = make_instance([job(0, 0, 1, s_size), job(1, 0, 4, 2), job(2, 1, 8, 1)])
    trace = run_multi(inst)[0]
    decisions = {jid: ImmediateDecision(None, None, None, None, jid != 1, "-")
                 for jid in (0, 1, 2)}
    events = [Event(0, 0, EVENT_IMMEDIATE_REJECT), Event(1, 2, EVENT_IMMEDIATE_REJECT),
              Event(2, 1, EVENT_PLAN_COMPLETE), Event(2, 1, EVENT_REAL_COMPLETE)]
    built = replace(trace, runs=[Run(0, 2, 1, 1)], events=events,
                    decisions=decisions)
    return with_alphas(built, alphas, inst.scale), inst


def test_hand_built_hull_ties_are_feasible():
    # bounds alpha/p - w/2 + rho r equal each job's minimum exactly
    trace, inst = hand_built({0: F(3), 1: F(12), 2: F(6)})
    cert = assert_matches_oracle(trace, inst)
    assert exact(cert.scale, cert.betas) == (4, 2, 0)
    assert cert.feasible and cert.violations == ()


def test_hand_built_minima_at_horizon_release_and_on_a_line():
    # each bound now sits just above the minimum: S fails only at H, every
    # point of D's line fails, and E fails only at its release
    trace, inst = hand_built({0: F(7, 2), 1: F(12) + F(1, 1000), 2: F(13, 2)})
    cert = assert_matches_oracle(trace, inst)
    assert not cert.feasible
    assert cert.violations == ((0, 2), (1, 0), (1, 1), (1, 2), (2, 1))


def test_scale_spans_jobs_rejected_on_arrival():
    # S (w=1, p=7) is rejected on arrival, and no kept job's density has a
    # 7 in its denominator. Over t >= 0, beta_t + t/7 is (4, 15/7, 2/7), so
    # alpha_S = 11/2 puts S's bound 11/14 - 1/2 exactly on its minimum at H;
    # a scale over kept jobs only would price S's slope wrongly here
    trace, inst = hand_built({0: F(11, 2), 1: F(12), 2: F(6)}, s_size=7)
    cert = assert_matches_oracle(trace, inst)
    assert cert.scale % 7 == 0
    assert cert.feasible
    trace, inst = hand_built({0: F(11, 2) + F(1, 1000), 1: F(12), 2: F(6)}, s_size=7)
    assert assert_matches_oracle(trace, inst).violations == ((0, 2),)
