"""The hull-based dual verifier against the pair-by-pair oracle, and the
per-job fractional flow against the per-slot oracle.

No real trace violates its dual constraints, so most cases scale the
recorded alphas to force violations: that is the only way to reach the
rescan that lists a failing job's violating times.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (WorkloadModel, beta_series, fractional_flow_plan, generate, run,
                       run_multi, verify_duals)
from flowsched.dispatch import each_trace
from flowsched.rejection import ImmediateDecision
from flowsched.scheduler import (EVENT_IMMEDIATE_REJECT, EVENT_PLAN_COMPLETE,
                                 EVENT_REAL_COMPLETE, Event, ScheduleTrace, Slot)

import oracles
from conftest import job, make_instance

F = Fraction
ALPHA_MODES = ("recorded", "scaled", "scaled_offset")


def with_alphas(trace: ScheduleTrace, alphas: dict[int, Fraction]) -> ScheduleTrace:
    """A copy of ``trace`` whose arrival impacts total ``alphas``."""
    impacts = {jid: replace(impact, total=alphas[jid])
               for jid, impact in trace.impacts.items()}
    return replace(trace, impacts=impacts)


def perturbed(trace: ScheduleTrace, mode: str, rng: random.Random) -> ScheduleTrace:
    """``scaled``: each alpha times a rational in [1/2, 4];
    ``scaled_offset``: that plus a rational in [-1/2, 1/2]."""
    if mode == "recorded":
        return trace
    alphas = {}
    for jid, impact in trace.impacts.items():
        alpha = impact.total * F(rng.randint(8, 64), 16)
        if mode == "scaled_offset":
            alpha += F(rng.randint(-4, 4), 8)
        alphas[jid] = alpha
    return with_alphas(trace, alphas)


def seeded_instance(seed: int, machines: int):
    kind = "uniform" if seed % 2 else "poisson_pareto"
    return generate(WorkloadModel(
        kind=kind, n=4 + seed % 30, seed=seed, max_release=2 + seed % 13,
        max_size=6, rate=0.7 * machines, size_cap=12, machines=machines,
        epsilon=(F(1, 2), F(1, 4), F(1, 10))[seed % 3]))


def assert_matches_oracle(trace, inst, speedup=F(0)):
    assert fractional_flow_plan(trace, inst) == oracles.fractional_flow_plan(trace, inst)
    assert beta_series(trace, inst) == oracles.beta_series(trace, inst)
    fast = verify_duals(trace, inst, speedup)
    assert fast == oracles.verify_duals(trace, inst, speedup)
    return fast


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]),
       st.sampled_from(ALPHA_MODES), st.sampled_from([F(0), F(1, 4)]))
def test_fast_verifier_matches_pair_oracle(seed, machines, mode, speedup):
    inst = seeded_instance(seed, machines)
    rng = random.Random(seed)
    for trace in each_trace(run_multi(inst)):
        assert_matches_oracle(perturbed(trace, mode, rng), inst, speedup)


def test_verifier_rejects_a_negative_speedup():
    # sum alpha - (1 + s) sum beta would grow as s falls below 0
    inst = make_instance([job(0, 0, 1, 2), job(1, 1, F(3, 2), 1)])
    with pytest.raises(ValueError):
        verify_duals(run(inst), inst, F(-1))


def test_fractional_flow_plan_matches_slot_oracle_on_the_pileup():
    inst = generate(WorkloadModel(kind="adversarial_L", L=12, scale=5))
    trace = run(inst)
    assert len(trace.slots) > 10 * len(inst.jobs)
    assert fractional_flow_plan(trace, inst) == oracles.fractional_flow_plan(trace, inst)


def test_scaled_alphas_reach_the_rescan():
    violations = {mode: 0 for mode in ALPHA_MODES}
    for seed in range(12):
        inst = seeded_instance(seed, 1 + seed % 2)
        rng = random.Random(seed)
        for trace in each_trace(run_multi(inst)):
            for mode in ALPHA_MODES:
                cert = assert_matches_oracle(perturbed(trace, mode, rng), inst)
                violations[mode] += len(cert.violations)
    assert violations["recorded"] == 0
    assert violations["scaled"] > 0 and violations["scaled_offset"] > 0


# -- hand-built hulls ------------------------------------------------------


def hand_built(alphas):
    """Jobs S (w=1, p=2) and D (w=4, p=2) at t=0 and E (w=8, p=1) at t=1.

    S and E are rejected on arrival, D runs in [0, 2), so beta = (4, 2, 0)
    and H = 2. Over t >= r_j, ``beta_t + rho_j t`` is (4, 5/2, 1) for S,
    its minimum at t = H; (4, 4, 4) for D, collinear points whose hull
    keeps only the ends; and (10, 16) for E, its minimum at t = r_E.
    """
    inst = make_instance([job(0, 0, 1, 2), job(1, 0, 4, 2), job(2, 1, 8, 1)])
    trace = run_multi(inst).traces[0]
    decisions = {jid: ImmediateDecision(jid, None, None, None, None, jid != 1, "-")
                 for jid in (0, 1, 2)}
    events = [Event(0, 0, EVENT_IMMEDIATE_REJECT), Event(1, 2, EVENT_IMMEDIATE_REJECT),
              Event(2, 1, EVENT_PLAN_COMPLETE), Event(2, 1, EVENT_REAL_COMPLETE)]
    built = replace(trace, slots=[Slot(0, 1, 1), Slot(1, 1, 1)], events=events,
                    decisions=decisions)
    return with_alphas(built, alphas), inst


def test_hand_built_hull_ties_are_feasible():
    # bounds alpha/p - w/2 + rho r equal each job's minimum exactly
    trace, inst = hand_built({0: F(3), 1: F(12), 2: F(6)})
    cert = assert_matches_oracle(trace, inst)
    assert cert.betas == (4, 2, 0)
    assert cert.feasible and cert.violations == ()


def test_hand_built_minima_at_horizon_release_and_on_a_line():
    # each bound now sits just above the minimum: S fails only at H, every
    # point of D's line fails, and E fails only at its release
    trace, inst = hand_built({0: F(7, 2), 1: F(12) + F(1, 1000), 2: F(13, 2)})
    cert = assert_matches_oracle(trace, inst)
    assert not cert.feasible
    assert cert.violations == ((0, 2), (1, 0), (1, 1), (1, 2), (2, 1))
