from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsched import (WorkloadModel, audit_rejections, beta_series,
                       compute_metrics, generate, lp_cost, preemptive_hdf, run, run_multi,
                       transport_opt, verify_duals)
from flowsched.analysis import fractional_flow_plan

from conftest import job, make_instance
from oracles import TooLargeForOracle, greedy_nonpreemptive, lower_bound_check, plan_slots

F = Fraction


def worked_instance():
    return make_instance(
        [job(0, 0, 1, 4), job(1, 1, F(3, 2), 1), job(2, 1, F(3, 2), 1)],
        epsilon=F(1, 2))


def test_uninterrupted_job_fractional_and_integral_flow():
    inst = make_instance([job(0, 0, 1, 2)])
    metrics = compute_metrics(run(inst), inst)
    assert metrics.fractional_flow_plan == 1
    assert metrics.weighted_flow == 2


def test_delayed_start_fractional_flow():
    # released at 0 but run in [2, 4): w (s - r) + w p / 2 = 3
    inst = make_instance([job(0, 0, 3, 2), job(1, 0, 1, 2)])
    trace = run(inst)
    assert plan_slots(trace)[1] == [2, 3]
    by_job = fractional_flow_plan(trace, inst)
    assert by_job == (3 * 1) + (1 * 2 + 1)  # dense job 3, sparse job 2+1


def test_worked_run_metrics():
    inst = worked_instance()
    metrics = compute_metrics(run(inst), inst)
    assert metrics.weighted_flow == F(9, 2)
    assert metrics.departure_objective == F(11, 2)
    assert metrics.fractional_flow_plan == F(13, 2)
    assert metrics.rejected_weight_delayed == 1
    assert metrics.rejected_weight_immediate == 0
    assert metrics.total_weight == 4


def value(cert, numerator):
    """A certificate's alpha or total: a numerator over twice its scale."""
    return F(numerator, 2 * cert.scale)


def test_single_job_certificate():
    inst = make_instance([job(0, 0, 1, 2)])
    trace = run(inst)
    cert = verify_duals(trace, inst)
    assert {jid: value(cert, a) for jid, a in cert.alphas.items()} == {0: F(1)}
    assert tuple(F(b, cert.scale) for b in cert.betas) == (F(1), F(1, 2), F(0))
    assert (value(cert, cert.alpha_total), value(cert, cert.beta_total)) == (F(1), F(3, 2))
    assert cert.feasible
    assert value(cert, cert.objective) == F(-1, 2)
    assert value(cert, cert.objective) <= transport_opt(inst.jobs)


def test_empty_instance_certificate():
    inst = make_instance([])
    trace = run(inst)
    cert = verify_duals(trace, inst)
    assert cert.feasible and cert.objective == 0


def test_worked_run_certificate_and_audit():
    inst = worked_instance()
    trace = run(inst)
    cert = verify_duals(trace, inst)
    assert cert.feasible and not cert.violations
    assert value(cert, cert.objective) <= transport_opt(inst.jobs)
    audit = audit_rejections(trace, inst)
    assert audit.ok
    assert audit.delayed_fraction == F(1, 4)


def test_no_rejection_run_audit_all_zero():
    inst = make_instance([job(0, 0, 1, 2), job(1, 4, 1, 2)])
    audit = audit_rejections(run(inst), inst)
    assert audit.ok
    assert audit.delayed_fraction == 0
    assert audit.immediate_fraction == 0


def test_beta_sampled_after_arrivals():
    inst = worked_instance()
    scale, numerators = beta_series(run(inst), inst)
    assert [F(b, scale) for b in numerators] == \
        [F(1), F(15, 4), F(9, 4), F(3, 4), F(1, 2), F(1, 4), F(0)]


def test_lower_bound_single_job():
    inst = make_instance([job(0, 0, 1, 2)])
    verdict = lower_bound_check(run(inst), inst)
    assert verdict.ok
    assert verdict.immediate_impact_total == 0
    assert verdict.plan_flow == 1
    assert verdict.kept_impact_total == 1


def test_lower_bound_size_guard():
    inst = generate(WorkloadModel(kind="uniform", n=13, seed=0))
    with pytest.raises(TooLargeForOracle):
        lower_bound_check(run(inst), inst)


def test_lower_bound_random_eight_jobs():
    inst = generate(WorkloadModel(kind="uniform", n=8, seed=41, max_release=4,
                                  epsilon=F(1, 4)))
    verdict = lower_bound_check(run(inst), inst)
    assert verdict.holds_oracle_bound and verdict.holds_plan_bound


def suite_instance(seed):
    kind = "uniform" if seed % 2 else "poisson_pareto"
    return generate(WorkloadModel(kind=kind, n=4 + seed % 26, seed=seed,
                                  max_release=2 + seed % 13, max_size=6,
                                  epsilon=[F(1, 2), F(1, 4), F(1, 10)][seed % 3]))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_dual_feasibility_on_random_instances(seed):
    inst = suite_instance(seed)
    cert = verify_duals(run(inst), inst)
    assert cert.feasible, f"violations: {cert.violations[:5]}"


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_rejection_budgets_on_random_instances(seed):
    inst = suite_instance(seed)
    audit = audit_rejections(run(inst), inst)
    assert audit.ok, [c for c in audit.checks if not c.ok]


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_claim_identities_for_completed_jobs(seed):
    inst = suite_instance(seed)
    trace = run(inst)
    by_id = {j.id: j for j in inst.jobs}
    slots = plan_slots(trace)
    for jid, completion in trace.completion_real.items():
        j = by_id[jid]
        p = j.size_on(0)
        start = completion - p
        assert slots[jid] == list(range(start, completion))
        fractional = j.density(0) * sum(F(s - j.release) + F(1, 2)
                                        for s in slots[jid])
        integral = j.weight * (completion - j.release)
        assert fractional == j.weight * (start - j.release) + j.weight * p / 2
        assert integral == j.weight * (start - j.release) + j.weight * p
        assert integral <= 2 * fractional


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_impact_totals_match_decomposition(seed):
    inst = suite_instance(seed)
    trace = run(inst)
    for impact in trace.impacts.values():
        assert impact.total == impact.plus + impact.self_term + impact.minus


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_beta_sum_dominates_continuous_flow(seed):
    inst = suite_instance(seed)
    trace = run(inst)
    scale, numerators = beta_series(trace, inst)
    assert F(sum(numerators), scale) >= fractional_flow_plan(trace, inst)


def test_multi_machine_certificates_and_audit():
    inst = generate(WorkloadModel(kind="uniform", n=24, seed=5, machines=3,
                                  max_release=8, epsilon=F(1, 4)))
    result = run_multi(inst)
    for trace in result.traces:
        assert verify_duals(trace, inst).feasible
    assert audit_rejections(result, inst).ok
    metrics = compute_metrics(result, inst)
    assert metrics.rejected_weight_immediate + metrics.rejected_weight_delayed \
        <= metrics.total_weight


@pytest.mark.parametrize("L", [10, 20, 40])
def test_rejection_separates_from_greedy_on_the_pileup(L):
    # without rejection the long job strands the L unit jobs behind it, so
    # greedy's flow grows like L times the LP bound; the algorithm marks the
    # long job, keeps a constant ratio and stays within its budgets. The LP
    # (preemptive HDF) bounds OPT from below; ALG counts only kept jobs.
    inst = generate(WorkloadModel(kind="adversarial_L", L=L, scale=1, epsilon=F(1, 4)))
    lp = lp_cost(preemptive_hdf(inst.jobs))
    trace = run(inst)
    assert greedy_nonpreemptive(inst.jobs) / lp >= F(L, 2)
    assert compute_metrics(trace, inst).weighted_flow / lp < 1
    assert audit_rejections(trace, inst).ok
