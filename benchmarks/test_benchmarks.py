"""Tests of the benchmark's checker and tracer, on small workloads.

Run from the repository root: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = {w.name: w for w in (
    Workload("small_m1", dict(kind="poisson_pareto", n=80, rate=0.7, shape=1.6,
                              size_cap=20, machines=1),
             2, ("simulate", "verify", "audit"), "overload_m1, smaller"),
    Workload("small_m4", dict(kind="poisson_pareto", n=120, rate=1.2, shape=1.6,
                              size_cap=20, machines=4),
             2, ("simulate", "audit"), "light_m4, smaller"),
    Workload("small_pileup", dict(kind="adversarial_L", L=6, scale=2, machines=1),
             1, ("simulate", "audit"), "pileup_m1, smaller"),
    Workload("small_baseline", dict(kind="poisson_pareto", n=25, rate=0.3, shape=1.6,
                                    size_cap=20, machines=1),
             2, ("simulate", "baseline", "report"), "baseline_m1, smaller"),
)}

# every per-layer metric the traced run reports, by layer
LAYER_METRICS = {
    "harness.generate_s", "harness.format_trace_s", "harness.parse_trace_s",
    "core.density_calls",
    "impact.arrival_impact_s", "impact.calls", "impact.active_scanned",
    "rejection.admit_s", "rejection.admit_calls", "rejection.audit_s",
    "rejection.buckets_plus", "rejection.buckets_minus", "rejection.reject_plus_first",
    "rejection.reject_plus_cadence", "rejection.reject_minus_cadence",
    "scheduler.run_s", "scheduler.on_arrival_s", "scheduler.promote_check_s",
    "scheduler.promotions", "scheduler.select_slot_s", "scheduler.select_slot_calls",
    "scheduler.slots", "scheduler.skip_to_calls", "scheduler.peak_active",
    "scheduler.finish_trace_s",
    "dispatch.run_multi_s", "dispatch.dispatch_s", "dispatch.calls", "dispatch.impact_calls",
    "analysis.compute_metrics_s", "analysis.fractional_flow_plan_s",
    "analysis.beta_series_s", "analysis.verify_duals_s", "analysis.audit_rejections_s",
    "analysis.horizon", "analysis.dual_pairs", "analysis.violations",
    "baselines.default_horizon_s", "baselines.transport_opt_s",
    "baselines.network_simplex_s", "baselines.lp_arcs", "baselines.preemptive_hdf_s",
    "baselines.lp_cost_s",
    "cli.simulate.self_s", "cli.verify.self_s", "cli.audit.self_s", "cli.baseline.self_s",
    "cli.records", "cli.out_bytes",
    "trace.overhead_ratio",
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def make_pipeline(tmp_path, name, seed=7, digests=None):
    workload = SMALL[name]
    _, instances = run.set_up(workload, seed, tmp_path)
    return run.Pipeline(workload, instances, tmp_path, digests)


def tamper(pipeline, command, edit):
    """Make ``command`` rewrite its output on instance 0 with ``edit``."""
    real_main = pipeline.cli.main

    def main(argv):
        rc = real_main(argv)
        out = pipeline.out(command, 0)
        if argv[-1] == str(out):
            out.write_text(edit(out.read_text(encoding="ascii")), encoding="ascii")
        return rc

    pipeline.cli = SimpleNamespace(main=main)


def replace_first(record, old, new):
    def edit(text):
        lines = text.splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines)
                     if line.startswith(record + " ") and old in line)
        lines[index] = lines[index].replace(old, new, 1)
        return "".join(lines)
    return edit


def simulate_digests(tmp_path, name, seed=7):
    pipeline = make_pipeline(tmp_path, name, seed)
    pipeline.run_once()
    return [check.sha256(pipeline.out("simulate", k)) for k in range(len(pipeline.instances))]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untouched_outputs_pass_every_check(tmp_path, name):
    pipeline = make_pipeline(tmp_path, name)
    pipeline.run_once()
    pipeline.run_once()
    workload = SMALL[name]
    assert pipeline.attempted == 2 * workload.instances * len(workload.commands)
    assert pipeline.failed == 0
    assert pipeline.work_counts()["jobs"] == workload.instances * len(pipeline.instances[0].jobs)


@pytest.mark.parametrize("recorded", [True, False])
def test_altered_slot_line_is_a_failed_operation(tmp_path, recorded):
    digests = simulate_digests(tmp_path, "small_m1") if recorded else None
    pipeline = make_pipeline(tmp_path, "small_m1", digests=digests)
    tamper(pipeline, "simulate", replace_first("slot", "idled=0", "idled=1"))
    pipeline.run_once()
    assert (pipeline.attempted, pipeline.failed) == (6, 1)


def test_altered_budget_ok_is_a_failed_operation(tmp_path):
    pipeline = make_pipeline(tmp_path, "small_m1")
    tamper(pipeline, "audit", replace_first("budget", "ok=1", "ok=0"))
    pipeline.run_once()
    assert (pipeline.attempted, pipeline.failed) == (6, 1)


def test_unrecorded_seed_skips_only_the_digest(tmp_path):
    # an impact value is covered by the digest alone
    digests = simulate_digests(tmp_path, "small_m4", seed=123)
    edit = replace_first("impact", "total=", "total=1")
    recorded = make_pipeline(tmp_path, "small_m4", seed=123, digests=digests)
    tamper(recorded, "simulate", edit)
    recorded.run_once()
    assert recorded.failed == 1
    unrecorded = make_pipeline(tmp_path, "small_m4", seed=123)
    tamper(unrecorded, "simulate", edit)
    unrecorded.run_once()
    assert unrecorded.failed == 0
    # a reported metric is still re-derived without a digest
    rederived = make_pipeline(tmp_path, "small_m4", seed=123)
    tamper(rederived, "simulate", replace_first("metric", "value=", "value=1"))
    rederived.run_once()
    assert rederived.failed == 1


def test_wrong_report_ratio_and_baseline_are_failed_operations(tmp_path):
    pipeline = make_pipeline(tmp_path, "small_baseline")
    tamper(pipeline, "report", replace_first("report", "ratio=", "ratio=2"))
    pipeline.run_once()
    assert pipeline.failed == 1
    pipeline = make_pipeline(tmp_path, "small_baseline")
    tamper(pipeline, "baseline", replace_first("baseline", "hdf_cost=", "hdf_cost=1"))
    pipeline.run_once()
    assert pipeline.failed == 1


def test_digests_are_recorded_for_the_default_and_held_out_seed():
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    assert {name: {seed: len(shas) for seed, shas in seeds.items()}
            for name, seeds in digests.items()} == \
        {name: {"7": w.instances, "8": w.instances} for name, w in WORKLOADS.items()}


def test_traced_run_emits_every_layer_metric(tmp_path):
    emitted = {}
    for name, workload in SMALL.items():
        pipeline = make_pipeline(tmp_path, name)
        tracer = Tracer()
        setup_layers = run.traced_set_up(tracer, workload, 7, tmp_path)
        untraced, traced = run.measure(pipeline, 0, tracer)
        untraced2, traced2 = run.measure(pipeline, 0, tracer)
        values, steady = run.per_layer(setup_layers, untraced + untraced2, traced + traced2)
        assert steady, f"{name}: counts differ between traced repetitions"
        assert pipeline.failed == 0
        assert set(values) == LAYER_METRICS
        for key, value in values.items():
            emitted[key] = emitted.get(key, 0) + value
    # each layer is reached on some workload; no check fails on these inputs
    assert {k for k, v in emitted.items() if not v} == {"analysis.violations"}
    assert {m["name"] for m in SPEC["per_layer"]} <= LAYER_METRICS


def test_tracer_restores_every_attribute(tmp_path):
    pipeline = make_pipeline(tmp_path, "small_m1")
    import flowsched.cli
    import flowsched.core
    before = (flowsched.cli.run, flowsched.core.Job.density, flowsched.baselines.nx.network_simplex)
    run.measure(pipeline, 0, Tracer())
    after = (flowsched.cli.run, flowsched.core.Job.density, flowsched.baselines.nx.network_simplex)
    assert before == after


def test_speed_probe_stops_its_timer_and_restores_the_handler(tmp_path):
    pipeline = make_pipeline(tmp_path, "small_pileup")
    pipeline.run_once()
    assert pipeline.probe.samples
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_exits_nonzero_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "overload_m1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
