"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``flowsched`` module by
replacing the module or class attribute that callers look the name up on,
and restores every attribute afterwards; no file of the program changes.
Spans are aggregated in memory per (name, parent): a span per call of
``select_slot`` would be far too many. Self time is a span's time minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}  # [calls, total, child]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []                          # [name, child time]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    # -- reading ---------------------------------------------------------------

    def _sum(self, name: str, index: int, parent=...) -> float:
        return sum((rec[index] for (n, p), rec in self.spans.items()
                    if n == name and parent in (..., p)), 0 if index == 0 else 0.0)

    def calls(self, name: str, parent=...) -> int:
        return self._sum(name, 0, parent)

    def total(self, name: str) -> float:
        return self._sum(name, 1)

    def self_time(self, name: str) -> float:
        return self.total(name) - self._sum(name, 2)

    # -- patching --------------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self._timed(name, getattr(owner, attr), after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced name in the currently imported ``flowsched``."""
        mod = {name: importlib.import_module(f"flowsched.{name}") for name in (
            "analysis", "baselines", "cli", "core", "dispatch", "harness",
            "rejection", "scheduler")}
        cli, sched = mod["cli"], mod["scheduler"].MachineScheduler
        add, peak = self.add, self.peak

        self.timed(importlib.import_module("flowsched"), "generate", "harness.generate")
        self.timed(mod["harness"], "format_trace", "harness.format_trace")
        self.timed(cli, "parse_trace", "harness.parse_trace")

        density = mod["core"].Job.density

        def counted_density(job, machine=0):
            add("core.density_calls", 1)
            return density(job, machine)
        self._patch(mod["core"].Job, "density", counted_density)

        def scanned(result, job, active, *rest):
            add("impact.active_scanned", len(active))
        for owner in (mod["scheduler"], mod["dispatch"]):
            self.timed(owner, "arrival_impact", "impact.arrival_impact", scanned)

        def decided(result, *args):
            if result.reject:
                add(f"rejection.reject_{result.reason}", 1)
        tables = mod["rejection"].RejectionTables
        self.timed(tables, "admit", "rejection.admit", decided)

        def buckets(report, *args):
            for bucket in report:
                add(f"rejection.buckets_{bucket.table}", 1)
        self.timed(tables, "audit", "rejection.audit", buckets)

        self.timed(cli, "run", "scheduler.run")
        self.timed(sched, "on_arrival", "scheduler.on_arrival",
                   lambda result, s, job: peak("scheduler.peak_active", len(s.active)))
        self.timed(sched, "promote_check", "scheduler.promote_check",
                   lambda result, s: add("scheduler.promotions", result is not None))
        self.timed(sched, "select_slot", "scheduler.select_slot",
                   lambda result, s: add("scheduler.slots", result is not None))
        self.timed(sched, "skip_to", "scheduler.skip_to")
        self.timed(sched, "finish_trace", "scheduler.finish_trace")

        self.timed(cli, "run_multi", "dispatch.run_multi")
        self.timed(mod["dispatch"], "dispatch", "dispatch.dispatch")

        def certificate(cert, trace, instance, *rest):
            horizon = len(cert.betas) - 1
            releases = {j.id: j.release for j in instance.jobs}
            add("analysis.horizon", horizon)
            add("analysis.dual_pairs",
                sum(horizon - releases[jid] + 1 for jid in trace.arrivals))
            add("analysis.violations", len(cert.violations))
        self.timed(cli, "compute_metrics", "analysis.compute_metrics")
        self.timed(mod["analysis"], "fractional_flow_plan", "analysis.fractional_flow_plan")
        self.timed(mod["analysis"], "beta_series", "analysis.beta_series")
        self.timed(cli, "verify_duals", "analysis.verify_duals", certificate)
        self.timed(cli, "audit_rejections", "analysis.audit_rejections")

        for attr in ("default_horizon", "transport_opt", "preemptive_hdf", "lp_cost"):
            self.timed(cli, attr, f"baselines.{attr}")
        self.timed(mod["baselines"].nx, "network_simplex", "baselines.network_simplex",
                   lambda result, graph, *rest, **kw: add("baselines.lp_arcs",
                                                          graph.number_of_edges()))

        for command in ("simulate", "verify", "audit", "baseline", "report"):
            self.timed(cli, f"cmd_{command}", f"cli.{command}")


def layer_metrics(t: Tracer) -> dict[str, float | int]:
    """Every per-layer metric of one traced repetition, by name."""
    count = t.counts.get
    metrics = {
        "harness.parse_trace_s": t.total("harness.parse_trace"),
        "core.density_calls": count("core.density_calls", 0),
        "impact.arrival_impact_s": t.total("impact.arrival_impact"),
        "impact.calls": t.calls("impact.arrival_impact"),
        "impact.active_scanned": count("impact.active_scanned", 0),
        "rejection.admit_s": t.total("rejection.admit"),
        "rejection.admit_calls": t.calls("rejection.admit"),
        "rejection.audit_s": t.total("rejection.audit"),
        "scheduler.run_s": t.self_time("scheduler.run"),
        "scheduler.on_arrival_s": t.self_time("scheduler.on_arrival"),
        "scheduler.promote_check_s": t.total("scheduler.promote_check"),
        "scheduler.select_slot_s": t.total("scheduler.select_slot"),
        "scheduler.select_slot_calls": t.calls("scheduler.select_slot"),
        "scheduler.skip_to_calls": t.calls("scheduler.skip_to"),
        "scheduler.finish_trace_s": t.total("scheduler.finish_trace"),
        "dispatch.run_multi_s": t.self_time("dispatch.run_multi"),
        "dispatch.dispatch_s": t.self_time("dispatch.dispatch"),
        "dispatch.calls": t.calls("dispatch.dispatch"),
        "dispatch.impact_calls": t.calls("impact.arrival_impact", "dispatch.dispatch"),
        "analysis.compute_metrics_s": t.self_time("analysis.compute_metrics"),
        "analysis.fractional_flow_plan_s": t.total("analysis.fractional_flow_plan"),
        "analysis.beta_series_s": t.total("analysis.beta_series"),
        "analysis.verify_duals_s": t.self_time("analysis.verify_duals"),
        "analysis.audit_rejections_s": t.total("analysis.audit_rejections"),
        "baselines.default_horizon_s": t.total("baselines.default_horizon"),
        "baselines.transport_opt_s": t.self_time("baselines.transport_opt"),
        "baselines.network_simplex_s": t.total("baselines.network_simplex"),
        "baselines.preemptive_hdf_s": t.total("baselines.preemptive_hdf"),
        "baselines.lp_cost_s": t.total("baselines.lp_cost"),
    }
    for name in ("rejection.buckets_plus", "rejection.buckets_minus",
                 "rejection.reject_plus_first", "rejection.reject_plus_cadence",
                 "rejection.reject_minus_cadence", "scheduler.promotions",
                 "scheduler.slots", "scheduler.peak_active", "analysis.horizon",
                 "analysis.dual_pairs", "analysis.violations", "baselines.lp_arcs"):
        metrics[name] = count(name, 0)
    for command in ("simulate", "verify", "audit", "baseline"):
        metrics[f"cli.{command}.self_s"] = t.self_time(f"cli.{command}")
    return metrics
