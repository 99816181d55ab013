"""Command-line front end.

Subcommands: gen, simulate, baseline, verify, audit, report. All outputs
are line-delimited ``record key=value ...`` text with rationals rendered
as ``num`` or ``num/den``; no floating point and no timestamps, so
identical inputs produce byte-identical outputs. Weighted values arrive
as integer numerators over a multiple of the density scale and become
rationals only here, as text (:func:`_ratio`). Only ``audit`` builds the
bucket report.

The argument parser is built once per process, on the first ``main``
call, and ``main`` finds each ``cmd_<name>`` function by name only when it
runs that command. Only ``baseline`` loads networkx, in its first solve of
the transport LP; every other command runs without it.

Exit codes: 0 success (verify: feasible, audit: all budgets hold);
1 a violated invariant, including any exception the engine or analysis
raises, which is a bug and is printed with its traceback; 2 bad usage or
input (option values, trace or record files, instance validation,
generator parameters, a too-short baseline horizon), as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from dataclasses import fields, replace
from math import gcd
from pathlib import Path

from .analysis import audit_rejections, compute_metrics, verify_duals
from .baselines import (HorizonTooShort, default_horizon, lp_cost,
                        preemptive_hdf, transport_opt)
from .core import Instance, InvalidInstance, Rational, validate_instance
from .dispatch import MultiTrace, each_trace, run_multi
from .harness import (BadParameters, MalformedLine, MissingHeader, WorkloadModel,
                      generate, parse_trace, serialize_trace)
from .scheduler import run

USAGE_ERROR = 2
VIOLATION = 1

_INPUT_ERRORS = (InvalidInstance, MalformedLine, MissingHeader, BadParameters,
                 HorizonTooShort, OSError, UnicodeDecodeError)


def _rat(text: str) -> Rational:
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _horizon(text: str) -> int:
    """A slot count: ASCII digits only, so never negative."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return int(text)


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``, without the Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class _Writer:
    def __init__(self, out_path: str | None):
        self.lines: list[str] = []
        self.out_path = out_path

    def emit(self, record: str, **fields) -> None:
        parts = [record] + [f"{k}={_fmt(v)}" for k, v in fields.items()]
        self.lines.append(" ".join(parts))

    def flush(self) -> None:
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.out_path:
            Path(self.out_path).write_text(text, encoding="ascii")
        else:
            sys.stdout.write(text)


def _load_instance(args) -> Instance:
    """The validated instance in ``args.trace``, re-validated only when
    ``--epsilon`` or ``--machines`` replaced a field."""
    instance = parse_trace(args.trace)
    overrides = {name: value for name in ("epsilon", "machines")
                 if (value := getattr(args, name, None)) is not None}
    return validate_instance(replace(instance, **overrides)) if overrides else instance


def _run_instance(instance):
    if instance.machines == 1:
        return run(instance)
    return run_multi(instance)


# -- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    model = WorkloadModel(
        kind=args.model, n=args.n, seed=args.seed, L=args.L, scale=args.scale,
        rate=args.rate, shape=args.shape, max_release=args.max_release,
        max_size=args.max_size, max_weight=args.max_weight,
        machines=args.machines,
        epsilon=Rational(1, 4) if args.epsilon is None else args.epsilon)
    instance = generate(model)
    serialize_trace(instance, args.out, seed=args.seed)
    writer = _Writer(None)
    fields = {"kind": model.kind, "jobs": len(instance.jobs), "out": args.out,
              "seed": args.seed}
    if model.kind == "adversarial_L":
        # the construction is integer-rescaled; record the factor used
        fields.update(L=model.L, scale=model.scale,
                      long_job_size=model.L * model.L * model.scale)
    writer.emit("generated", **fields)
    writer.flush()
    return 0


def cmd_simulate(args) -> int:
    instance = _load_instance(args)
    result = _run_instance(instance)
    metrics = compute_metrics(result, instance)
    writer = _Writer(args.out)
    # instances carry no speed; the fixed field keeps the record's bytes
    writer.emit("header", m=instance.machines, epsilon=instance.epsilon, speedup=0)
    double = 2 * instance.scale    # the impacts' denominator
    totals: dict[int, str] = {}    # a score's text, reused as its impact's total
    if isinstance(result, MultiTrace):
        for decision in result.decisions:
            totals[decision.job] = score = _ratio(decision.score, double)
            writer.emit("dispatch", job=decision.job, machine=decision.machine, score=score)
    for trace in each_trace(result):
        writer.emit("machine", index=trace.machine,
                    arrivals=",".join(map(str, trace.arrivals)) or "-")
        # one line per unit slot, formatted straight from the runs
        head = f"slot machine={trace.machine} t="
        for seg in trace.runs:
            tail = (f" plan={seg.plan} real=- idled=1" if seg.real is None
                    else f" plan={seg.plan} real={seg.real} idled=0")
            writer.lines.extend(f"{head}{t}{tail}" for t in range(seg.start, seg.end))
        for event in trace.events:
            writer.emit("event", machine=trace.machine, t=event.time,
                        job=event.job, kind=event.kind)
        departures = trace.departure
        for jid in trace.arrivals:
            writer.emit("departure", machine=trace.machine, job=jid,
                        time=departures[jid])
        for jid in trace.arrivals:
            impact = trace.impacts[jid]
            writer.emit("impact", machine=trace.machine, job=jid,
                        total=totals.pop(jid, None) or _ratio(impact.total, double),
                        plus=_ratio(impact.plus, double),
                        minus=_ratio(impact.minus, double),
                        self_term=_ratio(impact.self_term, double),
                        density_class=impact.density_class,
                        in_plus=impact.in_plus, in_minus=impact.in_minus)
        for jid in trace.arrivals:
            decision = trace.decisions[jid]
            writer.emit("decision", machine=trace.machine, job=jid,
                        reject=decision.reject, reason=decision.reason,
                        plus_ordinal=decision.plus_ordinal,
                        minus_ordinal=decision.minus_ordinal)
    for field in fields(metrics):    # one line per metric, in field order
        writer.emit("metric", name=field.name, value=getattr(metrics, field.name))
    writer.flush()
    return 0


def cmd_baseline(args) -> int:
    instance = _load_instance(args)
    if instance.machines != 1:
        raise BadParameters("baseline handles single-machine instances")
    horizon = args.horizon if args.horizon is not None \
        else default_horizon(instance.jobs)
    opt = transport_opt(instance.jobs, horizon=horizon)
    hdf = lp_cost(preemptive_hdf(instance.jobs))
    writer = _Writer(args.out)
    # schedules run at unit speed; the fixed field keeps the record's bytes
    writer.emit("baseline", speed=1, horizon=horizon, transport_opt=opt, hdf_cost=hdf)
    writer.flush()
    return 0


def cmd_verify(args) -> int:
    instance = _load_instance(args)
    result = _run_instance(instance)
    writer = _Writer(args.out)
    all_feasible = True
    for trace in each_trace(result):
        cert = verify_duals(trace, instance)
        all_feasible &= cert.feasible
        double = 2 * cert.scale
        # schedules run at unit speed; the fixed field keeps the record's bytes
        writer.emit("certificate", machine=trace.machine, feasible=cert.feasible,
                    objective=_ratio(cert.objective, double), speedup=0,
                    alpha_total=_ratio(cert.alpha_total, double),
                    beta_total=_ratio(cert.beta_total, double),
                    violations=len(cert.violations))
        for jid, t in cert.violations:
            writer.emit("violation", machine=trace.machine, job=jid, t=t)
    writer.flush()
    return 0 if all_feasible else VIOLATION


def cmd_audit(args) -> int:
    instance = _load_instance(args)
    result = _run_instance(instance)
    audit = audit_rejections(result, instance)
    writer = _Writer(args.out)
    for check in audit.checks:
        writer.emit("budget", name=check.name, value=_ratio(check.value, audit.denominator),
                    bound=_ratio(check.bound, audit.denominator), ok=check.ok)
    writer.emit("fraction", name="delayed", value=audit.delayed_fraction)
    writer.emit("fraction", name="immediate", value=audit.immediate_fraction)
    for trace in each_trace(result):
        for bucket in trace.table_report:
            writer.emit("bucket", machine=trace.machine, table=bucket.table,
                        key=",".join(map(str, bucket.key)), count=bucket.count,
                        rejected=",".join(map(str, bucket.rejected_ordinals)) or "-",
                        weight_assigned=_ratio(bucket.weight_assigned, instance.scale),
                        weight_rejected=_ratio(bucket.weight_rejected, instance.scale))
    writer.flush()
    return 0 if audit.ok else VIOLATION


def _read_records(path: str, name: str) -> list[dict[str, str]]:
    """The pairs of each ``name`` record; a line without ``name`` (most are
    ``simulate``'s slot lines) is never split."""
    records = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if name not in line:
            continue
        head, *pairs = line.split()
        if head != name:
            continue
        record = {"_record": head}
        for pair in pairs:
            key, _, value = pair.partition("=")
            record[key] = value
        records.append(record)
    return records


def _rational(record: dict[str, str], key: str, path: str) -> Rational:
    try:
        return Rational(record.get(key, ""))
    except (ValueError, ZeroDivisionError):
        raise BadParameters(f"{record['_record']} record in {path} has no "
                            f"rational {key}=") from None


def cmd_report(args) -> int:
    metrics = {record.get("name"): _rational(record, "value", args.sim)
               for record in _read_records(args.sim, "metric")}
    needed = ("weighted_flow", "departure_objective", "rejected_weight_delayed",
              "rejected_weight_immediate", "total_weight")
    if any(name not in metrics for name in needed):
        raise BadParameters(f"no metric records in {args.sim} for {', '.join(needed)}")
    opt = None
    for record in _read_records(args.baseline, "baseline"):
        opt = _rational(record, "transport_opt", args.baseline)
    if opt is None:
        raise BadParameters(f"no baseline record in {args.baseline}")
    total = metrics["total_weight"]
    writer = _Writer(args.out)
    writer.emit(
        "report",
        weighted_flow=metrics["weighted_flow"],
        transport_opt=opt,
        ratio=metrics["weighted_flow"] / opt if opt else None,
        departure_objective=metrics["departure_objective"],
        delayed_fraction=metrics["rejected_weight_delayed"] / total if total else None,
        immediate_fraction=metrics["rejected_weight_immediate"] / total if total else None,
    )
    if args.audit:
        for record in _read_records(args.audit, "budget"):
            if not {"name", "ok"} <= record.keys():
                raise BadParameters(f"budget record in {args.audit} lacks name= or ok=")
            writer.emit("report_budget", name=record["name"], ok=record["ok"])
    writer.flush()
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, not at import.
    Every parse fills a fresh namespace, so no state leaks between calls."""
    parser = argparse.ArgumentParser(
        prog="flowsched",
        description="online weighted flow-time scheduling with rejection")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a workload trace file")
    gen.add_argument("--model", required=True,
                     choices=("poisson_pareto", "uniform", "adversarial_L", "fixed"))
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--L", type=int, default=10)
    gen.add_argument("--scale", type=int, default=1)
    gen.add_argument("--rate", type=float, default=0.5)
    gen.add_argument("--shape", type=float, default=1.8)
    gen.add_argument("--max-release", type=int, default=20, dest="max_release")
    gen.add_argument("--max-size", type=int, default=8, dest="max_size")
    gen.add_argument("--max-weight", type=int, default=12, dest="max_weight")
    gen.add_argument("--machines", type=int, default=1)
    gen.add_argument("--epsilon", type=_rat, default=None)

    sim = sub.add_parser("simulate", help="run the online policy on a trace file")
    sim.add_argument("--trace", required=True)
    sim.add_argument("--epsilon", type=_rat, default=None)
    sim.add_argument("--machines", type=int, default=None)
    sim.add_argument("--out", default=None)

    base = sub.add_parser("baseline", help="exact offline benchmark values")
    base.add_argument("--trace", required=True)
    base.add_argument("--horizon", type=_horizon, default=None)
    base.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="dual-fitting certificate; exit 0 iff feasible")
    ver.add_argument("--trace", required=True)
    ver.add_argument("--epsilon", type=_rat, default=None)
    ver.add_argument("--out", default=None)

    aud = sub.add_parser("audit", help="rejection budgets; exit 0 iff all hold")
    aud.add_argument("--trace", required=True)
    aud.add_argument("--epsilon", type=_rat, default=None)
    aud.add_argument("--out", default=None)

    rep = sub.add_parser("report", help="join simulate/baseline outputs")
    rep.add_argument("--sim", required=True)
    rep.add_argument("--baseline", required=True)
    rep.add_argument("--audit", default=None)
    rep.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. The parser is shared by every call in the
    process; the command function is looked up by name at call time, so
    a replaced ``cmd_*`` attribute of this module takes effect."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:  # an engine or analysis bug, never a usage error
        traceback.print_exc()
        return VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
