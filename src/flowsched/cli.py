"""Command-line front end.

Subcommands: gen, simulate, baseline, verify, audit, report. All outputs
are line-delimited ``record key=value ...`` text with rationals rendered
as ``num`` or ``num/den``; no floating point and no timestamps, so
identical inputs produce byte-identical outputs. Weighted values arrive
as integer numerators over a multiple of the density scale and become
rationals only here, as text (:func:`_ratio`). Only ``audit`` builds the
bucket report. Epsilon and m come only from the trace header, which
``gen`` writes.

Outputs stream: each record is written to ``--out`` (or stdout) as it is
formatted, and ``simulate`` writes its one ``slot`` line per unit slot in
bounded chunks, so no command holds its whole output. The ``--out`` file
is created only once the command's results exist, so a command that fails
first leaves no file, and a write that fails removes a regular file again.

The argument parser is built once per process, on the first ``main``
call, and ``main`` finds each ``cmd_<name>`` function by name only when it
runs that command. Only ``baseline`` loads networkx, in its first solve of
the transport LP; every other command runs without it.

Exit codes: 0 success (verify: feasible, audit: all budgets hold);
1 a violated invariant: a baseline whose transport optimum is not the HDF
cost (after its record), or any exception the engine or analysis raises
(an infeasible baseline LP among them), which is a bug and is printed
with its traceback; 2 bad usage or input, as one ``error:`` line.
Two types are bad input: :class:`~flowsched.core.InvalidInstance` (a trace
file or an instance refused) and :class:`~flowsched.harness.BadParameters`
(generator parameters, option values or record files refused); so are an
unknown option and a file that cannot be read or decoded.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
import traceback
from dataclasses import fields
from math import gcd
from pathlib import Path
from typing import Iterator

from .analysis import audit_rejections, compute_metrics, verify_duals
from .baselines import default_horizon, lp_cost, preemptive_hdf, transport_opt
from .core import Instance, InvalidInstance, Rational
from .dispatch import run_multi
from .harness import (KINDS, BadParameters, WorkloadModel, generate, parse_trace,
                      serialize_trace)
from .scheduler import ScheduleTrace, run

USAGE_ERROR = 2
VIOLATION = 1

_INPUT_ERRORS = (InvalidInstance, BadParameters, OSError, UnicodeDecodeError)


def _rat(text: str) -> Rational:
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


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
    """Writes each record, as it is formed, to the ``--out`` file or to
    stdout. Enter it only once the command's results exist: the file is
    created on entry, and a write or close that fails removes it again if
    the path names a regular file (never a symlink, device or FIFO)."""

    def __init__(self, out_path: str | None):
        self.out_path = out_path

    def __enter__(self) -> _Writer:
        self._file = open(self.out_path, "w", encoding="ascii") if self.out_path else None
        self._regular = (self._file is not None
                         and stat.S_ISREG(os.lstat(self.out_path).st_mode))
        self.write = (self._file or sys.stdout).write
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if self._file is not None:
            written = False
            try:
                self._file.close()
                written = exc_type is None
            finally:
                if not written and self._regular:
                    Path(self.out_path).unlink(missing_ok=True)

    def emit(self, record: str, **fields) -> None:
        self.write(" ".join([record, *(f"{k}={_fmt(v)}" for k, v in fields.items())]) + "\n")


def _run_instance(instance: Instance) -> list[ScheduleTrace]:
    return [run(instance)] if instance.machines == 1 else run_multi(instance)


# -- subcommands -----------------------------------------------------------


# the gen options past --model, --out and --n: WorkloadModel fields, in option order
_GEN_FIELDS = {"seed": int, "L": int, "scale": int, "rate": float, "shape": float,
               "max_release": int, "max_size": int, "max_weight": int, "machines": int,
               "epsilon": _rat}


def cmd_gen(args) -> int:
    if any(map(str.isspace, args.out)):    # it would split the record's out= field
        raise BadParameters(f"--out path {args.out!r} contains whitespace")
    model = WorkloadModel(kind=args.model, n=args.n,
                          **{name: getattr(args, name) for name in _GEN_FIELDS})
    instance = generate(model)
    serialize_trace(instance, args.out, seed=args.seed)
    fields = {"kind": model.kind, "jobs": len(instance.jobs), "out": args.out,
              "seed": args.seed}
    if model.kind == "adversarial_L":
        # the construction is integer-rescaled; record the factor used
        fields.update(L=model.L, scale=model.scale, long_job_size=instance.jobs[0].sizes[0])
    with _Writer(None) as writer:
        writer.emit("generated", **fields)
    return 0


_SLOT_CHUNK = 4096    # slot lines per write, so a long run never sits in memory whole


def _slot_chunks(trace) -> Iterator[str]:
    """The machine's ``slot`` lines, one per unit slot, formatted straight
    from the runs, in strings of fewer than ``2 * _SLOT_CHUNK`` lines."""
    head = f"slot machine={trace.machine} t="
    parts: list[str] = []
    lines = 0
    for start, end, plan, real in trace.runs:
        tail = (f" plan={plan} real=- idled=1\n" if real is None
                else f" plan={plan} real={real} idled=0\n")
        between = tail + head
        for t in range(start, end, _SLOT_CHUNK):
            times = range(t, min(t + _SLOT_CHUNK, end))
            parts.append(f"{head}{between.join(map(str, times))}{tail}")
            lines += len(times)
            if lines >= _SLOT_CHUNK:
                yield "".join(parts)
                parts, lines = [], 0
    if parts:
        yield "".join(parts)


def cmd_simulate(args) -> int:
    instance = parse_trace(args.trace)
    traces = _run_instance(instance)
    metrics = compute_metrics(traces, instance)
    double = 2 * instance.scale    # the impacts' denominator
    totals: dict[int, str] = {}    # a score's text, reused as its impact's total
    with _Writer(args.out) as writer:
        write = writer.write
        # instances carry no speed; the fixed field keeps the record's bytes
        write(f"header m={instance.machines} epsilon={instance.epsilon} speedup=0\n")
        if instance.machines > 1:
            # a job's machine is the trace it arrived on, and its score is
            # the impact total it was dispatched with
            owner = {j: trace for trace in traces for j in trace.impacts}
            lines = []
            for j in (job.id for job in instance.jobs):
                trace = owner[j]
                totals[j] = score = _ratio(trace.impacts[j].total, double)
                lines.append(f"dispatch job={j} machine={trace.machine} score={score}\n")
            write("".join(lines))
        for trace in traces:
            m, arrivals = trace.machine, trace.arrivals
            write(f"machine index={m} arrivals={','.join(map(str, arrivals)) or '-'}\n")
            for chunk in _slot_chunks(trace):
                write(chunk)
            write("".join([f"event machine={m} t={e.time} job={e.job} kind={e.kind}\n"
                           for e in trace.events]))
            departures = trace.departure
            write("".join([f"departure machine={m} job={j} time={departures[j]}\n"
                           for j in arrivals]))
            lines = []
            for j in arrivals:
                i, d = trace.impacts[j], trace.decisions[j]
                total = totals.pop(j, None) or _ratio(i.total, double)
                lines.append(
                    f"impact machine={m} job={j} total={total} "
                    f"plus={_ratio(i.plus, double)} minus={_ratio(i.minus, double)} "
                    f"self_term={_ratio(i.self_term, double)} "
                    f"density_class={instance.table[j][2][m][1]} "
                    f"in_plus={d.plus_key is not None:d} in_minus={d.minus_key is not None:d}\n")
            write("".join(lines))
            # decisions are kept in arrival order
            write("".join([f"decision machine={m} job={j} reject={d.reject:d} "
                           f"reason={d.reason} plus_ordinal={_fmt(d.plus_ordinal)} "
                           f"minus_ordinal={_fmt(d.minus_ordinal)}\n"
                           for j, d in trace.decisions.items()]))
        # one line per metric, in field order
        write("".join([f"metric name={f.name} value={getattr(metrics, f.name)}\n"
                       for f in fields(metrics)]))
    return 0


def cmd_baseline(args) -> int:
    instance = parse_trace(args.trace)
    if instance.machines != 1:
        raise BadParameters("baseline handles single-machine instances")
    opt = transport_opt(instance)
    hdf = lp_cost(instance, preemptive_hdf(instance))
    with _Writer(args.out) as writer:
        # schedules run at unit speed, and the LP needs no horizon; both
        # fields keep the record's bytes
        writer.emit("baseline", speed=1, horizon=default_horizon(instance.jobs),
                    transport_opt=opt, hdf_cost=hdf)
    return 0 if opt == hdf else VIOLATION


def cmd_verify(args) -> int:
    instance = parse_trace(args.trace)
    certificates = [verify_duals(trace, instance) for trace in _run_instance(instance)]
    with _Writer(args.out) as writer:
        for cert in certificates:
            double = 2 * cert.scale
            # schedules run at unit speed; the fixed field keeps the record's bytes
            writer.emit("certificate", machine=cert.machine, feasible=cert.feasible,
                        objective=_ratio(cert.objective, double), speedup=0,
                        alpha_total=_ratio(cert.alpha_total, double),
                        beta_total=_ratio(cert.beta_total, double),
                        violations=len(cert.violations))
            for jid, t in cert.violations:
                writer.emit("violation", machine=cert.machine, job=jid, t=t)
    return 0 if all(cert.feasible for cert in certificates) else VIOLATION


def cmd_audit(args) -> int:
    instance = parse_trace(args.trace)
    traces = _run_instance(instance)
    audit = audit_rejections(traces, instance)
    with _Writer(args.out) as writer:
        for check in audit.checks:
            writer.emit("budget", name=check.name,
                        value=_ratio(check.value, audit.denominator),
                        bound=_ratio(check.bound, audit.denominator), ok=check.ok)
        writer.emit("fraction", name="delayed", value=audit.delayed_fraction)
        writer.emit("fraction", name="immediate", value=audit.immediate_fraction)
        for trace in traces:
            for bucket in trace.table_report:
                writer.emit("bucket", machine=trace.machine, table=bucket.table,
                            key=",".join(map(str, bucket.key)), count=bucket.count,
                            rejected=",".join(map(str, bucket.rejected_ordinals)) or "-",
                            weight_assigned=_ratio(bucket.weight_assigned, instance.scale),
                            weight_rejected=_ratio(bucket.weight_rejected, instance.scale))
    return 0 if audit.ok else VIOLATION


def _read_records(path: str, name: str) -> list[dict[str, str]]:
    """The pairs of each ``name`` record, read one line at a time; a line
    without ``name`` (most are ``simulate``'s slot lines) is never split."""
    records = []
    with open(path, encoding="ascii") as file:
        for line in file:
            if name not in line:
                continue
            # str.splitlines also breaks at \v, \f and \x1c-\x1e, which end no file line
            for text in line.splitlines():
                if name not in text:
                    continue
                head, *pairs = text.split()
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
    budgets = []
    if args.audit:
        for record in _read_records(args.audit, "budget"):
            if not {"name", "ok"} <= record.keys():
                raise BadParameters(f"budget record in {args.audit} lacks name= or ok=")
            budgets.append(record)
        # budget (a) is exactly eps * W: any other bound is another run's audit
        header = (_read_records(args.sim, "header") or [{"_record": "header"}])[0]
        bound = _rational(header, "epsilon", args.sim) * total
        if not any(record["name"] == "delayed_weight"
                   and _rational(record, "bound", args.audit) == bound for record in budgets):
            raise BadParameters(f"{args.audit} has no delayed_weight budget with "
                                f"bound={bound}, epsilon times total_weight in {args.sim}")
    with _Writer(args.out) as writer:
        writer.emit(
            "report",
            weighted_flow=metrics["weighted_flow"],
            transport_opt=opt,
            ratio=metrics["weighted_flow"] / opt if opt else None,
            departure_objective=metrics["departure_objective"],
            delayed_fraction=metrics["rejected_weight_delayed"] / total if total else None,
            immediate_fraction=metrics["rejected_weight_immediate"] / total if total else None,
        )
        for record in budgets:
            writer.emit("report_budget", name=record["name"], ok=record["ok"])
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
    gen.add_argument("--model", required=True, choices=KINDS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=10)
    for name, kind in _GEN_FIELDS.items():    # --max-release sets max_release
        gen.add_argument(f"--{name.replace('_', '-')}", type=kind,
                         default=getattr(WorkloadModel, name))

    sim = sub.add_parser("simulate", help="run the online policy on a trace file")
    sim.add_argument("--trace", required=True)
    sim.add_argument("--out", default=None)

    base = sub.add_parser("baseline", help="exact offline benchmark values")
    base.add_argument("--trace", required=True)
    base.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="dual-fitting certificate; exit 0 iff feasible")
    ver.add_argument("--trace", required=True)
    ver.add_argument("--out", default=None)

    aud = sub.add_parser("audit", help="rejection budgets; exit 0 iff all hold")
    aud.add_argument("--trace", required=True)
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
