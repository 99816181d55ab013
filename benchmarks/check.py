"""Output checks that decide whether one subcommand invocation failed.

Everything here re-derives facts from the record files and the generated
instance with its own code; nothing from ``flowsched.analysis`` is used.
Each check returns a list of problems; an empty list means the operation
succeeded.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

TERMINAL = ("immediate_reject", "delayed_reject", "real_complete")
METRIC_NAMES = ("weighted_flow", "departure_objective", "rejected_weight_immediate",
                "rejected_weight_delayed", "total_weight")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def records(path: Path):
    """Yield ``(record, fields)`` for each ``record key=value ...`` line."""
    with open(path, encoding="ascii") as handle:
        for line in handle:
            head, *pairs = line.split()
            yield head, dict(pair.split("=", 1) for pair in pairs)


def _machine_of(jobs, dispatched, jid):
    return dispatched.get(jid, 0) if len(jobs[jid].sizes) > 1 else 0


def parse_simulate(path: Path, instance) -> tuple[list[str], dict]:
    """Check a ``simulate`` output against the instance and return the
    problems found plus the exact work counts read from it."""
    jobs = {j.id: j for j in instance.jobs}
    problems: list[str] = []
    dispatched: dict[int, int] = {}
    decided: dict[int, dict] = {}
    departure: dict[int, int] = {}
    events: dict[int, list[tuple[str, int]]] = {}
    reported: dict[str, Fraction] = {}
    last_t: dict[int, int] = {}
    plan_units: dict[int, int] = {}
    last_slot: dict[int, int] = {}
    idled: set[int] = set()
    slots = 0
    for record, f in records(path):
        if record == "slot":
            slots += 1
            m, t, plan = int(f["machine"]), int(f["t"]), int(f["plan"])
            if t <= last_t.get(m, -1):
                problems.append(f"slot t={t} on machine {m} is not increasing")
            last_t[m] = t
            job = jobs.get(plan)
            if job is None or job.release > t or _machine_of(jobs, dispatched, plan) != m:
                problems.append(f"slot t={t} runs job {plan}, which cannot run there")
                continue
            if (f["real"] == "-") != (f["idled"] == "1") or f["real"] not in ("-", f["plan"]):
                problems.append(f"slot t={t}: real={f['real']} idled={f['idled']}")
            if f["idled"] == "1":
                idled.add(plan)
            plan_units[plan] = plan_units.get(plan, 0) + 1
            last_slot[plan] = t
        elif record == "event":
            events.setdefault(int(f["job"]), []).append((f["kind"], int(f["t"])))
        elif record == "departure":
            jid = int(f["job"])
            if jid in departure:
                problems.append(f"job {jid} departs twice")
            departure[jid] = int(f["time"])
        elif record == "decision":
            decided[int(f["job"])] = f
        elif record == "dispatch":
            dispatched[int(f["job"])] = int(f["machine"])
        elif record == "metric":
            reported[f["name"]] = Fraction(f["value"])
        elif record == "header" and int(f["m"]) != instance.machines:
            problems.append(f"header m={f['m']}, instance has {instance.machines}")

    if set(decided) != set(jobs) or set(departure) != set(jobs):
        problems.append("decision or departure records do not cover the jobs exactly")
        return problems, {}

    derived = dict.fromkeys(METRIC_NAMES, Fraction(0))
    reasons: dict[str, int] = {}
    promotions = 0
    for jid, job in jobs.items():
        kinds = dict(events.get(jid, ()))
        terminal = [k for k in TERMINAL if k in kinds]
        if len(terminal) != 1 or len(kinds) != len(events.get(jid, ())):
            problems.append(f"job {jid} has events {events.get(jid)}")
            continue
        end, when = terminal[0], kinds[terminal[0]]
        rejected_now = decided[jid]["reject"] == "1"
        size = job.sizes[_machine_of(jobs, dispatched, jid)]
        if when != departure[jid]:
            problems.append(f"job {jid} departs at {departure[jid]}, terminal event at {when}")
        if rejected_now != (end == "immediate_reject") or (rejected_now and when != job.release):
            problems.append(f"job {jid}: decision and {end} at {when} disagree")
        if rejected_now:
            if jid in plan_units:
                problems.append(f"immediately rejected job {jid} was processed")
        elif plan_units.get(jid) != size or kinds.get("plan_complete") != last_slot[jid] + 1:
            problems.append(f"job {jid}: {plan_units.get(jid)} plan units of {size}")
        if end == "real_complete" and (jid in idled or when != last_slot.get(jid, -2) + 1):
            problems.append(f"job {jid} completes at {when} but did not really run")
        if end == "delayed_reject":
            promotions += 1
            if kinds.get("promoted") != when:
                problems.append(f"job {jid} rejected late without a promotion")
        reason = decided[jid]["reason"]
        reasons[reason] = reasons.get(reason, 0) + 1

        derived["total_weight"] += job.weight
        derived["departure_objective"] += job.weight * (departure[jid] - job.release)
        if end == "real_complete":
            derived["weighted_flow"] += job.weight * (when - job.release)
        elif end == "immediate_reject":
            derived["rejected_weight_immediate"] += job.weight
        else:
            derived["rejected_weight_delayed"] += job.weight
    for name, value in derived.items():
        if reported.get(name) != value:
            problems.append(f"metric {name}={reported.get(name)}, re-derived {value}")
    if problems:
        return problems, {}

    counts = {"jobs": len(jobs), "busy_slots": slots, "promotions": promotions}
    counts.update(_shape_counts(jobs, dispatched, decided, departure, last_slot, events))
    for reason in ("none", "plus_first", "plus_cadence", "minus_cadence"):
        counts[f"reason_{reason}"] = reasons.get(reason, 0)
    return problems, counts


def _shape_counts(jobs, dispatched, decided, departure, last_slot, events) -> dict:
    """Horizon, peak active set, buckets and dual pairs of one run."""
    horizon: dict[int, int] = {}
    for jid, job in jobs.items():
        m = _machine_of(jobs, dispatched, jid)
        end = max(departure[jid], last_slot.get(jid, -1) + 1)
        horizon[m] = max(horizon.get(m, 0), end)
    # kept jobs are active from release until the plan completes them
    steps = []
    for jid, job in jobs.items():
        if decided[jid]["reject"] == "0":
            m = _machine_of(jobs, dispatched, jid)
            steps.append((m, job.release, 1))
            steps.append((m, dict(events[jid])["plan_complete"], -1))
    active: dict[int, int] = {}
    peak = 0
    for m, _, step in sorted(steps):
        active[m] = active.get(m, 0) + step
        peak = max(peak, active[m])
    return {
        "horizon": max(horizon.values(), default=0),
        "peak_active": peak,
        "buckets_plus": sum(d["plus_ordinal"] == "1" for d in decided.values()),
        "buckets_minus": sum(d["minus_ordinal"] == "1" for d in decided.values()),
        "dual_pairs": sum(horizon[_machine_of(jobs, dispatched, jid)] - job.release + 1
                          for jid, job in jobs.items()),
    }


def check_verify(path: Path, rc: int) -> list[str]:
    certificates = [f for r, f in records(path) if r == "certificate"]
    violations = sum(1 for r, _ in records(path) if r == "violation")
    problems = []
    if not certificates:
        problems.append("no certificate record")
    feasible = all(f["feasible"] == "1" for f in certificates)
    if rc != (0 if feasible else 1):
        problems.append(f"exit code {rc} disagrees with feasible={int(feasible)}")
    if violations != sum(int(f["violations"]) for f in certificates):
        problems.append("violation records do not match the certificate counts")
    return problems


def check_audit(path: Path) -> list[str]:
    budgets = [f for r, f in records(path) if r == "budget"]
    if not budgets:
        return ["no budget record"]
    return [f"budget {f['name']} fails: {f['value']} vs {f['bound']} ok={f['ok']}"
            for f in budgets
            if f["ok"] != "1" or Fraction(f["value"]) > Fraction(f["bound"])]


def check_baseline(path: Path) -> list[str]:
    found = [f for r, f in records(path) if r == "baseline"]
    if len(found) != 1:
        return [f"{len(found)} baseline records"]
    if Fraction(found[0]["transport_opt"]) != Fraction(found[0]["hdf_cost"]):
        return [f"transport_opt {found[0]['transport_opt']} != hdf_cost {found[0]['hdf_cost']}"]
    return []


def check_report(path: Path, sim: Path, baseline: Path) -> list[str]:
    found = [f for r, f in records(path) if r == "report"]
    flow = next(Fraction(f["value"]) for r, f in records(sim)
                if r == "metric" and f["name"] == "weighted_flow")
    opt = next(Fraction(f["transport_opt"]) for r, f in records(baseline) if r == "baseline")
    if len(found) != 1:
        return [f"{len(found)} report records"]
    report = found[0]
    if Fraction(report["weighted_flow"]) != flow or Fraction(report["transport_opt"]) != opt \
            or Fraction(report["ratio"]) != flow / opt:
        return [f"report ratio {report['ratio']} != {flow}/{opt}"]
    return []
