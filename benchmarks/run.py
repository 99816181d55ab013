"""flowsched benchmark: one seeded workload, its CLI commands, checked.

Run from the repository root:

    python3 benchmarks/run.py --workload overload_m1 --seed 7 --seconds 30 --trace 0

The workload's instances are generated from ``--seed`` and written as trace
files; the program sees only those files. Each repetition runs the
workload's subcommands on every instance, in this process, through
``flowsched.cli.main(argv)``, one after another, and checks every output.
Repetitions go on while one more still fits in ``--seconds``. Times are
rescaled to a reference host speed (``SpeedProbe``). With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` untraced and traced repetitions
alternate and it carries the per-layer metrics. Earlier lines list
per-command times, exact work counts and the value of every per-layer
metric. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import check
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Scale of the rescaled times: they read as wall time on a host where
# SpeedProbe's loop takes this long on average.
REFERENCE_PROBE_S = 40e-6


class SpeedProbe:
    """Samples the host's speed inside timed steps, without a second thread.

    The host this benchmark was tuned on (2 vCPU VM) changes speed by up to
    2x, within a second and over tens of seconds, in CPU time as much as in
    wall time. While the probe is entered, a SIGALRM handler times a fixed
    loop of twelve Fraction additions, the program's own kind of work, every
    10 ms (about 0.5% of the time). ``rescale`` turns a step's wall time
    into wall time at the reference speed: it multiplies by
    REFERENCE_PROBE_S over the loop's mean time during the step.
    """

    INTERVAL_S = 0.01

    def __init__(self):
        self.samples: list[float] = []
        self._previous = signal.SIG_DFL

    def _sample(self, *_) -> None:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 13):
            total += Fraction(i, 7)
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall: float, first: int) -> float:
        """``wall`` seconds of a step that began when ``first`` samples were
        taken, at the reference speed."""
        window = self.samples[first:]
        if not window:  # a step shorter than the interval
            self._sample()
            window = self.samples[-1:]
        return wall * REFERENCE_PROBE_S * len(window) / sum(window)


def import_fresh():
    """Import ``flowsched`` as a new process would, networkx included."""
    for name in list(sys.modules):
        if name.partition(".")[0] in ("flowsched", "networkx"):
            del sys.modules[name]
    return importlib.import_module("flowsched")


def set_up(workload, seed: int, workdir: Path, fresh: bool = True):
    """Import the program, generate the workload's instances and write their
    trace files. Returns the seconds taken and the instances."""
    gc.collect()
    start = perf_counter()
    flowsched = import_fresh() if fresh else sys.modules["flowsched"]
    instances = []
    for k, sub_seed in enumerate(workload.seeds(seed)):
        instance = flowsched.generate(flowsched.WorkloadModel(seed=sub_seed, **workload.model))
        flowsched.serialize_trace(instance, workdir / f"workload-{k}.txt", seed=sub_seed)
        instances.append(instance)
    return perf_counter() - start, instances


def traced_set_up(tracer: Tracer, workload, seed: int, workdir: Path) -> dict[str, float]:
    """Harness times of one more set-up, run with the tracer installed."""
    tracer.reset()
    tracer.install()
    try:
        set_up(workload, seed, workdir, fresh=False)
    finally:
        tracer.uninstall()
    return {"harness.generate_s": tracer.total("harness.generate"),
            "harness.format_trace_s": tracer.total("harness.format_trace")}


class Pipeline:
    """Runs one repetition of a workload's commands and checks the outputs."""

    def __init__(self, workload, instances, workdir: Path, digests: list[str] | None):
        self.workload = workload
        self.instances = instances
        self.workdir = workdir
        self.digests = digests
        self.cli = importlib.import_module("flowsched.cli")
        self.probe = SpeedProbe()
        self.wall: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.counts: dict[int, dict[str, int]] = {}   # per instance
        self._verdicts: dict[tuple, list[str]] = {}

    def out(self, command: str, k: int) -> Path:
        return self.workdir / f"{command}-{k}.out"

    def argv(self, command: str, k: int) -> list[str]:
        if command == "report":
            return ["report", "--sim", str(self.out("simulate", k)),
                    "--baseline", str(self.out("baseline", k)),
                    "--out", str(self.out("report", k))]
        return [command, "--trace", str(self.workdir / f"workload-{k}.txt"),
                "--out", str(self.out(command, k))]

    def run_once(self) -> dict[str, float]:
        """Time of each command at the reference speed, summed over the
        instances, in one repetition. Wall times go to ``self.wall``."""
        times = dict.fromkeys(self.workload.commands, 0.0)
        walls = dict.fromkeys(self.workload.commands, 0.0)
        with self.probe:
            for k in range(len(self.instances)):
                for command in self.workload.commands:
                    scaled, wall = self._run(command, k)
                    times[command] += scaled
                    walls[command] += wall
        for command, wall in walls.items():
            self.wall.setdefault(command, []).append(wall)
        return times

    def _run(self, command: str, k: int) -> tuple[float, float]:
        """Run and check one command on instance ``k``; returns its time at
        the reference speed and its wall time."""
        self.out(command, k).unlink(missing_ok=True)
        gc.collect()
        first = len(self.probe.samples)
        start = perf_counter()
        try:
            rc = self.cli.main(self.argv(command, k))
        except Exception:  # an engine bug is a failed operation, not a crash
            traceback.print_exc()
            rc = None
        wall = perf_counter() - start
        scaled = self.probe.rescale(wall, first)
        self.attempted += 1
        problems = self.check(command, k, rc)
        if problems:
            self.failed += 1
            print(f"FAILED {command} on instance {k}: " + "; ".join(problems[:3]),
                  file=sys.stderr)
        return scaled, wall

    def check(self, command: str, k: int, rc: int | None) -> list[str]:
        """Problems with one invocation; identical outputs share one verdict."""
        out = self.out(command, k)
        if rc is None or not out.is_file():
            return [f"exit code {rc}, output written: {out.is_file()}"]
        inputs = [out] + ([self.out("simulate", k), self.out("baseline", k)]
                          if command == "report" else [])
        key = (command, k, rc, *(check.sha256(path) for path in inputs))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._problems(command, k, rc, key[3])
            except Exception as exc:  # unreadable or truncated output
                self._verdicts[key] = [f"{type(exc).__name__}: {exc}"]
        return self._verdicts[key]

    def _problems(self, command: str, k: int, rc: int, digest: str) -> list[str]:
        out = self.out(command, k)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if command == "simulate":
            if self.digests is not None and digest != self.digests[k]:
                problems.append(f"sha256 {digest} differs from the recorded {self.digests[k]}")
            found, self.counts[k] = check.parse_simulate(out, self.instances[k])
            return problems + found
        if command == "verify":
            return problems + check.check_verify(out, rc)
        if command == "audit":
            return problems + check.check_audit(out)
        if command == "baseline":
            return problems + check.check_baseline(out)
        return problems + check.check_report(out, self.out("simulate", k),
                                             self.out("baseline", k))

    def work_counts(self) -> dict[str, int]:
        """Exact work counts of the checked outputs, over all instances."""
        total: dict[str, int] = {}
        for counts in self.counts.values():
            for name, value in counts.items():
                if name in ("horizon", "peak_active"):
                    total[name] = max(total.get(name, 0), value)
                else:
                    total[name] = total.get(name, 0) + value
        return total

    def output_size(self) -> tuple[int, int]:
        """Record lines and bytes the last repetition wrote."""
        outs = [self.out(c, k) for c in self.workload.commands
                for k in range(len(self.instances)) if self.out(c, k).is_file()]
        return (sum(len(p.read_bytes().splitlines()) for p in outs),
                sum(p.stat().st_size for p in outs))


def measure(pipeline: Pipeline, seconds: float, tracer: Tracer | None):
    """Repeat the pipeline for ``seconds``; with a tracer, alternate untraced
    and traced repetitions. Returns per-repetition times and layer values.

    A repetition starts only if one more, as long as the last, still ends
    within ``seconds``; the first always runs.
    """
    untraced, traced = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        untraced.append(pipeline.run_once())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                times = pipeline.run_once()
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer)
            layers["cli.records"], layers["cli.out_bytes"] = pipeline.output_size()
            traced.append((times, layers))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return untraced, traced


def end_to_end(setups, untraced) -> dict[str, float]:
    return {
        "setup_s": median(setups),
        "simulate_s": median(t["simulate"] for t in untraced),
        "certify_s": median(sum(v for c, v in t.items() if c != "simulate")
                            for t in untraced),
        "pipeline_s": median(sum(t.values()) for t in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(setup_layers, untraced, traced) -> tuple[dict, bool]:
    """Medians of the traced times; counts must repeat exactly."""
    values = dict(setup_layers)
    steady = True
    for name in traced[0][1]:
        column = [layers[name] for _, layers in traced]
        if isinstance(column[0], int):
            steady &= len(set(column)) == 1
            values[name] = column[0]
        else:
            values[name] = median(column)
    values["trace.overhead_ratio"] = (median(sum(t.values()) for t, _ in traced)
                                      / median(sum(t.values()) for t in untraced))
    return values, steady


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "flowsched").glob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowsched" / "__init__.py").is_file():
        print(f"error: no flowsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        with SpeedProbe() as probe:
            for _ in range(SETUP_SAMPLES):
                first = len(probe.samples)
                seconds, instances = set_up(workload, args.seed, workdir)
                setups.append(probe.rescale(seconds, first))
        pipeline = Pipeline(workload, instances, workdir,
                            digests.get(workload.name, {}).get(str(args.seed)))
        tracer = Tracer() if args.trace else None
        setup_layers = traced_set_up(tracer, workload, args.seed, workdir) if tracer else {}
        untraced, traced = measure(pipeline, args.seconds, tracer)
        records, out_bytes = pipeline.output_size()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"instances={len(instances)} repetitions={len(untraced)} "
          f"setup_samples={len(setups)}")
    for command in workload.commands:
        column = [t[command] for t in untraced]
        print(f"command name={command} median_s={median(column):.6f} "
              f"min_s={min(column):.6f} max_s={max(column):.6f} n={len(column)} "
              f"wall_median_s={median(pipeline.wall[command]):.6f}")
    counts = dict(pipeline.work_counts(), records=records, out_bytes=out_bytes,
                  src_lines=src_lines())
    print("counts " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"ops attempted={pipeline.attempted} failed={pipeline.failed} "
          f"failed_frac={pipeline.failed / pipeline.attempted}")
    correct = pipeline.failed == 0
    if args.trace:
        values, steady = per_layer(setup_layers, untraced, traced)
        for name, value in values.items():
            print(f"layer name={name} value={value} unit={_unit(name)}")
        correct &= steady
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = end_to_end(setups, untraced)
        names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
