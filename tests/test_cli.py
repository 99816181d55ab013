"""Command-line behaviour: byte-identical outputs and exit codes.

The golden digests in ``golden_cli.json`` were recorded from ``cli.main``
and pin every byte of ``gen``, ``simulate``, ``baseline``, ``verify``,
``audit`` and ``report`` output. After a deliberate change of output,
re-record them with ``PYTHONPATH=src python tests/test_cli.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsched import (WorkloadModel, compute_metrics, generate, parse_trace, run, run_multi,
                       serialize_trace)
import flowsched
from flowsched import baselines, cli
from flowsched.cli import main
from flowsched.scheduler import ArrivalInPast

import oracles
from conftest import rational_instances, rejecting, seeded_instance

GOLDEN = Path(__file__).with_name("golden_cli.json")


def multi_machine_instances():
    """Seeded instances for m in {2, 4}, so that dispatch is exercised."""
    out = []
    for seed in range(20):
        machines = 2 if seed % 2 else 4
        eps = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))[seed % 3]
        model = WorkloadModel(kind="poisson_pareto", n=10 + 3 * seed, seed=2000 + seed,
                              rate=0.6 * machines, shape=1.6, size_cap=20,
                              max_weight=16, machines=machines, epsilon=eps)
        out.append((f"multi-{seed:02d}-m{machines}", generate(model)))
    return out


def _run_digest(argv, out: Path) -> str:
    """``"<exit code> <sha256 of the --out file>"`` of one command."""
    rc = main([str(a) for a in argv] + ["--out", str(out)])
    return f"{rc} {hashlib.sha256(out.read_bytes()).hexdigest()}"


def cli_digests(named, commands, workdir: Path) -> dict[str, str]:
    """One digest per ``"<command> <name>"``."""
    digests = {}
    for name, instance in named:
        trace = workdir / f"{name}.txt"
        serialize_trace(instance, trace)
        for command in commands:
            digests[f"{command} {name}"] = _run_digest(
                [command, "--trace", trace], workdir / f"{name}.{command}")
    return digests


GENERATORS = {
    "poisson_pareto-m1": ["--model", "poisson_pareto", "--n", 40, "--seed", 3],
    "poisson_pareto-m4": ["--model", "poisson_pareto", "--n", 40, "--seed", 4,
                          "--machines", 4, "--rate", "1.5", "--epsilon", "1/10"],
    "uniform-m1": ["--model", "uniform", "--n", 30, "--seed", 5, "--max-size", 5],
    "uniform-m4": ["--model", "uniform", "--n", 30, "--seed", 6, "--machines", 4],
    "fixed": ["--model", "fixed", "--n", 25, "--epsilon", "1/2"],
    "adversarial_L": ["--model", "adversarial_L", "--L", 6, "--scale", 2],
}


def gen_digests(workdir: Path) -> dict[str, str]:
    """Digest of each generated trace file followed by the ``generated``
    record, whose ``out=`` field is reduced to the file name."""
    digests = {}
    for name, argv in GENERATORS.items():
        out = workdir / f"gen-{name}.txt"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(["gen"] + [str(a) for a in argv] + ["--out", str(out)])
        text = out.read_bytes() + stdout.getvalue().replace(str(out), out.name).encode()
        digests[f"gen {name}"] = f"{rc} {hashlib.sha256(text).hexdigest()}"
    return digests


def baseline_report_digests(named, workdir: Path) -> dict[str, str]:
    """``baseline``, and ``report`` with and without the ``audit`` file, on
    small single-machine instances. The ``baseline`` keys keep the
    ``speed=1`` of the record they pin: every schedule runs at unit speed."""
    digests = {}
    for name, instance in named:
        trace = workdir / f"{name}.txt"
        serialize_trace(instance, trace)
        files = {command: workdir / f"{name}.{command}"
                 for command in ("simulate", "audit", "baseline")}
        digests[f"baseline speed=1 {name}"] = _run_digest(
            ["baseline", "--trace", trace], files["baseline"])
        for command in ("simulate", "audit", "baseline"):
            main([command, "--trace", str(trace), "--out", str(files[command])])
        report = ["report", "--sim", files["simulate"], "--baseline", files["baseline"]]
        digests[f"report {name}"] = _run_digest(report, workdir / f"{name}.report")
        digests[f"report+audit {name}"] = _run_digest(
            report + ["--audit", files["audit"]], workdir / f"{name}.report")
    return digests


def golden_digests(suite, workdir: Path) -> dict[str, str]:
    multi = multi_machine_instances()
    small = [(name, inst) for name, inst in suite if len(inst.jobs) <= 8][:6]
    digests = cli_digests(suite + multi, ("simulate", "verify"), workdir)
    digests.update(cli_digests(suite[::10] + multi[::4], ("audit",), workdir))
    digests.update(gen_digests(workdir))
    digests.update(baseline_report_digests(small, workdir))
    return digests


def test_cli_outputs_match_recorded_digests(suite, tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="ascii"))
    actual = golden_digests(suite, tmp_path)
    assert sorted(actual) == sorted(recorded)
    assert [key for key in recorded if actual[key] != recorded[key]] == []


# -- the streaming writer ----------------------------------------------------


def simulate_outputs(trace: Path, out: Path) -> tuple[str, str, str]:
    """``simulate``'s ``--out`` text and its stdout on one trace file, and
    the buffered oracle formatter's text for the same run, its dispatch
    lines from the per-slot engine's decisions."""
    assert main(["simulate", "--trace", str(trace), "--out", str(out)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--trace", str(trace)]) == 0
    instance = parse_trace(trace)
    traces = [run(instance)] if instance.machines == 1 else run_multi(instance)
    decisions = oracles.slot_run_multi(instance).decisions if instance.machines > 1 else ()
    expected = oracles.simulate_text(instance, traces, compute_metrics(traces, instance),
                                     decisions)
    return out.read_text(encoding="ascii"), stdout.getvalue(), expected


@pytest.mark.parametrize("chunk", [cli._SLOT_CHUNK, 3])
def test_simulate_streams_the_buffered_formatters_bytes(monkeypatch, tmp_path, chunk):
    # the seeded instances mark, promote and idle; every third one also
    # rejects some jobs on arrival, which the tables alone rarely do; a
    # chunk of 3 slot lines splits runs and joins several in one write
    monkeypatch.setattr(cli, "_SLOT_CHUNK", chunk)
    seen = set()
    for seed in range(24):
        machines = 4 if seed % 2 else 1
        instance = seeded_instance(seed, machines)
        trace = tmp_path / f"{seed}.txt"
        serialize_trace(instance, trace)
        forced = {job.id for job in instance.jobs[::3]} if seed % 3 == 0 else set()
        with rejecting(forced):
            text, stdout, expected = simulate_outputs(trace, tmp_path / f"{seed}.out")
        assert text == stdout == expected
        seen |= {feature for feature, mark in (
            ("idled", " real=- "), ("no ordinal", "_ordinal=-"), ("promoted", "kind=promoted"),
            ("immediate", "kind=immediate_reject"), ("dispatch", "\ndispatch "))
            if mark in text}
    assert seen == {"idled", "no ordinal", "promoted", "immediate", "dispatch"}


@settings(max_examples=40)
@given(rational_instances())
def test_simulate_matches_the_buffered_formatter(tmp_path_factory, case):
    instance, forced = case
    workdir = tmp_path_factory.mktemp("stream")
    trace = workdir / "trace.txt"
    serialize_trace(instance, trace)
    with rejecting(forced):
        text, stdout, expected = simulate_outputs(trace, workdir / "out.txt")
    assert text == stdout == expected


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # one job of 200,000 units: one run, 200,000 slot lines; buffering them
    # peaked at 38.5 MB under tracemalloc, streaming them at about 0.6 MB
    trace, out = tmp_path / "one.txt", tmp_path / "one.out"
    trace.write_text("m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1 200000\n", encoding="ascii")
    tracemalloc.start()
    try:
        assert main(["simulate", "--trace", str(trace), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    with out.open(encoding="ascii") as lines:
        assert sum(line.startswith("slot ") for line in lines) == 200_000


@pytest.mark.parametrize("symlink", [False, True], ids=["file", "symlink"])
def test_failure_while_writing_leaves_no_file(capsys, monkeypatch, trace_file, tmp_path,
                                              symlink):
    # the file exists once writing starts; a write that fails removes it, but
    # only a regular file: never a symlink, nor the device behind it
    def broken(trace):
        yield "slot machine=0 t=0 plan=0 real=0 idled=0\n"
        raise RuntimeError("formatting failed")
    monkeypatch.setattr(cli, "_slot_chunks", broken)
    out = tmp_path / "sim.txt"
    if symlink:
        out.symlink_to(os.devnull)
    rc, err = run_cli(capsys, ["simulate", "--trace", trace_file, "--out", out])
    assert rc == cli.VIOLATION and "RuntimeError: formatting failed" in err
    assert (out.is_symlink() and Path(os.devnull).exists()) if symlink else not out.exists()


def test_failure_while_closing_leaves_no_file(capsys, monkeypatch, trace_file, tmp_path):
    # the last buffered flush happens in close; a close that fails removes the file
    def failing_open(*args, **kwargs):
        file = open(*args, **kwargs)
        def close():
            type(file).close(file)
            raise OSError(errno.ENOSPC, "No space left on device")
        file.close = close
        return file
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "sim.txt"
    rc, err = run_cli(capsys, ["simulate", "--trace", trace_file, "--out", out])
    assert rc == cli.USAGE_ERROR and "No space left on device" in err
    assert not out.exists()


def test_verify_record_on_the_long_horizon_pileup(tmp_path):
    # one 36,000-unit job then 60 unit jobs: the horizon is 36,059, so the
    # beta series and the dual hull cover far more times than jobs
    trace = tmp_path / "pileup.txt"
    serialize_trace(generate(WorkloadModel(kind="adversarial_L", L=60, scale=10)), trace)
    out = tmp_path / "pileup.verify"
    assert main(["verify", "--trace", str(trace), "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == (
        "certificate machine=0 feasible=1 objective=-248399/7200 speedup=0 "
        "alpha_total=65753971/3600 beta_total=131756341/7200 violations=0\n")


def test_verify_lists_each_violation_of_an_infeasible_certificate(capsys, monkeypatch,
                                                                  tmp_path):
    # every real certificate is feasible, so zero every beta to break the
    # dual constraints of the jobs the run keeps
    analysis = importlib.import_module("flowsched.analysis")
    betas = analysis.beta_series

    def zero_betas(trace, instance):
        scale, numerators = betas(trace, instance)
        return scale, [0] * len(numerators)
    monkeypatch.setattr(analysis, "beta_series", zero_betas)
    path, out = tmp_path / "trace.txt", tmp_path / "verify.txt"
    assert main(["gen", "--model", "poisson_pareto", "--n", "20", "--seed", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--trace", str(path), "--out", str(out)]) == cli.VIOLATION == 1
    assert "error:" not in capsys.readouterr().err
    certificate, *lines = out.read_text(encoding="ascii").splitlines()
    assert "feasible=0" in certificate.split()
    instance = parse_trace(path)
    certs = [analysis.verify_duals(trace, instance) for trace in run_multi(instance)]
    assert lines == [f"violation machine={cert.machine} job={jid} t={t}"
                     for cert in certs for jid, t in cert.violations]
    assert len(lines) == 28


# -- exit codes ------------------------------------------------------------


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1 2\n1 1 3/2 1\n",
                    encoding="ascii")
    return path


def run_cli(capsys, argv):
    rc = main([str(a) for a in argv])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--epsilon", "1/0"],    # no such option: epsilon is the header's
    ["simulate", "--epsilon", "abc"],
    ["baseline", "--horizon", "0"],    # no such option: the LP needs no horizon
    ["baseline", "--horizon", "x"],
    ["verify", "--epsilon", "1/0"],
    ["audit", "--epsilon", "abc"],
    ["simulate", "--epsilon", "1"],
    ["simulate", "--machines", "2"],
    ["simulate", "--machines", "0"],
    ["verify", "--epsilon", "1"],
    ["audit", "--epsilon", "2/3"],
])
def test_bad_option_values_exit_2(capsys, trace_file, argv):
    rc, err = run_cli(capsys, argv + ["--trace", trace_file])
    assert rc == cli.USAGE_ERROR
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in err
    assert "Traceback" not in err


def test_baseline_without_jobs(capsys, tmp_path):
    path, out = tmp_path / "empty.txt", tmp_path / "base.txt"
    path.write_text("m=1 epsilon=1/2 speedup=0 seed=-\n", encoding="ascii")
    assert run_cli(capsys, ["baseline", "--trace", path, "--out", out]) == (0, "")
    assert out.read_text(encoding="ascii") == \
        "baseline speed=1 horizon=1 transport_opt=0 hdf_cost=0\n"


def assert_moved_windows_exit_1(capsys, monkeypatch, trace_file, tmp_path, move):
    # the windows contain HDF's schedule, so an infeasible LP is an engine
    # bug, not bad input
    windows = baselines._lp_windows
    monkeypatch.setattr(baselines, "_lp_windows",
                        lambda *args: [move(first, end) for first, end in windows(*args)])
    out = tmp_path / "base.txt"
    rc, err = run_cli(capsys, ["baseline", "--trace", trace_file, "--out", out])
    assert rc == cli.VIOLATION
    assert "Traceback" in err and "NetworkXUnfeasible" in err
    assert not err.startswith("error: ")
    assert not out.exists()


def test_window_that_misses_hdf_exits_1(capsys, monkeypatch, trace_file, tmp_path):
    assert_moved_windows_exit_1(capsys, monkeypatch, trace_file, tmp_path,
                                lambda first, end: (first, end - 1))


@pytest.mark.parametrize("moved", [
    {(0, 3): (0, 2)},    # two full windows: slot 1 would be pinned to both jobs
    {(1, 2): (1, 1)},    # slots 0-2 are job 0's alone: three pinned slots for a size of 2
])
def test_window_that_pins_a_slot_twice_or_a_job_past_its_size_exits_1(
        capsys, monkeypatch, trace_file, tmp_path, moved):
    # the trace's windows are (0, 3) for job 0 and (1, 2) for job 1, so the
    # LP pins every slot and the solver sees only the job demands
    assert_moved_windows_exit_1(capsys, monkeypatch, trace_file, tmp_path,
                                lambda first, end: moved.get((first, end), (first, end)))


def test_baseline_that_misses_the_hdf_cost_exits_1(capsys, monkeypatch, trace_file, tmp_path):
    # HDF attains the LP optimum, so a gap is a violated invariant; the
    # record is still written
    hdf_cost = cli.lp_cost
    monkeypatch.setattr(cli, "lp_cost", lambda *args: hdf_cost(*args) + 1)
    out = tmp_path / "base.txt"
    assert run_cli(capsys, ["baseline", "--trace", trace_file, "--out", out]) == \
        (cli.VIOLATION, "")
    assert out.read_text(encoding="ascii") == \
        "baseline speed=1 horizon=5 transport_opt=11/4 hdf_cost=15/4\n"


def test_window_past_its_busy_period_exits_1(capsys, monkeypatch, trace_file, tmp_path):
    # the windows tile the busy slots: one slot longer, the last window
    # reaches the idle slot after the last busy period, and the demands no
    # longer balance
    assert_moved_windows_exit_1(capsys, monkeypatch, trace_file, tmp_path,
                                lambda first, end: (first, end + 1))


def test_window_that_starts_late_exits_1(capsys, monkeypatch, trace_file, tmp_path):
    # one slot later, no window reaches the first slot of a busy period
    assert_moved_windows_exit_1(capsys, monkeypatch, trace_file, tmp_path,
                                lambda first, end: (first + 1, end))


# In one fresh interpreter: first what ``import flowsched`` and its lazy
# names load (``verify_duals`` on a package imported afresh, without
# ``dispatch``), and that ``flowsched.dispatch`` is the submodule in each
# import order (each on a package imported afresh); then runs each argv in order
# and prints, after each, its exit code and whether networkx is loaded.
# The commands' own output is discarded.
_NETWORKX_PROBE = """
import contextlib, importlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("flowsched."))

def fresh():
    for name in ["flowsched", *loaded()]:
        del sys.modules[name]
    return importlib.import_module("flowsched")

import flowsched
print(json.dumps(["bare", loaded(), "networkx" in sys.modules]))
flowsched.generate, flowsched.WorkloadModel, flowsched.serialize_trace
print(json.dumps(["set-up", loaded()]))
star = {}
exec("from flowsched import *", star)
wrong = []
for name, home in flowsched._HOME.items():
    module = importlib.import_module("flowsched." + home)
    value = getattr(module, name)
    # defined in its home module, but Rational, which is fractions.Fraction
    if not (getattr(flowsched, name) is star[name] is value) \
            or value.__module__ not in (module.__name__, "fractions"):
        wrong.append(name)
print(json.dumps(["names", wrong, set(flowsched.__all__) <= set(dir(flowsched))]))
flowsched = fresh()
from flowsched import verify_duals
print(json.dumps(["verify_duals", loaded()]))
flowsched = fresh()
first = flowsched.dispatch
print(json.dumps(["first", first is importlib.import_module("flowsched.dispatch"),
                  flowsched.baselines is importlib.import_module("flowsched.baselines")]))
flowsched = fresh()
import flowsched.cli
from flowsched import dispatch
print(json.dumps(["after cli", dispatch is sys.modules["flowsched.dispatch"]]))
flowsched = fresh()
module = importlib.import_module("flowsched.dispatch")
from flowsched import dispatch
print(json.dumps(["after submodule", dispatch is module is flowsched.dispatch]))

from flowsched import baselines
from flowsched.cli import main
print(json.dumps(["import", 0, "networkx" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    print(json.dumps([argv[0], rc, "networkx" in sys.modules]))
import networkx
print(json.dumps(["nx", baselines.nx is networkx, hasattr(baselines, "no_such_name")]))
"""


def test_only_baseline_loads_networkx(tmp_path, trace_file):
    # in a subprocess: the test oracles import networkx into this one
    base = tmp_path / "base.txt"
    assert main(["baseline", "--trace", str(trace_file), "--out", str(base)]) == 0
    outs = {name: str(tmp_path / f"{name}.txt")
            for name in ("gen", "simulate", "verify", "audit", "report", "baseline")}
    commands = [["gen", "--model", "uniform", "--n", "8", "--out", outs["gen"]]]
    commands += [[name, "--trace", str(trace_file), "--out", outs[name]]
                 for name in ("simulate", "verify", "audit")]
    commands += [["report", "--sim", outs["simulate"], "--baseline", str(base),
                  "--out", outs["report"]],
                 ["baseline", "--trace", str(trace_file), "--out", outs["baseline"]]]
    src = str(Path(flowsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NETWORKX_PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        ["bare", [], False], ["set-up", ["flowsched.core", "flowsched.harness"]],
        ["names", [], True],
        ["verify_duals", ["flowsched.analysis", "flowsched.core", "flowsched.impact",
                          "flowsched.rejection", "flowsched.scheduler"]],
        ["first", True, True], ["after cli", True], ["after submodule", True],
        ["import", 0, False], ["gen", 0, False], ["simulate", 0, False],
        ["verify", 0, False], ["audit", 0, False], ["report", 0, False],
        ["baseline", 0, True], ["nx", True, False]]
    assert Path(outs["baseline"]).read_bytes() == base.read_bytes()


@pytest.mark.parametrize("machines", [1, 4])
@pytest.mark.parametrize("command", ["simulate", "verify", "audit"])
def test_each_command_prepares_its_instance_once(monkeypatch, tmp_path, command, machines):
    # the parser validates the instance and the instance caches its density
    # scale; the engine and the analysis validate nothing and reuse the scale
    path = tmp_path / "trace.txt"
    serialize_trace(generate(WorkloadModel(kind="uniform", n=30, seed=6,
                                           machines=machines)), path)
    calls = {"validate_instance": 0, "density_scale": 0}
    core = importlib.import_module("flowsched.core")
    modules = [module for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "flowsched"]
    for name in calls:
        original = getattr(core, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        # every module that imported the function by name calls its own binding
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main([command, "--trace", str(path), "--out", str(tmp_path / "out.txt")]) == 0
    assert calls == {"validate_instance": 1, "density_scale": 1}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# every option of every subcommand: a new one needs a deliberate edit here
CLI_OPTIONS = {
    "gen": ["--model", "--out", "--n", "--seed", "--L", "--scale", "--rate", "--shape",
            "--max-release", "--max-size", "--max-weight", "--machines", "--epsilon"],
    "simulate": ["--trace", "--out"],
    "baseline": ["--trace", "--out"],
    "verify": ["--trace", "--out"],
    "audit": ["--trace", "--out"],
    "report": ["--sim", "--baseline", "--audit", "--out"],
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    commands, = (action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert {name: [option for action in sub._actions for option in action.option_strings
                   if option not in ("-h", "--help")]
            for name, sub in commands.items()} == CLI_OPTIONS


def test_gen_epsilon_changes_only_the_header(tmp_path):
    # epsilon comes only from the trace header: to run the same jobs at another
    # epsilon, generate them again with the same seed
    lines = {}
    for flags in ([], ["--epsilon", "1/10"]):
        out = tmp_path / f"gen{len(flags)}.txt"
        assert main(["gen", "--model", "poisson_pareto", "--n", "12", "--seed", "3",
                     "--out", str(out), *flags]) == 0
        lines[len(flags)] = out.read_text(encoding="ascii").splitlines()
    assert lines[0][0] == "m=1 epsilon=1/4 speedup=0 seed=3"
    assert lines[2][0] == "m=1 epsilon=1/10 speedup=0 seed=3"
    assert lines[0][1:] == lines[2][1:] and len(lines[0]) == 13


def test_no_parse_state_leaks_between_calls(capsys, tmp_path, trace_file):
    # an --out given to one call must not stick: the next call writes to stdout
    out = tmp_path / "sim.txt"
    assert main(["simulate", "--trace", str(trace_file), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["simulate", "--trace", str(trace_file)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "header m=1 epsilon=1/2 speedup=0"
    assert stdout == out.read_text(encoding="ascii")


def test_commands_are_looked_up_when_called(capsys, monkeypatch, trace_file):
    assert main(["audit", "--trace", str(trace_file)]) == 0
    assert capsys.readouterr().out.startswith("budget ")
    calls = []
    monkeypatch.setattr(cli, "cmd_audit", lambda args: calls.append(args.trace) or 7)
    assert main(["audit", "--trace", str(trace_file)]) == 7
    assert calls == [str(trace_file)] and capsys.readouterr().out == ""


# the whole error line, where a test pins it
BAD_TRACE_ERRORS = {
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1/0 2\n":
        "error: line 2: zero denominator: '1/0'\n",
    "m=1 epsilon=1/0 speedup=0 seed=-\n0 0 1 2\n":
        "error: bad header on line 1: zero denominator: '1/0'\n",
}


@pytest.mark.parametrize("text", [
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1\n",         # missing field
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1/0 2\n",     # zero denominator
    "m=1 epsilon=1/0 speedup=0 seed=-\n0 0 1 2\n",
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1 2\n0 1 1 1\n",  # duplicate id
    "m=1 epsilon=1/2 speedup=1/4 seed=-\n0 0 1 2\n",    # instances carry no speed
    "m=1 epsilon=1/2 speedup=0 seed=-\n1_0 0 1 2\n",    # integer fields: digits only
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 +2 1 2\n",
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1 0_4\n",
    "m=1 epsilon=1/2 speedup=0 seed=-\n-1 0 1 2\n",     # negative id: validation
    "m=1 epsilon=1 speedup=0 seed=-\n0 0 1 2\n",        # epsilon^2 > 1/2
    "m=1 epsilon=2/3 speedup=0 seed=-\n0 0 1 2\n",      # 1/epsilon not an integer
])
def test_bad_trace_files_exit_2(capsys, tmp_path, text):
    path, out = tmp_path / "bad.txt", tmp_path / "sim.txt"
    path.write_text(text, encoding="ascii")
    rc, err = run_cli(capsys, ["simulate", "--trace", path, "--out", out])
    assert rc == cli.USAGE_ERROR
    assert err.startswith("error: ") and "Traceback" not in err
    assert err == BAD_TRACE_ERRORS.get(text, err)
    assert not out.exists()


# tokens that break a header or a job field, most of them near a valid one
BROKEN = {"m": ["0", "1", "3", "x", "-1"],
          "epsilon": ["2/5", "1/0", "0.25", "1", "0", "-1/2"],
          "speedup": ["1", "1/0", "0/1"],
          "field": ["1/0", "+1", "1,,2", "-", "-1", "0", "x", "1_0", "2/4", "1,"]}


@st.composite
def trace_texts(draw):
    """A trace file of at most 6 jobs on at most 3 machines, releases at
    most 12 and sizes at most 5. About one header token in eight and one
    job line in four is broken, and one file in ten has no header. Choices
    are ``sampled_from``, as ``integers`` draws its lower bound far more
    often than one time in its range."""
    def one_in(odds):
        return draw(st.sampled_from(range(odds))) == odds - 1

    def sometimes(valid, broken):
        return draw(st.sampled_from(BROKEN[broken])) if one_in(8) else valid
    machines = draw(st.integers(1, 3))
    epsilon = draw(st.sampled_from(["1/2", "1/4", "1/10"]))
    lines = [f"m={sometimes(machines, 'm')} epsilon={sometimes(epsilon, 'epsilon')} "
             f"speedup={sometimes('0', 'speedup')} seed=-"]
    for jid in range(draw(st.sampled_from(range(7)))):
        fields = [str(jid), str(draw(st.integers(0, 12))),
                  draw(st.sampled_from(["1", "3/2", "1/4", "5", "2/3"])),
                  ",".join(draw(st.lists(st.sampled_from("12345-"),
                                         min_size=machines, max_size=machines)))]
        edit = draw(st.sampled_from(range(24)))
        if edit < len(fields):
            fields[edit] = draw(st.sampled_from(BROKEN["field"]))
        elif edit == 4:
            fields.append("1")
        elif edit == 5:
            fields.pop()
        lines.append(" ".join(fields))
    return "\n".join(lines[one_in(10):]) + "\n"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=trace_texts())
@example(text="# a comment, and no header\n")
def test_a_malformed_trace_file_never_produces_a_traceback(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "trace.txt"
    path.write_text(text, encoding="ascii")
    for command in ("simulate", "verify", "audit", "baseline"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([command, "--trace", str(path)])
        err = stderr.getvalue()
        assert "Traceback" not in err
        if rc == cli.USAGE_ERROR:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and rc in ((0, 1) if command in ("verify", "audit") else (0,))


def test_missing_file_exits_2(capsys, tmp_path):
    rc, err = run_cli(capsys, ["simulate", "--trace", tmp_path / "absent.txt"])
    assert rc == cli.USAGE_ERROR
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--model", "poisson_pareto", "--rate", "0"],
    ["--model", "poisson_pareto", "--shape", "0"],
    ["--model", "poisson_pareto", "--rate", "1e-320"],    # draws overflow to infinity
    ["--model", "poisson_pareto", "--shape", "1e-320"],
    ["--model", "poisson_pareto", "--max-weight", "0"],
    ["--model", "fixed", "--machines", "4"],          # single-machine kinds
    ["--model", "adversarial_L", "--machines", "4"],
    ["--model", "uniform", "--machines", "0"],        # zero is a value, not "unset"
    ["--model", "uniform", "--epsilon", "0"],
    ["--model", "uniform", "--max-release", "-5"],    # no release in [0, -5]
    ["--model", "uniform", "--n", "-1"],
    ["--model", "adversarial_L", "--L", "0"],
    ["--model", "adversarial_L", "--scale", "0"],
])
def test_bad_generator_parameters_exit_2(capsys, tmp_path, flags):
    out = tmp_path / "gen.txt"
    rc, err = run_cli(capsys, ["gen", "--out", out] + flags)
    assert rc == cli.USAGE_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_refuses_an_epsilon_that_is_not_a_rational(capsys, tmp_path):
    out = tmp_path / "gen.txt"
    rc, err = run_cli(capsys, ["gen", "--model", "uniform", "--epsilon", "abc", "--out", out])
    assert rc == cli.USAGE_ERROR
    assert "not a rational: 'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a b.txt", "a\tb.txt", "ab.txt\n"])
def test_gen_refuses_an_out_path_with_whitespace(capsys, tmp_path, name):
    # gen prints the path as one out= field, which whitespace would split
    rc = main(["gen", "--model", "uniform", "--n", "2", "--out", str(tmp_path / name)])
    out, err = capsys.readouterr()
    assert rc == cli.USAGE_ERROR
    assert out == "" and err.startswith("error: ") and "whitespace" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--model", "uniform"], "--speedup"),
    (["baseline"], "--speed"),
    (["verify"], "--speedup"),
], ids=["gen", "baseline", "verify"])
def test_commands_have_no_speed_option(capsys, tmp_path, trace_file, argv, flag):
    # every schedule runs at unit speed, so no command takes a speed
    out = tmp_path / "out.txt"
    source = [] if argv[0] == "gen" else ["--trace", trace_file]
    rc, err = run_cli(capsys, argv + source + ["--out", out, flag, "5/4"])
    assert rc == cli.USAGE_ERROR
    assert err.startswith("usage: ") and f"unrecognized arguments: {flag} 5/4" in err
    assert not out.exists()


def test_engine_error_exits_1_and_names_it(capsys, monkeypatch, trace_file):
    def broken(instance):
        raise ArrivalInPast("job 1 released at 0, clock is 3")
    monkeypatch.setattr(cli, "run", broken)
    out = trace_file.with_name("sim.txt")
    rc, err = run_cli(capsys, ["simulate", "--trace", trace_file, "--out", out])
    assert rc == cli.VIOLATION
    assert "ArrivalInPast: job 1 released at 0, clock is 3" in err
    assert not err.startswith("error: ")
    assert not out.exists()


def test_job_routed_where_it_cannot_run_exits_1(capsys, monkeypatch, tmp_path):
    # validation and dispatch keep every job on a machine that can run it,
    # so a job that reaches any other machine is an engine bug
    path = tmp_path / "m2.txt"
    path.write_text("m=2 epsilon=1/2 speedup=0 seed=-\n0 0 1 2,2\n1 1 3/2 1,-\n",
                    encoding="ascii")
    module = importlib.import_module("flowsched.dispatch")
    route = module.dispatch

    def misroute(job, machines):
        return 1 if job.id == 1 else route(job, machines)
    monkeypatch.setattr(module, "dispatch", misroute)
    out = tmp_path / "sim.txt"
    rc, err = run_cli(capsys, ["simulate", "--trace", path, "--out", out])
    assert rc == cli.VIOLATION
    assert "JobNotRunnableOnMachine: job 1 has no size on machine 1" in err
    assert not err.startswith("error: ")
    assert not out.exists()


def test_scale_that_misses_a_density_exits_1(capsys, monkeypatch, tmp_path):
    # the instance computes its own scale, so a scale that misses a job's
    # density is an engine bug, not bad input
    path = tmp_path / "thirds.txt"
    path.write_text("m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1/3 1\n", encoding="ascii")
    monkeypatch.setattr(importlib.import_module("flowsched.core"), "density_scale",
                        lambda jobs: 1)
    rc, err = run_cli(capsys, ["simulate", "--trace", path])
    assert rc == cli.VIOLATION
    assert "DensityNotSpanned: scale 1 does not span the density of job 0" in err
    assert not err.startswith("error: ")


def test_report_rejects_malformed_record_files(capsys, tmp_path, trace_file):
    base = tmp_path / "base.txt"
    sim = tmp_path / "sim.txt"
    assert main(["baseline", "--trace", str(trace_file), "--out", str(base)]) == 0
    assert main(["simulate", "--trace", str(trace_file), "--out", str(sim)]) == 0
    assert main(["report", "--sim", str(sim), "--baseline", str(base)]) == 0
    capsys.readouterr()

    rc, err = run_cli(capsys, ["report", "--sim", base, "--baseline", base])
    assert rc == cli.USAGE_ERROR
    assert err.startswith(f"error: no metric records in {base}")

    broken = tmp_path / "broken.txt"
    broken.write_text(re.sub(r"name=total_weight value=\S+", "name=total_weight value=1/0",
                             sim.read_text(encoding="ascii")), encoding="ascii")
    rc, err = run_cli(capsys, ["report", "--sim", broken, "--baseline", base])
    assert rc == cli.USAGE_ERROR
    assert err == f"error: metric record in {broken} has no rational value=\n"

    audit = tmp_path / "audit.txt"
    audit.write_text("budget value=1\n", encoding="ascii")
    rc, err = run_cli(capsys, ["report", "--sim", sim, "--baseline", base, "--audit", audit])
    assert rc == cli.USAGE_ERROR
    assert err == f"error: budget record in {audit} lacks name= or ok=\n"



# blank and indented lines, records whose names start with a joined one,
# lines that hold a joined record's name elsewhere than first, and records
# after a line break that ends no file line (\x1e, \f)
REPORT_SIM = ("header m=1 epsilon=1/2 speedup=0\n\n"
              "slot machine=0 t=0 plan=0 real=0 idled=0\n"
              "   metric name=weighted_flow value=9/2\n"
              "event machine=0 t=1 job=0 kind=metric\n"
              "metrics name=weighted_flow value=100\n"
              "note\x1emetric name=departure_objective value=11/2\n"
              "\tmetric name=rejected_weight_delayed value=1\n"
              "  \n"
              "metric name=rejected_weight_immediate value=0 note=metric\n"
              "metric name=total_weight value=4\n"
              "notes: a metric line\n")
REPORT_BASELINE = ("\nnote\x0c  baseline speed=1 horizon=9 transport_opt=3 hdf_cost=3\n"
                   "baselines transport_opt=1\n"
                   "note baseline transport_opt=2\n")
REPORT_AUDIT = ("fraction name=delayed value=1/4\n"
                "  budget name=delayed_weight value=1 bound=2 ok=1\n"
                "budgets name=x ok=0\n\n"
                "bucket machine=0 table=plus key=1,0 count=1 note=budget\n"
                "budget name=grand_total value=2 bound=15/2 ok=0\n")


def test_report_joins_only_its_records_among_other_lines(capsys, tmp_path):
    # output and errors as recorded when report split every line of its inputs
    files = {}
    for name, text in (("sim", REPORT_SIM), ("baseline", REPORT_BASELINE),
                       ("audit", REPORT_AUDIT), ("bad_sim", REPORT_SIM.replace(
                           "value=4", "value=x")),
                       ("bad_baseline", REPORT_BASELINE.replace("  baseline ", "  baseline- ")),
                       ("bad_audit", REPORT_AUDIT.replace("name=grand_total ", ""))):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text, encoding="ascii")
    out = tmp_path / "report.txt"
    assert main(["report", "--sim", str(files["sim"]), "--baseline", str(files["baseline"]),
                 "--audit", str(files["audit"]), "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == (
        "report weighted_flow=9/2 transport_opt=3 ratio=3/2 departure_objective=11/2 "
        "delayed_fraction=1/4 immediate_fraction=0\n"
        "report_budget name=delayed_weight ok=1\n"
        "report_budget name=grand_total ok=0\n")
    for argv, message in (
            (["--sim", files["bad_sim"], "--baseline", files["baseline"]],
             f"metric record in {files['bad_sim']} has no rational value="),
            (["--sim", files["sim"], "--baseline", files["bad_baseline"]],
             f"no baseline record in {files['bad_baseline']}"),
            (["--sim", files["sim"], "--baseline", files["baseline"],
              "--audit", files["bad_audit"]],
             f"budget record in {files['bad_audit']} lacks name= or ok=")):
        assert run_cli(capsys, ["report", *argv]) == (cli.USAGE_ERROR, f"error: {message}\n")


def test_report_refuses_an_audit_of_another_epsilon(capsys, tmp_path):
    # the same jobs at two epsilons: the audit must be of the simulated run,
    # whose delayed_weight budget is eps * W = 1/2 * 151/2, not 1/10 * 151/2
    files = {}
    for name, epsilon in (("a", "1/2"), ("b", "1/10")):
        trace = files[name] = tmp_path / f"{name}.txt"
        assert main(["gen", "--model", "poisson_pareto", "--seed", "3", "--n", "20",
                     "--epsilon", epsilon, "--out", str(trace)]) == 0
        for command in ("simulate", "baseline", "audit"):
            files[name, command] = tmp_path / f"{name}.{command}"
            assert main([command, "--trace", str(trace),
                         "--out", str(files[name, command])]) == 0
    capsys.readouterr()
    report = ["report", "--sim", str(files["a", "simulate"]),
              "--baseline", str(files["a", "baseline"]), "--audit"]
    assert main(report + [str(files["a", "audit"])]) == 0
    assert capsys.readouterr().out.count(" ok=1\n") == 5
    assert main(report + [str(files["b", "audit"])]) == cli.USAGE_ERROR
    assert capsys.readouterr() == ("", (
        f"error: {files['b', 'audit']} has no delayed_weight budget with bound=151/4, "
        f"epsilon times total_weight in {files['a', 'simulate']}\n"))


@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
def test_ratio_text_is_the_fractions_text(num, den):
    assert cli._ratio(num, den) == str(Fraction(num, den))

if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import build_suite

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(build_suite(), Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="ascii")
