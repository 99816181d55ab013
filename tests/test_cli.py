"""Command-line behaviour: byte-identical outputs and exit codes.

The golden digests in ``golden_cli.json`` were recorded from ``cli.main``
and pin every byte of ``gen``, ``simulate``, ``baseline``, ``verify``,
``audit`` and ``report`` output. After a deliberate change of output,
re-record them with ``PYTHONPATH=src python tests/test_cli.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flowsched import WorkloadModel, generate, serialize_trace
from flowsched import cli
from flowsched.cli import main
from flowsched.scheduler import ArrivalInPast

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


BASELINE_SPEEDS = ("1", "5/4", "2")


def baseline_report_digests(named, workdir: Path) -> dict[str, str]:
    """``baseline`` at each speed, and ``report`` with and without the
    ``audit`` file, on small single-machine instances."""
    digests = {}
    for name, instance in named:
        trace = workdir / f"{name}.txt"
        serialize_trace(instance, trace)
        files = {command: workdir / f"{name}.{command}"
                 for command in ("simulate", "audit", "baseline")}
        for speed in BASELINE_SPEEDS:
            digests[f"baseline speed={speed} {name}"] = _run_digest(
                ["baseline", "--trace", trace, "--speed", speed], files["baseline"])
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
    ["simulate", "--epsilon", "1/0"],
    ["simulate", "--epsilon", "abc"],
    ["baseline", "--speed", "0"],
    ["baseline", "--speed", "-1"],
    ["baseline", "--speed", "1+1/0"],
    ["baseline", "--horizon", "0"],
    ["verify", "--speedup", "-1"],
    ["verify", "--speedup", "-2"],
    ["simulate", "--epsilon", "1"],   # overrides are validated
    ["simulate", "--machines", "2"],
    ["baseline", "--speed", "1+1/4"],  # a speed is one rational
])
def test_bad_option_values_exit_2(capsys, trace_file, argv):
    rc, err = run_cli(capsys, argv + ["--trace", trace_file])
    assert rc == cli.USAGE_ERROR
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, validations", [
    ([], 0), (["--epsilon", "1/4"], 1), (["--machines", "1"], 1)])
def test_trace_is_revalidated_only_after_an_override(monkeypatch, trace_file, flags,
                                                     validations):
    # parse_trace already returns a validated instance
    calls = []
    validate = cli.validate_instance
    monkeypatch.setattr(cli, "validate_instance",
                        lambda instance: calls.append(instance) or validate(instance))
    args = cli.build_parser().parse_args(["simulate", "--trace", str(trace_file), *flags])
    instance = cli._load_instance(args)
    assert len(calls) == validations
    assert instance.epsilon == (Fraction(1, 4) if "--epsilon" in flags else Fraction(1, 2))


@pytest.mark.parametrize("text", [
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1\n",         # missing field
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1/0 2\n",     # zero denominator
    "m=1 epsilon=1/2 speedup=0 seed=-\n0 0 1 2\n0 1 1 1\n",  # duplicate id
    "m=1 epsilon=1/2 speedup=1/4 seed=-\n0 0 1 2\n",    # instances carry no speed
])
def test_bad_trace_files_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="ascii")
    rc, err = run_cli(capsys, ["simulate", "--trace", path])
    assert rc == cli.USAGE_ERROR
    assert err.startswith("error: ") and "Traceback" not in err


def test_missing_file_exits_2(capsys, tmp_path):
    rc, err = run_cli(capsys, ["simulate", "--trace", tmp_path / "absent.txt"])
    assert rc == cli.USAGE_ERROR
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--model", "poisson_pareto", "--rate", "0"],
    ["--model", "poisson_pareto", "--shape", "0"],
    ["--model", "poisson_pareto", "--max-weight", "0"],
    ["--model", "fixed", "--machines", "4"],          # single-machine kinds
    ["--model", "adversarial_L", "--machines", "4"],
    ["--model", "uniform", "--machines", "0"],        # zero is a value, not "unset"
    ["--model", "uniform", "--epsilon", "0"],
])
def test_bad_generator_parameters_exit_2(capsys, tmp_path, flags):
    rc, err = run_cli(capsys, ["gen", "--out", tmp_path / "gen.txt"] + flags)
    assert rc == cli.USAGE_ERROR
    assert err.startswith("error: ")


def test_gen_has_no_speedup_option(capsys, tmp_path):
    out = tmp_path / "gen.txt"
    rc, err = run_cli(capsys, ["gen", "--model", "uniform", "--out", out,
                               "--speedup", "1/4"])
    assert rc == cli.USAGE_ERROR
    assert err.startswith("usage: ") and "--speedup" in err
    assert not out.exists()


def test_engine_error_exits_1_and_names_it(capsys, monkeypatch, trace_file):
    def broken(instance):
        raise ArrivalInPast("job 1 released at 0, clock is 3")
    monkeypatch.setattr(cli, "run", broken)
    rc, err = run_cli(capsys, ["simulate", "--trace", trace_file])
    assert rc == cli.VIOLATION
    assert "ArrivalInPast: job 1 released at 0, clock is 3" in err
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


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import build_suite

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(build_suite(), Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="ascii")
