import ast
import builtins
import importlib
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowsched
from flowsched import (Instance, InvalidInstance, Job, JobNotRunnableOnMachine,
                       MachineScheduler, ResidualJob, density_scale, format_trace,
                       parse_trace_text, validate_instance)
from flowsched.cli import _INPUT_ERRORS
from flowsched.core import DensityNotSpanned
from flowsched.harness import BadParameters
from flowsched.impact import ArrivalImpact

import oracles
from conftest import job, make_instance
from oracles import residual_weight


def test_accepts_simple_instance():
    inst = validate_instance(make_instance([job(0, 0, 1, 2)], epsilon=Fraction(1, 3)))
    assert inst.epsilon == Fraction(1, 3)
    assert inst.jobs[0].weight == 1


def test_epsilon_reciprocal_must_be_integral():
    with pytest.raises(InvalidInstance, match=r"^1/epsilon must be a positive integer, "
                                              r"got epsilon=2/5$"):
        validate_instance(make_instance([job(0, 0, 1, 2)], epsilon=Fraction(2, 5)))


def test_epsilon_one_is_too_large():
    with pytest.raises(InvalidInstance, match=r"^epsilon\^2 must be at most 1/2, got epsilon=1$"):
        validate_instance(make_instance([job(0, 0, 1, 2)], epsilon=Fraction(1, 1)))


def test_duplicate_ids_rejected():
    with pytest.raises(InvalidInstance, match="^job id 3 appears twice$"):
        validate_instance(make_instance([job(3, 0, 1, 2), job(3, 1, 1, 2)]))


def test_nonpositive_weight_and_size():
    for weight in (Fraction(0), Fraction(-1, 3), 0, -2):
        with pytest.raises(InvalidInstance, match=f"^job 0 has nonpositive weight {weight}$"):
            validate_instance(make_instance([Job(0, 0, weight, (2,))]))
    with pytest.raises(InvalidInstance, match="^job 0 has a size below 1$"):
        validate_instance(make_instance([job(0, 0, 1, 0)]))
    with pytest.raises(InvalidInstance, match="^job 0 is not runnable on any machine$"):
        validate_instance(make_instance([Job(0, 0, Fraction(1), (None,))]))


def test_canonical_jobs_are_kept_and_others_coerced():
    canonical = Job(0, 0, Fraction(3, 2), (2,))
    raw = Job(1, 1, 4, [3])
    inst = validate_instance(make_instance([canonical, raw]))
    assert inst.jobs[0] is canonical
    assert inst.jobs[1] == Job(1, 1, Fraction(4), (3,))
    assert type(inst.jobs[1].weight) is Fraction and type(inst.jobs[1].sizes) is tuple
    again = validate_instance(inst)
    assert all(a is b for a, b in zip(again.jobs, inst.jobs))


def test_sizes_must_match_machine_count():
    with pytest.raises(InvalidInstance, match="^job 0 lists 2 sizes for 1 machines$"):
        validate_instance(Instance((Job(0, 0, Fraction(1), (1, 2)),), machines=1))


def test_missing_size_allowed_only_with_an_alternative():
    inst = validate_instance(
        Instance((Job(0, 0, Fraction(1), (None, 3)),), machines=2))
    assert not oracles.runnable_on(inst.jobs[0], 0)
    assert inst.jobs[0].size_on(1) == 3
    with pytest.raises(JobNotRunnableOnMachine):
        inst.jobs[0].size_on(0)


def test_jobs_resorted_stably_by_release():
    inst = validate_instance(make_instance(
        [job(0, 5, 1, 1), job(1, 2, 1, 1), job(2, 5, 1, 1)]))
    assert [j.id for j in inst.jobs] == [1, 0, 2]


def test_negative_release_rejected():
    with pytest.raises(InvalidInstance):
        validate_instance(make_instance([job(0, -1, 1, 2)]))


@pytest.mark.parametrize("fields, named", [
    (dict(id=[1]), "job id"),                  # unhashable
    (dict(id=True), "job id"),                 # a bool is not an id
    (dict(release=1.0), "release"),
    (dict(weight="x"), "weight"),
    (dict(weight=float("inf")), "weight"),
    (dict(sizes=5), "sizes"),                  # not a sequence
    (dict(sizes=(1.5,)), "size"),
    (dict(sizes=(True,)), "size"),
])
def test_malformed_job_field_is_named(fields, named):
    # API input the trace parser never builds; each is bad input, not a crash
    raw = dict(id=0, release=0, weight=Fraction(1), sizes=(2,)) | fields
    with pytest.raises(InvalidInstance, match=f"{named} must be"):
        validate_instance(Instance((Job(**raw),)))


@pytest.mark.parametrize("fields, named", [
    (dict(epsilon="x"), "epsilon"), (dict(machines="2"), "machines"),
    (dict(machines=1.0), "machines")])
def test_malformed_instance_field_is_named(fields, named):
    with pytest.raises(InvalidInstance, match=f"{named} must be"):
        validate_instance(Instance((Job(0, 0, Fraction(1), (2,)),), **fields))


def test_scale_and_index_are_cached_not_compared():
    jobs = [job(0, 0, Fraction(1, 3), 2), job(1, 1, 1, 5)]
    inst, fresh = make_instance(jobs), make_instance(jobs)
    assert inst.scale == density_scale(inst.jobs) == 30
    assert inst.by_id == {0: inst.jobs[0], 1: inst.jobs[1]}
    assert inst.by_id is inst.by_id
    assert inst == fresh and "scale" not in vars(fresh)  # the cache is not compared
    assert inst.table == oracles.integer_table(inst) and inst.table is inst.table
    assert "table" not in vars(fresh)  # built on first use, not by validation
    assert [f.name for f in fields(Instance)] == ["jobs", "machines", "epsilon"]


def test_density_and_residual_weight():
    j = job(0, 0, Fraction(6), 3)
    assert j.density() == 2
    res = ResidualJob(j, Fraction(2), 0, Instance((j,)).table[j.id])
    assert residual_weight(res) == 4  # density stays 2 as remaining shrinks


# -- the density scale against the Fraction lcm oracle ------------------------


@st.composite
def multi_machine_jobs(draw) -> list[Job]:
    """Up to 10 jobs on 1, 2 or 4 machines, some sizes missing, with
    weights whose numerators share factors with the sizes."""
    machines = draw(st.sampled_from([1, 2, 4]))
    jobs = []
    for jid in range(draw(st.integers(0, 10))):
        sizes = draw(st.lists(st.one_of(st.none(), st.integers(1, 60)),
                              min_size=machines, max_size=machines)
                     .filter(lambda sizes: any(s is not None for s in sizes)))
        weight = Fraction(draw(st.integers(1, 120)), draw(st.integers(1, 30)))
        jobs.append(Job(jid, 0, weight, tuple(sizes)))
    return jobs


@settings(max_examples=300)
@given(multi_machine_jobs())
def test_density_scale_is_the_fraction_lcm(jobs):
    scale = density_scale(jobs)
    assert type(scale) is int and scale == oracles.density_scale(jobs)
    table = Instance(tuple(jobs), len(jobs[0].sizes) if jobs else 1).table
    for j in jobs:
        assert (j.weight * scale).denominator == 1
        for m, size in enumerate(j.sizes):
            if size is None:
                continue
            rho = table[j.id][2][m][0]
            assert type(rho) is int and Fraction(rho, scale) == j.density(m)


@settings(max_examples=200)
@given(multi_machine_jobs())
def test_instance_table_matches_the_per_call_conversion(jobs):
    # through a trace file too, where a missing size is "-"
    machines = len(jobs[0].sizes) if jobs else 1
    inst = validate_instance(Instance(tuple(jobs), machines))
    expected = oracles.integer_table(inst)
    assert inst.table == expected
    parsed = parse_trace_text(format_trace(inst))
    assert "table" not in vars(parsed)
    assert parsed.table == expected
    assert all(type(x) is int for weight, klass, cells in inst.table.values()
               for x in (weight, klass, *(v for cell in cells if cell for v in cell)))


def test_scaled_density_refuses_a_scale_that_misses_a_factor(monkeypatch):
    j = Job(0, 0, Fraction(2, 3), (None, 7))
    assert density_scale([j]) == 21
    # machine 0 has no entry: a job delivered where it cannot run is refused
    assert Instance((j,), 2).table[0][2][0] is None
    with pytest.raises(JobNotRunnableOnMachine):
        MachineScheduler(Instance((j,), 2), 0).on_arrival(j)
    core = importlib.import_module("flowsched.core")
    for scale in (42, 1, 3, 7, 2 * 7):
        monkeypatch.setattr(core, "density_scale", lambda jobs: scale)
        inst = Instance((j,), 2)
        if scale == 42:
            assert inst.table[0] == oracles.job_row(j, 42) == (28, -1, (None, (4, -4)))
            continue
        with pytest.raises(DensityNotSpanned, match=f"scale {scale} .* job 0 on machine 1"):
            inst.table


rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=64)


@given(rationals, rationals)
def test_rational_addition_matches_cross_multiplication(a, b):
    s = a + b
    lhs = s.numerator * a.denominator * b.denominator
    rhs = (a.numerator * b.denominator + b.numerator * a.denominator) * s.denominator
    assert lhs == rhs


@given(rationals)
def test_rational_stored_in_lowest_terms(a):
    import math
    assert a.denominator > 0
    assert math.gcd(a.numerator, a.denominator) == 1
    assert Fraction(a.numerator, a.denominator) == a


def test_every_exported_name_exists():
    assert [name for name in flowsched.__all__ if not hasattr(flowsched, name)] == []


def weight_conversions(tree: ast.AST) -> list[int]:
    """Lines that turn a weight into integers: ``.numerator``,
    ``.denominator`` or ``.as_integer_ratio`` of a ``.weight``, or of a name
    bound to an expression that reads one, and any ``density_scale`` call."""
    nodes = list(ast.walk(tree))

    def reads_weight(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "weight" for n in ast.walk(node))
    derived = {target.id for node in nodes if isinstance(node, ast.Assign)
               and reads_weight(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    lines = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) \
                and node.attr in ("numerator", "denominator", "as_integer_ratio"):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "weight" \
                    or isinstance(value, ast.Name) and value.id in derived:
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and "density_scale" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_core_converts_weights_to_integers():
    # Instance.table is the one conversion; every other module reads it
    modules = {path.name: weight_conversions(ast.parse(path.read_text(encoding="utf-8")))
               for path in Path(flowsched.__file__).parent.glob("*.py")}
    assert modules.pop("core.py")    # the scan finds the conversion where it is
    assert {name: lines for name, lines in modules.items() if lines} == {}


def unread_imports(tree: ast.AST) -> list[str]:
    """Names an import binds in the module that no expression reads."""
    nodes = list(ast.walk(tree))
    read = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [(alias.asname or alias.name).partition(".")[0]
             for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return sorted(set(bound) - read)


def test_every_imported_name_is_read():
    # a name kept only for another module to import from here is dead code
    modules = {path.name: unread_imports(ast.parse(path.read_text(encoding="utf-8")))
               for path in Path(flowsched.__file__).parent.glob("*.py")}
    assert {name: unread for name, unread in modules.items() if unread} == {}


def test_only_rejection_judges_an_impact_against_its_threshold():
    # impact is pure accounting: its split carries no flags and it names no
    # epsilon, so rejection.bucket_keys alone compares a side to w*p/epsilon
    tree = ast.parse((Path(flowsched.__file__).parent / "impact.py").read_text(encoding="utf-8"))
    names = names_used(tree) | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert not names & {"epsilon", "cadence"}
    assert ArrivalImpact._fields == ("plus", "minus", "self_term")


def exception_classes(trees: dict[str, ast.AST]) -> dict[str, str]:
    """``{"module.Class": base}`` for each class whose base is, by name, a
    builtin exception or another class found here."""
    bases = {f"{module}.{node.name}": [ast.unparse(b).rpartition(".")[2] for b in node.bases]
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found: dict[str, str] = {}
    while more := {key: names[0] for key, names in bases.items()
                   if key not in found and known.intersection(names)}:
        found |= more
        known |= {key.partition(".")[2] for key in more}
    return found


def names_used(tree: ast.AST) -> set[str]:
    """Every name a module binds, reads or imports, attributes included."""
    return {value for node in ast.walk(tree) for attr in ("id", "attr", "name", "asname")
            if isinstance(value := getattr(node, attr, None), str)}


def raised_names(tree: ast.AST) -> set[str]:
    """The names after each ``raise``, without a call's arguments."""
    return {ast.unparse(getattr(node.exc, "func", node.exc)).rpartition(".")[2]
            for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc}


# every exception class of the package: two types are bad input (exit 2),
# and every other one is an engine or analysis fault (exit 1)
INPUT_TYPES = {"core.InvalidInstance": "ValueError", "harness.BadParameters": "ValueError"}
FAULT_TYPES = {"core.JobNotRunnableOnMachine": "ValueError",
               "core.NonPositiveArgument": "ValueError",
               "core.DensityNotSpanned": "ArithmeticError",
               "analysis.IncompleteTrace": "ValueError",
               "dispatch.NoEligibleMachine": "ValueError",
               "impact.JobInActiveSet": "ValueError",
               "rejection.DuplicateAdmission": "ValueError",
               "scheduler.DriverContractError": "ValueError",
               "scheduler.ArrivalInPast": "DriverContractError"}
ENGINE = ("scheduler", "dispatch", "impact", "rejection", "analysis", "baselines")


def test_two_types_are_bad_input_and_only_the_front_raises_them():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(flowsched.__file__).parent.glob("*.py")}
    assert exception_classes(trees) == INPUT_TYPES | FAULT_TYPES
    raisers = {name: {module for module, tree in trees.items() if name in raised_names(tree)}
               for name in ("InvalidInstance", "BadParameters")}
    assert raisers == {"InvalidInstance": {"core", "harness"},
                       "BadParameters": {"harness", "cli"}}
    # an engine module cannot report its own fault as bad input
    assert {module: names_used(trees[module]) & set(raisers) for module in ENGINE} == \
        {module: set() for module in ENGINE}
    assert _INPUT_ERRORS == (InvalidInstance, BadParameters, OSError, UnicodeDecodeError)
