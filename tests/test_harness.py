import importlib
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowsched import (InvalidInstance, Job, WorkloadModel, generate, parse_trace,
                       serialize_trace)
from flowsched.harness import KINDS, _parse_rational, parse_trace_text


# the fixed and adversarial_L generators build single-machine instances only
@pytest.mark.parametrize("kind, machines", [(kind, 1) for kind in KINDS]
                         + [("uniform", 4), ("poisson_pareto", 4)])
def test_trace_file_round_trip_is_exact(tmp_path, kind, machines):
    for seed in range(5):
        instance = generate(WorkloadModel(
            kind=kind, n=30, seed=seed, L=4, machines=machines,
            epsilon=Fraction(1, 2 + seed)))
        path = tmp_path / f"{kind}-{seed}.txt"
        serialize_trace(instance, path, seed=seed)
        assert parse_trace(path) == instance


def test_round_trip_covers_machines_that_cannot_run_a_job():
    instance = generate(WorkloadModel(kind="uniform", n=30, seed=0, machines=4))
    assert any(size is None for job in instance.jobs for size in job.sizes)


# the weight grammar before it became one fullmatch, followed by Fraction(str)
OLD_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


# tokens over digits, "-", "+", "/", "_" and " ", most of them near a literal
@given(st.from_regex(r"[-+ ]{0,2}[0-9_ ]{0,4}(/[-+0-9_ ]{0,4})?", fullmatch=True))
def test_rational_parser_accepts_what_the_old_grammar_accepted(token):
    if OLD_RATIONAL_RE.match(token) is None:
        with pytest.raises(ValueError):
            _parse_rational(token)
        return
    try:
        expected = Fraction(token)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="^zero denominator: "):
            _parse_rational(token)
        return
    parsed = _parse_rational(token)
    assert parsed == expected and type(parsed) is Fraction


HEADER = "m=1 epsilon=1/2 speedup=0 seed=-\n"


@pytest.mark.parametrize("line", ["1_0 0 1 2", "+1 0 1 2", "0 +2 1 2", "0 0 1 0_4",
                                  "0 0 1 +4", "0 0 1 2,_3", "0 0 1 2,"])
def test_integer_fields_take_only_sign_and_digits(line):
    with pytest.raises(InvalidInstance, match="^line 2: not an integer literal"):
        parse_trace_text(HEADER + line + "\n")


@pytest.mark.parametrize("line, message", [
    ("-1 0 1 2", "job id must be a nonnegative integer"),
    ("0 -2 1 2", "release must be a nonnegative integer"),
    ("0 0 1 -4", "has a size below 1"),
])
def test_negative_integer_fields_reach_instance_validation(line, message):
    with pytest.raises(InvalidInstance, match=message):
        parse_trace_text(HEADER + line + "\n")


def test_integer_fields_keep_leading_zeros():
    assert parse_trace_text(HEADER + "007 010 3/04 05\n").jobs == (
        Job(7, 10, Fraction(3, 4), (5,)),)


# Arabic-Indic one, three and four, and an em space: digits and spaces that
# str.isdecimal, int and the default \d and \s accept
ONE, THREE, FOUR, EM_SPACE = "\u0661", "\u0663", "\u0664", "\u2003"


@pytest.mark.parametrize("line", [f"{ONE} 0 {THREE}/2 {FOUR}", f"1 {ONE} 1 2",
                                  f"1 0 {THREE} 2", f"1 0 3/{FOUR} 2", f"1 0 1 2,{FOUR}"])
def test_job_lines_take_only_ascii_digits(line):
    with pytest.raises(InvalidInstance, match="^line 2: not an? (integer|rational) literal"):
        parse_trace_text(HEADER + line + "\n")


@pytest.mark.parametrize("header", [f"m={ONE} epsilon=1/2 speedup=0 seed=-",
                                    f"m=1 epsilon=1/{FOUR} speedup=0 seed=-",
                                    f"m=1{EM_SPACE}epsilon=1/2 speedup=0 seed=-"])
def test_header_takes_only_ascii_digits_and_spaces(header):
    with pytest.raises(InvalidInstance,
                       match="^(line 1 is not a valid header|bad header on line 1): "):
        parse_trace_text(header + "\n0 0 1 2\n")


# -- each distinct weight text and size field is parsed once per call ------------

TWO_MACHINES = "m=2 epsilon=1/4 speedup=0 seed=-\n"


@given(st.lists(st.tuples(st.sampled_from(["1", "2/4", "1/2", "3/06", "12", "012"]),
                          st.sampled_from(["3,-", "-,5", "3,5", "03,-", "-,05"])),
                min_size=1, max_size=30))
def test_repeated_texts_parse_as_each_line_alone(rows):
    lines = [f"{i} {i // 3} {weight} {sizes}" for i, (weight, sizes) in enumerate(rows)]
    whole = parse_trace_text(TWO_MACHINES + "\n".join(lines) + "\n")
    assert whole.jobs == tuple(parse_trace_text(TWO_MACHINES + line + "\n").jobs[0]
                               for line in lines)


@pytest.mark.parametrize("weight, sizes", [("1/0", "2,-"), ("x", "2,-"), ("1", "2,+3"),
                                           ("1", "-,2_0")])
def test_a_repeated_malformed_token_is_reported_at_its_first_line(weight, sizes):
    text = TWO_MACHINES + "0 0 1 2,-\n" + "".join(
        f"{jid} 0 {weight} {sizes}\n" for jid in (1, 2, 3))
    with pytest.raises(InvalidInstance, match="^line 3: "):
        parse_trace_text(text)


def test_each_call_parses_each_distinct_text_once(monkeypatch):
    harness = importlib.import_module("flowsched.harness")
    calls = Counter()

    def counted(text, _parse=harness._parse_rational):
        calls[text] += 1
        return _parse(text)
    monkeypatch.setattr(harness, "_parse_rational", counted)
    text = TWO_MACHINES + "".join(f"{jid} {jid} {weight} {sizes}\n" for jid, (weight, sizes)
                                  in enumerate([("1/2", "2,-"), ("2/4", "2,-"),
                                                ("1/2", "-,3"), ("1/2", "2,-")]))
    parsed = []
    for _ in range(2):
        calls.clear()
        parsed.append(parse_trace_text(text))
        # the header's epsilon and speedup, then each distinct weight text
        assert calls == Counter({"1/4": 1, "0": 1, "1/2": 1, "2/4": 1})
    first, second = parsed
    assert first == second
    assert first.jobs[0].sizes is first.jobs[3].sizes
    # the two calls share no memo
    assert second.jobs[0].sizes is not first.jobs[0].sizes
    assert second.jobs[0].weight is not first.jobs[0].weight
