"""Tests of the benchmark's answer checker: it must accept right answers and
report each kind of wrong one, and it must agree with the program's own
brute-force oracle. The last test runs the benchmark without the program."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import workloads
from checker import Expect

HERE = Path(__file__).resolve().parent

# (a or q) and (b or q), explain q from a and b: the full explanations are
# !a !b, !a b and a !b (canonical order); a b leaves q open.
TEXT = """fn or 2 0111
kb (or a q)
kb (or b q)
hyp a b
query q
"""


def solve_out(found, explanation):
    return json.dumps({"found": found, "explanation": explanation,
                       "method": "x", "candidatesTried": 1})


def test_right_answers_pass():
    assert checker.check(Expect("solve", TEXT), 0, solve_out(True, "!a")) \
        is None
    assert checker.check(Expect("solve", TEXT), 0,
                         solve_out(True, "!a b")) is None
    assert checker.check(Expect("count", TEXT), 0,
                         json.dumps({"count": 3})) is None
    listed = json.dumps({"explanations": ["!a !b", "!a b", "a !b"]})
    assert checker.check(Expect("enumerate", TEXT), 0, listed) is None


def test_flipped_found_is_wrong():
    assert checker.check(Expect("solve", TEXT), 1, solve_out(False, None))
    # the source problem, not the tables, decides a reduction instance
    assert checker.check(Expect("solve", TEXT, found=False), 0,
                         solve_out(True, "!a"))


def test_explanation_that_does_not_entail_is_wrong():
    assert checker.check(Expect("solve", TEXT), 0, solve_out(True, "a"))
    assert checker.check(Expect("solve", TEXT), 0, solve_out(True, "a b"))
    assert checker.check(Expect("solve", TEXT), 0, solve_out(True, "!a !q"))


def test_count_off_by_one_is_wrong():
    for count in (2, 4):
        assert checker.check(Expect("count", TEXT), 0,
                             json.dumps({"count": count}))
    # the source problem, not the tables, decides a reduction instance
    assert checker.check(Expect("count", TEXT, count=4), 0,
                         json.dumps({"count": 3}))


@pytest.mark.parametrize("listed", [
    ["!a !b", "!a b"],            # one missing
    ["!a b", "!a !b", "a !b"],    # out of order
    ["!a !b", "!a b", "a !b", "a b"],  # one too many
])
def test_wrong_enumeration_is_wrong(listed):
    assert checker.check(Expect("enumerate", TEXT), 0,
                         json.dumps({"explanations": listed}))


def test_generate_checks_sidecar_and_connectives():
    expect = Expect("generate", sidecar={"reduction": "qsat2", "seed": 0,
                                         "expectSolvable": True},
                    base_lines=("fn or 2 0111",))
    good = {"instance": TEXT, "sidecar": dict(expect.sidecar)}
    assert checker.check(expect, 0, json.dumps(good)) is None
    flipped = dict(good, sidecar={**expect.sidecar, "expectSolvable": False})
    assert checker.check(expect, 0, json.dumps(flipped))
    foreign = dict(good, instance="fn and 2 0001\n" + TEXT)
    assert checker.check(expect, 0, json.dumps(foreign))
    undeclared = dict(good, instance=TEXT.replace("(or b q)", "(and b q)"))
    assert checker.check(expect, 0, json.dumps(undeclared))


def test_generate_checks_the_instance_against_the_source():
    # a wrong instance with the right sidecar: TEXT has 3 explanations
    solvable = {"reduction": "qsat2", "seed": 0, "expectSolvable": False}
    counted = {"reduction": "pi1-count", "seed": 0, "expectedCount": 2}
    for sidecar in (solvable, counted):
        expect = Expect("generate", sidecar=sidecar,
                        base_lines=("fn or 2 0111",))
        out = {"instance": TEXT, "sidecar": dict(sidecar)}
        assert checker.check(expect, 0, json.dumps(out))
    right = dict(counted, expectedCount=3)
    assert checker.check(
        Expect("generate", sidecar=right, base_lines=("fn or 2 0111",)), 0,
        json.dumps({"instance": TEXT, "sidecar": right})) is None


def test_deep_formula_parses():
    depth = 5000
    text = "(or " * depth + "a" + " b)" * depth
    assert checker.formula_vars([checker.parse_formula(
        text, {"or": (2, (0, 1, 1, 1))})]) == {"a", "b"}


def test_source_evaluators():
    # x1 xor x2 = 1 and x1 xor x2 = 0 has no solution
    assert not checker.linear_system_solvable(2, (((1, 2), 1), ((1, 2), 0)))
    assert checker.linear_system_solvable(2, (((1, 1, 2), 1),))
    # exists x1 forall y1: (x1 and y1) or (x1 and not y1)
    assert checker.qbf_good(1, 1, (((1, True), (2, True)),
                                   ((1, True), (2, False)))) == [1]
    # x1 or x2 has 3 models over two variables
    assert checker.cnf_models((((1, True), (2, True)),), 2) == 3
    # 1 2 3 / 1 2 4 / 1 3 4 / 2 3 4: no assignment has exactly two of each
    clauses = tuple(tuple((i, True) for i in c) for c in
                    ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
    assert not checker.exactly_two_satisfiable(clauses, 4)


def test_checker_agrees_with_program_oracle():
    pytest.importorskip("cloneabd")
    from cloneabd.abduction import oracle_enumerate, parse_instance
    rng = random.Random(0)
    for k in range(60):
        base = workloads.BASES[workloads.ROUTE_MIX_BASES[
            k % len(workloads.ROUTE_MIX_BASES)]]
        text = workloads.random_instance(rng, base, num_vars=6, num_hyp=3,
                                         num_kb=3, variant="QCTF"[k % 4],
                                         depth=2)
        theirs = [e.serialize() for e in oracle_enumerate(
            parse_instance(text))]
        inst = checker.parse_instance(text)
        ours = [checker.candidate_text(inst.hypotheses, a)
                for a in checker.full_explanations(inst)]
        assert ours == theirs, text


def test_benchmark_without_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "no program" in done.stderr
    assert '"metrics"' not in done.stdout
