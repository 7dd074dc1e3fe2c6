"""End-to-end checks of the `abd` command line."""

import json

import pytest

from cloneabd import solvers
from cloneabd.cli import main

OR_BASE = "fn or 2 0111\n"
BF_BASE = "fn and 2 0001\nfn not 1 10\n"
L2_BASE = "fn xor3 3 01101001\n"

INSTANCE = ("fn or 2 0111\n"
            "kb (or a b)\n"
            "kb (or b c)\n"
            "hyp a b\n"
            "query c\n")


@pytest.fixture
def or_file(tmp_path):
    p = tmp_path / "or.fns"
    p.write_text(OR_BASE)
    return str(p)


@pytest.fixture
def bf_file(tmp_path):
    p = tmp_path / "bf.fns"
    p.write_text(BF_BASE)
    return str(p)


@pytest.fixture
def inst_file(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text(INSTANCE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_identify(or_file, capsys):
    code, out = run(capsys, "identify", or_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["clone"] == "V2"
    assert payload["signature"]["allMonotone"] is True


def test_identify_text(bf_file, capsys):
    code, out = run(capsys, "identify", bf_file)
    assert code == 0
    assert "BF" in out


def test_classify(or_file, capsys):
    code, out = run(capsys, "classify", or_file, "--counting", "--json")
    assert code == 0
    rows = {r["variant"]: r["label"] for r in json.loads(out)["rows"]}
    assert rows["Q"] == "IN_L"
    assert rows["T"] == "NP_COMPLETE"
    assert rows["counting"] == "SHARP_P_COMPLETE"


def test_solve_found(inst_file, capsys):
    code, out = run(capsys, "solve", inst_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["explanation"]


def test_solve_not_found(tmp_path, capsys):
    p = tmp_path / "no.txt"
    p.write_text("fn or 2 0111\nkb (or a c)\nkb c\nhyp b\nquery a\n")
    code, out = run(capsys, "solve", str(p), "--json")
    assert code == 1
    assert json.loads(out)["found"] is False


def test_count_and_enumerate(inst_file, capsys):
    code, out = run(capsys, "count", inst_file, "--json")
    assert code == 0
    count = json.loads(out)["count"]
    code, out = run(capsys, "enumerate", inst_file)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == count
    assert lines == sorted(lines)


def test_solve_method_override(inst_file, capsys):
    code, out = run(capsys, "solve", inst_file, "--method", "oracle",
                    "--json")
    assert code == 0
    assert json.loads(out)["found"] is True


def test_verify(inst_file, capsys):
    # refuting b forces c through the clause b∨c
    code, out = run(capsys, "verify", inst_file, "a !b", "--json")
    assert code == 0
    assert json.loads(out)["isExplanation"] is True
    code, out = run(capsys, "verify", inst_file, "a b", "--json")
    assert code == 1


def test_repr_found(bf_file, capsys):
    code, out = run(capsys, "repr", bf_file, "fn or 2 0111")
    assert code == 0
    assert "not" in out and "and" in out


def test_repr_not_found(or_file, capsys):
    code, out = run(capsys, "repr", or_file, "fn and 2 0001")
    assert code == 1


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("fn or 2 0111\nnot an instance line\n")
    code = main(["solve", str(p)])
    assert code == 2


def test_missing_file_exit_code(tmp_path, capsys):
    """Files that cannot be read or written are input errors: exit 2, no
    output and one `error:` line, not a traceback."""
    bad_text = tmp_path / "bad_text.txt"
    bad_text.write_bytes(b"fn or 2 0111\nkb (or a \xff b)\nhyp a\nquery b\n")
    bad_base = tmp_path / "bad_base.fns"
    bad_base.write_bytes(b"fn or 2 0111\n# \xff\n")
    base = tmp_path / "l2.fns"
    base.write_text(L2_BASE)
    cases = [
        (["identify", "/nonexistent/base.fns"], "cannot read"),
        (["identify", str(tmp_path)], "cannot read"),
        (["solve", str(bad_text)], "cannot read"),
        (["identify", str(bad_base)], "cannot read"),
        (["generate", "--reduction", "linsys", "--base", str(base),
          "--out", str(tmp_path / "missing" / "x.txt")], "cannot write"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith(f"error: {message} "), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv


def test_generate_linsys(tmp_path, capsys):
    base = tmp_path / "l2.fns"
    base.write_text(L2_BASE)
    out_file = tmp_path / "gen.txt"
    code, out = run(capsys, "generate", "--reduction", "linsys",
                    "--base", str(base), "--seed", "3",
                    "--out", str(out_file), "--json")
    assert code == 0
    sidecar = json.loads(out)["sidecar"]
    assert "expectSolvable" in sidecar
    # the emitted instance solves to the sidecar's expectation
    code2, out2 = run(capsys, "solve", str(out_file), "--json")
    assert json.loads(out2)["found"] == sidecar["expectSolvable"]


def test_generate_deterministic(tmp_path, capsys):
    base = tmp_path / "l2.fns"
    base.write_text(L2_BASE)
    _, a = run(capsys, "generate", "--reduction", "linsys",
               "--base", str(base), "--seed", "9", "--json")
    _, b = run(capsys, "generate", "--reduction", "linsys",
               "--base", str(base), "--seed", "9", "--json")
    assert a == b


def test_generate_pos2sat_sidecar(tmp_path, capsys):
    base = tmp_path / "or.fns"
    base.write_text(OR_BASE)
    code, out = run(capsys, "generate", "--reduction", "pos2sat",
                    "--base", str(base), "--seed", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    sc = payload["sidecar"]
    assert sc["expectedCount"] == (1 << sc["n"]) - sc["formulaModels"]


def test_generate_from_source(tmp_path, capsys):
    base = tmp_path / "l2.fns"
    base.write_text(L2_BASE)
    src = tmp_path / "sys.txt"
    src.write_text("vars 2\neq 1 2 = 1\neq 1 2 = 0\n")
    code, out = run(capsys, "generate", "--reduction", "linsys",
                    "--base", str(base), "--source", str(src), "--json")
    assert code == 0
    sc = json.loads(out)["sidecar"]
    assert sc["systemSolvable"] is False
    assert sc["expectSolvable"] is True


MALFORMED_SOURCES = {
    "linsys-vars-not-a-number": ("linsys", L2_BASE, "vars x\n"),
    "linsys-no-constant": ("linsys", L2_BASE, "eq 1 =\n"),
    "pos2sat-not-a-literal": ("pos2sat", OR_BASE, "1 a\n"),
    "qsat2-forall-no-count": ("qsat2", BF_BASE,
                              "exists 1\nforall\ndnf 1\n"),
    "qsat2-dnf-not-a-literal": ("qsat2", BF_BASE,
                                "exists 1\nforall 1\ndnf 1 x\n"),
}


@pytest.mark.parametrize("name", list(MALFORMED_SOURCES))
def test_generate_malformed_source_is_input_error(tmp_path, capsys, name):
    reduction, base_text, source_text = MALFORMED_SOURCES[name]
    base = tmp_path / "base.fns"
    base.write_text(base_text)
    src = tmp_path / "source.txt"
    src.write_text(source_text)
    code = main(["generate", "--reduction", reduction, "--base", str(base),
                 "--source", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: line ")
    assert len(captured.err.splitlines()) == 1
    assert captured.err.count("error:") == 1


# a clause or term of the wrong shape for its reduction: (reduction, base,
# source, the line that holds it, message)
SHAPE_ERRORS = {
    "qsat2-four-literal-term": (
        "qsat2", BF_BASE, "exists 2\nforall 2\ndnf 1 -3\n\ndnf 1 2 3 -4\n",
        5, "matrix must be in 3-DNF"),
    "qsat2-empty-term": ("qsat2", BF_BASE,
                         "exists 1\nforall 1\ndnf 1 2\ndnf\n",
                         4, "empty term in DNF"),
    "pos2sat-three-atoms": ("pos2sat", OR_BASE, "1 2\n# c\n1 2 3\n", 3,
                            "clauses must hold exactly two positive atoms"),
    "pos2sat-negative-atom": ("pos2sat", OR_BASE, "1 -2\n", 1,
                              "clauses must hold exactly two positive atoms"),
    "2in3-two-atoms": ("2in3", "fn maj3 3 00010111\n", "1 2 3\n1 2\n", 2,
                       "clauses must hold exactly three positive atoms"),
    "2in3-repeated-atom": ("2in3", "fn maj3 3 00010111\n",
                           "c comment\n1 2 2\n", 2,
                           "clause atoms must be pairwise distinct"),
    "3sat-term-four-literals": ("3sat-term", OR_BASE, "1 -2\n1 2 3 -4\n", 2,
                                "clauses must have width at most 3"),
}


@pytest.mark.parametrize("name", list(SHAPE_ERRORS))
def test_generate_shape_error_names_the_line(tmp_path, capsys, name):
    reduction, base_text, source_text, line, message = SHAPE_ERRORS[name]
    base = tmp_path / "base.fns"
    base.write_text(base_text)
    src = tmp_path / "source.txt"
    src.write_text(source_text)
    code = main(["generate", "--reduction", reduction, "--base", str(base),
                 "--source", str(src)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: line {line}: {message}\n"


BF_INSTANCE = ("fn and 2 0001\nfn not 1 10\n"
               "kb (not (and a b))\nhyp a\nquery b\n")


@pytest.mark.parametrize("command", ["solve", "count", "enumerate"])
def test_forced_affine_on_non_affine_kb_is_input_error(tmp_path, capsys,
                                                       command):
    p = tmp_path / "bf.txt"
    p.write_text(BF_INSTANCE)
    code, out = run(capsys, command, str(p), "--method", "affine")
    assert code == 2
    assert out == ""


def test_count_oracle_method_matches_auto(inst_file, capsys):
    _, auto = run(capsys, "count", inst_file, "--json")
    _, oracle = run(capsys, "count", inst_file, "--method", "oracle",
                    "--json")
    assert json.loads(oracle) == {**json.loads(auto), "method": "oracle"}


@pytest.mark.parametrize("route", list(solvers.ROUTES))
def test_method_means_the_same_on_every_command(inst_file, capsys, route):
    # a forced route either runs on all three commands or is refused by all
    refused = []
    for command in ("solve", "count", "enumerate"):
        code, _ = run(capsys, command, inst_file, "--method", route)
        assert code in (0, 1, 2), command
        refused.append(code == 2)
    assert len(set(refused)) == 1, refused


def _left_nested(op, depth, operands):
    """(op ... (op (op a o0) o1) ... o_{depth-1}), built in linear time."""
    return f"({op} " * depth + "a" + "".join(
        f" {' '.join(operands(i))})" for i in range(depth))


# Knowledge bases nested 900 and 10 000 deep, past any recursion limit, and
# their solve, count and enumerate exit codes; in the `-none` cases the
# query's clause or equation holds a variable that is neither the query nor
# a hypothesis, so nothing explains it.  The [AND, NOT] chain spells the
# `or` chain as (not (and (not .) (not b))), which the general route scans.
OR_DEEP = _left_nested("or", 900, lambda i: [f"b{i % 5}"])
XOR3_DEEP = _left_nested("xor3", 900,
                         lambda i: [f"b{2 * i}", f"b{2 * i + 1}"])
OR_10K = _left_nested("or", 10000, lambda i: [f"b{i % 5}"])
XOR3_10K = _left_nested("xor3", 10000,
                        lambda i: [f"b{2 * i}", f"b{2 * i + 1}"])
AND_NOT_10K = "(not (and (not " * 10000 + "a" + "".join(
    f") (not b{i % 3})))" for i in range(10000))
DEEP = {
    "or-none": (f"{OR_BASE}kb {OR_DEEP}\nhyp a b1 b2 b3\nquery b0\n",
                [1, 0, 0]),
    "or-found": (f"{OR_BASE}kb {OR_DEEP}\nhyp a b1 b2 b3 b4\nquery b0\n",
                 [0, 0, 0]),
    "xor3-none": (f"{L2_BASE}kb {XOR3_DEEP}\nhyp a\nquery b0\n", [1, 0, 0]),
    "or-10000-found": (f"{OR_BASE}kb {OR_10K}\nhyp a b1 b2 b3 b4\n"
                       f"query b0\n", [0, 0, 0]),
    "and-not-10000-found": (f"{BF_BASE}kb {AND_NOT_10K}\nhyp a b1 b2\n"
                            f"query b0\n", [0, 0, 0]),
    "xor3-10000-none": (f"{L2_BASE}kb {XOR3_10K}\nhyp a\nquery b0\n",
                        [1, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_closed_form_kb_is_answered(tmp_path, capsys, name):
    text, expected = DEEP[name]
    p = tmp_path / "deep.txt"
    p.write_text(text)
    codes = [main([command, str(p)])
             for command in ("solve", "count", "enumerate")]
    captured = capsys.readouterr()
    assert codes == expected
    assert captured.err == ""
    count = 1 if expected[0] == 0 else 0
    assert f"full explanations: {count} " in captured.out


# A named route outside its clone: an [AND, NOT] KB under `monotone`, whose
# all-true shortcut would answer "no explanation" (the oracle finds !a), and
# an S00 KB under `affine`, whose three-point reading would take x∨(y∧z) for
# the equation x = 1 (the oracle finds !a b and counts 1).
MISROUTED = {
    "monotone": ("fn and 2 0001\nfn not 1 10\n"
                 "kb (and (not a) (not c))\nhyp a\nquery !c\n"),
    "affine": "fn or_and 3 00011111\nkb (or_and a c b)\nhyp a b\nquery c\n",
}


@pytest.mark.parametrize("route", sorted(MISROUTED))
@pytest.mark.parametrize("command", ["solve", "count", "enumerate"])
def test_named_route_outside_its_clone_exits_2(tmp_path, capsys, route,
                                               command):
    p = tmp_path / "inst.txt"
    p.write_text(MISROUTED[route])
    code = main([command, str(p), "--method", route])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    # the oracle still answers the same file
    assert main([command, str(p), "--method", "oracle"]) == 0
    capsys.readouterr()


def test_memory_error_exits_3_without_output(inst_file, capsys, monkeypatch):
    def exhausted(inst):
        raise MemoryError

    monkeypatch.setattr(solvers, "solve_disjunctive_kb", exhausted)
    code = main(["solve", inst_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


# Manifestations that mention a hypothesis: the literal, disjunctive and
# monotone routes assume they do not, and answered "no explanation" (or
# count 0) where the oracle finds one.
OVERLAPPING = [
    "fn or 2 0111\nfn and 2 0001\nkb (or (and a b) c)\nhyp a\nterm a\n",
    "fn maj 3 00010111\nkb (maj a b c)\nhyp a b\nquery !a\n",
    "fn or 2 0111\nkb (or a b)\nhyp a\nquery !a\n",
]


@pytest.mark.parametrize("text", OVERLAPPING)
@pytest.mark.parametrize("command", ["solve", "count", "enumerate", "verify"])
def test_manifestation_overlapping_hypotheses_exits_2(tmp_path, capsys, text,
                                                      command):
    p = tmp_path / "inst.txt"
    p.write_text(text)
    argv = [command, str(p)] + (["a"] if command == "verify" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: manifestation overlaps hypotheses: a\n"


# Scans whose first explanation lies beyond the first candidate: a
# monotone-route instance (2^3 candidates, 4 explanations) and an [AND, NOT]
# instance on the general route (its one explanation is `a`, the second
# candidate).  A budget of one candidate stops every command, not only
# `solve`.
BUDGETED = {
    "monotone": ("fn maj3 3 00010111\nkb (maj3 a b c)\nkb (maj3 a d c)\n"
                 "hyp a b d\nquery c\n", []),
    "general": ("fn and 2 0001\nfn not 1 10\nkb (and a (not c))\nhyp a\n"
                "query !c\n", ["--method", "general"]),
}


@pytest.mark.parametrize("route", sorted(BUDGETED))
@pytest.mark.parametrize("command", ["solve", "count", "enumerate"])
def test_budget_reaches_every_command(tmp_path, capsys, route, command):
    text, method = BUDGETED[route]
    p = tmp_path / "inst.txt"
    p.write_text(text)
    code = main([command, str(p), "--budget", "1", *method])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert main([command, str(p), *method]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["identify", "classify", "solve",
                                     "count", "enumerate"])
def test_malformed_budget_variable_exits_2(or_file, inst_file, capsys,
                                           monkeypatch, command):
    monkeypatch.setenv("ABD_BUDGET", "abc")
    path = or_file if command in ("identify", "classify") else inst_file
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ABD_BUDGET must be an integer, got 'abc'\n"
    monkeypatch.setenv("ABD_BUDGET", "64")
    assert main([command, path]) == 0


def test_budget_variable_is_read_per_command(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; ABD_BUDGET set after a first
    # command still bounds the next one
    p = tmp_path / "inst.txt"
    p.write_text(BUDGETED["monotone"][0])
    monkeypatch.delenv("ABD_BUDGET", raising=False)
    assert main(["solve", str(p)]) == 0
    monkeypatch.setenv("ABD_BUDGET", "1")
    assert main(["solve", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["solve", "count", "enumerate"])
def test_bad_hypothesis_name_exits_2(tmp_path, capsys, command):
    # `!a` once became a hypothesis literally named "!a", and `solve`
    # answered "no explanation"
    p = tmp_path / "inst.txt"
    p.write_text("fn or 2 0111\nkb (or a b)\nhyp !a\nquery b\n")
    code = main([command, str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: instance line 3: bad variable name '!a'\n"
