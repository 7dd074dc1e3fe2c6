"""Formula parsing, evaluation, template substitution and CNF encoding."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneabd import formula
from cloneabd.cli import main
from cloneabd.errors import InputError
from cloneabd.formula import (App, Const, Literal, Var, balanced_tree,
                              encode_cnf, eval_formula, formula_mask,
                              free_vars, parse_formula, parse_literal,
                              postorder, render_formula, replace_connectives,
                              substitute_map, table_of)
from cloneabd.sat import sat_solve
from cloneabd.truthtable import (AND, CONST0, CONST1, IDENTITY, MAJ3, NOT, OR,
                                 XOR, XOR3, FunctionSet, TruthTable,
                                 row_assignment)

from conftest import OR_AND, Deadline
from test_acceptance import SOLVER_BASES
from test_sat import brute_least_model

FNS = FunctionSet([AND, OR, NOT, XOR3, MAJ3])


def test_parse_render_roundtrip():
    for text in ["x", "(and x y)", "(or (not a) (and b c))",
                 "(maj3 x y (not z))"]:
        phi = parse_formula(text, FNS)
        assert render_formula(phi) == text
        assert render_formula(parse_formula(render_formula(phi), FNS)) == text


NAMED = FunctionSet([AND, OR, NOT, XOR3, MAJ3, IDENTITY, CONST0, CONST1])


def named_formulas(variables):
    """Formulas over the connectives of NAMED, whose names parse back to
    the same tables, and over the given variables and both constants."""
    return st.recursive(
        st.one_of(st.sampled_from(variables).map(Var),
                  st.integers(0, 1).map(Const)),
        lambda children: st.sampled_from(list(NAMED)).flatmap(
            lambda fn: st.lists(children, min_size=fn.arity,
                                max_size=fn.arity).map(
                lambda args: App(fn, tuple(args)))),
        max_leaves=8)


@settings(derandomize=True, database=None, max_examples=150,
          deadline=None)
@given(named_formulas("xyz"))
def test_render_then_parse_gives_the_formula_back(phi):
    assert parse_formula(render_formula(phi), NAMED) == phi


def test_parse_arity_mismatch():
    with pytest.raises(InputError):
        parse_formula("(and x)", FNS)
    with pytest.raises(InputError):
        parse_formula("(not x y)", FNS)


def test_parse_unknown_connective():
    with pytest.raises(InputError):
        parse_formula("(nand x y)", FNS)


@pytest.mark.parametrize("text, message", [
    ("", "position 0: unexpected end of input"),
    ("   ", "position 3: unexpected end of input"),
    ("(and x", "position 6: missing ')'"),
    ("(and x (not y)", "position 14: missing ')'"),
    # a '(' at the end of the input, or followed by a parenthesis
    ("(", "position 0: expected connective name"),
    ("( ", "position 0: expected connective name"),
    ("((and x y) z)", "position 1: expected connective name"),
    ("( )", "position 2: expected connective name"),
    ("(nand x y)", "position 1: unknown connective 'nand'"),
    ("(and x 9y)", "position 7: bad variable name '9y'"),
    ("(and x y!)", "position 7: bad variable name 'y!'"),
    ("(and x)", "position 0: connective 'and' expects 2 arguments, got 1"),
    ("(not x y)", "position 0: connective 'not' expects 1 arguments, got 2"),
    ("(and x (or y))",
     "position 7: connective 'or' expects 2 arguments, got 1"),
    (")", "position 0: unexpected ')'"),
    ("x )", "position 2: trailing input"),
    ("(and x y) (or x y)", "position 10: trailing input"),
    # tokens split at every character that `str.isspace` accepts
    ("\t\n (nand x y)", "position 4: unknown connective 'nand'"),
    ("x\x1cy", "position 2: trailing input"),
    ("x\xa0y", "position 2: trailing input"),
    # a zero-width space is not whitespace, so it stays inside its token
    ("(and x\u200by)", "position 5: bad variable name 'x\\u200by'"),
    # nesting deeper than any recursion limit still gets a located error
    pytest.param("(or a " * 3000, "position 18000: missing ')'",
                 id="3000-deep-missing-paren"),
    pytest.param("(or " * 3000 + "(nand x y)" + " z)" * 3000,
                 "position 12001: unknown connective 'nand'",
                 id="3000-deep-unknown-connective"),
])
def test_parse_error_names_its_position(text, message):
    with pytest.raises(InputError) as err:
        parse_formula(text, FNS)
    assert str(err.value) == f"parse error at {message}"


@pytest.mark.parametrize("text", [
    "(and\tx\ny)", "(and x\x1cy)", "\r\n(and\fx\vy)\x1c", "(and\x85x\u3000y)"])
def test_parse_splits_tokens_at_any_whitespace(text):
    assert render_formula(parse_formula(text, FNS)) == "(and x y)"


def test_tokenizer_runs_in_linear_time():
    # 64 000 leaves render to about 757 kB; re-slicing the rest of the text
    # per token took seconds here
    text = render_formula(balanced_tree(
        OR, [Var(f"x{i}") for i in range(64000)]))
    deadline = Deadline(1)
    phi = parse_formula(text, FNS)
    deadline.check("parse of a 64 000-leaf formula")
    assert render_formula(phi) == text


def test_render_runs_in_linear_time_in_depth():
    # 40 000 levels of (not (and (not …) (not b))), 1.08 MB of text; a
    # render that copies each level's text into its parent's is quadratic
    # and took 8-12 s on a 2-core machine
    text = "(not (and (not " * 40000 + "a" + "".join(
        f") (not b{i % 3})))" for i in range(40000))
    phi = parse_formula(text, FNS)
    deadline = Deadline(2)
    rendered = render_formula(phi)
    deadline.check("render of a 40 000-level formula")
    assert rendered == text


def test_eval_formula():
    phi = parse_formula("(or (not a) (and b c))", FNS)
    assert eval_formula(phi, {"a": 0, "b": 0, "c": 0}) == 1
    assert eval_formula(phi, {"a": 1, "b": 1, "c": 0}) == 0
    assert eval_formula(phi, {"a": 1, "b": 1, "c": 1}) == 1


def test_free_vars_sorted():
    phi = parse_formula("(and z (or a m))", FNS)
    assert free_vars(phi) == ["a", "m", "z"]


def test_literal_parse_and_str():
    assert str(parse_literal("!x")) == "!x"
    assert parse_literal("y").positive
    with pytest.raises(InputError):
        parse_literal("!!x")


def test_table_of():
    phi = parse_formula("(or x (and y z))", FNS)
    assert table_of(phi, ["x", "y", "z"]).bits == (0, 0, 0, 1, 1, 1, 1, 1)


def test_formula_mask_matches_eval_formula():
    # each row of the mask is the formula evaluated at that row's values of
    # the variable masks; random formulas, with constants, over random masks
    rng = random.Random(5)
    fns = list(FNS)
    names = ["a", "b", "c", "d"]

    def tree(depth):
        if depth == 0 or rng.random() < 0.2:
            return (Const(rng.randint(0, 1)) if rng.random() < 0.1
                    else Var(rng.choice(names)))
        f = rng.choice(fns)
        return App(f, tuple(tree(depth - 1) for _ in range(f.arity)))

    for _ in range(300):
        phi = tree(rng.randint(0, 4))
        m = rng.randint(0, 5)
        masks = {v: rng.getrandbits(1 << m) for v in names}
        got = formula_mask(phi, masks, m)
        for row in range(1 << m):
            sigma = {v: (mask >> row) & 1 for v, mask in masks.items()}
            assert (got >> row) & 1 == eval_formula(phi, sigma), \
                (render_formula(phi), m, row)
        assert got >> (1 << m) == 0


def test_formula_mask_unassigned_variable():
    with pytest.raises(InputError, match="unassigned variable 'b'"):
        formula_mask(parse_formula("(and a b)", FNS), {"a": 1}, 0)
    with pytest.raises(InputError, match="unassigned variable 'b'"):
        eval_formula(parse_formula("(and a b)", FNS), {"a": 1})


def test_postorder_puts_children_first_left_to_right():
    phi, psi = (parse_formula(t, FNS) for t in ("(and x (not y))", "z"))
    assert postorder(phi) == [Var("x"), Var("y"), phi.args[1], phi]
    assert postorder([phi, psi]) == postorder(phi) + [psi]


def test_balanced_tree_or():
    leaves = [Var(v) for v in "abcde"]
    phi = balanced_tree(OR, leaves)
    assert sorted(free_vars(phi)) == list("abcde")
    # any one true leaf suffices
    for v in "abcde":
        sigma = {u: int(u == v) for u in "abcde"}
        assert eval_formula(phi, sigma) == 1
    assert eval_formula(phi, {u: 0 for u in "abcde"}) == 0


def test_balanced_tree_xor3_arity():
    leaves = [Var(v) for v in "abcde"]  # 5 = 3 + 2 extra, odd count works
    phi = balanced_tree(XOR3, leaves)
    sigma = {u: 1 for u in "abcde"}
    assert eval_formula(phi, sigma) == 1  # five ones xor to 1


@pytest.mark.parametrize("op, message", [
    (TruthTable("nand", 2, (1, 1, 1, 0)),
     "connective 'nand' is not associative"),
    (MAJ3, "connective 'maj3' does not regroup associatively"),
    (OR_AND, "connective 'or_and' does not regroup associatively"),
    (NOT, "balanced trees support arity 2 or 3, not 1 ('not')"),
])
def test_balanced_tree_refuses_a_connective_that_does_not_regroup(op,
                                                                   message):
    for _ in range(2):  # the second time from the once-decided table
        with pytest.raises(InputError) as err:
            balanced_tree(op, [Var(v) for v in "abc"])
        assert str(err.value) == message


def test_balanced_tree_decides_associativity_once_per_table():
    formula._regroups.cache_clear()
    leaves = [Var(v) for v in "abcde"]
    for i in range(100):
        balanced_tree(OR.renamed(f"or{i % 3}"), leaves)
    assert formula._regroups.cache_info().misses == 1


def test_substitute_map_no_recursion_into_args():
    # inserted arguments must not themselves be rewritten
    template = App(OR, (Var("x1"), Var("x2")))
    out = substitute_map(template, {"x1": Var("x2"), "x2": Var("x1")})
    assert render_formula(out) == "(or x2 x1)"


def test_replace_connectives():
    # express AND over {OR, NOT} by De Morgan
    demorgan = App(NOT, (App(OR, (App(NOT, (Var("x1"),)),
                                  App(NOT, (Var("x2"),)))),))
    phi = parse_formula("(and a (and b c))", FNS)
    out = replace_connectives(phi, {"and": demorgan})
    assert table_of(out, ["a", "b", "c"]).bits == \
        table_of(phi, ["a", "b", "c"]).bits
    # only OR/NOT remain
    def connectives(f):
        if isinstance(f, App):
            yield f.fn.name
            for a in f.args:
                yield from connectives(a)
    assert set(connectives(out)) <= {"or", "not"}


def test_encode_cnf_models_match_truth_table():
    phi = parse_formula("(maj3 x y (not z))", FNS)
    enc = encode_cnf([phi], variables=["x", "y", "z"])
    for bits in itertools.product((0, 1), repeat=3):
        point = dict(zip("xyz", bits))
        assumptions = [enc.var_of[v] if b else -enc.var_of[v]
                       for v, b in point.items()]
        res = sat_solve(enc.clauses, enc.num_vars, assumptions=assumptions)
        assert res.is_sat == bool(eval_formula(phi, point)), point


def test_encode_cnf_defines_without_asserting():
    """A defined formula keeps its root gate, left free and negative where
    the root is a negation: the root literal holds under an assumption
    exactly where phi holds.  Asserted, the root has no gate variable."""
    for text, want_root in (("(maj3 x y (not z))", 4),
                            ("(not (maj3 x y (not z)))", -4)):
        phi = parse_formula(text, FNS)
        asserted = encode_cnf([phi], variables=["x", "y", "z"])
        assert asserted.num_vars == 3 and asserted.roots == []
        enc = encode_cnf([], variables=["x", "y", "z"], define=[phi])
        assert enc.num_vars == 4 and len(enc.clauses) == 6
        root = enc.roots[0]
        assert root == want_root
        for bits in itertools.product((0, 1), repeat=3):
            point = dict(zip("xyz", bits))
            assumptions = [enc.var_of[v] if b else -enc.var_of[v]
                           for v, b in point.items()]
            for g in (root, -root):
                res = sat_solve(enc.clauses, enc.num_vars,
                                assumptions=assumptions + [g])
                assert res.is_sat == (eval_formula(phi, point) == (g == root))
            res = sat_solve(asserted.clauses, asserted.num_vars,
                            assumptions=assumptions)
            assert res.is_sat == bool(eval_formula(phi, point))


def check_gate_clauses(fn):
    """The clauses `encode_cnf` emits to define one gate over fresh
    variables have exactly the models of g <-> f, and each of them is
    prime; a literal table (identity, negation) has no gate and defines +-x1.
    Asserted, the gate's clauses hold exactly where f does."""
    k = fn.arity
    names = [f"x{j + 1}" for j in range(k)]
    phi = App(fn, tuple(map(Var, names)))
    asserted = encode_cnf([phi], variables=names)
    for point in itertools.product((False, True), repeat=k):
        res = sat_solve(asserted.clauses, asserted.num_vars,
                        assumptions=[j + 1 if b else -j - 1
                                     for j, b in enumerate(point)])
        assert res.is_sat == bool(fn(*point)), (fn.bits, point)
    enc = encode_cnf([], variables=names, define=[phi])
    if fn.bits in ((0, 1), (1, 0)):
        assert enc.roots == [1 if fn.bits[1] else -1]
        assert (enc.clauses, enc.num_vars, asserted.num_vars) == ([], 1, 1)
        return
    assert enc.roots == [k + 1]  # variables 1..k, then the gate
    assert asserted.num_vars == max(k, 1)  # an arity-0 root keeps its gate
    clauses = enc.clauses

    def holds(clause, point):
        return any(point[abs(l) - 1] == (l > 0) for l in clause)

    models = []
    for point in itertools.product((False, True), repeat=k + 1):
        is_model = point[k] == bool(fn(*point[:k]))
        assert all(holds(c, point) for c in clauses) == is_model, \
            (fn.bits, point)
        if is_model:
            models.append(point)
    for clause in clauses:
        for drop in range(len(clause)):
            shorter = clause[:drop] + clause[drop + 1:]
            assert not all(holds(shorter, p) for p in models), \
                (fn.bits, clause, drop)


def test_gate_clauses_are_prime_implicates_of_every_small_table():
    tables = 0
    for k in range(4):
        for bits in itertools.product((0, 1), repeat=1 << k):
            check_gate_clauses(TruthTable("f", k, bits))
            tables += 1
    assert tables == 278
    rng = random.Random(6)
    check_gate_clauses(TruthTable(
        "f6", 6, tuple(rng.randint(0, 1) for _ in range(64))))


def test_gate_clauses_of_and_and_maj3():
    def defined(text):
        enc = encode_cnf([], define=[parse_formula(text, FNS)])
        return enc.clauses, enc.roots

    def asserted(text):
        return encode_cnf([parse_formula(text, FNS)]).clauses

    assert defined("(and x y)") == ([[2, -3], [1, -3], [-1, -2, 3]], [3])
    assert defined("(not (and x y))") == ([[2, -3], [1, -3], [-1, -2, 3]],
                                          [-3])
    # an asserted root drops the clauses its gate satisfies, and the gate
    assert asserted("(and x y)") == [[2], [1]]
    assert asserted("(not (not (and x y)))") == [[2], [1]]
    assert asserted("(not (and x y))") == [[-1, -2]]
    maj3, roots = defined("(maj3 x y z)")
    assert len(maj3) == 6 and all(len(c) == 3 for c in maj3)
    assert roots == [4]
    assert asserted("(maj3 x y z)") == [[2, 3], [1, 3], [1, 2]]
    assert asserted("(not (maj3 x y z))") == [[-2, -3], [-1, -3], [-1, -2]]


def row_encoding(formulas, variables):
    """The row encoding: one clause per table row of each gate, numbered
    as `encode_cnf` numbers its variables.  Identity and negation fold into
    their child's literal, and an asserted root connective keeps only the
    rows whose value contradicts it, without a gate."""
    var_of = {v: i + 1 for i, v in enumerate(sorted(variables))}
    clauses = []
    count = len(var_of)

    def rows(fn, child, head):
        # head(out): the literals a row's clause ends with, None to drop it
        for row, out in enumerate(fn.bits):
            if head(out) is not None:
                clauses.append(
                    [-c if a else c
                     for c, a in zip(child, row_assignment(row, fn.arity))]
                    + head(out))

    def gate(phi):
        nonlocal count
        if isinstance(phi, Var):
            if phi.name not in var_of:
                count += 1
                var_of[phi.name] = count
            return var_of[phi.name]
        child = [gate(a) for a in phi.args] if isinstance(phi, App) else []
        if isinstance(phi, App) and phi.fn.bits in ((0, 1), (1, 0)):
            return child[0] if phi.fn.bits[1] else -child[0]
        count += 1
        if isinstance(phi, Const):
            clauses.append([count if phi.value else -count])
            return count
        g = count
        rows(phi.fn, child, lambda out: [g if out else -g])
        return g

    for phi in formulas:
        sign = 1
        while isinstance(phi, App) and phi.fn.bits in ((0, 1), (1, 0)):
            sign = sign if phi.fn.bits[1] else -sign
            phi = phi.args[0]
        if isinstance(phi, App) and phi.args:
            # the fixed root satisfies the rows whose value matches sign
            rows(phi.fn, [gate(a) for a in phi.args],
                 lambda out: None if (out == 1) == (sign == 1) else [])
        else:
            clauses.append([sign * gate(phi)])
    return clauses, var_of, count


def test_least_model_matches_the_row_encoding():
    # the same models, so the solver's least model is the row encoding's
    rng = random.Random(12)
    names = ["a", "b", "c"]
    for fn_list in SOLVER_BASES:
        for _ in range(12):
            def tree(depth):
                if depth == 0 or rng.random() < 0.3:
                    return (Const(rng.randint(0, 1)) if rng.random() < 0.1
                            else Var(rng.choice(names)))
                fn = rng.choice(fn_list)
                return App(fn, tuple(tree(depth - 1)
                                     for _ in range(fn.arity)))

            kb = [tree(rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
            enc = encode_cnf(kb, variables=names)
            rows, var_of, n = row_encoding(kb, names)
            assert (var_of, n) == (enc.var_of, enc.num_vars)
            assumptions = [rng.choice((1, -1)) * var_of[v]
                           for v in rng.sample(names, rng.randint(1, 2))]
            for assumed in ([], assumptions):
                want = brute_least_model(rows + [[l] for l in assumed], n)
                got = sat_solve(enc.clauses, enc.num_vars,
                                assumptions=assumed).model
                assert got == want, (fn_list, [render_formula(f) for f in kb],
                                     assumed)


def test_encode_cnf_with_assumptions():
    phi = parse_formula("(or x y)", FNS)
    enc = encode_cnf([phi], assumptions=[Literal("x", False)],
                     variables=["x", "y"])
    res = sat_solve(enc.clauses, enc.num_vars)
    assert res.is_sat
    # x false forces y
    assert res.model[enc.var_of["y"]]


def check_encoding_matches_eval(kb, psi, names):
    """Under every full assignment, the asserted `kb` is satisfiable
    exactly where each formula holds, and the root literal of the defined
    `psi` (or its negation) exactly where psi holds (or fails)."""
    asserted = encode_cnf(kb, variables=names)
    defined = encode_cnf([], variables=names, define=[psi])
    root = defined.roots[0]
    for bits in itertools.product((0, 1), repeat=len(names)):
        point = dict(zip(names, bits))
        assumed = [j + 1 if b else -j - 1 for j, b in enumerate(bits)]
        holds = all(eval_formula(phi, point) for phi in kb)
        assert sat_solve(asserted.clauses, asserted.num_vars,
                         assumptions=assumed).is_sat == holds, point
        value = eval_formula(psi, point)
        for g in (root, -root):
            res = sat_solve(defined.clauses, defined.num_vars,
                            assumptions=assumed + [g])
            assert res.is_sat == (value == (g == root)), (point, g)
    return root


@pytest.mark.parametrize("text", ["(and x (not x))",
                                  "(not (and x (not x)))",
                                  "(maj3 x (not x) y)",
                                  "(xor x (not (id x)))"])
def test_folded_literals_that_collide(text):
    """Folding puts x and -x into one gate's clauses, which the encoding
    with a gate per negation never did: tautologies and repeated
    literals, asserted and defined."""
    phi = parse_formula(text, FunctionSet([AND, NOT, MAJ3, XOR, IDENTITY]))
    negative = text.startswith("(not")
    for f, root_negative in ((phi, negative), (App(NOT, (phi,)), not negative)):
        root = check_encoding_matches_eval([f], f, ["x", "y"])
        assert (root < 0) == root_negative


def _tables(arity):
    return st.lists(st.integers(0, 1), min_size=1 << arity,
                    max_size=1 << arity).map(
        lambda bits: TruthTable(f"f{arity}", arity, tuple(bits)))


_FORMULAS = st.recursive(
    st.one_of(st.sampled_from("xyz").map(Var),
              st.integers(0, 1).map(Const)),
    lambda children: st.integers(0, 3).flatmap(
        lambda k: st.builds(lambda fn, args: App(fn, tuple(args)),
                            _tables(k),
                            st.lists(children, min_size=k, max_size=k))),
    max_leaves=8)


@settings(derandomize=True, database=None, max_examples=150,
          deadline=None)
@given(st.lists(_FORMULAS, min_size=1, max_size=2), _FORMULAS)
def test_encoding_matches_eval_on_random_tables(kb, psi):
    # random tables of arity 0-3; arity 1 covers identity, negation and
    # both constants
    check_encoding_matches_eval(kb, psi, ["x", "y", "z"])


def test_deep_negation_chains_encode_without_gates(tmp_path, capsys):
    """A 400-deep (not ...) chain folds into one literal: as a KB formula
    around (not (and a (not c))) it asserts a -> c with no gate variable,
    and as a manifestation around c its root literal is c or -c."""
    fns = FunctionSet([AND, NOT])
    kb = "(not (and a (not c)))"
    for _ in range(400):
        kb = f"(not {kb})"
    for depth, answer, code in ((400, "a", 0), (401, None, 1)):
        psi = "c"
        for _ in range(depth):
            psi = f"(not {psi})"
        enc = encode_cnf([parse_formula(kb, fns)], variables=["a", "c"],
                         define=[parse_formula(psi, fns)])
        assert (enc.clauses, enc.num_vars) == ([[-1, 2]], 2)
        assert enc.roots == [2 if depth % 2 == 0 else -2]
        path = tmp_path / f"deep{depth}.txt"
        path.write_text(f"fn and 2 0001\nfn not 1 10\nkb {kb}\n"
                        f"hyp a\nqformula {psi}\n")
        assert main(["solve", str(path), "--json"]) == code
        out = json.loads(capsys.readouterr().out)
        assert (out["method"], out["explanation"]) == ("general-scan",
                                                       answer)


def test_const_nodes_evaluate():
    phi = App(AND, (Const(1), Var("x")))
    assert eval_formula(phi, {"x": 1}) == 1
    assert eval_formula(phi, {"x": 0}) == 0
