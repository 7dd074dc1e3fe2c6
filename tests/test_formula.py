"""Formula parsing, evaluation, template substitution and CNF encoding."""

import itertools
import random

import pytest

from cloneabd.errors import InputError
from cloneabd.formula import (App, Const, Literal, Var, balanced_tree,
                              encode_cnf, eval_formula, formula_depth,
                              formula_mask, formula_size, free_vars,
                              parse_formula, parse_literal, render_formula,
                              replace_connectives, substitute_map, table_of)
from cloneabd.sat import sat_solve
from cloneabd.truthtable import (AND, MAJ3, NOT, OR, XOR, XOR3, FunctionSet)

FNS = FunctionSet([AND, OR, NOT, XOR3, MAJ3])


def test_parse_render_roundtrip():
    for text in ["x", "(and x y)", "(or (not a) (and b c))",
                 "(maj3 x y (not z))"]:
        phi = parse_formula(text, FNS)
        assert render_formula(phi) == text
        assert render_formula(parse_formula(render_formula(phi), FNS)) == text


def test_parse_arity_mismatch():
    with pytest.raises(InputError):
        parse_formula("(and x)", FNS)
    with pytest.raises(InputError):
        parse_formula("(not x y)", FNS)


def test_parse_unknown_connective():
    with pytest.raises(InputError):
        parse_formula("(nand x y)", FNS)


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


def test_formula_size_depth():
    phi = parse_formula("(or (not a) (and b c))", FNS)
    assert formula_size(phi) == 6
    assert formula_depth(phi) == 2
    assert formula_depth(Var("x")) == 0


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


def test_encode_cnf_with_assumptions():
    phi = parse_formula("(or x y)", FNS)
    enc = encode_cnf([phi], assumptions=[Literal("x", False)],
                     variables=["x", "y"])
    res = sat_solve(enc.clauses, enc.num_vars)
    assert res.is_sat
    # x false forces y
    assert res.model[enc.var_of["y"]]


def test_const_nodes_evaluate():
    phi = App(AND, (Const(1), Var("x")))
    assert eval_formula(phi, {"x": 1}) == 1
    assert eval_formula(phi, {"x": 0}) == 0
