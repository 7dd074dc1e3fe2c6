"""Instance semantics, validation, the brute-force oracle and the constant
elimination transforms."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneabd.abduction import (AbductionInstance, EMPTY_EXPLANATION,
                                Explanation, ExplanationTest,
                                candidate_explanation,
                                eliminate_false, eliminate_true,
                                entails_manifestation, explanation_hits,
                                is_explanation, oracle_count_full,
                                oracle_enumerate, oracle_solve,
                                parse_instance, serialize_instance,
                                validate_instance)
from cloneabd.errors import InputError, ResourceBudgetError
from cloneabd.formula import (App, Literal, Var, encode_cnf, eval_formula,
                              parse_formula)
from cloneabd.reductions import gen_random_instance
from cloneabd.sat import Solver, sat_solve
from cloneabd.truthtable import (AND, CONST0, CONST1, MAJ3, NOT, OR, XOR3,
                                 FunctionSet, TruthTable)

from conftest import lit, make_instance
from test_formula import NAMED, named_formulas


def simple_instance(variant="Q", manifestation=None):
    """KB = {a∨b, ¬b∨c}: refuting a forces b and then c."""
    if manifestation is None:
        manifestation = lit("c")
    return make_instance([OR, AND, NOT], ["(or a b)", "(or (not b) c)"],
                         ["a", "b"], variant, manifestation)


def test_explanation_normal_form():
    e = Explanation((lit("b"), lit("!a"), lit("b")))
    assert e.serialize() == "!a b"
    assert e.atoms == ["a", "b"]
    assert Explanation.parse("!a b") == e


def test_explanation_inconsistent():
    with pytest.raises(InputError):
        Explanation((lit("a"), lit("!a")))
    # repeats are dropped; the least variable with both polarities is named
    with pytest.raises(InputError, match="both polarities of 'b'$"):
        Explanation((lit("!d"), lit("d"), lit("c"), lit("b"), lit("c"),
                     lit("!b"), lit("a"), lit("a")))


def test_candidate_order():
    # binary counter, first variable most significant, 0 bit = negative
    hyp = ("a", "b")
    got = [candidate_explanation(hyp, i).serialize() for i in range(4)]
    assert got == ["!a !b", "!a b", "a !b", "a b"]


def test_validate_ok():
    assert validate_instance(simple_instance()) == []


def test_validate_catches_errors():
    inst = make_instance([OR], ["(or a b)"], ["z"], "Q", lit("a"))
    msgs = validate_instance(inst)
    assert any("hypothesis" in m for m in msgs)
    inst2 = make_instance([OR], ["(or a b)"], ["a"], "Q", lit("a"))
    assert any("overlap" in m for m in validate_instance(inst2))


def test_validate_manifestation_outside_kb():
    inst = make_instance([OR], ["(or a b)"], ["a"], "Q", lit("z"))
    assert any("manifestation" in m for m in validate_instance(inst))


def test_entailment_query():
    inst = simple_instance()
    assert entails_manifestation(inst, (lit("!a"),))
    assert not entails_manifestation(inst, ())


def test_entailment_term_and_clause():
    inst = simple_instance("T", (lit("b"), lit("c")))
    assert entails_manifestation(inst, (lit("!a"),))  # forces b, then c
    assert not entails_manifestation(inst, ())
    inst2 = simple_instance("C", (lit("b"), lit("c")))
    assert entails_manifestation(inst2, (lit("!a"),))
    assert not entails_manifestation(inst2, ())


def test_entailment_formula():
    inst = simple_instance("F", parse_formula("(and b c)",
                                              FunctionSet([AND])))
    assert entails_manifestation(inst, (lit("!a"),))
    assert not entails_manifestation(inst, (lit("a"),))


def test_is_explanation():
    inst = simple_instance()
    assert is_explanation(inst, Explanation((lit("!a"), lit("b"))))
    assert not is_explanation(inst, Explanation((lit("a"), lit("!b"))))
    # inconsistent with the KB: a∨b fails
    assert not is_explanation(inst, Explanation((lit("!a"), lit("!b"))))


def kb_models(inst, e):
    """Every assignment to the instance's variables that satisfies Gamma
    and E, by evaluation."""
    fixed = {l.var: int(l.positive) for l in e.literals}
    free = [v for v in inst.variables if v not in fixed]
    for bits in itertools.product((0, 1), repeat=len(free)):
        sigma = {**fixed, **dict(zip(free, bits))}
        if all(eval_formula(phi, sigma) for phi in inst.kb):
            yield sigma


def manifestation_holds(inst, sigma):
    m = inst.manifestation
    if inst.variant == "F":
        return eval_formula(m, sigma) == 1
    if inst.variant == "Q":
        return sigma[m.var] == m.positive
    hits = [sigma[l.var] == l.positive for l in m]
    return any(hits) if inst.variant == "C" else all(hits)


def truth_table_is_explanation(inst, e):
    """Reference by evaluation: Gamma and E have a model, and every such
    model satisfies the manifestation."""
    models = list(kb_models(inst, e))
    return bool(models) and all(manifestation_holds(inst, sigma)
                                for sigma in models)


# a ternary table drawn at random (random.Random(5)); it generates BF
RANDOM3 = TruthTable("r3", 3, (1, 1, 0, 1, 0, 0, 0, 0))


@pytest.mark.parametrize("fns", [[AND, NOT], [MAJ3], [XOR3], [RANDOM3]],
                         ids=["and_not", "maj3", "xor3", "random3"])
def test_one_explanation_test_answers_every_candidate(fns):
    """One `ExplanationTest` per instance, asked about every partial and
    full candidate in turn, agrees with a fresh one-shot `is_explanation`
    and with evaluation."""
    for seed in range(4):
        for variant in "QCTF":
            inst = gen_random_instance(seed, FunctionSet(fns), num_vars=6,
                                       num_hyp=3, variant=variant)
            test = ExplanationTest(inst)
            for signs in itertools.product((None, True, False), repeat=3):
                e = Explanation(tuple(
                    Literal(v, positive)
                    for v, positive in zip(inst.hypotheses, signs)
                    if positive is not None))
                got = is_explanation(inst, e, test)
                assert got == is_explanation(inst, e), (seed, variant, e)
                assert got == truth_table_is_explanation(inst, e), \
                    (seed, variant, e)


def _reference_hits(inst, budget):
    """The candidate scan as `is_explanation` decides it, one `Explanation`
    per candidate: the indices of the hits."""
    test = ExplanationTest(inst)
    for index in range(1 << len(inst.hypotheses)):
        if budget is not None and index >= budget:
            raise ResourceBudgetError(
                f"general scan budget {budget} candidates exceeded")
        e = candidate_explanation(inst.hypotheses, index)
        if is_explanation(inst, e, test):
            yield index


def _hits_or_error(hits):
    got = []
    try:
        got.extend(hits)
    except ResourceBudgetError as exc:
        return got, str(exc)
    return got, None


NO_KB = {
    "Q": "fn or 2 0111\nfn not 1 10\nhyp a b\nquery c\n",
    "F": "fn or 2 0111\nfn not 1 10\nhyp a b\nqformula (or c (not c))\n",
}


@pytest.mark.parametrize("fns", [[AND, NOT], [MAJ3], [XOR3], [RANDOM3]],
                         ids=["and_not", "maj3", "xor3", "random3"])
def test_explanation_hits_match_is_explanation(fns):
    """The scan over assumption ids yields the hit indices of a scan that
    asks `is_explanation` about each candidate, and raises the same budget
    error after the same hits."""
    instances = [parse_instance(text) for text in NO_KB.values()]
    for seed in range(3):
        for variant in "QCTF":
            for num_hyp in range(7):
                instances.append(gen_random_instance(
                    seed, FunctionSet(fns), num_vars=num_hyp + 2,
                    num_formulas=3, num_hyp=num_hyp, variant=variant))
    for inst in instances:
        size = 1 << len(inst.hypotheses)
        for budget in (None, 0, 1, size // 2 + 1, size):
            want = _hits_or_error(_reference_hits(inst, budget))
            got = _hits_or_error(explanation_hits(inst, budget, "general"))
            assert got == want, (serialize_instance(inst), budget)
    # the tautology in the F instance without a KB makes every candidate one
    assert len(list(explanation_hits(instances[1], None, "general"))) == 4


@pytest.mark.parametrize("variant", "QCTF")
def test_explanation_test_encodes_gamma_as_a_prefix(variant):
    """One encoding per instance: Gamma's own encoding, followed for variant
    F by the gate definitions of psi, which leave its root unasserted."""
    texts = [NO_KB["F" if variant == "F" else "Q"]]
    instances = [parse_instance(text) for text in texts]
    for seed in range(6):
        instances.append(gen_random_instance(
            seed, FunctionSet([AND, NOT]), num_vars=6, num_hyp=3,
            variant=variant))
    for inst in instances:
        test = ExplanationTest(inst)
        want = encode_cnf(inst.kb, (), inst.variables)
        gamma_end = len(want.clauses)
        if variant == "F":
            root = want.gate(inst.manifestation)
            definitions = want.clauses[gamma_end:]
            assert [root] not in definitions and [-root] not in definitions
        assert test.clauses == tuple(map(tuple, want.clauses))
        assert test.num_vars == want.num_vars
        assert all(isinstance(c, tuple) for c in test.clauses)


@pytest.mark.parametrize("fns", [[AND, NOT], [MAJ3], [XOR3], [RANDOM3]],
                         ids=["and_not", "maj3", "xor3", "random3"])
def test_one_solver_answers_both_questions(fns):
    """On every full and partial hypothesis assignment, the one solver
    (with psi's definitions for variant F) is consistent exactly when a
    solver over Gamma's clauses alone is, and it entails exactly when every
    model of Gamma and the assignment satisfies the manifestation."""
    for seed in range(4):
        for variant in "QCTF":
            inst = gen_random_instance(seed, FunctionSet(fns), num_vars=6,
                                       num_hyp=3, variant=variant)
            test = ExplanationTest(inst)
            alone = encode_cnf(inst.kb, (), inst.variables)
            gamma = Solver(alone.clauses, alone.num_vars)
            for signs in itertools.product((None, True, False), repeat=3):
                e = Explanation(tuple(
                    Literal(v, positive)
                    for v, positive in zip(inst.hypotheses, signs)
                    if positive is not None))
                assumed = test.assumption_ids(e.literals)
                assert test.kb_sat(assumed) == \
                    sat_solve(gamma, assumptions=assumed).is_sat, \
                    (seed, variant, e)
                assert test.entails(assumed) == all(
                    manifestation_holds(inst, sigma)
                    for sigma in kb_models(inst, e)), (seed, variant, e)


def test_fresh_explanation_test_shares_clauses_not_solvers():
    inst = simple_instance("F", parse_formula("(and b c)",
                                              FunctionSet([AND])))
    test = ExplanationTest(inst)
    again = test.fresh()
    assert again.clauses is test.clauses
    assert again._kb is not test._kb
    e = Explanation((lit("!a"),))
    assert is_explanation(inst, e, again) == is_explanation(inst, e, test)


def test_instance_variables_computed_once():
    inst = simple_instance()
    assert inst.variables == ("a", "b", "c")
    assert inst.variables is inst.variables
    assert inst.kb_vars is inst.kb_vars
    # equality and hashing read the fields, not the cached values
    twin = replace(inst)
    assert "variables" not in vars(twin)
    assert twin == inst and hash(twin) == hash(inst)
    wider = replace(inst, kb=inst.kb + (Var("d"),))
    assert wider.variables == ("a", "b", "c", "d")
    assert inst.variables == ("a", "b", "c")


def test_is_explanation_requires_consistency():
    inst = make_instance([OR, NOT], ["(or (not a) b)", "(not b)"],
                         ["a"], "Q", lit("b"))
    # a forces b via the first formula but contradicts the second
    assert not is_explanation(inst, Explanation((lit("a"),)))


def test_oracle_solve_and_order():
    inst = simple_instance()
    out = oracle_solve(inst)
    assert out.found and out.certificate_checked
    # !a !b is inconsistent, so the first working candidate is !a b
    assert out.explanation.serialize() == "!a b"


def test_oracle_solve_negative():
    inst = make_instance([OR], ["(or a c)", "c"], ["b"], "Q", lit("a"))
    # b cannot force a
    assert not oracle_solve(inst).found


def test_oracle_count_and_enumerate_agree():
    inst = simple_instance()
    full = oracle_enumerate(inst)
    assert len(full) == oracle_count_full(inst)
    assert full == sorted(full, key=lambda e: e.serialize())
    for e in full:
        assert e.is_full(inst.hypotheses)
        assert is_explanation(inst, e)


def test_eliminate_true_noop_without_constant():
    inst = simple_instance()
    assert eliminate_true(inst) is inst


def test_eliminate_true_parsimony():
    fns = FunctionSet([OR, AND, CONST1])
    kb = (parse_formula("(or a (and b const1))", fns),
          parse_formula("(or b c)", fns), Var("c"))
    inst = AbductionInstance(fns, kb, ("a", "b"), "Q", lit("c"))
    out = eliminate_true(inst)
    assert "const1" not in {f.name for f in
                            _used_connectives(out.kb)}
    assert oracle_count_full(out) == oracle_count_full(inst)
    assert oracle_solve(out).found == oracle_solve(inst).found


def _used_connectives(kb):
    acc = []

    def walk(phi):
        if isinstance(phi, App):
            acc.append(phi.fn)
            for a in phi.args:
                walk(a)
    for f in kb:
        walk(f)
    return acc


def test_eliminate_false_preserves_existence():
    fns = FunctionSet([OR, AND, CONST0])
    kb = (parse_formula("(or a (and b const0))", fns),
          parse_formula("(or b c)", fns))
    inst = AbductionInstance(fns, kb, ("a", "b"), "Q", lit("c"))
    out = eliminate_false(inst)
    assert "const0" not in {f.name for f in _used_connectives(out.kb)}
    assert oracle_solve(out).found == oracle_solve(inst).found


def test_eliminate_false_variant_restriction():
    fns = FunctionSet([OR, CONST0])
    kb = (parse_formula("(or a const0)", fns),)
    inst = AbductionInstance(fns, kb, ("a",), "F", Var("a"))
    with pytest.raises(InputError):
        eliminate_false(inst)


def test_parse_serialize_roundtrip():
    text = ("fn or 2 0111\n"
            "kb (or a b)\n"
            "kb (or b c)\n"
            "hyp a b\n"
            "query c\n")
    inst = parse_instance(text)
    assert inst.variant == "Q"
    assert inst.hypotheses == ("a", "b")
    assert serialize_instance(inst) == text
    again = parse_instance(serialize_instance(inst))
    assert serialize_instance(again) == text


@st.composite
def _instances(draw):
    """An instance over NAMED: a KB over a, b, p and q, hypotheses among
    a and b, and a manifestation of any variant over p and q."""
    variant = draw(st.sampled_from("QCTF"))
    literal = st.builds(Literal, st.sampled_from("pq"), st.booleans())
    if variant == "Q":
        manifestation = draw(literal)
    elif variant == "F":
        manifestation = draw(named_formulas("pq"))
    else:
        manifestation = tuple(draw(st.lists(literal, min_size=1,
                                            max_size=3)))
    return AbductionInstance(
        NAMED, tuple(draw(st.lists(named_formulas("abpq"), max_size=3))),
        tuple(draw(st.sets(st.sampled_from("ab")))), variant, manifestation)


@settings(derandomize=True, database=None, max_examples=75, deadline=None)
@given(_instances())
def test_serialize_then_parse_gives_the_instance_back(inst):
    again = parse_instance(serialize_instance(inst))
    # a FunctionSet compares by identity, so its tables are compared here
    assert list(again.fns) == list(inst.fns)
    assert replace(again, fns=inst.fns) == inst


def test_parse_all_variants():
    base = "fn or 2 0111\nkb (or a b)\nhyp a\n"
    assert parse_instance(base + "query b\n").variant == "Q"
    assert parse_instance(base + "clause b !c\n").variant == "C"
    assert parse_instance(base + "term b c\n").variant == "T"
    assert parse_instance(base + "qformula (or b c)\n").variant == "F"


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_instance("fn or 2 0111\nwhat is this\n")
    with pytest.raises(InputError):
        parse_instance("fn or 2 0111\nkb (or a b)\nhyp a\n")  # no query
