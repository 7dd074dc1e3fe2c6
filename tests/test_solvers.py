"""Structure-specific solvers against the brute-force oracle."""

import importlib.util
import random
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneabd import abduction, solvers
from cloneabd.abduction import (EMPTY_EXPLANATION, AbductionInstance,
                                Explanation, candidate_explanation,
                                explanation_hits, explanations_at, first_hit,
                                is_explanation, oracle_count_full,
                                oracle_enumerate, oracle_solve,
                                serialize_instance)
from cloneabd.cli import main
from cloneabd.errors import CloneMismatchError, ResourceBudgetError
from cloneabd.formula import (App, Const, Var, balanced_tree, parse_formula,
                              render_formula, table_of)
from cloneabd.lattice import (IN_L, NP_COMPLETE, P_PARITYL_HARD,
                              SIGMA2P_COMPLETE, all_clone_ids, base_of,
                              classify_clone_decision)
from cloneabd.reductions import gen_random_instance
from cloneabd.solvers import (ROUTES, count_affine, count_full,
                              enumerate_full, route_of, solve, solve_affine,
                              solve_disjunctive_kb, solve_general,
                              solve_literal_kb, solve_monotone)
from cloneabd.truthtable import (AND, ANDNOT, CONST1, MAJ3, NOT, OR, XNOR,
                                 XOR, XOR3, FunctionSet, function_properties,
                                 mask_to_table)

from conftest import AND_OR, OR_AND, Deadline, lit, make_instance

BASES = [[OR], [AND], [NOT], [XOR3], [OR_AND], [MAJ3], [ANDNOT],
         [AND, NOT]]


def test_route_dispatch():
    def route(fns, variant="Q"):
        inst = gen_random_instance(0, FunctionSet(fns), variant=variant)
        return route_of(inst)

    assert route([AND]) == "literal"
    assert route([NOT]) == "literal"
    assert route([OR]) == "disjunctive"
    assert route([OR], "F") == "disjunctive"
    assert route([OR], "T") == "monotone"
    assert route([XOR3]) == "affine"
    assert route([MAJ3]) == "monotone"
    assert route([ANDNOT]) == "general"
    assert route([AND, NOT]) == "general"


def test_literal_solver_conjunction():
    inst = make_instance([AND], ["(and a (and b c))"], ["a", "b"],
                         "Q", lit("c"))
    out = solve_literal_kb(inst)
    assert out.found
    assert is_explanation(inst, out.explanation)


def test_literal_solver_no_explanation():
    # d never occurs in the KB, so no hypothesis can force it
    inst = make_instance([AND], ["(and a (and b c))", "d"],
                         ["a", "b"], "Q", lit("!d"))
    out = solve_literal_kb(inst)
    assert not out.found
    assert not oracle_solve(inst).found



def test_literal_solver_formula_encoded_once(monkeypatch):
    """Variant F on the literal route encodes the instance only for the
    certificate re-check: psi's forced literals decide, without SAT."""
    encoded = []
    real_encode_cnf = abduction.encode_cnf

    def recording_encode_cnf(*args, **kwargs):
        encoded.append(args)
        return real_encode_cnf(*args, **kwargs)

    monkeypatch.setattr(abduction, "encode_cnf", recording_encode_cnf)
    inst = make_instance([AND], ["(and a (and b c))"], ["a"], "F",
                         "(and b c)")
    out = solve_literal_kb(inst)
    assert out.found and out.explanation == EMPTY_EXPLANATION
    assert len(encoded) == 1

@pytest.mark.parametrize("variant, manifestation", [
    ("Q", lit("c")), ("C", (lit("!d"), lit("c"))), ("T", (lit("c"), lit("d"))),
    ("F", "(and c d)")])
def test_literal_route_builds_one_explanation_test(monkeypatch, variant,
                                                   manifestation):
    """Literal-route solve, count and enumerate decide from forced literals
    and build one `ExplanationTest`, for the certificate re-check; with no
    explanation they build none."""
    built = []
    real_init = abduction.ExplanationTest.__init__

    def recording_init(self, inst):
        built.append(inst)
        real_init(self, inst)

    monkeypatch.setattr(abduction.ExplanationTest, "__init__", recording_init)
    inst = make_instance([AND], ["(and a (and c d))"], ["a", "b"], variant,
                         manifestation)
    none = make_instance([AND], ["(and a d)"], ["a", "b"], variant,
                         manifestation)
    assert solve(inst).found and not solve(none).found
    for run in (solve, count_full, enumerate_full):
        for instance, builds in ((inst, 1), (none, 0)):
            built.clear()
            run(instance, route="literal")
            assert len(built) == builds, (run.__name__, builds)


def test_literal_solver_refuses_a_formula_outside_e_and_n():
    """Called directly on variant F, the literal route reads psi as a cube
    and refuses psi over other connectives, naming the manifestation;
    `route_of` never sends such an instance there."""
    inst = make_instance([AND, OR], ["(and a c)"], ["a"], "F", "(or c d)")
    with pytest.raises(CloneMismatchError, match="^manifestation is"):
        solve_literal_kb(inst)
    assert route_of(inst) != "literal"
    with pytest.raises(CloneMismatchError):
        route_of(inst, "literal")


def test_literal_count_reads_the_kb_once(monkeypatch):
    """A literal-route count reads each knowledge-base formula once: the
    forced literals that decide existence also give the choices."""
    flipped = []
    real_flips = solvers._flips

    def recording_flips(*args):
        flipped.append(args)
        return real_flips(*args)

    monkeypatch.setattr(solvers, "_flips", recording_flips)
    inst = make_instance([AND], ["(and a b)", "(and c a)"], ["a", "b"],
                         "Q", lit("c"))
    assert count_full(inst, "literal") == oracle_count_full(inst) == 1
    assert len(flipped) == 2


def test_literal_counts():
    inst = make_instance([AND], ["(and a (and b c))"], ["a", "b"],
                         "Q", lit("c"))
    assert count_full(inst) == oracle_count_full(inst)


def test_disjunctive_solver_witness_clause():
    inst = make_instance([OR], ["(or a (or b c))", "(or c d)"],
                         ["a", "b"], "Q", lit("c"))
    out = solve_disjunctive_kb(inst)
    assert out.found
    assert out.explanation.is_full(inst.hypotheses)
    assert is_explanation(inst, out.explanation)


def test_disjunctive_negative_literal_never_entailed():
    inst = make_instance([OR], ["(or a b)", "(or b c)"],
                         ["a", "b"], "Q", lit("!c"))
    assert not solve_disjunctive_kb(inst).found


def test_affine_solver_and_count():
    inst = make_instance([XOR3], ["(xor3 a b c)", "(xor3 b c d)"],
                         ["a", "b"], "Q", lit("d"))
    out = solve_affine(inst)
    assert out.found == oracle_solve(inst).found
    if out.found:
        assert is_explanation(inst, out.explanation)
    assert count_affine(inst) == oracle_count_full(inst)


def test_affine_term_variant():
    inst = make_instance([XOR3], ["(xor3 a b c)", "(xor3 b c d)"],
                         ["a", "b"], "T", (lit("c"), lit("d")))
    out = solve_affine(inst)
    assert out.found == oracle_solve(inst).found
    assert count_affine(inst) == oracle_count_full(inst)



@pytest.mark.parametrize("variant, manifestation, eliminations, fixed",
                         [("Q", lit("q"), 3, 1),
                          ("T", (lit("q"), lit("r")), 4, 2)])
def test_affine_enumeration_eliminates_once_per_instance(
        monkeypatch, variant, manifestation, eliminations, fixed):
    """Listing builds the system once and eliminates the knowledge base, each
    negation group and the result once, whatever the number of hypotheses
    and outputs.  Here q = h0 + h1 + 1 and r = h0, so Q needs h0 = h1 and T
    also h0 = 1; the other hypotheses are free."""
    calls = Counter()
    for name in ("build_affine_system", "_eliminate"):
        def counted(*args, _name=name, _fn=getattr(solvers, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(solvers, name, counted)
    for h in (2, 6, 10):
        hyps = [f"h{j}" for j in range(h)]
        kb = ["(xor3 h0 h1 q)", "(xor3 h1 r q)"] + [
            f"(xor3 h{j} h{j + 1} s{j})" for j in range(1, h - 1)]
        inst = make_instance([XOR3], kb, hyps, variant, manifestation)
        calls.clear()
        got = enumerate_full(inst, "affine")
        assert calls == {"build_affine_system": 1, "_eliminate": eliminations}
        assert len(got) == 1 << (h - fixed)
        assert all(is_explanation(inst, e) for e in got[:4])

def test_monotone_solver():
    inst = make_instance([MAJ3], ["(maj3 a b c)"], ["a", "b"],
                         "Q", lit("c"))
    out = solve_monotone(inst, 1 << 10)
    assert out.found == oracle_solve(inst).found
    if out.found:
        assert is_explanation(inst, out.explanation)


def test_general_solver():
    inst = make_instance([AND, NOT], ["(and a (not (and b (not c))))"],
                         ["a", "b"], "Q", lit("c"))
    out = solve_general(inst, 1 << 10)
    assert out.found == oracle_solve(inst).found
    if out.found:
        assert is_explanation(inst, out.explanation)


def test_wrong_route_raises():
    # ¬(a∧b) is neither affine-convertible nor a conjunction of literals
    inst = make_instance([AND, NOT], ["(not (and a b))"], ["a"],
                         "Q", lit("b"))
    with pytest.raises(CloneMismatchError):
        solve_affine(inst)
    with pytest.raises(CloneMismatchError):
        solve_literal_kb(inst)


def test_affine_solver_refuses_non_affine_connective():
    # a∨(c∧b) agrees with the equation a = 1 at the zero, unit and all-ones
    # points; only its connective shows that it is not affine
    inst = make_instance([OR_AND], ["(or_and a c b)"], ["a", "b"],
                         "Q", lit("c"))
    assert oracle_count_full(inst) == 1
    with pytest.raises(CloneMismatchError):
        solve_affine(inst)
    with pytest.raises(CloneMismatchError):
        count_affine(inst)


def test_literal_reading_refuses_mixed_connectives():
    # ¬a∧b is a conjunction of literals, but the one-point reading needs
    # every connective in E, or every connective in N
    inst = make_instance([AND, NOT], ["(and (not a) b)"], ["a"],
                         "Q", lit("b"))
    with pytest.raises(CloneMismatchError):
        solvers._forced_literals(inst.kb)


# Per class, every table of arity 0..3 in it: the connectives of the
# formulas drawn below, constants and ignored arguments included.
CLASS_TABLES = {
    cls: [t for arity in range(4) for row in range(1 << (1 << arity))
          if cls in function_properties(
              t := mask_to_table(row, arity, f"t{arity}_{row}"))]
    for cls in "envl"}


def _random_formula(rng, tables, depth):
    """A formula of depth at most `depth` over a, b, c, d, constants and
    `tables`; four variables make repeated arguments common."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return Const(rng.randrange(2))
        return Var(rng.choice("abcd"))
    fn = rng.choice(tables)
    return App(fn, tuple(_random_formula(rng, tables, depth - 1)
                         for _ in range(fn.arity)))


def _points(variables):
    """Assignments in truth-table row order (first variable most
    significant)."""
    for values in product((False, True), repeat=len(variables)):
        yield dict(zip(variables, values))


@pytest.mark.parametrize("cls", "envl")
def test_flip_reading_matches_the_table(cls):
    """The forced literals (E and N), positive clauses (V) and GF(2)
    equations (L) read from one point and its flips agree with the truth
    table of random knowledge bases of one to three formulas."""
    rng = random.Random(f"flips-{cls}")
    variables = ["a", "b", "c", "d"]
    for _ in range(150):
        kb = tuple(_random_formula(rng, CLASS_TABLES[cls], 4)
                   for _ in range(rng.randint(1, 3)))
        inst = AbductionInstance(FunctionSet([]), kb, (), "Q", lit("a"))
        table = [all(table_of(phi, variables).bits[row] for phi in kb)
                 for row in range(16)]
        if cls in "en":
            forced = solvers._forced_literals(inst.kb)
            read = [forced != solvers._FALSE and all(
                        point[v] == forced[v] for v in forced)
                    for point in _points(variables)]
        elif cls == "v":
            clauses = solvers._positive_clauses(inst.kb)
            read = [all(any(point[v] for v in c) for c in clauses)
                    for point in _points(variables)]
        else:
            equations = [solvers.formula_equation(phi) for phi in kb]
            read = [all(sum(point[v] for v in eqvars) % 2 == bit
                        for eqvars, bit in equations)
                    for point in _points(variables)]
        assert read == table, [render_formula(phi) for phi in kb]


# route: (connective, number of full explanations)
WIDE = {"affine": (XOR3, 2), "disjunctive": (OR, 2), "literal": (AND, 1)}


@pytest.mark.parametrize("route", sorted(WIDE))
def test_wide_closed_form_kb_answers(route):
    """A balanced tree over 4001 variables is read in one pass: the route
    solves and counts it in well under a second.  The small formula over
    x0, x1 (and x2) decides the answer: x0 follows from x1 = x2 (affine),
    from x1 false (disjunctive) and from the knowledge base alone
    (literal)."""
    deadline = Deadline(5)
    op, count = WIDE[route]
    tree = balanced_tree(op, [Var(f"x{i}") for i in range(4001)])
    small = App(op, tuple(Var(f"x{i}") for i in range(op.arity)))
    inst = AbductionInstance(FunctionSet([op]), (tree, small),
                             ("x1", "x2"), "Q", lit("x0"))
    assert route_of(inst) == route
    out = solve(inst)
    assert out.found and out.certificate_checked
    assert count_full(inst) == count
    deadline.check(route)


@pytest.mark.parametrize("variant", ["Q", "C", "T", "F"])
@pytest.mark.parametrize("base_idx", range(len(BASES)))
def test_solve_matches_oracle(base_idx, variant):
    fns = FunctionSet(BASES[base_idx])
    for seed in range(12):
        inst = gen_random_instance(seed + 100 * base_idx, fns,
                                   variant=variant)
        got = solve(inst)
        want = oracle_solve(inst)
        assert got.found == want.found, (base_idx, variant, seed)
        if got.found:
            assert is_explanation(inst, got.explanation)


@pytest.mark.parametrize("base_idx", range(len(BASES)))
def test_count_matches_oracle(base_idx):
    fns = FunctionSet(BASES[base_idx])
    for seed in range(8):
        inst = gen_random_instance(seed + 55 * base_idx, fns)
        assert count_full(inst) == oracle_count_full(inst)


@pytest.mark.parametrize("base", [[OR], [AND], [XOR3], [MAJ3], [OR, AND],
                                  [XNOR], [XOR, CONST1]])
def test_enumerate_matches_oracle(base):
    fns = FunctionSet(base)
    for variant in "QCTF":
        for seed in range(6):
            inst = gen_random_instance(seed, fns, variant=variant)
            got = [e.serialize() for e in enumerate_full(inst)]
            want = [e.serialize() for e in oracle_enumerate(inst)]
            assert got == want, (base, variant, seed)
            assert len(got) == len(set(got))
            assert count_full(inst) == len(want), (base, variant, seed)


def test_solve_outcome_invariants():
    inst = make_instance([OR], ["(or a b)"], ["a"], "Q", lit("b"))
    out = solve(inst)
    if out.found:
        assert out.certificate_checked


# the routes that decide each class of `classify_clone_decision` within it
ROUTES_OF_CLASS = {IN_L: {"literal", "disjunctive"},
                   P_PARITYL_HARD: {"affine"}, NP_COMPLETE: {"monotone"},
                   SIGMA2P_COMPLETE: {"general"}}


@pytest.mark.parametrize("clone", all_clone_ids((2, 3)),
                         ids=lambda c: c.name)
def test_auto_route_matches_the_classification(clone):
    """For every clone and variant, the clone's route is one that decides
    the paper's class of the pair: a logspace case is never scanned."""
    for variant in "QCTF":
        inst = gen_random_instance(0, base_of(clone), variant=variant)
        assert route_of(inst) in ROUTES_OF_CLASS[
            classify_clone_decision(clone, variant)], variant


@pytest.mark.parametrize("clone", all_clone_ids((2,)), ids=lambda c: c.name)
def test_every_clone_agrees_with_oracle(clone):
    """One instance per clone of Post's lattice (degree-2 families) and
    variant, beyond the fixed bases above: solve, count and enumeration by
    the clone's route and by every named route against the oracle.  A named
    route outside its clone is refused by all three."""
    for variant in "QCTF":
        inst = gen_random_instance(0, base_of(clone), variant=variant)
        found = oracle_solve(inst).found
        count = oracle_count_full(inst)
        want = [e.serialize() for e in oracle_enumerate(inst)]
        assert count == len(want), variant
        for route in (None, *ROUTES):
            where = (variant, route)
            try:
                route_of(inst, route)
            except CloneMismatchError:
                assert route is not None, where
                for run in (solve, count_full, enumerate_full):
                    with pytest.raises(CloneMismatchError):
                        run(inst, route=route)
                continue
            assert solve(inst, route=route).found == found, where
            assert count_full(inst, route) == count, where
            listed = [e.serialize() for e in enumerate_full(inst, route)]
            assert listed == want, where


def test_disjunctive_count_matches_oracle():
    fns = FunctionSet([OR])
    for seed in range(24):
        variant = "QC"[seed % 2]
        inst = gen_random_instance(seed, fns, num_vars=9, num_formulas=5,
                                   num_hyp=6, variant=variant)
        assert route_of(inst) == "disjunctive"
        assert count_full(inst) == oracle_count_full(inst), seed


def test_disjunctive_count_beyond_oracle_scale():
    # 17 hypotheses: more than the oracle accepts
    counts = []
    for seed in (3, 7):
        inst = gen_random_instance(seed, FunctionSet([OR]), num_vars=22,
                                   num_formulas=10, num_hyp=17)
        assert route_of(inst) == "disjunctive"
        counts.append(count_full(inst))
        assert counts[-1] == len(enumerate_full(inst))
    assert counts == [0, 212]


def test_monotone_count_beyond_oracle_scale():
    # 22 variables: more than the oracle accepts
    inst = gen_random_instance(4, FunctionSet([MAJ3]), num_vars=22,
                               num_formulas=8, num_hyp=8)
    assert route_of(inst) == "monotone"
    assert len(inst.variables) == 22
    with pytest.raises(ResourceBudgetError):
        oracle_count_full(inst)
    listed = enumerate_full(inst)
    assert count_full(inst) == len(listed) == 200
    hyp = inst.hypotheses
    assert listed == [e for i in range(1 << len(hyp)) if is_explanation(
        inst, e := candidate_explanation(hyp, i))]


def _or_budget_error(run):
    try:
        return run()
    except ResourceBudgetError as exc:
        return str(exc)


@pytest.mark.parametrize("variant", "QCT")
def test_monotone_tables_match_the_scan(monkeypatch, variant):
    """Candidate tables of four candidates each against the candidate scan
    of the general route: the same answers, `candidatesTried` and budget
    errors, at budgets on both sides of block edges and of the last
    candidate.  An instance whose manifestation rules out every candidate
    is answered before any table: nothing tried, nothing counted."""
    monkeypatch.setattr(solvers, "_BLOCK_BITS", 2)
    fns = FunctionSet([MAJ3, OR, CONST1])
    for seed in range(16):
        inst = gen_random_instance(seed, fns, num_vars=7, num_formulas=3,
                                   num_hyp=4, variant=variant,
                                   allow_constants=True)
        assert route_of(inst, "monotone") == "monotone"
        if solvers._monotone_tables(inst, 0) is None:
            for budget in (0, 1 << 20):
                assert solve_monotone(inst, budget).candidates_tried == 0
                assert count_full(inst, "monotone", budget) == 0
                assert enumerate_full(inst, "monotone", budget) == []
            continue
        for budget in (0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17):
            def scan():
                return explanation_hits(inst, budget, "monotone")

            def outcome(out):
                return out.found, out.explanation, out.candidates_tried

            want = (_or_budget_error(
                        lambda: outcome(first_hit(inst, scan(), "m"))),
                    _or_budget_error(
                        lambda: explanations_at(inst.hypotheses, scan())))
            got = (_or_budget_error(
                       lambda: outcome(solve_monotone(inst, budget))),
                   _or_budget_error(
                       lambda: enumerate_full(inst, "monotone", budget)))
            assert got == want, (seed, budget)
            count = _or_budget_error(
                lambda: count_full(inst, "monotone", budget))
            assert count == (want[1] if isinstance(want[1], str)
                             else len(want[1])), (seed, budget)


def test_general_count_beyond_oracle_scale(tmp_path, capsys):
    # 21 variables: more than the oracle accepts; the general route counts
    # and lists with its own scan
    inst = gen_random_instance(0, FunctionSet([AND, NOT]), num_vars=22,
                               num_formulas=6, num_hyp=12, variant="C")
    assert route_of(inst) == "general"
    assert len(inst.variables) == 21
    with pytest.raises(ResourceBudgetError):
        oracle_count_full(inst)
    listed = enumerate_full(inst)
    assert count_full(inst) == len(listed) == 1
    assert is_explanation(inst, listed[0])
    path = tmp_path / "inst.txt"
    path.write_text(serialize_instance(inst))
    assert main(["count", str(path)]) == 0
    assert capsys.readouterr().out == (
        "full explanations: 1 (method general-scan)\n")


@pytest.mark.parametrize("variant", "QCTF")
def test_general_answer_rechecked_on_fresh_solvers(monkeypatch, variant):
    """A found general-route answer is decided again by `is_explanation`,
    through `sat_solve`, on solvers that the scan never asked."""
    asked = {"scan": set(), "re-check": set()}
    phase = ["scan"]
    real_sat_solve = abduction.sat_solve
    real_is_explanation = solvers.is_explanation

    def recording_sat_solve(solver, *args, **kwargs):
        asked[phase[0]].add(id(solver))
        return real_sat_solve(solver, *args, **kwargs)

    def recheck(inst, e, test=None):
        phase[0] = "re-check"
        return real_is_explanation(inst, e, test)

    monkeypatch.setattr(abduction, "sat_solve", recording_sat_solve)
    monkeypatch.setattr(solvers, "is_explanation", recheck)
    found = 0
    for seed in range(8):
        inst = gen_random_instance(seed, FunctionSet([AND, NOT]),
                                   num_vars=6, num_hyp=3, variant=variant)
        asked["scan"].clear()
        asked["re-check"].clear()
        phase[0] = "scan"
        out = solve_general(inst)
        if out.found:
            found += 1
            assert asked["scan"] and asked["re-check"]
            assert not asked["scan"] & asked["re-check"]
        else:
            assert not asked["re-check"]
    assert found


# The benchmark's independent checker (`perfbench/checker.py`) shares no code
# with the program: it reads the instance text itself and decides from
# truth tables.
def _load_checker():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    checker = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = checker
    spec.loader.exec_module(checker)
    return checker


CHECKER = _load_checker()


@st.composite
def _instance_texts(draw, key):
    """One or two random tables of arity 0-3, a KB over them and the
    constants, hypotheses among a, b, c and a manifestation line `key` over
    p and q; clauses and terms may repeat a literal or hold its
    complement."""
    tables = []
    for j in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(0, 3))
        bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
        tables.append((f"t{j}", arity, format(bits, f"0{1 << arity}b")))

    def formula(variables, depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(variables))
        name, arity, _ = draw(st.sampled_from(tables))
        return "(" + " ".join([name] + [formula(variables, depth - 1)
                                        for _ in range(arity)]) + ")"

    lines = [f"fn {name} {arity} {bits}" for name, arity, bits in tables]
    lines += [f"kb {formula(list('abcpq01'), 3)}"
              for _ in range(draw(st.integers(1, 3)))]
    lines.append(" ".join(["hyp", *draw(st.sets(st.sampled_from("abc")))]))
    literal = st.builds(lambda neg, v: neg + v, st.sampled_from(["", "!"]),
                        st.sampled_from("pq"))
    if key == "qformula":
        lines.append(f"qformula {formula(list('pq01'), 2)}")
        return "\n".join(lines) + "\n"
    lits = draw(st.lists(literal, min_size=1, max_size=1 if key == "query"
                         else 3))
    if key != "query" and draw(st.booleans()):
        first = lits[0]
        lits.append(first[1:] if first[0] == "!" else "!" + first)
    return "\n".join(lines + [" ".join([key, *lits])]) + "\n"


@pytest.mark.parametrize("key", ["query", "clause", "term", "qformula"])
@settings(derandomize=True, database=None, max_examples=75, deadline=None)
@given(data=st.data())
def test_routes_agree_with_the_independent_checker(key, data):
    """On auto and every named route that accepts the instance, count,
    enumeration and solve agree with the checker's canonical list of full
    explanations, and the checker accepts a solve's answer."""
    text = data.draw(_instance_texts(key))
    inst = abduction.parse_instance(text)
    expected = CHECKER.parse_instance(text)
    want = [CHECKER.candidate_text(expected.hypotheses, i)
            for i in CHECKER.full_explanations(expected)]
    for route in (None, *ROUTES):
        try:
            route_of(inst, route)
        except CloneMismatchError:
            continue
        assert count_full(inst, route) == len(want), route
        assert [e.serialize() for e in enumerate_full(inst, route)] == want, \
            route
        out = solve(inst, route=route)
        assert out.found == bool(want), route
        assert not out.found or CHECKER.is_explanation(
            expected, out.explanation.serialize()), route


# Disjunctive bases, with the constant tables that V0, V1 and V allow.
V_BASES = {"OR": ["fn or 2 0111"],
           "OR+0": ["fn or 2 0111", "fn c0 0 0"],
           "OR+1": ["fn or 2 0111", "fn c1 0 1"],
           "OR+0+1": ["fn or 2 0111", "fn c0 0 0", "fn c1 0 1"]}


@st.composite
def _disjunctive_texts(draw, key, base):
    """A KB of one to four formulas over `or`, the base's constant tables,
    bare constants and a..e, p, q; up to five hypotheses among a..e, so
    that the witness walk runs above blocks of two hypotheses; and a
    manifestation line `key` over p and q."""
    lines = V_BASES[base]
    atoms = ["0", "1"] + [f"({line.split()[1]})" for line in lines[1:]]

    def formula(variables, depth):
        if depth == 0 or draw(st.booleans()):
            if draw(st.integers(0, 5)) == 0:
                return draw(st.sampled_from(atoms))
            return draw(st.sampled_from(variables))
        return (f"(or {formula(variables, depth - 1)} "
                f"{formula(variables, depth - 1)})")

    lines = lines + [f"kb {formula(list('abcdepq'), 3)}"
                     for _ in range(draw(st.integers(1, 4)))]
    lines.append(" ".join(["hyp", *draw(st.sets(st.sampled_from("abcde")))]))
    if key == "qformula":
        return "\n".join(lines + [f"qformula {formula(list('pq'), 2)}"]) + "\n"
    literal = st.builds(lambda neg, v: neg + v, st.sampled_from(["", "!"]),
                        st.sampled_from("pq"))
    lits = draw(st.lists(literal, min_size=1,
                         max_size=1 if key == "query" else 3))
    return "\n".join(lines + [" ".join([key, *lits])]) + "\n"


@pytest.mark.parametrize("base", sorted(V_BASES))
@pytest.mark.parametrize("key", ["query", "clause", "qformula"])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_disjunctive_tables_agree_with_the_independent_checker(key, base,
                                                               data):
    """Over V, V0, V1 and V2 the clone's route is the disjunctive one, and
    its count, enumeration and solve agree with the checker, with tables of
    2^16 candidates (one table decides alone) and of 4 (the witness walks
    the leading hypotheses and takes a table below each prefix it
    admits)."""
    text = data.draw(_disjunctive_texts(key, base))
    inst = abduction.parse_instance(text)
    assert route_of(inst) == "disjunctive"
    expected = CHECKER.parse_instance(text)
    want = [CHECKER.candidate_text(expected.hypotheses, i)
            for i in CHECKER.full_explanations(expected)]
    for bits in (16, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_BLOCK_BITS", bits)
            assert count_full(inst) == len(want), bits
            assert [e.serialize() for e in enumerate_full(inst)] == want, bits
            out = solve(inst)
            assert out.found == bool(want)
            assert not out.found or CHECKER.is_explanation(
                expected, out.explanation.serialize())


def _wide_disjunctive(tmp_path, h, manifestation):
    """`kb (or hi (or ci z))` for i = 1..h, hypotheses h1..hh."""
    lines = ["fn or 2 0111"]
    lines += [f"kb (or h{i} (or c{i} z))" for i in range(1, h + 1)]
    lines += [" ".join(["hyp"] + [f"h{i}" for i in range(1, h + 1)]),
              manifestation]
    path = tmp_path / "inst.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("manifestation",
                         ["clause z c1 c2", "qformula (or z (or c1 c2))"])
def test_disjunctive_count_by_tables_is_fast(tmp_path, capsys,
                                             manifestation):
    """22 hypotheses with 3 145 728 explanations (h1 or h2 false): counted
    from 64 tables under the witness, not one explanation at a time."""
    path = _wide_disjunctive(tmp_path, 22, manifestation)
    deadline = Deadline(1)
    assert main(["count", path]) == 0
    deadline.check(manifestation)
    assert capsys.readouterr().out == (
        "full explanations: 3145728 (method V-witness)\n")


def test_disjunctive_formula_without_explanation_is_decided(tmp_path,
                                                            capsys):
    """40 hypotheses, and psi = z is entailed by no witness clause: the
    answer is a definite no, where a candidate scan would exhaust its
    budget."""
    path = _wide_disjunctive(tmp_path, 40, "qformula (or z z)")
    deadline = Deadline(1)
    assert main(["solve", path]) == 1
    deadline.check("solve")
    assert capsys.readouterr().out == "no explanation (method V-witness)\n"
