"""Clone identification, lattice inclusion, classification dispatch and
representation synthesis."""

import heapq
import itertools
import json
import random
from pathlib import Path

import pytest

from cloneabd.cli import main
from cloneabd.errors import (AbdError, NoRepresentationError,
                             ResourceBudgetError, UnsupportedError)
from cloneabd.formula import render_formula, table_of
from cloneabd import lattice
from cloneabd.lattice import (CloneId, all_clone_ids, base_of,
                              classify_counting, classify_decision,
                              clone_leq, function_in_clone, h_fn,
                              identify_clone, parse_clone_name, set_in_clone,
                              signature_of, synthesize_representation)
from cloneabd.truthtable import (AND, ANDNOT, CONST0, CONST1, IMPLIES, MAJ3,
                                 NOT, OR, XNOR, XOR, XOR3, FunctionSet,
                                 TruthTable, compose, dual_fn,
                                 parse_function_line, projection_mask,
                                 table_to_mask)

from conftest import AND_OR, OR_AND, Deadline, random_connectives


def C(name):
    return parse_clone_name(name)


def test_clone_name_roundtrip():
    for text in ["BF", "V2", "S02", "S02^2", "S1^3", "D1", "I0"]:
        assert C(text).name == text


def test_identify_table_examples():
    assert identify_clone(FunctionSet([ANDNOT])).name == "S1"
    assert identify_clone(FunctionSet([OR])).name == "V2"
    assert identify_clone(FunctionSet([MAJ3])).name == "D2"
    assert identify_clone(FunctionSet([AND, NOT])).name == "BF"


def test_identify_more_bases():
    assert identify_clone(FunctionSet([IMPLIES])).name == "S0"
    assert identify_clone(FunctionSet([XOR3])).name == "L2"
    assert identify_clone(FunctionSet([XOR, CONST1])).name == "L"
    assert identify_clone(FunctionSet([NOT])).name == "N2"
    assert identify_clone(FunctionSet([OR, AND, CONST0, CONST1])).name == "M"
    assert identify_clone(FunctionSet([OR_AND])).name == "S00"
    assert identify_clone(FunctionSet([AND_OR])).name == "S10"


def test_signature_or():
    sig = signature_of(FunctionSet([OR]))
    assert sig.bools == {"r0", "r1", "m", "v"}
    assert sig.s0 == float("inf") and sig.s1 == 1


def test_signature_xor3():
    sig = signature_of(FunctionSet([XOR3]))
    assert sig.bools == {"r0", "r1", "d", "l"}


def test_roundtrip_all_bases():
    for clone in all_clone_ids((2, 3, 4)):
        assert identify_clone(base_of(clone)) == clone


def test_identify_gives_the_least_clone_containing_the_set():
    # a set lies in a clone exactly when its identified clone does: every
    # table of arity 0-3 alone, and random pairs of them
    tables = [TruthTable(f"f{len(bits)}", k, bits) for k in range(4)
              for bits in itertools.product((0, 1), repeat=1 << k)]
    assert len(tables) == 278
    rng = random.Random(13)
    sets = [[f] for f in tables]
    sets += [[f, g.renamed("g")] for f, g in
             (rng.sample(tables, 2) for _ in range(200))]
    clones = all_clone_ids((2, 3, 4))
    for fs in sets:
        fns = FunctionSet(fs)
        least = identify_clone(fns)
        for c in clones:
            assert set_in_clone(fns, c) == clone_leq(least, c), \
                ([f.bits for f in fs], least.name, c.name)


def _identify_by_scan(fns):
    """The candidate scan that `identify_clone` replaced: every named clone,
    parametric families at the signature's degree, and exactly one of them
    whose closed record is the closed signature."""
    closed = lattice._close_constraints(signature_of(fns))
    candidates = [CloneId(family)
                  for family in lattice.NONPARAMETRIC_FAMILIES]
    for family in lattice.PARAMETRIC_FAMILIES:
        degree = closed.s0 if family.startswith("S0") else closed.s1
        if 2 <= degree < float("inf"):
            candidates.append(CloneId(family, int(degree)))
    (clone,) = [c for c in candidates if lattice.closed_record(c) == closed]
    return clone


def test_identify_clone_matches_the_candidate_scan():
    tables = [TruthTable(f"f{len(bits)}", k, bits) for k in range(4)
              for bits in itertools.product((0, 1), repeat=1 << k)]
    assert len(tables) == 278
    rng = random.Random(29)
    sets = [FunctionSet([f]) for f in tables]
    sets += [FunctionSet([f, g.renamed("g")]) for f, g in
             (rng.sample(tables, 2) for _ in range(200))]
    sets += [base_of(c) for c in all_clone_ids((2, 3, 4))]
    seen = set()
    for fns in sets:
        clone = identify_clone(fns)
        assert clone == _identify_by_scan(fns), fns
        seen.add(clone)
    # every family is reached, and the parametric ones at degrees 2-4
    assert seen >= set(all_clone_ids((2, 3, 4)))
    # the table the lookup reads names each non-parametric family once
    assert sorted(c.family for c in lattice._named_by_record().values()) \
        == sorted(lattice.NONPARAMETRIC_FAMILIES)


def test_base_of_examples():
    assert {f.bits for f in base_of(C("BF"))} == {AND.bits, NOT.bits}
    d1 = list(base_of(C("D1")))
    assert len(d1) == 1
    # (x and y) or (x and not z) or (y and not z)
    expect = TruthTable.from_callable(
        "d1", 3, lambda x, y, z: (x & y) | (x & (1 - z)) | (y & (1 - z)))
    assert d1[0].bits == expect.bits
    s1_2 = base_of(C("S1^2"))
    assert any(f.bits == MAJ3.bits for f in s1_2)


def test_base_of_degree_cap():
    with pytest.raises(UnsupportedError):
        base_of(CloneId("S0", 5))


def test_h_fn():
    assert h_fn(2).bits == MAJ3.bits
    h3 = h_fn(3)
    assert h3.arity == 4
    # value 1 iff at least 3 of the 4 inputs are 1
    for i, b in enumerate(h3.bits):
        ones = bin(i).count("1")
        assert b == (1 if ones >= 3 else 0)


def test_clone_leq_examples():
    assert clone_leq(C("V2"), C("M"))
    assert clone_leq(C("L2"), C("L"))
    assert clone_leq(C("S00"), C("S02"))
    assert clone_leq(C("V2"), C("S00"))
    assert clone_leq(C("D2"), C("D1")) and not clone_leq(C("D1"), C("D2"))
    assert not clone_leq(C("D1"), C("S02^2"))
    assert clone_leq(C("E2"), C("S10"))


def test_clone_leq_parametric_chain():
    assert clone_leq(C("S0^3"), C("S0^2"))
    assert clone_leq(C("S0"), C("S0^3"))
    assert not clone_leq(C("S0^2"), C("S0^3"))


def test_clone_leq_is_base_membership():
    # the definition: C1 <= C2 iff every base function of C1 lies in C2
    ids = all_clone_ids((2, 3, 4))
    for a, b in itertools.product(ids, repeat=2):
        assert clone_leq(a, b) == set_in_clone(base_of(a), b), \
            (a.name, b.name)


def test_clone_leq_beyond_base_degrees():
    # degrees 5 and 6 have no base here; the chains still hold
    for fam in ("S0", "S1", "S02", "S10"):
        assert clone_leq(CloneId(fam, 6), CloneId(fam, 5))
        assert clone_leq(CloneId(fam, 5), CloneId(fam, 4))
        assert clone_leq(CloneId(fam), CloneId(fam, 6))
        assert not clone_leq(CloneId(fam, 5), CloneId(fam, 6))
        assert not clone_leq(CloneId(fam, 6), CloneId(fam))
    assert clone_leq(CloneId("S00", 6), CloneId("S02", 5))
    assert not clone_leq(CloneId("S0", 6), CloneId("S1", 2))


def test_clone_leq_partial_order():
    ids = all_clone_ids((2, 3))
    for a in ids:
        assert clone_leq(a, a)
    for a, b in itertools.combinations(ids, 2):
        assert not (clone_leq(a, b) and clone_leq(b, a))


def test_clone_leq_transitive_sample():
    ids = all_clone_ids((2,))
    for a, b, c in itertools.product(ids, repeat=3):
        if clone_leq(a, b) and clone_leq(b, c):
            assert clone_leq(a, c), (a.name, b.name, c.name)


def test_duality_symmetry():
    pairs = [("V2", "E2"), ("V", "E"), ("S00", "S10"), ("S02", "S12"),
             ("R0", "R1"), ("L0", "L1"), ("M0", "M1"), ("D2", "D2"),
             ("L2", "L2"), ("BF", "BF"), ("N2", "N2")]
    for a, b in pairs:
        dual_base = FunctionSet(
            [dual_fn(f) for f in base_of(C(a))])
        assert identify_clone(dual_base).name == b


def test_function_in_clone():
    assert function_in_clone(OR, C("V2"))
    assert not function_in_clone(AND, C("V2"))
    assert function_in_clone(MAJ3, C("D"))
    assert set_in_clone(FunctionSet([OR, AND]), C("M2"))


def test_classify_decision_q_examples():
    assert classify_decision(FunctionSet([OR]), "Q") == "IN_L"
    assert classify_decision(FunctionSet([ANDNOT]), "Q") == \
        "SIGMA2P_COMPLETE"
    assert classify_decision(FunctionSet([XOR3]), "C") == "P_PARITYL_HARD"
    assert classify_decision(FunctionSet([OR]), "T") == "NP_COMPLETE"


def test_classify_q_equals_c():
    bases = [[OR], [AND], [NOT], [XOR3], [MAJ3], [ANDNOT], [AND, NOT],
             [IMPLIES], [OR_AND], [AND_OR], [XOR, CONST1]]
    for fs in bases:
        b = FunctionSet(fs)
        assert classify_decision(b, "Q") == classify_decision(b, "C")


def test_classify_counting_examples():
    assert classify_counting(FunctionSet([OR])) == "SHARP_P_COMPLETE"
    assert classify_counting(FunctionSet([AND, NOT])) == \
        "SHARP_CONP_COMPLETE"
    assert classify_counting(FunctionSet([NOT])) == "FP"


def test_synthesize_example_1():
    # the {h}-representation of x∧y via h(x, h(x, y)) with h = x∧¬y
    h = TruthTable("h", 2, ANDNOT.bits)
    phi = synthesize_representation(FunctionSet([h]), AND)
    assert table_of(phi, ["x1", "x2"]).bits == AND.bits


def test_synthesize_trivial_and_ternary():
    phi = synthesize_representation(FunctionSet([OR]), OR)
    assert render_formula(phi) == "(or x1 x2)"
    or3 = TruthTable.from_callable("or3", 3, lambda a, b, c: a | b | c)
    psi = synthesize_representation(FunctionSet([OR]), or3)
    assert table_of(psi, ["x1", "x2", "x3"]).bits == or3.bits


def test_synthesize_deterministic():
    a = synthesize_representation(FunctionSet([AND, NOT]), OR)
    b = synthesize_representation(FunctionSet([AND, NOT]), OR)
    assert render_formula(a) == render_formula(b)


def test_synthesize_absent():
    with pytest.raises(NoRepresentationError):
        synthesize_representation(FunctionSet([OR]), AND)
    with pytest.raises(NoRepresentationError):
        synthesize_representation(FunctionSet([AND]), CONST1)


def test_synthesize_nullary_target():
    phi = synthesize_representation(FunctionSet([CONST1]), CONST1)
    assert table_of(phi, []).bits == (1,)


# (base, target, least budget that succeeds, formula found)
_EXACT_BUDGETS = [
    ([AND, NOT], OR, 182, "(not (and (not x1) (not x2)))"),
    ([ANDNOT], AND, 25, "(andnot x1 (andnot x1 x2))"),
    ([XOR, CONST1], XNOR, 49, "(xor (const1) (xor x1 x2))"),
    ([IMPLIES], OR, 25, "(implies (implies x1 x2) x2)"),
]


@pytest.mark.parametrize(
    "fs,target,budget,text", _EXACT_BUDGETS,
    ids=["+".join(f.name for f in case[0]) + "-" + case[1].name
         for case in _EXACT_BUDGETS])
def test_synthesis_budget_is_exact(fs, target, budget, text):
    # the budget counts the argument tuples composed: one fewer is too few
    with pytest.raises(ResourceBudgetError):
        synthesize_representation(FunctionSet(fs), target, budget - 1)
    phi = synthesize_representation(FunctionSet(fs), target, budget)
    assert render_formula(phi) == text


# `synth_golden.json` holds, for the base of every clone in
# `all_clone_ids((2, 3))`, each named table of arity 2 or 3 in `truthtable`
# as target and budgets 25 and 200000, the rendered witness or the error
# (`<class>: <message>`) of `synthesize_representation`; also xor3 over
# {nand, const1} and over {and, not, const1} at budget 200000.  It was
# captured while each argument tuple was still composed on its own.
SYNTH_GOLDEN = json.loads(
    (Path(__file__).parent / "synth_golden.json").read_text())


def test_synthesis_output_is_pinned():
    wrong = []
    for case in SYNTH_GOLDEN:
        fns = FunctionSet(map(parse_function_line, case["base"]))
        target = parse_function_line(case["target"])
        try:
            got = render_formula(
                synthesize_representation(fns, target, case["budget"]))
        except AbdError as e:
            got = f"{type(e).__name__}: {e}"
        if got != case["result"]:
            wrong.append((case["clone"], target.name, case["budget"], got))
    assert not wrong, wrong[:5]


def _synthesis_by_products(fns, target, budget):
    """The rendered witness of a plain uniform-cost search: each settled
    table composes, one at a time, every tuple over the settled tables
    that holds it, and pushes each unsettled one, with no folding, no size
    bounds and no symmetry; the budget counts the same tuples."""
    m = target.arity
    heap = [(1, f"x{j + 1}", projection_mask(j, m)) for j in range(m)]
    heap += [(1, f"({f.name})", compose(f, (), m)) for f in fns
             if f.arity == 0]
    heapq.heapify(heap)
    settled = {}  # mask -> (size, text)
    expansions = 0
    while heap:
        size, text, mask = heapq.heappop(heap)
        if mask in settled:
            continue
        if mask == table_to_mask(target):
            return text
        n = len(settled)
        settled[mask] = (size, text)
        for f in fns:
            expansions += (n + 1) ** f.arity - n ** f.arity
            if expansions > budget:
                raise ResourceBudgetError(
                    f"synthesis budget {budget} exceeded")
            for t in itertools.product(settled, repeat=f.arity):
                if mask not in t:
                    continue
                new_mask = compose(f, t, m)
                if new_mask not in settled:
                    args = [settled[c] for c in t]
                    heapq.heappush(heap, (
                        1 + sum(a[0] for a in args),
                        "(" + " ".join([f.name] + [a[1] for a in args]) + ")",
                        new_mask))
    raise NoRepresentationError(
        f"{target.name!r} is not generated by the given connectives at "
        f"arity {m}")


def _outcome(search, fns, target, budget):
    try:
        return search(fns, target, budget)
    except AbdError as e:
        return f"{type(e).__name__}: {e}"


def test_synthesis_equals_the_plain_search():
    # random bases mixing commutative and other binary connectives,
    # ternary connectives and constants; targets of arity 1-3 at small
    # and default budgets
    rng = random.Random(25)
    for _ in range(120):
        fns = random_connectives(rng, (0, 1, 2, 2, 2, 3))
        m = rng.randint(1, 3)
        target = TruthTable("t", m, tuple(rng.getrandbits(1)
                                          for _ in range(1 << m)))
        budget = rng.choice((rng.randint(0, 300), 200000))
        got = _outcome(lambda *a: render_formula(
            synthesize_representation(*a)), fns, target, budget)
        assert got == _outcome(_synthesis_by_products, fns, target,
                               budget), (fns.functions, target.bits, budget)


def test_synthesis_budget_bounds_the_work(tmp_path, capsys):
    # xor of four variables over {and, not} needs more than 200 000 tuples;
    # the search must spend them and stop well inside the bound
    base = tmp_path / "base.fns"
    base.write_text("fn and 2 0001\nfn not 1 10\n")
    deadline = Deadline(3)
    assert main(["repr", str(base), "fn t 4 0110100110010111",
                 "--budget", "200000"]) == 3
    deadline.check("repr at budget 200000")
    assert "synthesis budget 200000 exceeded" in capsys.readouterr().err
