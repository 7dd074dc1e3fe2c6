"""Acceptance gate: exhaustive desk-scale property checks with hard time
bounds.  Every check here is exact (no tolerances)."""

import itertools
import random

import pytest

from cloneabd.abduction import (AbductionInstance, Explanation,
                                eliminate_false, eliminate_true,
                                is_explanation, oracle_count_full,
                                oracle_enumerate, oracle_solve)
from cloneabd.cli import main
from cloneabd.formula import App, Literal, Var, eval_formula, encode_cnf
from cloneabd.lattice import (all_clone_ids, base_of, classify_counting,
                              classify_decision, clone_leq, identify_clone,
                              set_in_clone)
from cloneabd.reductions import (CnfFormula, DnfFormula, LinearSystem,
                                 Qbf2Instance, cnf_model_count,
                                 cnf_satisfiable, exactly_two_satisfiable,
                                 from_linear_system, from_pi1_count,
                                 from_pos2sat_count, from_qsat2_formula,
                                 from_three_sat_term, from_two_in_three_sat,
                                 gen_random_instance, linear_system_solvable,
                                 qbf_models, qbf_true)
from cloneabd.sat import sat_solve
from cloneabd.solvers import (_kb_mask, count_affine, count_full,
                              enumerate_full, route_of, solve, solve_affine)
from cloneabd.truthtable import (AND, ANDNOT, CONST0, CONST1, MAJ3, NOT, OR,
                                 XOR3, FunctionSet, TruthTable,
                                 clone_closure_masks, table_to_mask)

from conftest import AND_OR, OR_AND, Deadline

SOLVER_BASES = [[OR], [AND], [NOT], [XOR3], [OR_AND], [MAJ3], [ANDNOT],
                [AND, NOT]]


# ---------------------------------------------------------------------------
# 1. clone identification round-trip

def test_criterion_1_clone_roundtrip():
    deadline = Deadline(10)
    clones = all_clone_ids((2, 3))
    for clone in clones:
        assert identify_clone(base_of(clone)) == clone, clone.name
    deadline.check("clone round-trip")


# ---------------------------------------------------------------------------
# 2. closure-oracle consistency

def random_function_set(rng):
    k = rng.randint(1, 3)
    fns = []
    for i in range(k):
        arity = rng.randint(1, 3)
        bits = tuple(rng.randint(0, 1) for _ in range(1 << arity))
        fns.append(TruthTable(f"f{i}", arity, bits))
    return FunctionSet(fns)


def test_criterion_2_closure_oracle():
    deadline = Deadline(60)
    encoded = all_clone_ids((2, 3, 4))
    for seed in range(200):
        rng = random.Random(seed)
        fns = random_function_set(rng)
        clone = identify_clone(fns)
        # every member of B of arity <= 3 lies in the closure of the
        # identified clone's base at arity 3
        closure3 = clone_closure_masks(base_of(clone), 3)
        for f in fns:
            if f.arity <= 3:
                lifted = TruthTable.from_callable(
                    f.name, 3, lambda *a: f.bits[
                        sum(b << (f.arity - 1 - i)
                            for i, b in enumerate(a[:f.arity]))])
                assert table_to_mask(lifted) in closure3, (seed, f.name)
        # minimality: every encoded clone containing B sits above the answer
        for other in encoded:
            if set_in_clone(fns, other):
                assert clone_leq(clone, other), \
                    (seed, clone.name, other.name)
    deadline.check("closure oracle")


# ---------------------------------------------------------------------------
# 3. solver/oracle equivalence, 1000 instances

def test_criterion_3_solver_oracle_equivalence():
    deadline = Deadline(300)
    cases = 0
    for base_idx, fn_list in enumerate(SOLVER_BASES):
        fns = FunctionSet(fn_list)
        for variant in "QCTF":
            for seed in range(32):
                rng = random.Random(9000 + cases)
                num_vars = rng.randint(4, 10)
                num_hyp = rng.randint(1, min(6, num_vars - 1))
                inst = gen_random_instance(
                    seed + 1000 * base_idx, fns, num_vars=num_vars,
                    num_formulas=rng.randint(2, 4), num_hyp=num_hyp,
                    variant=variant)
                got = solve(inst)
                want = oracle_solve(inst)
                assert got.found == want.found, \
                    (base_idx, variant, seed, got.method)
                if got.found:
                    assert is_explanation(inst, got.explanation)
                cases += 1
    assert cases >= 1000
    deadline.check("solver/oracle equivalence")


def test_general_route_refutes_a_wide_conjunction(tmp_path, capsys):
    # the first KB formula forces every xi true and the second refutes x1
    # and x2 together, so the KB is unsatisfiable; without clause learning
    # it is answered in time only if unit propagation on the gate clauses
    # refutes it
    def conjunction(names):
        if len(names) == 1:
            return names[0]
        half = len(names) // 2
        return f"(and {conjunction(names[:half])} {conjunction(names[half:])})"

    for n in (250, 4000):
        path = tmp_path / f"wide{n}.txt"
        path.write_text(
            "fn and 2 0001\nfn not 1 10\n"
            f"kb {conjunction([f'x{i}' for i in range(n)])}\n"
            "kb (not (and x1 x2))\n"
            f"hyp {' '.join(f'x{i}' for i in range(1, 11))}\n"
            "query x0\n")
        deadline = Deadline(10)
        assert main(["solve", str(path)]) == 1
        deadline.check(f"wide conjunction over {n} variables")
        assert capsys.readouterr().out == \
            "no explanation (method general-scan)\n"


# ---------------------------------------------------------------------------
# 4. affine exactness

def test_criterion_4_affine_exactness():
    deadline = Deadline(60)
    fns = FunctionSet([XOR3])
    for seed in range(300):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 12)
        num_hyp = rng.randint(1, min(6, num_vars - 1))
        variant = rng.choice(["Q", "C", "T", "F"])
        inst = gen_random_instance(seed, fns, num_vars=num_vars,
                                   num_formulas=rng.randint(2, 5),
                                   num_hyp=num_hyp, variant=variant)
        out = solve_affine(inst)
        want = oracle_solve(inst)
        assert out.found == want.found, (seed, variant)
        if out.found:
            assert is_explanation(inst, out.explanation)
        assert count_affine(inst) == oracle_count_full(inst), (seed, variant)
        assert enumerate_full(inst, "affine") == oracle_enumerate(inst), \
            (seed, variant)
    deadline.check("affine exactness")


# ---------------------------------------------------------------------------
# 5. reduction correctness

def test_criterion_5a_three_sat_term():
    deadline = Deadline(150)
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, min(3, n))
            atoms = rng.sample(range(1, n + 1), k)
            clauses.append(tuple(Literal(f"x{i}", rng.random() < 0.5)
                                 for i in atoms))
        phi = CnfFormula(tuple(clauses))
        inst = from_three_sat_term(phi, FunctionSet([OR]))
        assert solve(inst).found == cnf_satisfiable(phi), seed
    deadline.check("3SAT term reduction")


def test_criterion_5b_two_in_three():
    deadline = Deadline(90)
    for seed in range(100):
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 5)
        clauses = []
        for _ in range(rng.randint(1, 2)):
            atoms = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(Literal(f"x{i}", True) for i in atoms))
        phi = CnfFormula(tuple(clauses))
        inst = from_two_in_three_sat(phi, FunctionSet([MAJ3]))
        assert oracle_solve(inst).found == exactly_two_satisfiable(phi), seed
    deadline.check("2-in-3 reduction")


def test_criterion_5c_linear_system():
    deadline = Deadline(60)
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 6)
        eqs = []
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(1, min(3, n))
            eqs.append((tuple(rng.sample(range(1, n + 1), k)),
                        rng.randint(0, 1)))
        system = LinearSystem(n, tuple(eqs))
        inst = from_linear_system(system, FunctionSet([XOR3]))
        assert solve(inst).found == (not linear_system_solvable(system)), seed
    deadline.check("linear-system reduction")


def random_qbf(rng, max_e, max_f):
    n = rng.randint(1, max_e)
    m = rng.randint(1, max_f)
    pool = ([f"x{i}" for i in range(1, n + 1)]
            + [f"y{j}" for j in range(1, m + 1)])
    terms = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, min(3, len(pool)))
        terms.append(tuple(Literal(v, rng.random() < 0.5)
                           for v in rng.sample(pool, k)))
    return Qbf2Instance(n, m, DnfFormula(tuple(terms)))


def test_criterion_5d_qsat2():
    deadline = Deadline(120)
    fns = FunctionSet([OR_AND])
    for seed in range(100):
        rng = random.Random(3000 + seed)
        chi = random_qbf(rng, 2, 2)
        inst = from_qsat2_formula(chi, fns)
        assert solve(inst).found == qbf_true(chi), seed
    deadline.check("QSAT2 reduction")


# ---------------------------------------------------------------------------
# 6. counting reductions

def test_criterion_6a_parsimonious_count():
    deadline = Deadline(90)
    fns = FunctionSet([AND, NOT])
    for seed in range(100):
        rng = random.Random(4000 + seed)
        chi = random_qbf(rng, 3, 2)
        inst = from_pi1_count(chi, fns)
        assert count_full(inst) == qbf_models(chi), seed
    deadline.check("parsimonious counting reduction")


def test_criterion_6b_turing_count():
    deadline = Deadline(30)
    fns = FunctionSet([OR])
    for seed in range(100):
        rng = random.Random(5000 + seed)
        n = rng.randint(2, 6)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(1, n + 1), 2)
            clauses.append((Literal(f"x{a}", True), Literal(f"x{b}", True)))
        phi = CnfFormula(tuple(clauses))
        inst, m = from_pos2sat_count(phi, fns, num_vars=n)
        models = cnf_model_count(phi, [f"x{i}" for i in range(1, m + 1)])
        assert models == (1 << m) - count_full(inst), seed
    deadline.check("Turing counting reduction")


# ---------------------------------------------------------------------------
# 7. constant-elimination parsimony

def test_criterion_7_constant_elimination():
    deadline = Deadline(60)
    top_base = FunctionSet([OR, AND, CONST1])
    for seed in range(200):
        inst = gen_random_instance(seed, top_base, num_vars=5,
                                   num_hyp=2, allow_constants=True)
        out = eliminate_true(inst)
        assert "const1" not in {f.name for f in out.fns} or \
            not _mentions(out.kb, "const1")
        assert oracle_count_full(out) == oracle_count_full(inst), seed

    bot_base = FunctionSet([OR, AND, CONST0])
    for seed in range(200):
        rng = random.Random(seed)
        variant = rng.choice(["Q", "C", "T"])
        inst = gen_random_instance(seed + 7000, bot_base, num_vars=5,
                                   num_hyp=2, variant=variant,
                                   allow_constants=True)
        out = eliminate_false(inst)
        assert not _mentions(out.kb, "const0")
        assert oracle_solve(out).found == oracle_solve(inst).found, seed
    deadline.check("constant elimination")


def _mentions(kb, name):
    def walk(phi):
        if isinstance(phi, App):
            if phi.fn.name == name:
                return True
            return any(walk(a) for a in phi.args)
        return False
    return any(walk(phi) for phi in kb)


# ---------------------------------------------------------------------------
# 8. golden classification pairs

GOLDEN = [
    ([OR], "Q", "IN_L"),
    ([OR], "C", "IN_L"),
    ([OR], "T", "NP_COMPLETE"),
    ([OR], "F", "IN_L"),
    ([ANDNOT], "Q", "SIGMA2P_COMPLETE"),
    ([ANDNOT], "C", "SIGMA2P_COMPLETE"),
    ([XOR3], "Q", "P_PARITYL_HARD"),
    ([XOR3], "C", "P_PARITYL_HARD"),
    ([XOR3], "T", "P_PARITYL_HARD"),
    ([XOR3], "F", "P_PARITYL_HARD"),
    ([AND], "Q", "IN_L"),
    ([MAJ3], "Q", "NP_COMPLETE"),
    ([MAJ3], "F", "SIGMA2P_COMPLETE"),
    ([AND, NOT], "Q", "SIGMA2P_COMPLETE"),
    ([OR], "#", "SHARP_P_COMPLETE"),
    ([AND, NOT], "#", "SHARP_CONP_COMPLETE"),
]


def test_criterion_8_golden_classification():
    deadline = Deadline(1)
    assert len(GOLDEN) == 16
    for fn_list, variant, label in GOLDEN:
        fns = FunctionSet(fn_list)
        if variant == "#":
            got = classify_counting(fns)
        else:
            got = classify_decision(fns, variant)
        assert got == label, (sorted(f.name for f in fns), variant)
    deadline.check("golden classification")


# ---------------------------------------------------------------------------
# 9. monotone shortcut: with the hypotheses fixed, a monotone knowledge base
# is satisfiable iff it holds with every other variable true.  The candidate
# tables of the monotone route read this bit; here it is read at arity 0,
# one candidate per table.

def test_criterion_9_monotone_shortcut():
    deadline = Deadline(30)
    base = FunctionSet([OR, AND, MAJ3, CONST0, CONST1])
    for seed in range(500):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 10)
        num_hyp = rng.randint(1, num_vars - 1)
        inst = gen_random_instance(seed, base, num_vars=num_vars,
                                   num_formulas=rng.randint(1, 4),
                                   num_hyp=num_hyp, allow_constants=True)
        bits = rng.randrange(1 << num_hyp)
        e = Explanation(tuple(
            Literal(v, bool((bits >> i) & 1))
            for i, v in enumerate(inst.hypotheses)))
        masks = dict.fromkeys(inst.variables, 1)
        masks.update((l.var, int(l.positive)) for l in e.literals)
        shortcut = _kb_mask(inst, masks, 0) == 1
        enc = encode_cnf(inst.kb, e.literals, inst.variables)
        assert shortcut == sat_solve(enc.clauses, enc.num_vars).is_sat, seed
    deadline.check("monotone shortcut")


def test_monotone_count_at_twenty_hypotheses():
    # 2^20 candidates, counted from sixteen candidate tables
    inst = gen_random_instance(1, FunctionSet([MAJ3]), num_vars=26,
                               num_formulas=8, num_hyp=20)
    assert route_of(inst) == "monotone"
    deadline = Deadline(1)
    assert count_full(inst) == 50968
    deadline.check("monotone count at h=20")


# ---------------------------------------------------------------------------
# 10. enumeration

def test_criterion_10_enumeration():
    deadline = Deadline(60)
    cases = 0
    for fn_list in ([OR], [AND], [XOR3]):
        fns = FunctionSet(fn_list)
        for variant in "QCTF":
            for seed in range(17):
                rng = random.Random(8000 + cases)
                num_vars = rng.randint(3, 6)
                inst = gen_random_instance(
                    seed, fns, num_vars=num_vars,
                    num_hyp=rng.randint(1, min(3, num_vars - 1)),
                    variant=variant)
                got = [e.serialize() for e in enumerate_full(inst)]
                want = [e.serialize() for e in oracle_enumerate(inst)]
                assert got == want, (fn_list, variant, seed)
                assert len(got) == len(set(got))
                cases += 1
    assert cases >= 200
    deadline.check("enumeration")
