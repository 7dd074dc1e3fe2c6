"""Hardness-preserving generators and their ground-truth evaluators."""

import random

import pytest

from cloneabd.abduction import (oracle_count_full, oracle_solve,
                                validate_instance)
from cloneabd.errors import CloneMismatchError, InputError
from cloneabd.formula import Literal
from cloneabd.reductions import (CnfFormula, DnfFormula, LinearSystem,
                                 Qbf2Instance, cnf_model_count,
                                 cnf_satisfiable, exactly_two_satisfiable,
                                 from_linear_system, from_pi1_count,
                                 from_pos2sat_count, from_qsat2_formula,
                                 from_three_sat_term, from_two_in_three_sat,
                                 gen_random_instance, linear_system_solvable,
                                 parse_cnf, parse_linear_system, parse_qbf,
                                 qbf_models, qbf_true)
from cloneabd.solvers import solve
from cloneabd.truthtable import (AND, MAJ3, NOT, OR, XOR3, FunctionSet)

from conftest import OR_AND

L2 = FunctionSet([XOR3])
V2 = FunctionSet([OR])
S00 = FunctionSet([OR_AND])
BF = FunctionSet([AND, NOT])


def pos(v):
    return Literal(v, True)


def neg(v):
    return Literal(v, False)


# ---------------------------------------------------------------------------
# ground-truth evaluators

def test_linear_system_solvable():
    # x1 + x2 = 1, x1 + x2 = 0 is inconsistent
    s = LinearSystem(2, (((1, 2), 1), ((1, 2), 0)))
    assert not linear_system_solvable(s)
    assert linear_system_solvable(LinearSystem(2, (((1, 2), 1),)))


def test_cnf_evaluators():
    phi = CnfFormula(((pos("x1"), pos("x2")),))
    assert cnf_satisfiable(phi)
    assert cnf_model_count(phi, ["x1", "x2"]) == 3
    contradiction = CnfFormula(((pos("x1"),), (neg("x1"),)))
    assert not cnf_satisfiable(contradiction)


def test_exactly_two_satisfiable():
    phi = CnfFormula(((pos("x1"), pos("x2"), pos("x3")),))
    assert exactly_two_satisfiable(phi)
    # two clauses sharing all three atoms with opposite needs
    both = CnfFormula(((pos("x1"), pos("x2"), pos("x3")),
                       (pos("x1"), pos("x2"), pos("x3"))))
    assert exactly_two_satisfiable(both)


def test_qbf_evaluators():
    # exists x1 forall y1: x1 or y1  -- true via x1=1
    chi = Qbf2Instance(1, 1, DnfFormula(((pos("x1"),), (pos("y1"),))))
    assert qbf_true(chi)
    assert qbf_models(chi) == 1
    # exists x1 forall y1: x1 and y1 -- false
    chi2 = Qbf2Instance(1, 1, DnfFormula(((pos("x1"), pos("y1")),)))
    assert not qbf_true(chi2)
    assert qbf_models(chi2) == 0


# ---------------------------------------------------------------------------
# constructions against ground truth

def random_linear_system(rng, max_vars=5):
    n = rng.randint(2, max_vars)
    eqs = []
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(1, min(3, n))
        eqs.append((tuple(rng.sample(range(1, n + 1), k)),
                    rng.randint(0, 1)))
    return LinearSystem(n, tuple(eqs))


def test_linear_system_reduction():
    rng = random.Random(1)
    for _ in range(15):
        s = random_linear_system(rng)
        inst = from_linear_system(s, L2)
        assert solve(inst).found == (not linear_system_solvable(s))


def test_linear_system_reduction_wrong_base():
    s = LinearSystem(2, (((1, 2), 1),))
    with pytest.raises(CloneMismatchError):
        from_linear_system(s, V2)


def random_positive_3cnf(rng, max_vars=4):
    n = rng.randint(3, max_vars)
    clauses = []
    for _ in range(rng.randint(1, 2)):
        atoms = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(pos(f"x{i}") for i in atoms))
    return CnfFormula(tuple(clauses))


def test_two_in_three_reduction():
    rng = random.Random(2)
    for _ in range(8):
        phi = random_positive_3cnf(rng)
        inst = from_two_in_three_sat(phi, FunctionSet([MAJ3]))
        assert oracle_solve(inst).found == exactly_two_satisfiable(phi)


def test_two_in_three_rejects_negative_literals():
    phi = CnfFormula(((pos("x1"), neg("x2"), pos("x3")),))
    with pytest.raises(InputError):
        from_two_in_three_sat(phi, FunctionSet([MAJ3]))


def random_3cnf(rng, max_vars=4):
    n = rng.randint(2, max_vars)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, min(3, n))
        atoms = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(Literal(f"x{i}", rng.random() < 0.5)
                             for i in atoms))
    return CnfFormula(tuple(clauses))


def test_three_sat_term_reduction():
    rng = random.Random(3)
    for _ in range(10):
        phi = random_3cnf(rng)
        inst = from_three_sat_term(phi, V2)
        assert inst.variant == "T"
        assert oracle_solve(inst).found == cnf_satisfiable(phi)


def random_qbf(rng, max_e=2, max_f=2):
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


def test_qsat2_reduction():
    rng = random.Random(4)
    for _ in range(6):
        chi = random_qbf(rng)
        inst = from_qsat2_formula(chi, S00)
        assert inst.variant == "F"
        assert oracle_solve(inst).found == qbf_true(chi)


def test_pi1_count_reduction():
    rng = random.Random(5)
    for _ in range(6):
        chi = random_qbf(rng)
        inst = from_pi1_count(chi, BF)
        assert oracle_count_full(inst) == qbf_models(chi)


def test_pi1_count_requires_all_functions():
    chi = Qbf2Instance(1, 1, DnfFormula(((pos("x1"),),)))
    with pytest.raises(CloneMismatchError):
        from_pi1_count(chi, V2)


def test_pos2sat_count_reduction():
    rng = random.Random(6)
    for _ in range(8):
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(1, n + 1), 2)
            clauses.append((pos(f"x{a}"), pos(f"x{b}")))
        phi = CnfFormula(tuple(clauses))
        inst, m = from_pos2sat_count(phi, V2, num_vars=n)
        assert m == n
        models = cnf_model_count(phi, [f"x{i}" for i in range(1, n + 1)])
        assert models == (1 << n) - oracle_count_full(inst)


# ---------------------------------------------------------------------------
# generated instances only use base connectives and fresh-variable naming

def test_reduction_output_well_formed():
    s = LinearSystem(3, (((1, 2), 1), ((2, 3), 0)))
    inst = from_linear_system(s, L2)
    names = {f.name for f in inst.fns}
    assert names == {"xor3"}
    for v in inst.hypotheses:
        assert v.startswith("x") or v.startswith("_")


def test_gen_random_instance_deterministic():
    a = gen_random_instance(1, V2, num_vars=4)
    b = gen_random_instance(1, V2, num_vars=4)
    assert a == b or (a.kb == b.kb and a.hypotheses == b.hypotheses
                      and a.manifestation == b.manifestation)


def test_gen_random_instance_valid():
    inst = gen_random_instance(2, BF, num_vars=5)
    assert validate_instance(inst) == []


# ---------------------------------------------------------------------------
# source-format parsers

def test_parse_linear_system():
    s = parse_linear_system("vars 3\neq 1 2 = 1\neq 2 3 = 0\n")
    assert s.num_vars == 3
    assert s.equations == (((1, 2), 1), ((2, 3), 0))
    with pytest.raises(InputError):
        parse_linear_system("vars 2\neq 1 5 = 0\n")


def test_parse_cnf():
    phi = parse_cnf("c comment\n1 -2\n3\n")
    assert phi.clauses == ((pos("x1"), neg("x2")), (pos("x3"),))


def test_parse_qbf():
    chi = parse_qbf("exists 2\nforall 1\ndnf 1 -3\ndnf 2\n")
    assert chi.num_exists == 2 and chi.num_forall == 1
    assert chi.matrix.terms == ((pos("x1"), neg("y1")), (pos("x2"),))


@pytest.mark.parametrize("text, message", [
    ("exists 1\nforall 1\ndnf 1 0\n", "line 3: literal 0 is reserved"),
    ("exists 1\nforall 1\n\ndnf 1\ndnf -9 2\n",
     "line 5: literal -9 outside quantifier range"),
    # headers may follow the terms
    ("dnf 3\nexists 1\nforall 1\n", "line 1: literal 3 outside quantifier "
     "range"),
], ids=["zero", "outside-range", "headers-after-terms"])
def test_parse_qbf_names_the_line(text, message):
    with pytest.raises(InputError) as info:
        parse_qbf(text)
    assert str(info.value) == message
