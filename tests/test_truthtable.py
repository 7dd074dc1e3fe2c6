"""Tables, function properties and the clone-closure oracle."""

import random
from itertools import combinations, product

import pytest

from cloneabd.errors import InputError, ResourceBudgetError
from cloneabd.truthtable import (AND, ANDNOT, CONST0, CONST1, IDENTITY,
                                 IMPLIES, MAJ3, NOT, OR, XNOR, XOR, XOR3,
                                 FunctionSet, TruthTable, clone_closure,
                                 clone_closure_masks, compose, dual_fn,
                                 eval_fn, fresh_compositions,
                                 function_properties,
                                 mask_to_table, parse_function_line,
                                 parse_function_set, projection_mask,
                                 row_assignment, row_index, separating_degree)

from conftest import OR_AND


def test_row_index_convention():
    # x1 is the most significant position
    assert row_index((1, 0, 1)) == 5
    assert row_index((0, 1, 1)) == 3
    assert row_assignment(5, 3) == (1, 0, 1)
    for i in range(8):
        assert row_index(row_assignment(i, 3)) == i


def test_known_tables():
    assert AND.bits == (0, 0, 0, 1)
    assert OR.bits == (0, 1, 1, 1)
    assert NOT.bits == (1, 0)
    assert IMPLIES.bits == (1, 1, 0, 1)
    assert XOR3.bits == (0, 1, 1, 0, 1, 0, 0, 1)
    assert MAJ3.bits == (0, 0, 0, 1, 0, 1, 1, 1)


def test_eval_fn():
    assert eval_fn(IMPLIES, (1, 0)) == 0
    assert eval_fn(IMPLIES, (0, 0)) == 1
    assert eval_fn(MAJ3, (1, 0, 1)) == 1
    assert eval_fn(CONST1, ()) == 1


def test_bitstring_roundtrip():
    for f in (AND, OR, NOT, XOR3, MAJ3, CONST0, CONST1):
        again = TruthTable.from_bitstring(f.name, f.arity, f.bitstring())
        assert again.bits == f.bits and again.arity == f.arity


def test_from_callable():
    f = TruthTable.from_callable("nand", 2, lambda a, b: 1 - (a & b))
    assert f.bits == (1, 1, 1, 0)


def test_dual_fn():
    assert dual_fn(AND).bits == OR.bits
    assert dual_fn(OR).bits == AND.bits
    assert dual_fn(MAJ3).bits == MAJ3.bits  # self-dual
    assert dual_fn(CONST0).bits == CONST1.bits


def test_function_properties():
    assert function_properties(OR) == {"r0", "r1", "m", "v"}
    assert function_properties(XOR3) == {"r0", "r1", "d", "l"}
    assert function_properties(NOT) == {"d", "l", "n"}


def _rows(n):
    # all argument tuples in table order (x1 most significant)
    return list(product((0, 1), repeat=n))


def _properties_by_definition(f):
    """The nine names of `function_properties`, each decided from its
    definition by brute force over the table."""
    n = f.arity
    rows = _rows(n)
    value = dict(zip(rows, f.bits))
    subsets = [s for k in range(n + 1) for s in combinations(range(n), k)]
    constant = len(set(f.bits)) == 1

    def equals(g):
        return all(value[a] == g(a) for a in rows)

    holds = {
        "r0": value[(0,) * n] == 0,
        "r1": value[(1,) * n] == 1,
        "m": all(value[a] <= value[b] for a in rows for b in rows
                 if all(x <= y for x, y in zip(a, b))),
        "d": all(value[a] == 1 - value[tuple(1 - x for x in a)]
                 for a in rows),
        "l": any(equals(lambda a: (c + sum(a[j] for j in s)) % 2)
                 for s in subsets for c in (0, 1)),
        "v": constant or any(equals(lambda a: int(any(a[j] for j in s)))
                             for s in subsets),
        "e": constant or any(equals(lambda a: int(all(a[j] for j in s)))
                             for s in subsets),
        "n": constant or any(all(value[a] == value[b] for a in rows
                                 for b in rows if a[j] == b[j])
                             for j in range(n)),
        "i": constant or any(equals(lambda a: a[j]) for j in range(n)),
    }
    return {name for name, ok in holds.items() if ok}


def test_function_properties_match_definitions():
    tables = [TruthTable("f", n, bits) for n in range(4)
              for bits in product((0, 1), repeat=1 << n)]
    assert len(tables) == 278
    for f in tables:
        assert function_properties(f) == _properties_by_definition(f), f


def test_properties_depend_on_the_table_only():
    # computed once per table: a renamed table, asked first or second,
    # gets the same classes and degrees as the one it was renamed from
    for n in range(4):
        for bits in product((0, 1), repeat=1 << n):
            f, g = TruthTable("f", n, bits), TruthTable("g", n, bits)
            for first, second in ((f, g), (g, f)):
                assert function_properties(first) == \
                    function_properties(second)
                for c in (0, 1):
                    assert separating_degree(first, c) == \
                        separating_degree(second, c)
    assert function_properties(MAJ3.renamed("m3")) == \
        function_properties(MAJ3) == {"r0", "r1", "m", "d"}
    assert separating_degree(MAJ3.renamed("m3"), 1) == 2


def test_separating_degree_basics():
    # AND: f^-1(1) = {11} shares every coordinate fixed to 1
    assert separating_degree(AND, 1) == float("inf")
    assert separating_degree(AND, 0) == 1
    # OR dually
    assert separating_degree(OR, 0) == float("inf")
    assert separating_degree(OR, 1) == 1
    # IMPLIES is 0-separating (only 10 maps to 0)
    assert separating_degree(IMPLIES, 0) == float("inf")
    assert separating_degree(IMPLIES, 1) == 1
    # negation separates neither value beyond degree 1
    assert separating_degree(NOT, 0) == 1
    assert separating_degree(NOT, 1) == 1


def test_separating_degree_majority():
    # MAJ3 preimage of 1 = {011,101,110,111}: every pair shares a
    # 1-coordinate but the whole set does not
    assert separating_degree(MAJ3, 1) == 2
    assert separating_degree(MAJ3, 0) == 2


def test_separating_degree_constants():
    assert separating_degree(CONST1, 1) == 1  # empty index set, degree floor
    assert separating_degree(CONST1, 0) == float("inf")  # empty preimage
    assert separating_degree(CONST0, 0) == 1
    assert separating_degree(CONST0, 1) == float("inf")


def test_function_set_lookup():
    fns = FunctionSet([AND, NOT])
    assert "and" in fns
    assert "or" not in fns
    assert fns.get("not").bits == (1, 0)
    ext = fns.extended(OR)
    assert "or" in ext and "or" not in fns


def test_clone_closure_or():
    members = clone_closure(FunctionSet([OR]), 2)
    bit_sets = {m.bits for m in members}
    # projections and binary disjunction, nothing else
    assert (0, 1, 1, 1) in bit_sets
    assert (0, 0, 1, 1) in bit_sets and (0, 1, 0, 1) in bit_sets
    assert (0, 0, 0, 1) not in bit_sets  # no conjunction from OR alone


def test_clone_closure_bf_is_everything():
    masks = clone_closure_masks(FunctionSet([AND, NOT]), 2)
    assert len(masks) == 16


def test_clone_closure_affine():
    masks = clone_closure_masks(FunctionSet([XOR3]), 3)
    # arity-3 members of L2: xor of an odd number of the three inputs
    assert len(masks) == 3 + 1  # three projections plus the ternary xor


def test_compose_matches_pointwise_definition():
    # row i of compose(f, cs, m) is f(c_1[i], ..., c_k[i]), evaluated here
    # one row at a time through the table lookup
    tables = [mask_to_table(mask, arity)
              for arity in range(3) for mask in range(1 << (1 << arity))]
    tables += [MAJ3, XOR3, OR_AND]
    rng = random.Random(2)
    for m in range(1, 5):
        for f in tables:
            for _ in range(8):
                children = [rng.getrandbits(1 << m) for _ in range(f.arity)]
                expected = 0
                for row in range(1 << m):
                    args = tuple((c >> row) & 1 for c in children)
                    expected |= eval_fn(f, args) << row
                assert compose(f, children, m) == expected, \
                    (f.bits, children, m)


def test_projection_mask_matches_row_definition():
    # row r of the j-th projection is x_{j+1} of row r, x1 most significant
    for m in range(1, 7):
        for j in range(m):
            expected = sum(1 << row for row in range(1 << m)
                           if row_assignment(row, m)[j])
            assert projection_mask(j, m) == expected, (j, m)


def test_clone_closure_disjunctions():
    # [OR] at arity m: the disjunctions of the non-empty variable subsets
    assert len(clone_closure_masks(FunctionSet([OR]), 3)) == 2 ** 3 - 1
    assert len(clone_closure_masks(FunctionSet([OR]), 4)) == 2 ** 4 - 1


def test_clone_closure_majority():
    # [MAJ3] = D2, the monotone self-dual functions: at arity 3 the three
    # projections and the majority itself
    masks = clone_closure_masks(FunctionSet([MAJ3]), 3)
    assert len(masks) == 4
    assert {m.bits for m in clone_closure(FunctionSet([MAJ3]), 3)} == {
        (0, 0, 0, 0, 1, 1, 1, 1), (0, 0, 1, 1, 0, 0, 1, 1),
        (0, 1, 0, 1, 0, 1, 0, 1), MAJ3.bits}


def test_clone_closure_separating():
    # [IMPLIES] = S0, the 0-separating functions: f^-1(0) lies inside one
    # half-cube {a : a_i = 0}.  By inclusion-exclusion over the three
    # half-cubes at arity 3: 3 * 2^4 - 3 * 2^2 + 2^1 = 38.  Its dual
    # [ANDNOT] = S1 has as many members.  Neither base is symmetric, so
    # these also need tuples whose frontier mask is not in the first place.
    assert len(clone_closure_masks(FunctionSet([IMPLIES]), 3)) == 38
    assert len(clone_closure_masks(FunctionSet([ANDNOT]), 3)) == 38


def test_clone_closure_bf_ternary_is_everything():
    masks = clone_closure_masks(FunctionSet([AND, NOT]), 3)
    assert masks == set(range(256))


def test_fresh_compositions_are_the_unknown_tuples_holding_a_new_mask():
    # exactly the tuples over old | new that hold a member of new, each
    # once, with their composition, where that composition is not known
    rng = random.Random(17)
    for _ in range(400):
        k, m = rng.randint(0, 3), rng.randint(1, 4)
        f = TruthTable("f", k, tuple(rng.getrandbits(1)
                                     for _ in range(1 << k)))
        masks = rng.sample(range(1 << (1 << m)), min(7, 1 << (1 << m)))
        cut = rng.randint(0, len(masks))
        old, new = masks[:cut], masks[cut:rng.randint(cut, len(masks))]
        tuples = [t for t in product(old + new, repeat=k)
                  if any(c in new for c in t)]
        composed = {compose(f, t, m) for t in tuples}
        known = {mask for mask in composed if rng.random() < 0.5}
        known.update(rng.getrandbits(1 << m) for _ in range(3))
        got = list(fresh_compositions(f, old, new, m, known))
        expected = [(t, compose(f, t, m)) for t in tuples
                    if compose(f, t, m) not in known]
        assert len(got) == len({t for t, _ in got})
        assert sorted(got) == sorted(expected), (f.bits, old, new, m)


def test_clone_closure_budget():
    with pytest.raises(ResourceBudgetError):
        clone_closure_masks(FunctionSet([AND, NOT]), 3, budget=10)


def test_parse_function_line():
    f = parse_function_line("fn maj 3 00010111")
    assert f.name == "maj" and f.bits == MAJ3.bits
    g = parse_function_line("or 2 0111")  # keyword optional
    assert g.bits == OR.bits
    with pytest.raises(InputError):
        parse_function_line("fn bad 2 01")  # wrong bit count


def test_parse_function_set():
    text = "# comment\nfn and 2 0001\n\nfn not 1 10\n"
    fns = parse_function_set(text)
    assert sorted(f.name for f in fns) == ["and", "not"]
