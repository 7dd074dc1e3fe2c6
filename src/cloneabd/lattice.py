"""Identification of the clone generated by a connective set, lattice
inclusion queries, base tables, complexity classification and representation
synthesis.

Clone names follow the classical table of all Boolean clones; parametric
families carry a separation degree and serialize as e.g. ``S02^2``.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import cache

from .errors import (InputError, NoRepresentationError, ResourceBudgetError,
                     UnsupportedError)
from .formula import App, Formula, Var, table_of
from .truthtable import (AND, ANDNOT, CLOSURE_MAX_ARITY, CONST0, CONST1,
                         IDENTITY, IMPLIES, INFINITE, MAJ3, NOT, OR,
                         OR_AND, PROPERTY_NAMES, XNOR, XOR, XOR3, FunctionSet,
                         TruthTable, cofactor_rows, commutative, dual_fn,
                         fresh_compositions, function_properties,
                         projection_mask, separating_degree, table_to_mask)

Degree = float  # int >= 1, or INFINITE

PARAMETRIC_FAMILIES = ("S0", "S1", "S00", "S01", "S02", "S10", "S11", "S12")

# family -> (bool constraint names, separation side "s0"/"s1" or None);
# parametric families get the concrete degree at CloneId level, the
# non-parametric S-families mean "fully separating" (degree INFINITE).
_FAMILY_DEFS: dict[str, tuple[tuple[str, ...], str | None]] = {
    "BF": ((), None),
    "R0": (("r0",), None),
    "R1": (("r1",), None),
    "R2": (("r0", "r1"), None),
    "M": (("m",), None),
    "M0": (("m", "r0"), None),
    "M1": (("m", "r1"), None),
    "M2": (("m", "r0", "r1"), None),
    "S0": ((), "s0"),
    "S1": ((), "s1"),
    "S00": (("r0", "r1", "m"), "s0"),
    "S01": (("m",), "s0"),
    "S02": (("r0", "r1"), "s0"),
    "S10": (("r0", "r1", "m"), "s1"),
    "S11": (("m",), "s1"),
    "S12": (("r0", "r1"), "s1"),
    "D": (("d",), None),
    "D1": (("d", "r0", "r1"), None),
    "D2": (("d", "m"), None),
    "L": (("l",), None),
    "L0": (("l", "r0"), None),
    "L1": (("l", "r1"), None),
    "L2": (("l", "r0", "r1"), None),
    "L3": (("l", "d"), None),
    "V": (("v",), None),
    "V0": (("v", "r0"), None),
    "V1": (("v", "r1"), None),
    "V2": (("v", "r0", "r1"), None),
    "E": (("e",), None),
    "E0": (("e", "r0"), None),
    "E1": (("e", "r1"), None),
    "E2": (("e", "r0", "r1"), None),
    "N": (("n",), None),
    "N2": (("n", "d"), None),
    "I": (("i",), None),
    "I0": (("i", "r0"), None),
    "I1": (("i", "r1"), None),
    "I2": (("i", "r0", "r1"), None),
}

# the order of `all_clone_ids`, and so of the tests parametrized by it
NONPARAMETRIC_FAMILIES = tuple(_FAMILY_DEFS)


@dataclass(frozen=True)
class CloneId:
    family: str
    degree: int | None = None

    def __post_init__(self) -> None:
        if self.family not in NONPARAMETRIC_FAMILIES:
            raise InputError(f"unknown clone family {self.family!r}")
        if self.degree is not None:
            if self.family not in PARAMETRIC_FAMILIES:
                raise InputError(
                    f"clone {self.family} takes no degree parameter")
            if self.degree < 2:
                raise InputError("parametric degree must be >= 2")

    @property
    def name(self) -> str:
        if self.degree is None:
            return self.family
        return f"{self.family}^{self.degree}"

    def __str__(self) -> str:
        return self.name


_CLONE_NAME_RE = re.compile(r"([A-Z]+[0-9]*)(?:\^([0-9]+))?$")


def parse_clone_name(text: str) -> CloneId:
    m = _CLONE_NAME_RE.match(text)
    if not m:
        raise InputError(f"bad clone name {text!r}")
    degree = int(m.group(2)) if m.group(2) else None
    return CloneId(m.group(1), degree)


# ---------------------------------------------------------------------------
# Records: the defining constraints of a clone (the intersection definitions
# of the classical clone table; the N2 row uses N ∩ D, matching the base
# {¬x}), and the same record computed for a function set.

@dataclass(frozen=True)
class CloneRecord:
    """A class of Boolean functions by its constraints: every member
    belongs to the classes named in `bools` (the names of
    `truthtable.function_properties`) and has separation degree at least
    `s0` on 0 and `s1` on 1 (1 = no constraint).  `constraints_of` gives a
    clone's defining record, `signature_of` the strongest record that every
    function of a set satisfies."""

    bools: frozenset[str]
    s0: Degree = 1
    s1: Degree = 1


def signature_of(fns: FunctionSet) -> CloneRecord:
    bools, s0, s1 = PROPERTY_NAMES, INFINITE, INFINITE
    for f in fns:  # a plain loop: this runs on every call's route choice
        bools &= function_properties(f)
        s0 = min(s0, separating_degree(f, 0))
        s1 = min(s1, separating_degree(f, 1))
    return CloneRecord(bools, s0, s1)


def constraints_of(clone: CloneId) -> CloneRecord:
    bools, sep = _FAMILY_DEFS[clone.family]
    degree: Degree = clone.degree if clone.degree is not None else INFINITE
    return CloneRecord(frozenset(bools), degree if sep == "s0" else 1,
                       degree if sep == "s1" else 1)


def _implies(strong: CloneRecord, weak: CloneRecord) -> bool:
    """Whether `weak` names no more classes and no higher degrees than
    `strong`, so that everything `strong` describes satisfies `weak`.  The
    one comparison behind membership, inclusion and identification; it
    decides inclusion exactly once `strong` is closed."""
    return (weak.bools <= strong.bools
            and strong.s0 >= weak.s0 and strong.s1 >= weak.s1)


def set_in_clone(fns: FunctionSet, clone: CloneId) -> bool:
    return _implies(signature_of(fns), constraints_of(clone))


def function_in_clone(f: TruthTable, clone: CloneId) -> bool:
    return set_in_clone(FunctionSet([f]), clone)


# ---------------------------------------------------------------------------
# Semantic closure of a constraint record: add every property that provably
# holds for all members of the described class.  Decides inclusion.

# pairs of constraints whose classes meet only in projections and constants
_FORCE_I = tuple(map(frozenset, (("l", "m"), ("v", "e"), ("n", "m"),
                                 ("n", "r0"), ("n", "r1"), ("l", "v"),
                                 ("l", "e"))))


def _close_constraints(cons: CloneRecord) -> CloneRecord:
    c = set(cons.bools)
    s0, s1 = cons.s0, cons.s1
    while True:
        before = (len(c), s0, s1)
        if "i" in c:
            c |= {"n", "v", "e", "m", "l"}
        if "n" in c:
            c.add("l")
        if "v" in c or "e" in c:
            c.add("m")
        if s0 >= 2:
            c.add("r1")
        if s1 >= 2:
            c.add("r0")
        if "d" in c and c & {"m", "r0", "r1"}:
            c |= {"r0", "r1"}
        if {"d", "m"} <= c:
            s0, s1 = max(s0, 2), max(s1, 2)
        if {"l", "r0", "r1"} <= c:
            c.add("d")
        if any(pair <= c for pair in _FORCE_I):
            c.add("i")
        if "d" in c and ("v" in c or "e" in c):
            c |= {"i", "r0", "r1"}
        if {"v", "r1"} <= c:
            s0 = INFINITE
        if {"e", "r0"} <= c:
            s1 = INFINITE
        if (len(c), s0, s1) == before:
            return CloneRecord(frozenset(c), s0, s1)


@cache
def closed_record(clone: CloneId) -> CloneRecord:
    """The closed defining record of a clone: every property that holds
    throughout it.  Two clones are equal exactly when these records are."""
    return _close_constraints(constraints_of(clone))


def clone_leq(c1: CloneId, c2: CloneId) -> bool:
    """True iff clone c1 is included in clone c2 in the lattice.

    Each clone of the table is the intersection of the classes its
    constraint record names, so c1 <= c2 holds exactly when every
    constraint of c2 follows from those of c1.  `closed_record` adds
    every property that holds throughout c1, so comparing records decides
    the inclusion at any degree, with no truth table.  `tests/test_lattice.py`
    pins this to the base-membership definition `set_in_clone(base_of(c1),
    c2)` on every pair of degrees 2-4; acceptance criterion 2 checks it
    against the closure oracle.
    """
    return _implies(closed_record(c1), constraints_of(c2))


@cache
def _named_by_record() -> dict[CloneRecord, CloneId]:
    """Closed record -> clone, for every non-parametric family: the
    constant table that `identify_clone` reads, built once per process."""
    table = {closed_record(CloneId(f)): CloneId(f)
             for f in NONPARAMETRIC_FAMILIES}
    assert len(table) == len(NONPARAMETRIC_FAMILIES), \
        "two clone families share a closed record"
    return table


def identify_clone(fns: FunctionSet) -> CloneId:
    """The smallest clone containing the function set, resolved to a name:
    the one named clone (parametric families at the signature's degree)
    whose closed record is the closed signature.  Every clone is the
    intersection of the classes its record names (Böhler et al., "Playing
    with Boolean blocks I", 2003), so exactly one clone has it."""
    return _clone_of(signature_of(fns))


@cache
def _clone_of(signature: CloneRecord) -> CloneId:
    """`identify_clone` for a signature, resolved once per signature: the
    non-parametric families are looked up in `_named_by_record`, and the
    parametric ones are named only at a finite degree of the signature."""
    closed = _close_constraints(signature)
    named = _named_by_record().get(closed)
    candidates = [] if named is None else [named]
    for family in PARAMETRIC_FAMILIES:
        degree = closed.s0 if family.startswith("S0") else closed.s1
        if 2 <= degree < INFINITE:
            candidates.append(CloneId(family, int(degree)))
    (clone,) = [c for c in candidates if closed_record(c) == closed]
    return clone


# ---------------------------------------------------------------------------
# Bases (the Base column of the classical clone table)

def h_fn(n: int) -> TruthTable:
    """h_n: the (n+1)-ary function OR_i AND_{j != i} x_j  (h_2 = MAJ3)."""
    if n + 1 > 6:
        raise UnsupportedError(f"h_{n} needs arity {n + 1} > 6")

    def fn(*args: int) -> int:
        return 1 if sum(args) >= n else 0

    return TruthTable.from_callable(f"h{n}", n + 1, fn)


_OR_AND_NOT_Z = TruthTable.from_callable(
    "or_and_not", 3, lambda x, y, z: x | (y & (1 - z)))
_AND_OR_NOT_Z = TruthTable.from_callable(
    "and_or_not", 3, lambda x, y, z: x & (y | (1 - z)))
_AND_OR = TruthTable.from_callable("and_or", 3, lambda x, y, z: x & (y | z))
_D_BASE = TruthTable.from_callable("dbase", 3, lambda x, y, z: (
    (x & (1 - y)) | (x & (1 - z)) | ((1 - y) & (1 - z))))
_D1_BASE = TruthTable.from_callable("d1base", 3, lambda x, y, z: (
    (x & y) | (x & (1 - z)) | (y & (1 - z))))
_XOR3_NOT = TruthTable.from_callable("xnor3", 3,
                                     lambda x, y, z: x ^ y ^ z ^ 1)
_AND_XNOR = TruthTable.from_callable("and_xnor", 3,
                                     lambda x, y, z: x & (y ^ z ^ 1))


def base_of(clone: CloneId) -> FunctionSet:
    """A finite base generating the clone; parametric degrees up to 4."""
    fam, deg = clone.family, clone.degree
    if deg is not None and deg > 4:
        raise UnsupportedError(
            f"base of {clone.name}: degree {deg} exceeds the arity cap")

    def hn() -> TruthTable:
        assert deg is not None
        return h_fn(deg)

    def dual_hn() -> TruthTable:
        return dual_fn(h_fn(deg)).renamed(f"dual_h{deg}")

    fixed: dict[str, list[TruthTable]] = {
        "BF": [AND, NOT],
        "R0": [AND, XOR],
        "R1": [OR, XNOR],
        "R2": [OR, _AND_XNOR],
        "M": [OR, AND, CONST0, CONST1],
        "M0": [OR, AND, CONST0],
        "M1": [OR, AND, CONST1],
        "M2": [OR, AND],
        "D": [_D_BASE],
        "D1": [_D1_BASE],
        "D2": [MAJ3.renamed("maj3")],
        "L": [XOR, CONST1],
        "L0": [XOR],
        "L1": [XNOR],
        "L2": [XOR3],
        "L3": [_XOR3_NOT],
        "V": [OR, CONST0, CONST1],
        "V0": [OR, CONST0],
        "V1": [OR, CONST1],
        "V2": [OR],
        "E": [AND, CONST0, CONST1],
        "E0": [AND, CONST0],
        "E1": [AND, CONST1],
        "E2": [AND],
        "N": [NOT, CONST0, CONST1],
        "N2": [NOT],
        "I": [IDENTITY, CONST0, CONST1],
        "I0": [IDENTITY, CONST0],
        "I1": [IDENTITY, CONST1],
        "I2": [IDENTITY],
    }
    if fam in fixed and deg is None:
        return FunctionSet(fixed[fam])
    if deg is None:
        limit: dict[str, list[TruthTable]] = {
            "S0": [IMPLIES],
            "S1": [ANDNOT],
            "S02": [_OR_AND_NOT_Z],
            "S12": [_AND_OR_NOT_Z],
            "S01": [OR_AND, CONST1],
            "S11": [_AND_OR, CONST0],
            "S00": [OR_AND],
            "S10": [_AND_OR],
        }
        return FunctionSet(limit[fam])
    parametric: dict[str, list[TruthTable]] = {
        "S0": [IMPLIES, dual_hn()],
        "S1": [ANDNOT, hn()],
        "S02": [_OR_AND_NOT_Z, dual_hn()],
        "S12": [_AND_OR_NOT_Z, hn()],
        "S01": [dual_hn(), CONST1],
        "S11": [hn(), CONST0],
        "S00": [OR_AND, dual_hn()],
        "S10": [_AND_OR, hn()],
    }
    return FunctionSet(parametric[fam])


def all_clone_ids(parametric_degrees: tuple[int, ...] = (2, 3)) -> list[CloneId]:
    """Every encoded clone name, parametric families at the given degrees."""
    out = [CloneId(f) for f in NONPARAMETRIC_FAMILIES]
    for fam in PARAMETRIC_FAMILIES:
        for deg in parametric_degrees:
            out.append(CloneId(fam, deg))
    return out


# ---------------------------------------------------------------------------
# Complexity classification

IN_L = "IN_L"
P_PARITYL_HARD = "P_PARITYL_HARD"
NP_COMPLETE = "NP_COMPLETE"
SIGMA2P_COMPLETE = "SIGMA2P_COMPLETE"
FP = "FP"
SHARP_P_COMPLETE = "SHARP_P_COMPLETE"
SHARP_CONP_COMPLETE = "SHARP_CONP_COMPLETE"

VARIANTS = ("Q", "C", "T", "F")

_S02 = CloneId("S02")
_S12 = CloneId("S12")
_S00 = CloneId("S00")
_S10 = CloneId("S10")
_D1 = CloneId("D1")
_D2 = CloneId("D2")
_V2 = CloneId("V2")
_L2 = CloneId("L2")
_M = CloneId("M")
_L = CloneId("L")


def classify_clone_decision(clone: CloneId, variant: str) -> str:
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}")

    def above(lower: CloneId) -> bool:
        return clone_leq(lower, clone)

    def below(upper: CloneId) -> bool:
        return clone_leq(clone, upper)

    if variant in ("Q", "C"):
        if above(_S02) or above(_S12) or above(_D1):
            return SIGMA2P_COMPLETE
        if (above(_S00) or above(_S10) or above(_D2)) and below(_M):
            return NP_COMPLETE
    elif variant == "T":
        if above(_S02) or above(_S12) or above(_D1):
            return SIGMA2P_COMPLETE
        if (above(_V2) or above(_S10) or above(_D2)) and below(_M):
            return NP_COMPLETE
    else:  # F
        if above(_S00) or above(_S10) or above(_D2):
            return SIGMA2P_COMPLETE
    if above(_L2) and below(_L):
        return P_PARITYL_HARD
    return IN_L


def classify_decision(fns: FunctionSet, variant: str) -> str:
    return classify_clone_decision(identify_clone(fns), variant)


def classify_clone_counting(clone: CloneId) -> str:
    def above(lower: CloneId) -> bool:
        return clone_leq(lower, clone)

    if above(_S02) or above(_S12) or above(_D1):
        return SHARP_CONP_COMPLETE
    if (above(_V2) or above(_S10) or above(_D2)) and clone_leq(clone, _M):
        return SHARP_P_COMPLETE
    return FP


def classify_counting(fns: FunctionSet) -> str:
    return classify_clone_counting(identify_clone(fns))


# ---------------------------------------------------------------------------
# Representation synthesis via closure with witness formulas

def synthesize_representation(fns: FunctionSet, target: TruthTable,
                              budget: int = 200000) -> Formula:
    """A formula over the given connectives computing the target table.

    Uniform-cost search over derived tables: witnesses are settled smallest
    first (size, then rendered text), so the first representation found is
    the canonical one.  Each settled table composes, through
    `fresh_compositions`, only the argument tuples that hold it beside
    tables settled before, and of those only the ones whose table is not
    settled and whose size is no larger than the least one pushed for that
    table (pops only grow, so the least entry, the witness, is the same);
    the others are dropped inside the fold, before any tuple or text is
    built.  A commutative connective composes each pair of tables in one
    orientation and pushes the one whose argument texts compare smaller:
    both have the same table and size, and as no witness text is a proper
    prefix of another (each is a variable x1..x4 or a balanced
    s-expression), the argument texts order the two whole texts.  `budget`
    bounds the number of argument tuples composed: (n+1)^k - n^k per
    settled table and connective of arity k, with n tables settled before,
    mirrored tuples included, so a budget error fires where it did when
    every tuple was composed.  Variables are named x1..xn positionally.
    """
    m = target.arity
    if m > CLOSURE_MAX_ARITY:
        raise UnsupportedError(
            f"synthesis capped at arity {CLOSURE_MAX_ARITY}, target has {m}")
    target_mask = table_to_mask(target)
    plans = [(f, cofactor_rows(f, m), commutative(f)) for f in fns]

    # mask -> (rendered text, formula) of its settled witness
    settled: dict[int, tuple[str, Formula]] = {}
    order: list[tuple[int, int]] = []  # (mask, size), in settling order
    heap: list[tuple[int, str, int, Formula]] = [
        (1, f"x{j + 1}", projection_mask(j, m), Var(f"x{j + 1}"))
        for j in range(m)]
    for f in fns:
        if f.arity == 0:
            cmask = ((1 << (1 << m)) - 1) if f.bits[0] else 0
            heap.append((1, f"({f.name})", cmask, App(f, ())))
    heapq.heapify(heap)
    # least size pushed per table; 0 once settled, so nothing passes
    least = {mask: size for size, _, mask, _ in heap}
    expansions = 0
    while heap:
        size, text, mask, phi = heapq.heappop(heap)
        if mask in settled:
            continue
        settled[mask] = (text, phi)
        least[mask] = 0
        if mask == target_mask:
            check = table_of(phi, [f"x{j + 1}" for j in range(m)])
            assert check.bits == target.bits, "synthesized witness re-check failed"
            return phi
        n = len(order)
        new = ((mask, size),)
        for f, rows, mirror in plans:
            expansions += (n + 1) ** f.arity - n ** f.arity
            if expansions > budget:
                raise ResourceBudgetError(
                    f"synthesis budget {budget} exceeded")
            for combo, new_mask, new_size in fresh_compositions(
                    rows, order, new, least):
                args = [settled[c] for c in combo]
                if mirror and args[1][0] < args[0][0]:
                    args.reverse()
                least[new_mask] = new_size
                heapq.heappush(heap, (
                    new_size,
                    "(" + " ".join([f.name] + [a[0] for a in args]) + ")",
                    new_mask, App(f, tuple(a[1] for a in args))))
        order.append(new[0])
    raise NoRepresentationError(
        f"{target.name!r} is not generated by the given connectives at "
        f"arity {m}")
