"""Truth-table representation of Boolean functions and the predicates that
carve the lattice of clones, plus a brute-force closure oracle.

Row convention: the assignment (a1, ..., an) is stored at index
sum a_j * 2**(n-j), i.e. x1 is the most significant bit.  Index 0 comes
first in every serialized bitstring.  This convention is bit-exact and used
everywhere (files, closure, synthesis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import InputError, ResourceBudgetError

MAX_ARITY = 6
CLOSURE_MAX_ARITY = 4

INFINITE = math.inf


def row_index(args: Sequence[int]) -> int:
    """Index of the table row for an argument tuple (x1 most significant)."""
    idx = 0
    for a in args:
        idx = (idx << 1) | (a & 1)
    return idx


def row_assignment(index: int, arity: int) -> tuple[int, ...]:
    """Inverse of :func:`row_index`."""
    return tuple((index >> (arity - 1 - j)) & 1 for j in range(arity))


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function of fixed arity as a 2^n bit vector."""

    name: str
    arity: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MAX_ARITY:
            raise InputError(
                f"function {self.name!r}: arity {self.arity} outside 0..{MAX_ARITY}")
        if len(self.bits) != 1 << self.arity:
            raise InputError(
                f"function {self.name!r}: expected {1 << self.arity} table entries, "
                f"got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise InputError(f"function {self.name!r}: table entries must be 0 or 1")

    @classmethod
    def from_bitstring(cls, name: str, arity: int, bitstring: str) -> "TruthTable":
        if any(c not in "01" for c in bitstring):
            raise InputError(f"function {name!r}: bitstring must be over 0/1")
        return cls(name, arity, tuple(int(c) for c in bitstring))

    @classmethod
    def from_callable(cls, name: str, arity: int,
                      fn: Callable[..., int]) -> "TruthTable":
        bits = tuple(fn(*row_assignment(i, arity)) & 1 for i in range(1 << arity))
        return cls(name, arity, bits)

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __call__(self, *args: int) -> int:
        return eval_fn(self, args)

    def renamed(self, name: str) -> "TruthTable":
        return TruthTable(name, self.arity, self.bits)

    def preimage(self, c: int) -> list[tuple[int, ...]]:
        """All assignments mapped to c."""
        return [row_assignment(i, self.arity)
                for i, b in enumerate(self.bits) if b == c]


class FunctionSet:
    """An ordered collection of named truth tables (the connective set B)."""

    def __init__(self, functions: Iterable[TruthTable]):
        self.functions: list[TruthTable] = list(functions)
        self.by_name: dict[str, TruthTable] = {}
        for f in self.functions:
            if f.name in self.by_name:
                raise InputError(f"duplicate function name {f.name!r}")
            self.by_name[f.name] = f

    def __iter__(self) -> Iterator[TruthTable]:
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def get(self, name: str) -> TruthTable:
        try:
            return self.by_name[name]
        except KeyError:
            raise InputError(f"unknown function {name!r}") from None

    def extended(self, *extra: TruthTable) -> "FunctionSet":
        return FunctionSet(self.functions + list(extra))

    def __repr__(self) -> str:
        return "FunctionSet({%s})" % ", ".join(f.name for f in self.functions)


def eval_fn(f: TruthTable, args: Sequence[int]) -> int:
    """Table lookup under the row convention."""
    if len(args) != f.arity:
        raise InputError(
            f"function {f.name!r} expects {f.arity} arguments, got {len(args)}")
    return f.bits[row_index(args)]


def dual_fn(f: TruthTable) -> TruthTable:
    """dual(f)(a1,...,an) = not f(not a1, ..., not an)."""
    full = (1 << f.arity) - 1
    bits = tuple(1 - f.bits[full ^ i] for i in range(1 << f.arity))
    return TruthTable(f"dual_{f.name}", f.arity, bits)


def essential_positions(f: TruthTable) -> list[int]:
    """Positions (0-based) the function actually depends on."""
    essential = []
    n = f.arity
    for j in range(n):
        flip = 1 << (n - 1 - j)
        if any(f.bits[i] != f.bits[i ^ flip] for i in range(1 << n)):
            essential.append(j)
    return essential


def _is_disjunction(f: TruthTable) -> bool:
    """f equals a disjunction of a variable subset, or a constant."""
    n = f.arity
    if all(b == f.bits[0] for b in f.bits):
        return True
    if f.bits[0] != 0:
        return False
    support = [j for j in range(n) if f.bits[1 << (n - 1 - j)] == 1]
    mask = 0
    for j in support:
        mask |= 1 << (n - 1 - j)
    return all(f.bits[i] == (1 if i & mask else 0) for i in range(1 << n))


def _is_affine(f: TruthTable) -> bool:
    """f equals the XOR of a variable subset plus a constant.

    Coefficients are derived from f(0,...,0) and the unit vectors, then
    verified on every row.
    """
    n = f.arity
    c = f.bits[0]
    coeff_mask = 0
    for j in range(n):
        unit = 1 << (n - 1 - j)
        if f.bits[unit] != c:
            coeff_mask |= unit
    for i in range(1 << n):
        parity = bin(i & coeff_mask).count("1") & 1
        if f.bits[i] != c ^ parity:
            return False
    return True


PROPERTY_NAMES = frozenset(("r0", "r1", "m", "d", "l", "v", "e", "n", "i"))


def function_properties(f: TruthTable) -> frozenset[str]:
    """The names in `PROPERTY_NAMES` of the classes that f belongs to, the
    classes whose intersections define the clones of Post's lattice:

    r0, r1  reproduces 0 (f(0,...,0) = 0), resp. 1 (f(1,...,1) = 1)
    m       monotone (a <= b pointwise implies f(a) <= f(b))
    d       self-dual (f equals its dual)
    l       affine (the XOR of a variable subset plus a constant)
    v       a disjunction of a variable subset, or a constant
    e       a conjunction of a variable subset, or a constant
    n       essentially unary (depends on at most one argument)
    i       a projection or a constant

    Computed once per table, whatever its name.
    """
    return _properties(f.arity, f.bits)


@cache
def _properties(arity: int, bits: tuple[int, ...]) -> frozenset[str]:
    f = TruthTable("f", arity, bits)
    n = arity
    size = 1 << n
    dual = dual_fn(f)
    essential = essential_positions(f)
    holds = {
        "r0": f.bits[0] == 0,
        "r1": f.bits[size - 1] == 1,
        "m": all(f.bits[i] <= f.bits[i | 1 << j]
                 for i in range(size) for j in range(n)),
        "d": f.bits == dual.bits,
        "l": _is_affine(f),
        "v": _is_disjunction(f),
        "e": _is_disjunction(dual),
        "n": len(essential) <= 1,
        # a function of one essential argument is that argument or its
        # negation, and only the argument maps 0,...,0 to 0
        "i": not essential or (len(essential) == 1 and f.bits[0] == 0),
    }
    return frozenset(name for name, ok in holds.items() if ok)


def separating_degree(f: TruthTable, c: int) -> float:
    """Largest k >= 2 such that every size-k subset of f^{-1}(c) shares a
    coordinate fixed to c; INFINITE when the whole preimage does (the fully
    c-separating case, vacuously including an empty preimage); 1 when even
    size-2 subsets fail.  Computed once per table, whatever its name.
    """
    return _separating_degree(f.arity, f.bits, c)


@cache
def _separating_degree(arity: int, bits: tuple[int, ...], c: int) -> float:
    pre = TruthTable("f", arity, bits).preimage(c)
    n = arity

    def common_coordinate(rows: Sequence[tuple[int, ...]]) -> bool:
        return any(all(r[i] == c for r in rows) for i in range(n)) or not rows

    if common_coordinate(pre):
        return INFINITE
    # Here |pre| >= 1 and no coordinate separates the whole preimage, so any
    # witnessed degree is < |pre|.  The property is downward closed in k.
    best = 1
    for k in range(2, len(pre)):
        if all(common_coordinate(sub) for sub in combinations(pre, k)):
            best = k
        else:
            break
    return best


def compose(f: TruthTable, children_bits: Sequence[int], m: int) -> int:
    """Pointwise composition: the arity-m table (as an int bit mask, row i in
    bit i) of f applied to arity-m tables given as int masks.

    Row i of the result is f(c_1[i], ..., c_k[i]).  All 2^m rows are
    evaluated at once: the result is the OR, over the true rows r of f, of
    the AND over j of c_j where row r sets x_j (x1 most significant) and of
    its complement within the 2^m-bit mask where it does not.
    """
    full = (1 << (1 << m)) - 1
    k = f.arity
    literals = [(full ^ c, c) for c in children_bits]
    out = 0
    for r, b in enumerate(f.bits):
        if b:
            term = full
            for j, pair in enumerate(literals):
                term &= pair[(r >> (k - 1 - j)) & 1]
            out |= term
    return out


def projection_mask(j: int, m: int) -> int:
    """Arity-m table of the j-th projection (0-based) as an int mask: runs
    of 2^(m-1-j) rows false then true, doubled to cover all 2^m rows."""
    run = 1 << (m - 1 - j)
    out = ((1 << run) - 1) << run
    width = 2 * run
    while width < 1 << m:
        out |= out << width
        width *= 2
    return out


def mask_to_table(mask: int, m: int, name: str | None = None) -> TruthTable:
    bits = tuple((mask >> row) & 1 for row in range(1 << m))
    if name is None:
        name = "fn_" + "".join(str(b) for b in bits)
    return TruthTable(name, m, bits)


def table_to_mask(f: TruthTable) -> int:
    mask = 0
    for row, b in enumerate(f.bits):
        if b:
            mask |= 1 << row
    return mask


def fresh_compositions(f: TruthTable, old: Collection[int],
                       new: Collection[int], m: int, known: Collection[int]
                       ) -> Iterator[tuple[tuple[int, ...], int]]:
    """(tuple, compose(f, tuple, m)) for every k-tuple over the disjoint
    masks `old` and `new` that holds a member of `new`, each once, whose
    composition is not in `known`: the step of semi-naive evaluation.  A
    tuple is generated at its first `new` position i alone: positions
    before i take `old` masks and positions after i any mask.

    f is evaluated by Shannon cofactor folding (Knuth, TAOCP 4A, 7.1.2):
    from the 2^k masks of its rows, each `full` or 0, fixing the leading
    argument to the mask c maps every cofactor pair (g0, g1) to
    g0 ^ ((g0 ^ g1) & c).  Argument i is folded first, through f's rows
    permuted to put it in front, so the innermost argument costs one
    `g0 ^ (d & c)` and one `known` test per tuple, and a tuple is built
    only for a composition that is not known."""
    k = f.arity
    full = (1 << (1 << m)) - 1
    every = [*old, *new]
    for i in range(k):
        # fold order: argument i, then the others in place; row r in that
        # order is f's row with the top i+1 bits of r rotated left by one
        rest = k - 1 - i  # the arguments after i
        cofactors = []
        for r in range(1 << k):
            top = r >> rest
            row = ((top << 1 | top >> i) & ((2 << i) - 1)) << rest \
                | r & ((1 << rest) - 1)
            cofactors.append(full if f.bits[row] else 0)
        pools = (new, *[old] * i, *[every] * rest)
        for chosen, mask in _folded(cofactors, pools, known, ()):
            yield (*chosen[1:i + 1], chosen[0], *chosen[i + 1:]), mask


def _folded(cofactors: list[int], pools: Sequence[Collection[int]],
            known: Collection[int], chosen: tuple[int, ...]
            ) -> Iterator[tuple[tuple[int, ...], int]]:
    """The unknown compositions of `fresh_compositions`, with their
    arguments in fold order, given the cofactors left after folding
    `chosen`."""
    half = len(cofactors) >> 1
    low = cofactors[:half]
    diffs = [g0 ^ g1 for g0, g1 in zip(low, cofactors[half:])]
    pool = pools[len(chosen)]
    if half == 1:
        g0, d = low[0], diffs[0]
        for c in pool:
            mask = g0 ^ (d & c)
            if mask not in known:
                yield (*chosen, c), mask
        return
    for c in pool:  # recurses once per argument: arity <= MAX_ARITY deep
        yield from _folded([g0 ^ (d & c) for g0, d in zip(low, diffs)],
                           pools, known, (*chosen, c))


def clone_closure_masks(fns: FunctionSet, m: int,
                        budget: int | None = None) -> set[int]:
    """All arity-m members of [B] as int table masks (fixpoint iteration).

    The iteration is semi-naive: each round composes, through
    `fresh_compositions`, only the argument tuples that hold at least one
    mask of the frontier (the masks first found in the previous round).
    The budget bounds the number of tables known after each round.
    """
    if m > CLOSURE_MAX_ARITY:
        raise InputError(
            f"closure arity {m} exceeds oracle cap {CLOSURE_MAX_ARITY}")
    known: set[int] = {projection_mask(j, m) for j in range(m)}
    frontier: set[int] = set(known)
    while frontier:
        old = known - frontier
        new: set[int] = set()
        for f in fns:
            if f.arity == 0:
                # arity-0 constant lifted to arity m
                mask = ((1 << (1 << m)) - 1) if f.bits[0] else 0
                if mask not in known:
                    new.add(mask)
                continue
            new.update(mask for _, mask in
                       fresh_compositions(f, old, frontier, m, known))
        known |= new
        frontier = new
        if budget is not None and len(known) > budget:
            raise ResourceBudgetError(
                f"closure exceeded budget of {budget} tables")
    return known


def clone_closure(fns: FunctionSet, m: int) -> list[TruthTable]:
    """The arity-m members of [B], deterministically ordered by table mask."""
    masks = clone_closure_masks(fns, m)
    return [mask_to_table(mask, m) for mask in sorted(masks)]


def parse_function_line(line: str) -> TruthTable:
    """Parse a `fn <name> <arity> <bitstring>` line (the `fn` keyword is
    optional)."""
    parts = line.split()
    if parts and parts[0] == "fn":
        parts = parts[1:]
    if len(parts) != 3 or not parts[1].isdigit():
        raise InputError(
            f"expected `fn <name> <arity> <bitstring>`, got {line!r}")
    return TruthTable.from_bitstring(parts[0], int(parts[1]), parts[2])


def parse_function_set(text: str) -> FunctionSet:
    """Parse a file of `fn` lines; blanks and `#` comments are skipped."""
    fns = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fns.append(parse_function_line(line))
    return FunctionSet(fns)


# Frequently used tables.
def _tt(name: str, arity: int, s: str) -> TruthTable:
    return TruthTable.from_bitstring(name, arity, s)


CONST0 = _tt("const0", 0, "0")
CONST1 = _tt("const1", 0, "1")
IDENTITY = _tt("id", 1, "01")
NOT = _tt("not", 1, "10")
AND = _tt("and", 2, "0001")
OR = _tt("or", 2, "0111")
XOR = _tt("xor", 2, "0110")
XNOR = _tt("xnor", 2, "1001")
IMPLIES = _tt("implies", 2, "1101")
ANDNOT = _tt("andnot", 2, "0010")  # x and not y
OR_AND = _tt("or_and", 3, "00011111")  # x or (y and z)
XOR3 = TruthTable.from_callable("xor3", 3, lambda x, y, z: x ^ y ^ z)
MAJ3 = TruthTable.from_callable("maj3", 3,
                                lambda x, y, z: (x & y) | (x & z) | (y & z))
