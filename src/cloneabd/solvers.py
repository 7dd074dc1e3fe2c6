"""Clone-dispatched solving, counting and enumeration.

`ROUTES` is one ordered table of routes: literal knowledge bases (conjunctive
or essentially-unary connectives), disjunctive knowledge bases, affine
knowledge bases (GF(2) systems), monotone knowledge bases (bit-parallel
candidate tables), a general two-SAT-calls-per-candidate scan, and the
brute-force oracle.  `route_of` picks the first entry whose
`applies(clone, variant)` holds (never the oracle), and refuses a named
route whose `applies` fails.  An entry also holds `solve(inst, budget)`,
`count(inst, budget)`, `count_label` (the count method the CLI reports) and
`indices(inst, budget)`, the canonical indices of the full explanations in
increasing order: the product of forced and free hypotheses for the literal
route, the points of one coset outside another for the affine route (both
sets are computed once per instance and also give the count), the set bits
of candidate tables (counted by popcount) for the disjunctive and monotone
routes, and the hits of `abduction.explanation_hits` for the general and
oracle routes; `abduction.explanations_at` makes them explanations.
The monotone route takes every table under its candidate budget; the
disjunctive route walks a per-instance witness test over the leading
hypotheses and takes one table below each prefix that the test admits, so
it needs no budget.  The candidate budget bounds the monotone and general
routes.  `solve`,
`count_full` and `enumerate_full` take a route name, checked by
`route_of`, or an entry `route_of` already resolved, and default to the
clone's route.

The literal, disjunctive and affine routes read each knowledge-base formula
from its value at one point and at the n points one flip away from it, all
n+1 rows of one `formula_mask` pass (`_flips`).  Over connectives within E,
N, V or L these fix the formula: with conjunctive connectives it is 0 or
the conjunction of the variables whose flip from the all-ones point changes
its value; with essentially unary ones, a constant or the literal of the
one variable whose flip from the all-zeros point does; with disjunctive
ones, 1 or the clause of the variables whose flip from the all-zeros point
does; with affine ones, the equation XOR(those variables) = 1 ^ the value
at the all-zeros point.  The disjunctive route reads a formula
manifestation the same way, as 1 (no clause), 0 (one empty clause) or one
positive clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .abduction import (EMPTY_EXPLANATION, AbductionInstance, Explanation,
                        ExplanationTest, SolveOutcome, candidate_explanation,
                        explanation_hits, explanations_at, first_hit,
                        is_explanation, oracle_count_full, oracle_hits,
                        oracle_solve)
from .errors import CloneMismatchError, ResourceBudgetError
from .formula import (App, Formula, Literal, formula_mask, free_vars,
                      postorder)
from .truthtable import (PROPERTY_NAMES, function_properties,
                         projection_mask)
from .lattice import CloneId, clone_leq, identify_clone

DEFAULT_CANDIDATE_BUDGET = 1 << 20

_E = CloneId("E")
_N = CloneId("N")
_V = CloneId("V")
_L = CloneId("L")
_M = CloneId("M")


# ---------------------------------------------------------------------------
# One point and its flips: formulas over E, N, V or L in closed form

def _classes(formulas: Iterable[Formula]) -> frozenset[str]:
    """The classes of `function_properties` that every connective of the
    formulas belongs to (all of them when there is none)."""
    fns = {f.fn for f in postorder(formulas) if isinstance(f, App)}
    return PROPERTY_NAMES.intersection(*map(function_properties, fns))


def _flips(phi: Formula, base: int) -> tuple[int, list[str]]:
    """phi's value at the point that sets every variable to `base`, and its
    variables (sorted) whose flip alone changes that value: one
    `formula_mask` over n+1 rows, row 0 the point and row j+1 the point with
    variable j flipped.  Within E, N, V or L these fix phi."""
    variables = free_vars(phi)
    m = len(variables).bit_length()  # 2^m >= n+1 rows
    full = (1 << (1 << m)) - 1
    point = full if base else 0
    table = formula_mask(phi, {v: point ^ (2 << j)
                               for j, v in enumerate(variables)}, m)
    value = table & 1
    changed = table ^ (full if value else 0)
    return value, [v for j, v in enumerate(variables)
                   if changed >> (j + 1) & 1]


# ---------------------------------------------------------------------------
# Literal knowledge bases ([B] within E or N)

_FALSE = "false"


def _forced_literals(formulas: Sequence[Formula],
                     subject: str = "knowledge base"
                     ) -> dict[str, bool] | str:
    """Forced-literal map of a conjunction of formulas whose connectives
    are all conjunctive (read at the all-ones point) or all essentially
    unary (read at the all-zeros point); the string marker for an
    unsatisfiable one.  An empty map means the conjunction is valid.  The
    refusal of other connectives names the `subject`."""
    classes = _classes(formulas)
    if "e" in classes:
        base = 1
    elif "n" in classes:
        base = 0
    else:
        raise CloneMismatchError(
            f"{subject} is neither conjunctive nor essentially unary")
    forced: dict[str, bool] = {}
    for phi in formulas:
        value, flipped = _flips(phi, base)
        if not value and not flipped:
            return _FALSE  # the constant 0
        # phi is the cube of its flipped variables: each at the base value
        # when phi holds there (a conjunction, a negative literal), the one
        # flipped variable away from it when not (a positive literal)
        polarity = base == value
        for v in flipped:
            if forced.setdefault(v, polarity) != polarity:
                return _FALSE
    return forced


def solve_literal_kb(inst: AbductionInstance,
                     forced: dict[str, bool] | str | None = None
                     ) -> SolveOutcome:
    """When the knowledge base is a conjunction of literals, the empty set
    explains the manifestation if anything does (hypotheses cannot mention
    manifestation variables), and it does iff every clause of the
    manifestation holds a forced literal.  A formula psi (variant F) is
    read the same way, as a cube: psi = 0 gives one empty clause and
    psi = 1 none; psi over other connectives is refused.  No SAT call
    decides; a found answer is re-checked by `is_explanation`.  `forced` is
    the knowledge base's `_forced_literals`, when the caller has read it
    already."""
    if forced is None:
        forced = _forced_literals(inst.kb)
    if inst.variant == "F":
        cube = _forced_literals((inst.manifestation,), "manifestation")
        clauses = ([()] if cube == _FALSE
                   else [(Literal(v, p),) for v, p in cube.items()])
    else:
        clauses = inst.manifestation_clauses
    if forced == _FALSE or not all(
            any(forced.get(l.var) == l.positive for l in c) for c in clauses):
        return SolveOutcome(False, None, "literal-KB")
    e = EMPTY_EXPLANATION
    assert is_explanation(inst, e)
    return SolveOutcome(True, e, "literal-KB", certificate_checked=True)


def _literal_choices(inst: AbductionInstance) -> list[tuple[int, ...]]:
    """Per hypothesis, in order, what a full explanation may add to its
    candidate index: the hypothesis's bit when forced true, 0 when forced
    false, either when free; one empty choice when the instance has no
    explanation.  The indices of the full explanations are the sums over
    the product of these choices, which comes out in increasing order."""
    forced = _forced_literals(inst.kb)
    if not solve_literal_kb(inst, forced).found:
        return [()]
    assert isinstance(forced, dict)
    hyp = inst.hypotheses
    bits = (1 << (len(hyp) - 1 - j) for j in range(len(hyp)))
    return [(b,) if forced.get(v) else (0,) if v in forced else (0, b)
            for v, b in zip(hyp, bits)]


# ---------------------------------------------------------------------------
# Disjunctive knowledge bases ([B] within V, variants Q, C and F)

def _positive_clauses(formulas: Iterable[Formula],
                      subject: str = "knowledge base"
                      ) -> list[frozenset[str]]:
    """Positive clauses of formulas over disjunctive connectives, read at
    the all-zeros point; valid formulas dropped.  An empty clause marks an
    unsatisfiable one.  The refusal of other connectives names the
    `subject`."""
    if "v" not in _classes(formulas):
        raise CloneMismatchError(
            f"{subject} has a connective that is not a disjunction of "
            f"arguments")
    out = []
    for phi in formulas:
        value, flipped = _flips(phi, 0)
        if not value:
            out.append(frozenset(flipped))
    return out


def _positive_atoms(inst: AbductionInstance) -> list[frozenset[str]]:
    """The positive atoms of each manifestation clause, which is all that a
    monotone knowledge base can entail of it: of `manifestation_clauses`
    for Q, C and T, and for F of psi read as `_positive_clauses` (psi = 1
    is no clause and psi = 0 one empty clause), so psi must be built from
    disjunctive connectives."""
    if inst.variant == "F":
        return _positive_clauses((inst.manifestation,), "manifestation")
    return [frozenset(l.var for l in c if l.positive)
            for c in inst.manifestation_clauses]


def _disjunctive_witness(
        inst: AbductionInstance
) -> Callable[[Sequence[Literal]], frozenset[str] | None]:
    """The map from a prefix to the hypotheses that a witness explanation
    extending it sets false besides the prefix, or None when there is no
    witness; the clause analysis is done once, here.

    Criterion: a knowledge-base clause D whose atoms outside the positive
    manifestation atoms S form a set X of hypotheses that can jointly be set
    false without emptying any clause.  Positive-clause sets entail a
    positive clause only by subsumption, so scanning single witness clauses
    is complete.
    """
    if inst.variant == "T":
        raise CloneMismatchError(
            "disjunctive path handles literal, clause and formula "
            "manifestations")
    clauses = _positive_clauses(inst.kb)
    positives = _positive_atoms(inst)
    if any(not c for c in clauses) or not all(positives):
        # an unsatisfiable KB, or a clause with no positive atom, which
        # monotone KBs never entail
        return lambda prefix: None
    hyps = set(inst.hypotheses)
    candidates = [frozenset()]  # no clause to entail: the prefix alone
    for positive in positives:  # the manifestation's one clause
        candidates = [d - positive for d in sorted(set(clauses), key=sorted)
                      if d - positive <= hyps]

    def witness(prefix: Sequence[Literal]) -> frozenset[str] | None:
        neg_prefix = frozenset(l.var for l in prefix if not l.positive)
        pos_prefix = frozenset(l.var for l in prefix if l.positive)
        for x in candidates:
            if not x & pos_prefix and not any(c <= neg_prefix | x
                                              for c in clauses):
                return x
        return None

    return witness


def solve_disjunctive_kb(inst: AbductionInstance) -> SolveOutcome:
    """The witness hypotheses false and the rest true: no clause lies
    within the witness, so the positive clauses stay satisfied."""
    x = _disjunctive_witness(inst)(())
    if x is None:
        return SolveOutcome(False, None, "V-witness")
    n = len(inst.hypotheses)
    e = candidate_explanation(inst.hypotheses, sum(
        1 << (n - 1 - j) for j, v in enumerate(inst.hypotheses) if v not in x))
    assert is_explanation(inst, e)
    return SolveOutcome(True, e, "V-witness", certificate_checked=True)


def _disjunctive_tables(inst: AbductionInstance
                        ) -> Iterator[tuple[int, int]]:
    """(start, table) per candidate table under the prefixes that the
    witness admits, in canonical order: the walk branches on the leading
    hypotheses (negative first) down to the depth where one table covers
    the rest, and enters a prefix only if some full explanation extends
    it.  V lies within M, so the tables are those of the monotone route;
    with no more hypotheses than one table holds, that table alone
    decides."""
    hyp = inst.hypotheses
    m = min(len(hyp), _BLOCK_BITS)
    depth = len(hyp) - m
    block = _table_blocks(inst, _positive_atoms(inst), m)
    if not depth:
        yield 0, block(0)
        return
    witness = _disjunctive_witness(inst)
    stack: list[tuple[int, tuple[Literal, ...]]] = [(0, ())]
    while stack:
        lead, prefix = stack.pop()
        if witness(prefix) is None:
            continue
        if len(prefix) == depth:
            yield lead << m, block(lead)
            continue
        v = hyp[len(prefix)]
        stack.append((2 * lead + 1, prefix + (Literal(v, True),)))
        stack.append((2 * lead, prefix + (Literal(v, False),)))


# ---------------------------------------------------------------------------
# Affine knowledge bases: GF(2) systems and projections

@dataclass(frozen=True)
class AffineSystem:
    """Equations over an ordered variable list; each row is a (column mask,
    right-hand bit) pair meaning XOR of the masked variables = bit.
    `negation` holds the row groups of the negated manifestation, one per
    clause (the negated equation for variant F): explanations must avoid
    the projection of the system extended by every group separately."""

    cols: tuple[str, ...]
    rows: tuple[tuple[int, int], ...]
    negation: tuple[tuple[tuple[int, int], ...], ...]


def formula_equation(phi: Formula) -> tuple[frozenset[str], int]:
    """The GF(2) equation asserted by a formula: (variables, bit) with
    XOR(variables) = bit.  Only formulas built from affine connectives are
    accepted; such a formula is affine, so its values at the zero point and
    the unit points fix it exactly."""
    if "l" not in _classes([phi]):
        raise CloneMismatchError(
            "knowledge-base formula has a non-affine connective")
    value, flipped = _flips(phi, 0)
    return frozenset(flipped), 1 ^ value


# Echelon rows: pivots keyed by leading column (lowest set bit); a row's
# other columns lie above its pivot.
Echelon = dict[int, tuple[int, int]]


def _eliminate(rows: Iterable[tuple[int, int]],
               pivots: Echelon | None = None) -> Echelon | None:
    """Forward elimination of `rows`, continuing from `pivots` (kept as
    they are, new pivots after them).  None when the system is
    inconsistent."""
    pivots = dict(pivots or {})
    for mask, rhs in rows:
        while mask:
            lead = (mask & -mask).bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (mask, rhs)
                break
            pmask, prhs = pivots[lead]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs:
                return None
    return pivots


def _particular_solution(pivots: Echelon, free: int = 0) -> int:
    """The solution bit vector whose free variables are set as in `free`
    (all 0 by default)."""
    point = free
    for lead in sorted(pivots, reverse=True):
        mask, rhs = pivots[lead]
        value = rhs ^ (bin(mask & point).count("1") & 1)
        if value:
            point |= 1 << lead
    return point


def build_affine_system(inst: AbductionInstance) -> AffineSystem:
    """The knowledge-base system, hypothesis columns last, with the
    negated manifestation's row groups."""
    non_hyp = [v for v in inst.variables if v not in inst.hypotheses]
    cols = tuple(non_hyp) + tuple(inst.hypotheses)
    index = {v: j for j, v in enumerate(cols)}

    def row(eqvars: Iterable[str], rhs: int) -> tuple[int, int]:
        mask = 0
        for v in eqvars:
            mask |= 1 << index[v]
        return mask, rhs

    rows = tuple(row(*formula_equation(phi)) for phi in inst.kb)
    if inst.variant == "F":
        eqvars, rhs = formula_equation(inst.manifestation)
        negation = ((row(eqvars, rhs ^ 1),),)
    else:
        negation = tuple(tuple(row([l.var], 0 if l.positive else 1)
                               for l in c)
                         for c in inst.manifestation_clauses)
    return AffineSystem(cols, rows, negation)


def _affine_cosets(inst: AbductionInstance, system: AffineSystem
                   ) -> tuple[Echelon | None, Echelon | None]:
    """(A, B): the full explanations are exactly the points of coset A
    outside coset B, each given by echelon rows over the hypothesis
    columns.  A is None when there are no explanations, B when nothing is
    taken away; otherwise B is A with more rows, the first of them after
    A's.

    The knowledge base is eliminated once, non-hypothesis columns first, so
    pivots at or beyond `split` are exactly the constraints on the
    projection onto the hypotheses (the base projection A).  A negation
    group continues that elimination; its new pivots there constrain the
    projection of the system extended by it.
    """
    split = len(system.cols) - len(inst.hypotheses)
    full = _eliminate(system.rows)
    if full is None:
        return None, None

    def new_rows(group: Iterable[tuple[int, int]]
                 ) -> list[tuple[int, int]] | None:
        ext = _eliminate(group, full)
        if ext is None:
            return None
        return [row for lead, row in ext.items()
                if lead >= split and lead not in full]

    base = {lead: row for lead, row in full.items() if lead >= split}
    if len(system.negation) != 1:
        # none, or the unit groups of a term: each adds one equation, and
        # within the base projection its projection is everything, nothing,
        # or a hyperplane whose flipped form every explanation satisfies
        flipped = []
        for group in system.negation:
            extra = new_rows(group)
            if extra is None:
                continue  # that literal is already entailed
            if not extra:
                return None, None  # no assignment in A entails the literal
            assert len(extra) == 1, "each T projection is a hyperplane"
            mask, rhs = extra[0]
            flipped.append((mask, rhs ^ 1))
        return _eliminate(flipped, base), None

    (group,) = system.negation
    extra = new_rows(group)
    if extra is None:
        return base, None
    if not extra:
        return None, None  # B is A
    return base, _eliminate(extra, base)


def _point_index(inst: AbductionInstance, system: AffineSystem,
                 point: int) -> int:
    """The candidate index of a solution point: its hypothesis columns,
    which come last, read with the first as the most significant bit."""
    h = len(inst.hypotheses)
    return int(format(point >> len(system.cols) - h, f"0{h}b")[::-1], 2)


def solve_affine(inst: AbductionInstance) -> SolveOutcome:
    system = build_affine_system(inst)
    a, b = _affine_cosets(inst, system)
    if a is None:
        return SolveOutcome(False, None, "affine")
    if b is not None:
        # a witness violates the first constraint that B adds to A; that
        # row's pivot is free in A, so the rows stay echelon
        new = [(lead, row) for lead, row in b.items() if lead not in a]
        assert new, "strictly smaller projection must add a constraint"
        lead, (mask, rhs) = new[0]
        a = {**a, lead: (mask, rhs ^ 1)}
    e = candidate_explanation(inst.hypotheses, _point_index(
        inst, system, _particular_solution(a)))
    assert is_explanation(inst, e)
    return SolveOutcome(True, e, "affine", certificate_checked=True)


def count_affine(inst: AbductionInstance) -> int:
    """Exact number of full explanations for an affine knowledge base: the
    size of coset A less the size of coset B."""
    a, b = _affine_cosets(inst, build_affine_system(inst))
    if a is None:
        return 0
    h = len(inst.hypotheses)
    return (1 << (h - len(a))) - (0 if b is None else 1 << (h - len(b)))


def _affine_indices(inst: AbductionInstance) -> list[int]:
    """The indices of the points of coset A outside coset B, in increasing
    order.  B has a smaller dimension than A, so at least half of A's
    points are listed."""
    system = build_affine_system(inst)
    a, b = _affine_cosets(inst, system)
    if a is None:
        return []
    split = len(system.cols) - len(inst.hypotheses)
    free = [1 << j for j in range(split, len(system.cols)) if j not in a]
    indices = []
    for bits in product((0, 1), repeat=len(free)):
        point = _particular_solution(a, sum(c for c, x in zip(free, bits)
                                            if x))
        if b is None or any(bin(mask & point).count("1") & 1 != rhs
                            for mask, rhs in b.values()):
            indices.append(_point_index(inst, system, point))
    return sorted(indices)


# ---------------------------------------------------------------------------
# Monotone candidate tables

# A table covers 2^_BLOCK_BITS candidates: the last _BLOCK_BITS hypotheses
# vary over its rows.
_BLOCK_BITS = 16


def _kb_mask(inst: AbductionInstance, masks: dict[str, int], m: int) -> int:
    """The arity-m table of the knowledge base, its variables given as
    arity-m tables."""
    out = (1 << (1 << m)) - 1
    for phi in inst.kb:
        out &= formula_mask(phi, masks, m)
    return out


def _table_blocks(inst: AbductionInstance, atoms: Sequence[Iterable[str]],
                  m: int) -> Callable[[int], int]:
    """block(lead): the candidate table whose leading hypotheses (all but
    the last m) take the bits of `lead`, first hypothesis most significant,
    while the last m vary over its rows.  Bit i is set iff candidate
    (lead << m) + i is a full explanation of a monotone knowledge base whose
    manifestation clauses have the positive `atoms`.  Every other variable
    is true, which decides satisfiability of a monotone KB, and a clause is
    entailed iff forcing its positive atoms false breaks the KB.  The masks
    of the other variables and of the last m hypotheses are made once."""
    hyp = inst.hypotheses
    split = len(hyp) - m
    full = (1 << (1 << m)) - 1
    base = dict.fromkeys(inst.variables, full)
    base.update((v, projection_mask(j, m))
                for j, v in enumerate(hyp[split:]))
    leading = list(enumerate(hyp[:split]))

    def block(lead: int) -> int:
        masks = {**base, **{v: full if lead >> (split - 1 - j) & 1 else 0
                            for j, v in leading}}
        table = _kb_mask(inst, masks, m)
        for clause in atoms:
            if table:
                table &= ~_kb_mask(
                    inst, {**masks, **dict.fromkeys(clause, 0)}, m)
        return table

    return block


def _monotone_tables(inst: AbductionInstance, budget: int
                     ) -> Iterator[tuple[int, int]] | None:
    """(start, table) per block of candidates in canonical order, bit i set
    iff candidate start + i is a full explanation (`_table_blocks`); None
    when the manifestation rules out every candidate, which is when one of
    its clauses has no positive atom: a satisfiable monotone KB extension
    never entails such a clause.  Like a scan that stops on reaching
    candidate `budget`, bits from `budget` on are cleared and
    ResourceBudgetError follows the last block if that candidate exists."""
    if inst.variant == "F":
        raise CloneMismatchError(
            "monotone scan handles literal, clause and term manifestations")
    atoms = _positive_atoms(inst)
    if not all(atoms):
        return None
    hyp = inst.hypotheses
    m = min(len(hyp), _BLOCK_BITS)
    block = _table_blocks(inst, atoms, m)

    def tables() -> Iterator[tuple[int, int]]:
        for start in range(0, min(1 << len(hyp), budget), 1 << m):
            table = block(start >> m)
            if budget - start < 1 << m:
                table &= (1 << (budget - start)) - 1
            yield start, table
        if budget < 1 << len(hyp):
            raise ResourceBudgetError(
                f"monotone scan budget {budget} candidates exceeded")

    return tables()


def _set_bits(tables: Iterable[tuple[int, int]]) -> Iterator[int]:
    """The candidate indices of the set bits of (start, table) pairs, in
    order."""
    for start, table in tables:
        rows = bin(table)[:1:-1]
        i = rows.find("1")
        while i >= 0:
            yield start + i
            i = rows.find("1", i + 1)


def solve_monotone(inst: AbductionInstance,
                   budget: int = DEFAULT_CANDIDATE_BUDGET) -> SolveOutcome:
    tables = _monotone_tables(inst, budget)
    if tables is None:
        return SolveOutcome(False, None, "monotone-scan")
    out = first_hit(inst, _set_bits(tables), "monotone-scan")
    assert not out.found or is_explanation(inst, out.explanation)
    return out


# ---------------------------------------------------------------------------
# General scan (two SAT calls per candidate, on one per-instance encoding)

def solve_general(inst: AbductionInstance,
                  budget: int = DEFAULT_CANDIDATE_BUDGET) -> SolveOutcome:
    test = ExplanationTest(inst)
    out = first_hit(inst, explanation_hits(inst, budget, "general", test),
                    "general-scan")
    # re-decided on solvers built afresh from the scan's clauses
    assert not out.found or is_explanation(inst, out.explanation,
                                           test.fresh())
    return out


# ---------------------------------------------------------------------------
# Dispatch

@dataclass(frozen=True)
class Route:
    """One entry of `ROUTES`; the module docstring describes the fields."""

    applies: Callable[[CloneId, str], bool]
    solve: Callable[[AbductionInstance, int], SolveOutcome]
    count: Callable[[AbductionInstance, int], int]
    count_label: str
    indices: Callable[[AbductionInstance, int], Iterable[int]]


# First match wins, in this order.  The lambdas look every algorithm up by
# its module-level name at call time, so wrappers installed there see calls.
ROUTES: dict[str, Route] = {
    "literal": Route(
        applies=lambda c, v: clone_leq(c, _E) or clone_leq(c, _N),
        solve=lambda i, b: solve_literal_kb(i),
        count=lambda i, b: prod(map(len, _literal_choices(i))),
        count_label="literal-KB",
        indices=lambda i, b: map(sum, product(*_literal_choices(i)))),
    "disjunctive": Route(
        applies=lambda c, v: clone_leq(c, _V) and v in ("Q", "C", "F"),
        solve=lambda i, b: solve_disjunctive_kb(i),
        count=lambda i, b: sum(
            t.bit_count() for _, t in _disjunctive_tables(i)),
        count_label="V-witness",
        indices=lambda i, b: _set_bits(_disjunctive_tables(i))),
    "affine": Route(
        applies=lambda c, v: clone_leq(c, _L),
        solve=lambda i, b: solve_affine(i),
        count=lambda i, b: count_affine(i), count_label="affine",
        indices=lambda i, b: _affine_indices(i)),
    "monotone": Route(
        applies=lambda c, v: clone_leq(c, _M) and v in ("Q", "C", "T"),
        solve=lambda i, b: solve_monotone(i, b),
        count=lambda i, b: sum(
            t.bit_count() for _, t in _monotone_tables(i, b) or ()),
        count_label="monotone-scan",
        indices=lambda i, b: _set_bits(_monotone_tables(i, b) or ())),
    "general": Route(
        applies=lambda c, v: True,
        solve=lambda i, b: solve_general(i, b),
        count=lambda i, b: sum(1 for _ in explanation_hits(i, b, "general")),
        count_label="general-scan",
        indices=lambda i, b: explanation_hits(i, b, "general")),
    "oracle": Route(
        applies=lambda c, v: False,
        solve=lambda i, b: oracle_solve(i),
        count=lambda i, b: oracle_count_full(i), count_label="oracle",
        indices=lambda i, b: oracle_hits(i)),
}


# Sound on every knowledge base, so never checked against the clone.
_UNCHECKED = ("general", "oracle")


@cache
def _applies(clone: CloneId, variant: str) -> dict[str, bool]:
    """Route name -> whether its `applies` holds for the clone and variant,
    in `ROUTES` order: a pure function of the two, read once per pair."""
    return {name: entry.applies(clone, variant)
            for name, entry in ROUTES.items()}


def route_of(inst: AbductionInstance, route: str | None = None) -> str:
    """The one place that resolves a route: with no name, the first entry
    whose `applies` holds; a named route is returned once its `applies`
    holds (unchecked for `general` and `oracle`), and otherwise refused
    with CloneMismatchError."""
    if route in _UNCHECKED:
        return route
    clone = identify_clone(inst.fns)
    applies = _applies(clone, inst.variant)
    if route is None:
        return next(name for name, ok in applies.items() if ok)
    if not applies[route]:
        raise CloneMismatchError(
            f"route {route!r} does not decide clone {clone.name} with "
            f"variant {inst.variant}")
    return route


def _entry(inst: AbductionInstance, route: str | Route | None) -> Route:
    """A name (or None) goes through `route_of`; an entry that `route_of`
    already resolved runs as it is."""
    if isinstance(route, Route):
        return route
    return ROUTES[route_of(inst, route)]


def solve(inst: AbductionInstance, budget: int = DEFAULT_CANDIDATE_BUDGET,
          route: str | Route | None = None) -> SolveOutcome:
    return _entry(inst, route).solve(inst, budget)


def count_full(inst: AbductionInstance, route: str | Route | None = None,
               budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Exact number of full explanations.  Counting is #P-hard already for
    disjunctive knowledge bases, so the disjunctive route adds up the
    popcounts of the tables below the prefixes its witness admits, the
    monotone route those of every table and the general route counts the
    hits of its scan."""
    return _entry(inst, route).count(inst, budget)


def enumerate_full(inst: AbductionInstance, route: str | Route | None = None,
                   budget: int = DEFAULT_CANDIDATE_BUDGET
                   ) -> list[Explanation]:
    """All full explanations in canonical order, from the route's
    indices."""
    return explanations_at(inst.hypotheses,
                           _entry(inst, route).indices(inst, budget))
