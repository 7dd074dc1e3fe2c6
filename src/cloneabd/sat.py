"""A complete SAT solver for repeated queries on one clause set.

`Solver` prepares the clauses once: a clause that mentions a variable twice
loses its repeated literals, or is dropped when it is a tautology; binary
clauses become implication lists, two literals of every longer clause are
watched and the unit clauses are propagated at level 0.  Each `sat_solve`
call then searches under assumption literals with an explicit trail and
decision stack, and returns to the level-0 trail afterwards (Eén &
Sörensson, "An Extensible SAT-solver", SAT 2003).  A caller that asks many
questions about one clause set therefore encodes it once, prepares one
`Solver`, and passes each question as a list of assumption ids.  Branching
is deterministic: the lowest-index unassigned variable, false first,
chronological backtracking and no learning, so a satisfiable call returns
the least model with variable 1 most significant and false before true.
Every model is re-checked against every input clause and assumption before
it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Sequence


@dataclass
class SatStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    calls: int = 0


@dataclass
class SatResult:
    status: str  # "sat" | "unsat"
    model: dict[int, bool] | None = None
    stats: SatStats = field(default_factory=SatStats)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


class Solver:
    """A clause set prepared for `sat_solve` calls under assumptions.

    Tables indexed by literal have 2n+1 slots and use Python's negative
    indexing: slot v belongs to literal v and slot -v (that is, 2n+1-v) to
    literal -v.  `_value[lit]` is True, False or None (unassigned).
    `_implied[lit]` lists the literals that binary clauses force once `lit`
    is false, and `_watches[lit]` the longer clauses that watch `lit`,
    which are those whose first or second literal it is.
    """

    def __init__(self, clauses: Iterable[Sequence[int]],
                 num_vars: int | None = None) -> None:
        self.clauses = list(map(tuple, clauses))
        used = max(map(abs, chain.from_iterable(self.clauses)), default=0)
        self.num_vars = max(used, num_vars or 0)
        size = 2 * self.num_vars + 1
        self._value: list[bool | None] = [None] * size
        self._implied: list[list[int]] = [[] for _ in range(size)]
        self._watches: list[list[list[int]]] = [[] for _ in range(size)]
        self._trail: list[int] = []
        self.root_conflict = False
        units = []
        for c in self.clauses:
            if len(c) > 2 or len(c) == 2 and abs(c[0]) == abs(c[1]):
                if len(set(map(abs, c))) < len(c):  # a variable repeats
                    if len(set(c)) > len(set(map(abs, c))):
                        continue  # a tautology
                    c = tuple(dict.fromkeys(c))
            if not c:
                self.root_conflict = True
            elif len(c) == 1:
                units.append(c[0])
            elif len(c) == 2:
                self._implied[c[0]].append(c[1])
                self._implied[c[1]].append(c[0])
            else:
                lits = list(c)
                self._watches[lits[0]].append(lits)
                self._watches[lits[1]].append(lits)
        if not self.root_conflict:
            self.root_conflict = not (
                all(self._assign(u) for u in units)
                and self._propagate(0, SatStats()))

    def _assign(self, lit: int) -> bool:
        """Make `lit` true unless it is false already (False then)."""
        current = self._value[lit]
        if current is not None:
            return current
        self._value[lit] = True
        self._value[-lit] = False
        self._trail.append(lit)
        return True

    def _undo(self, mark: int) -> None:
        value, trail = self._value, self._trail
        for lit in trail[mark:]:
            value[lit] = value[-lit] = None
        del trail[mark:]

    def _propagate(self, qhead: int, stats: SatStats) -> bool:
        """Unit propagation of the trail from `qhead` on; False on a
        conflict."""
        value, trail = self._value, self._trail
        implied, watches = self._implied, self._watches
        propagations = 0
        try:
            for true_lit in islice(trail, qhead, None):
                false_lit = -true_lit
                for q in implied[false_lit]:
                    current = value[q]
                    if current is None:
                        value[q] = True
                        value[-q] = False
                        trail.append(q)
                        propagations += 1
                    elif current is False:
                        return False
                watchers = watches[false_lit]
                if not watchers:
                    continue
                kept = []
                moved = 0
                for c in watchers:
                    other = c[0]
                    if other == false_lit:
                        other = c[1]
                        c[0], c[1] = other, false_lit
                    if value[other] is True:
                        kept.append(c)
                        continue
                    for k in range(2, len(c)):
                        lk = c[k]
                        if value[lk] is not False:
                            c[1], c[k] = lk, false_lit
                            watches[lk].append(c)
                            moved += 1
                            break
                    else:
                        kept.append(c)
                        if value[other] is False:
                            kept.extend(watchers[len(kept) + moved:])
                            watches[false_lit] = kept
                            return False
                        value[other] = True
                        value[-other] = False
                        trail.append(other)
                        propagations += 1
                watches[false_lit] = kept
            return True
        finally:
            stats.propagations += propagations

    def _search(self, assumptions: Sequence[int], stats: SatStats) -> bool:
        value, trail = self._value, self._trail
        mark = len(trail)
        for lit in assumptions:
            if not 0 < abs(lit) <= self.num_vars:
                raise ValueError(f"assumption {lit} outside variables "
                                 f"1..{self.num_vars}")
            if not self._assign(lit):
                return False
        if not self._propagate(mark, stats):
            return False
        decisions: list[tuple[int, int]] = []  # (trail mark, literal)
        var = 1
        while True:
            while var <= self.num_vars and value[var] is not None:
                var += 1
            if var > self.num_vars:
                return True
            lit = -var
            while True:
                stats.decisions += 1
                mark = len(trail)
                decisions.append((mark, lit))
                self._assign(lit)
                if self._propagate(mark, stats):
                    break
                # undo failed values; a failed true value fails its parent
                while True:
                    mark, lit = decisions.pop()
                    self._undo(mark)
                    stats.conflicts += 1
                    if lit < 0:
                        break
                    if not decisions:
                        return False
                var = lit = -lit

    def solve(self, assumptions: Sequence[int] = (),
              stats: SatStats | None = None) -> SatResult:
        """Search under `assumptions`.  The level-0 trail is restored
        before returning, also when an assumption is refused."""
        stats = stats if stats is not None else SatStats()
        stats.calls += 1
        if self.root_conflict:
            return SatResult("unsat", stats=stats)
        root = len(self._trail)
        try:
            if not self._search(assumptions, stats):
                return SatResult("unsat", stats=stats)
            values = self._value[1:self.num_vars + 1]
        finally:
            self._undo(root)
        # the re-check reads only the variables' values, in a set of true
        # literals of its own
        true = {v if b else -v for v, b in enumerate(values, start=1)}
        assert not any(map(true.isdisjoint, self.clauses)), \
            "model failed re-check"
        assert true.issuperset(assumptions), "model failed an assumption"
        return SatResult("sat", dict(enumerate(values, start=1)), stats)


def sat_solve(clauses: Iterable[Sequence[int]] | Solver,
              num_vars: int | None = None,
              stats: SatStats | None = None,
              assumptions: Sequence[int] = ()) -> SatResult:
    """Complete decision procedure for the clauses together with the
    assumption literals.  `clauses` is a clause list or a prepared `Solver`
    (whose own variable count then stands and `num_vars` is ignored).
    Returned models are re-checked against every input clause and every
    assumption."""
    solver = clauses if isinstance(clauses, Solver) else Solver(clauses,
                                                                 num_vars)
    return solver.solve(assumptions, stats)

