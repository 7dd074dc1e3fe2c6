"""Abduction instances, explanation checking, the candidate scan
(`explanation_hits`, which the brute-force oracle runs, and the general
route above the variable count of one candidate table), the
constant-elimination transforms and the instance file format.
Routes pass full explanations as canonical candidate indices, and
`explanations_at` turns indices into `Explanation`s.

An instance is (Gamma, A, psi): a knowledge base of formulas over a declared
connective set, a set of hypothesis variables, and a manifestation which is a
literal (variant Q), a clause (C), a term (T) or a formula (F).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import InputError, ResourceBudgetError
from .formula import (VAR_RE, App, Const, Formula, Literal, Var,
                      encode_cnf, free_vars, parse_formula, parse_literal,
                      postorder, rebuild, render_formula, substitute_map)
from .sat import Solver, sat_solve
from .truthtable import OR, FunctionSet, TruthTable

ORACLE_MAX_HYP = 16
ORACLE_MAX_VARS = 20

Manifestation = Union[Literal, tuple[Literal, ...], Formula]


@dataclass(frozen=True)
class AbductionInstance:
    fns: FunctionSet
    kb: tuple[Formula, ...]
    hypotheses: tuple[str, ...]  # sorted variable names
    variant: str  # "Q" | "C" | "T" | "F"
    manifestation: Manifestation

    def __post_init__(self) -> None:
        if self.variant not in ("Q", "C", "T", "F"):
            raise InputError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "hypotheses",
                           tuple(sorted(set(self.hypotheses))))

    @cached_property
    def kb_vars(self) -> tuple[str, ...]:
        return tuple(free_vars(self.kb))

    @property
    def manifestation_literals(self) -> tuple[Literal, ...]:
        """The manifestation's literals (variants Q, C and T)."""
        if self.variant == "Q":
            return (self.manifestation,)
        return tuple(self.manifestation)

    @property
    def manifestation_clauses(self) -> tuple[tuple[Literal, ...], ...]:
        """The manifestation as a CNF (variants Q, C and T): one clause for
        Q and C, one unit clause per literal for T.  Gamma and E entail it
        iff they contradict the negation of every clause, so a clause that
        holds both polarities of a variable, which everything entails, is
        left out."""
        lits = self.manifestation_literals
        clauses = ((l,) for l in lits) if self.variant == "T" else (lits,)
        return tuple(c for c in clauses
                     if not {l.negated() for l in c} & set(c))

    @property
    def formulas(self) -> tuple[Formula, ...]:
        """The knowledge base, followed by psi for variant F."""
        if self.variant == "F":
            return self.kb + (self.manifestation,)
        return self.kb

    def map_formulas(self, f: Callable[[Formula], Formula]
                     ) -> "AbductionInstance":
        """The instance with `f` applied to each of its `formulas`."""
        mapped = tuple(map(f, self.formulas))
        if self.variant == "F":
            return replace(self, kb=mapped[:-1], manifestation=mapped[-1])
        return replace(self, kb=mapped)

    @property
    def manifestation_vars(self) -> list[str]:
        if self.variant == "F":
            return free_vars(self.manifestation)
        return sorted({l.var for l in self.manifestation_literals})

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """The variable universe, sorted: KB, hypotheses and manifestation
        variables.

        Hypotheses and manifestation variables that do not occur in the KB
        are semantically free; keeping them in the universe makes counting
        and enumeration well defined for such (technically invalid but
        useful) instances.  Like `kb_vars`, it is computed once per
        instance; equality and hashing read the fields only.
        """
        return tuple(sorted(set(self.kb_vars) | set(self.hypotheses)
                            | set(self.manifestation_vars)))

    def manifestation_text(self) -> str:
        if self.variant == "F":
            return render_formula(self.manifestation)
        return " ".join(str(l) for l in self.manifestation_literals)


_by_var = attrgetter("var")


@dataclass(frozen=True)
class Explanation:
    """A consistent set of literals over the hypothesis variables."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.literals, key=_by_var)
        if len({l.var for l in ordered}) != len(ordered):
            # a repeated name: drop repeated literals, refuse the least
            # variable that comes with both polarities
            kept: list[Literal] = []
            for l in ordered:
                if kept and kept[-1].var == l.var:
                    if kept[-1].positive != l.positive:
                        raise InputError(f"inconsistent explanation: both "
                                         f"polarities of {l.var!r}")
                    continue
                kept.append(l)
            ordered = kept
        object.__setattr__(self, "literals", tuple(ordered))

    @property
    def atoms(self) -> list[str]:
        return [l.var for l in self.literals]

    def is_full(self, hypotheses: Sequence[str]) -> bool:
        return set(self.atoms) == set(hypotheses)

    def serialize(self) -> str:
        return " ".join(str(l) for l in self.literals)

    @classmethod
    def parse(cls, text: str) -> "Explanation":
        parts = text.split()
        return cls(tuple(parse_literal(p) for p in parts))

    def __str__(self) -> str:
        return self.serialize() if self.literals else "(empty)"


EMPTY_EXPLANATION = Explanation(())


@dataclass(frozen=True)
class SolveOutcome:
    found: bool
    explanation: Explanation | None
    method: str
    certificate_checked: bool = False
    candidates_tried: int = 0

    def __post_init__(self) -> None:
        if self.found:
            assert self.certificate_checked, \
                "positive outcomes must carry a checked certificate"


def validate_instance(inst: AbductionInstance) -> list[str]:
    """All invariant violations, located; empty list when the instance is
    well formed."""
    errors = []
    kb_vars = set(inst.kb_vars)
    outside = sorted(set(inst.hypotheses) - kb_vars)
    if outside:
        errors.append(
            f"hypothesis outside knowledge base: {', '.join(outside)}")
    overlap = _overlap_error(inst)
    if overlap:
        errors.append(overlap)
    m_outside = sorted(set(inst.manifestation_vars) - kb_vars)
    if m_outside:
        errors.append(
            f"manifestation variable outside knowledge base: "
            f"{', '.join(m_outside)}")
    if inst.variant == "F":
        bad = {f.fn.name for f in postorder(inst.manifestation)
               if isinstance(f, App) and f.fn.name not in inst.fns}
        if bad:
            errors.append(
                f"manifestation uses connectives outside the declared set: "
                f"{', '.join(sorted(bad))}")
    return errors


def _overlap_error(inst: AbductionInstance) -> str | None:
    overlap = sorted(set(inst.manifestation_vars) & set(inst.hypotheses))
    if overlap:
        return f"manifestation overlaps hypotheses: {', '.join(overlap)}"
    return None


def _check_candidate(inst: AbductionInstance, e: Explanation) -> None:
    extra = set(e.atoms) - set(inst.hypotheses)
    if extra:
        raise InputError(
            f"explanation mentions non-hypothesis variables: "
            f"{', '.join(sorted(extra))}")


class ExplanationTest:
    """The SAT side of the explanation test for one instance.

    `encode_cnf` runs once per instance, over Gamma and, for variant F, the
    gate definitions of the manifestation psi, which are not asserted; the
    encoding is kept as immutable tuples (`clauses`, `num_vars`).  One
    solver is built over it.  Both questions take assumption ids (see
    `assumption_ids`).  Consistency is one `sat_solve` call; entailment is
    refuted by one call per list of negation assumptions added to them: the
    negated literals of each of the manifestation's clauses (Q, C and T), or
    psi's negated root literal (F; the root itself may be a negative
    literal).  `fresh` builds a new solver over the same clauses."""

    def __init__(self, inst: AbductionInstance) -> None:
        psi = (inst.manifestation,) if inst.variant == "F" else ()
        enc = encode_cnf(inst.kb, (), inst.variables, psi)
        self.var_of = enc.var_of
        self.clauses = tuple(map(tuple, enc.clauses))
        self.num_vars = enc.num_vars
        if inst.variant == "F":
            self._negations = [[-enc.roots[0]]]
        else:
            self._negations = [[-v for v in self.assumption_ids(c)]
                               for c in inst.manifestation_clauses]
        self._kb = Solver(self.clauses, self.num_vars)

    def fresh(self) -> "ExplanationTest":
        """The same test on a newly built solver, for a re-check that
        shares no solver state with this one."""
        test = copy(self)
        test._kb = Solver(self.clauses, self.num_vars)
        return test

    def assumption_ids(self, literals: Iterable[Literal]) -> list[int]:
        out = []
        for l in literals:
            v = self.var_of.get(l.var)
            if v is None:
                raise InputError(
                    f"literal over a variable outside the instance: "
                    f"{l.var!r}")
            out.append(v if l.positive else -v)
        return out

    def kb_sat(self, assumed: list[int]) -> bool:
        """Gamma + the assumed literals is satisfiable."""
        return sat_solve(self._kb, assumptions=assumed).is_sat

    def entails(self, assumed: list[int]) -> bool:
        """Gamma + the assumed literals |= psi, by refutation."""
        return not any(sat_solve(self._kb, assumptions=assumed + n).is_sat
                       for n in self._negations)


def entails_manifestation(inst: AbductionInstance,
                          assumptions: Iterable[Literal],
                          test: ExplanationTest | None = None) -> bool:
    """Gamma + assumptions |= psi, on `test` (a fresh one when None)."""
    test = test if test is not None else ExplanationTest(inst)
    return test.entails(test.assumption_ids(assumptions))


def is_explanation(inst: AbductionInstance, e: Explanation,
                   test: ExplanationTest | None = None) -> bool:
    """Gamma and E consistent, and Gamma and E entail the manifestation;
    decided on `test` (a fresh one when None)."""
    _check_candidate(inst, e)
    test = test if test is not None else ExplanationTest(inst)
    return (test.kb_sat(test.assumption_ids(e.literals))
            and entails_manifestation(inst, e.literals, test))


# ---------------------------------------------------------------------------
# Canonical candidate order: hypothesis variables ascending; the candidate
# index is read as a binary counter with the first variable most significant
# and bit 0 mapping to the negative literal.  Every route passes its full
# explanations as these indices, in increasing order; `explanations_at` is
# the one place that builds them.

def explanations_at(hypotheses: Sequence[str],
                    indices: Iterable[int]) -> list[Explanation]:
    """The candidates at `indices` over `hypotheses`, in the same order."""
    pairs = [(Literal(v, False), Literal(v, True)) for v in hypotheses]
    shifts = range(len(pairs) - 1, -1, -1)
    return [Explanation(tuple(pair[index >> s & 1]
                              for pair, s in zip(pairs, shifts)))
            for index in indices]


def candidate_explanation(hypotheses: Sequence[str], index: int) -> Explanation:
    return explanations_at(hypotheses, (index,))[0]


def oracle_hits(inst: AbductionInstance) -> Iterator[int]:
    """The indices of the full explanations, by `explanation_hits` within
    the oracle's caps."""
    if len(inst.hypotheses) > ORACLE_MAX_HYP:
        raise ResourceBudgetError(
            f"oracle limited to {ORACLE_MAX_HYP} hypotheses, "
            f"got {len(inst.hypotheses)}")
    if len(inst.variables) > ORACLE_MAX_VARS:
        raise ResourceBudgetError(
            f"oracle limited to {ORACLE_MAX_VARS} variables, "
            f"got {len(inst.variables)}")
    return explanation_hits(inst, None, "oracle")


def first_hit(inst: AbductionInstance, indices: Iterable[int],
              method: str) -> SolveOutcome:
    """A solve outcome from a scan's hit indices: the first one, which the
    scan's test has checked, or none after every candidate."""
    for index in indices:
        e = candidate_explanation(inst.hypotheses, index)
        return SolveOutcome(True, e, method, certificate_checked=True,
                            candidates_tried=index + 1)
    return SolveOutcome(False, None, method,
                        candidates_tried=1 << len(inst.hypotheses))


def explanation_hits(inst: AbductionInstance, budget: int | None,
                     scan: str, test: ExplanationTest | None = None
                     ) -> Iterator[int]:
    """The index of every full explanation, in canonical order: the
    candidate scan.  Every candidate is decided on one `ExplanationTest`
    (`test`, or a fresh one) by the same two questions as `is_explanation`,
    asked as assumption ids read from the index bits; a full candidate over
    the hypotheses is valid by construction.  Reaching candidate `budget`
    raises ResourceBudgetError, naming the `scan`."""
    test = test if test is not None else ExplanationTest(inst)
    hyp = inst.hypotheses
    n = len(hyp)
    bits = [(1 << (n - 1 - j), test.var_of[v]) for j, v in enumerate(hyp)]
    for index in range(1 << n):
        if budget is not None and index >= budget:
            raise ResourceBudgetError(
                f"{scan} scan budget {budget} candidates exceeded")
        assumed = [v if index & bit else -v for bit, v in bits]
        if test.kb_sat(assumed) and test.entails(assumed):
            yield index


def oracle_solve(inst: AbductionInstance) -> SolveOutcome:
    """Exhaustive scan over full candidates in canonical order.

    Sound and complete for existence because every explanation extends to a
    full one.
    """
    return first_hit(inst, oracle_hits(inst), "oracle")


def oracle_count_full(inst: AbductionInstance) -> int:
    return sum(1 for _ in oracle_hits(inst))


def oracle_enumerate(inst: AbductionInstance) -> list[Explanation]:
    """All full explanations, in canonical candidate order."""
    return explanations_at(inst.hypotheses, oracle_hits(inst))


# ---------------------------------------------------------------------------
# Constant elimination

def _is_const(phi: Formula, value: int) -> bool:
    if isinstance(phi, Const) and phi.value == value:
        return True
    return (isinstance(phi, App) and phi.fn.arity == 0
            and phi.fn.bits[0] == value)


def fresh_variable(inst: AbductionInstance, prefix: str) -> str:
    used = set(inst.variables)
    i = 1
    while f"{prefix}{i}" in used:
        i += 1
    return f"{prefix}{i}"


def eliminate_true(inst: AbductionInstance) -> AbductionInstance:
    """Replace every occurrence of the constant 1 by a fresh variable forced
    true by a unit formula.  Parsimonious: full-explanation sets are
    unchanged.  Instances without the constant are returned as-is."""
    if not any(_is_const(f, 1) for f in postorder(inst.formulas)):
        return inst
    tvar = Var(fresh_variable(inst, "_t"))

    def node(f: Formula, args: tuple[Formula, ...]) -> Formula:
        return App(f.fn, args) if args else tvar if _is_const(f, 1) else f

    out = inst.map_formulas(lambda phi: rebuild(phi, node))
    return replace(out, kb=out.kb + (tvar,))


def eliminate_false(inst: AbductionInstance) -> AbductionInstance:
    """Rewrite each KB formula phi to (phi[0/f] or f) with f a fresh
    hypothesis variable, using a representation of OR over the declared
    connectives.  Explanation existence is preserved (every explanation of
    the image must contain the negative literal on f).  Instances without
    the constant are returned as-is."""
    if inst.variant == "F":
        raise InputError("eliminate_false supports variants Q, C and T only")
    if not any(_is_const(f, 0) for f in postorder(inst.kb)):
        return inst
    from .errors import NoRepresentationError
    from .lattice import synthesize_representation
    # synthesize over the constant-0-free part so the representation cannot
    # smuggle the constant we are eliminating back in
    source = FunctionSet(f for f in inst.fns
                         if not (f.arity == 0 and f.bits[0] == 0))
    try:
        or_repr = synthesize_representation(source, OR)
    except NoRepresentationError:
        raise InputError(
            "eliminate_false requires a binary OR expressible over the "
            "declared connectives") from None
    f = fresh_variable(inst, "_f")
    fvar = Var(f)

    def node(g: Formula, args: tuple[Formula, ...]) -> Formula:
        return App(g.fn, args) if args else fvar if _is_const(g, 0) else g

    kb = tuple(substitute_map(or_repr, {"x1": rebuild(phi, node), "x2": fvar})
               for phi in inst.kb)
    return replace(inst, kb=kb,
                   hypotheses=inst.hypotheses + (f,))


# ---------------------------------------------------------------------------
# Instance files: `fn` lines, then `kb` lines, `hyp` lines and exactly one
# manifestation line (`query`, `clause`, `term` or `qformula`).

_VARIANT_OF_KEY = {"query": "Q", "clause": "C", "term": "T", "qformula": "F"}
_KEY_OF_VARIANT = {v: k for k, v in _VARIANT_OF_KEY.items()}


def parse_instance(text: str) -> AbductionInstance:
    fns_acc: list[TruthTable] = []
    kb: list[Formula] = []
    hyp: list[str] = []
    manifestation: Manifestation | None = None
    variant: str | None = None
    fns = FunctionSet([])
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()

        def bad(msg: str) -> None:
            raise InputError(f"instance line {lineno}: {msg}")

        if key == "fn":
            parts = rest.split()
            if len(parts) != 3:
                bad("expected `fn <name> <arity> <bitstring>`")
            name, arity_s, bits = parts
            if not arity_s.isdigit():
                bad(f"bad arity {arity_s!r}")
            fns_acc.append(TruthTable.from_bitstring(name, int(arity_s), bits))
            fns = FunctionSet(fns_acc)
        elif key == "kb":
            kb.append(parse_formula(rest, fns))
        elif key == "hyp":
            for name in rest.split():
                if not VAR_RE.fullmatch(name):
                    bad(f"bad variable name {name!r}")
                hyp.append(name)
        elif key in _VARIANT_OF_KEY:
            if variant is not None:
                bad("multiple manifestation lines")
            variant = _VARIANT_OF_KEY[key]
            if key == "query":
                if len(rest.split()) != 1:
                    bad("query takes exactly one literal")
                manifestation = parse_literal(rest)
            elif key in ("clause", "term"):
                lits = tuple(parse_literal(p) for p in rest.split())
                if not lits:
                    bad(f"{key} needs at least one literal")
                manifestation = lits
            else:
                manifestation = parse_formula(rest, fns)
        else:
            bad(f"unknown directive {key!r}")
    if variant is None or manifestation is None:
        raise InputError("instance has no manifestation line")
    inst = AbductionInstance(fns, tuple(kb), tuple(hyp), variant,
                             manifestation)
    overlap = _overlap_error(inst)
    if overlap:
        raise InputError(overlap)
    return inst


def serialize_instance(inst: AbductionInstance) -> str:
    lines = [f"fn {f.name} {f.arity} {f.bitstring()}" for f in inst.fns]
    lines += [f"kb {render_formula(phi)}" for phi in inst.kb]
    lines.append(("hyp " + " ".join(inst.hypotheses)).rstrip())
    lines.append(f"{_KEY_OF_VARIANT[inst.variant]} "
                 f"{inst.manifestation_text()}")
    return "\n".join(lines) + "\n"
