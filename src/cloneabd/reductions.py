"""Hardness reductions as certified instance generators.

Each generator builds the instance over a few helper connectives (or, and,
xor3, ...), balances chains into log-depth trees, compiles the helpers into
representations over the requested base (borrowing constants first and
eliminating them again via the constant-elimination transforms), and returns an
instance whose defining equivalence is checkable against the brute-force
oracle at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from .abduction import (AbductionInstance, eliminate_false, eliminate_true)
from .errors import CloneMismatchError, InputError
from .formula import (App, Formula, Literal, Var, balanced_tree, free_vars,
                      postorder, replace_connectives)
from .lattice import (CloneId, clone_leq, identify_clone,
                      synthesize_representation)
from .truthtable import (AND, CONST0, CONST1, IMPLIES, NOT, OR, OR_AND,
                         XOR3, FunctionSet)

_L2 = CloneId("L2")
_V2 = CloneId("V2")
_M = CloneId("M")
_BF = CloneId("BF")
_LOWER_M = (CloneId("S00"), CloneId("S10"), CloneId("D2"))


# ---------------------------------------------------------------------------
# Source-problem types

@dataclass(frozen=True)
class LinearSystem:
    """Equations x_{i1} xor ... xor x_{ik} = c over variables x1..xn."""

    num_vars: int
    equations: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if not self.equations:
            raise InputError("empty linear system (trivially solvable)")
        for indices, c in self.equations:
            if not indices:
                raise InputError("equation with no variables")
            if c not in (0, 1):
                raise InputError("equation constant must be 0 or 1")
            if any(not 1 <= i <= self.num_vars for i in indices):
                raise InputError("equation variable index out of range")


def _at(lines: tuple[int, ...], index: int) -> str:
    """`line N: ` naming the source line of clause or term `index`, or
    nothing for a formula that was not read from a file."""
    return f"line {lines[index]}: " if lines else ""


@dataclass(frozen=True)
class CnfFormula:
    clauses: tuple[tuple[Literal, ...], ...]
    # the source line of each clause, when read by `parse_cnf`
    lines: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.clauses:
            raise InputError("empty CNF")
        if any(not c for c in self.clauses):
            raise InputError("empty clause in CNF")

    @property
    def variables(self) -> list[str]:
        return sorted({l.var for c in self.clauses for l in c})


@dataclass(frozen=True)
class DnfFormula:
    terms: tuple[tuple[Literal, ...], ...]
    # the source line of each term, when read by `parse_qbf`
    lines: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise InputError("empty DNF")
        for i, t in enumerate(self.terms):
            if not t:
                raise InputError(_at(self.lines, i) + "empty term in DNF")

    @property
    def variables(self) -> list[str]:
        return sorted({l.var for t in self.terms for l in t})


@dataclass(frozen=True)
class Qbf2Instance:
    """Closed formula: exists x1..xn forall y1..ym, matrix a DNF over
    variables named x1..xn and y1..ym."""

    num_exists: int
    num_forall: int
    matrix: DnfFormula

    def __post_init__(self) -> None:
        if self.num_exists < 1:
            raise InputError("need at least one existential variable")
        allowed = ({f"x{i}" for i in range(1, self.num_exists + 1)}
                   | {f"y{j}" for j in range(1, self.num_forall + 1)})
        loose = set(self.matrix.variables) - allowed
        if loose:
            raise InputError(
                f"matrix variables outside the quantifier prefix: "
                f"{', '.join(sorted(loose))}")


# ---------------------------------------------------------------------------
# Helper-to-base compilation

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CloneMismatchError(msg)


def compile_instance(inst: AbductionInstance, base: FunctionSet,
                     use_const0: bool, use_const1: bool,
                     budget: int = 200000) -> AbductionInstance:
    """Replace helper connectives by representations over the base, possibly
    borrowing constants that are then eliminated again (false before true,
    since OR only needs to be expressible once TRUE is available)."""
    names = {f.name for f in base}
    extra = []
    if use_const0 and "const0" not in names:
        extra.append(CONST0)
    if use_const1 and "const1" not in names:
        extra.append(CONST1)
    ext = base.extended(*extra)

    helpers = {f.fn.name: f.fn for f in postorder(inst.formulas)
               if isinstance(f, App)}
    repr_map = {name: synthesize_representation(ext, fn, budget)
                for name, fn in sorted(helpers.items())}

    out = replace(inst.map_formulas(
        lambda phi: replace_connectives(phi, repr_map)), fns=ext)
    if use_const0:
        out = eliminate_false(out)
    return replace(eliminate_true(out), fns=base)


def _or_tree(operands: list[Formula]) -> Formula:
    return balanced_tree(OR, operands)


def _and_tree(operands: list[Formula]) -> Formula:
    return balanced_tree(AND, operands)


# ---------------------------------------------------------------------------
# Generators

def from_linear_system(system: LinearSystem,
                       base: FunctionSet) -> AbductionInstance:
    """Affine-case hardness construction: the system has NO solution iff the
    generated instance (with empty hypothesis set) has an explanation."""
    _require(clone_leq(_L2, identify_clone(base)),
             "linear-system reduction needs a base generating at least L2")
    q = "_q0"
    kb = []
    for indices, c in system.equations:
        # repeated indices cancel over GF(2)
        counts: dict[int, int] = {}
        for i in indices:
            counts[i] = counts.get(i, 0) + 1
        leaves: list[Formula] = [Var(f"x{i}") for i in sorted(counts)
                                 if counts[i] % 2 == 1]
        constant_ones = 1 if c == 0 else 0
        if (len(leaves) + constant_ones) & 1 == 0:
            leaves.append(Var(q))  # formulas must hold under all-ones
        leaves.extend([App(CONST1, ())] * constant_ones)
        assert len(leaves) % 2 == 1, "ternary xor tree needs odd leaf count"
        kb.append(balanced_tree(XOR3, leaves))
    helper_inst = AbductionInstance(FunctionSet([XOR3, CONST1]), tuple(kb),
                                    (), "Q", Literal(q, True))
    return compile_instance(helper_inst, base, use_const0=False,
                            use_const1=True)


def from_two_in_three_sat(phi: CnfFormula,
                          base: FunctionSet) -> AbductionInstance:
    """Monotone-case construction: some assignment satisfies exactly two
    atoms of every clause iff the instance has an explanation."""
    clone = identify_clone(base)
    _require(any(clone_leq(low, clone) for low in _LOWER_M)
             and clone_leq(clone, _M),
             "2-in-3 reduction needs S00, S10 or D2 below [B] within M")
    for i, c in enumerate(phi.clauses):
        if len(c) != 3 or any(not l.positive for l in c):
            raise InputError(_at(phi.lines, i)
                             + "clauses must hold exactly three positive atoms")
        if len({l.var for l in c}) != 3:
            raise InputError(_at(phi.lines, i)
                             + "clause atoms must be pairwise distinct")
    q = "_q0"
    kb: list[Formula] = []
    qis = []
    big: list[Formula] = []
    for idx, c in enumerate(phi.clauses, start=1):
        x1, x2, x3 = (Var(l.var) for l in c)
        qi = Var(f"_q{idx}")
        qis.append(qi)
        kb.append(_or_tree([x1, x2, x3]))
        kb.append(_or_tree([x1, x2, qi]))
        kb.append(_or_tree([x1, x3, qi]))
        kb.append(_or_tree([x2, x3, qi]))
        big.append(_and_tree([x1, x2, x3]))
    kb.append(_or_tree(big + qis + [Var(q)]))
    hyp = tuple(phi.variables) + tuple(v.name for v in qis)
    helper_inst = AbductionInstance(FunctionSet([OR, AND]), tuple(kb), hyp,
                                    "Q", Literal(q, True))
    return compile_instance(helper_inst, base, use_const0=True,
                            use_const1=True)


def from_three_sat_term(phi: CnfFormula,
                        base: FunctionSet) -> AbductionInstance:
    """Term-variant construction: the CNF is satisfiable iff the instance
    has an explanation."""
    _require(clone_leq(_V2, identify_clone(base)),
             "3-SAT term reduction needs a base generating at least V2")
    variables = phi.variables
    primed = {v: f"_p{i}" for i, v in enumerate(variables, start=1)}
    qvars = {v: f"_q{i}" for i, v in enumerate(variables, start=1)}
    kb: list[Formula] = []
    for i, c in enumerate(phi.clauses):
        if len(c) > 3:
            raise InputError(_at(phi.lines, i)
                             + "clauses must have width at most 3")
        kb.append(_or_tree(
            [Var(l.var if l.positive else primed[l.var]) for l in c]))
    for v in variables:
        kb.append(_or_tree([Var(v), Var(primed[v])]))
        kb.append(_or_tree([Var(v), Var(qvars[v])]))
        kb.append(_or_tree([Var(primed[v]), Var(qvars[v])]))
    hyp = tuple(variables) + tuple(primed[v] for v in variables)
    term = tuple(Literal(qvars[v], True) for v in variables)
    helper_inst = AbductionInstance(FunctionSet([OR]), tuple(kb), hyp, "T",
                                    term)
    return compile_instance(helper_inst, base, use_const0=False,
                            use_const1=False)


def from_qsat2_formula(chi: Qbf2Instance,
                       base: FunctionSet) -> AbductionInstance:
    """Formula-variant construction: the two-level quantified formula is
    true iff the instance has an explanation."""
    clone = identify_clone(base)
    _require(any(clone_leq(low, clone) for low in _LOWER_M),
             "QSAT2 reduction needs S00, S10 or D2 below [B]")
    for i, t in enumerate(chi.matrix.terms):
        if len(t) > 3:
            raise InputError(_at(chi.matrix.lines, i)
                             + "matrix must be in 3-DNF")
    n, m = chi.num_exists, chi.num_forall
    q = "_q0"
    xp = {f"x{i}": f"_px{i}" for i in range(1, n + 1)}
    yp = {f"y{j}": f"_py{j}" for j in range(1, m + 1)}
    primed = {**xp, **yp}
    kb: list[Formula] = []
    # negation normal form of the negated matrix: one clause per term,
    # negative literals renamed to primed propositions
    for t in chi.matrix.terms:
        clause = [Var(primed[l.var] if l.positive else l.var) for l in t]
        kb.append(_or_tree(clause + [Var(q)]))
    for v, pv in primed.items():
        kb.append(_or_tree([Var(v), Var(pv)]))
    for i in range(1, n + 1):
        fi, ti = Var(f"_f{i}"), Var(f"_t{i}")
        kb.append(_or_tree([fi, Var(f"x{i}")]))
        kb.append(_or_tree([ti, Var(xp[f"x{i}"])]))
        kb.append(_or_tree([fi, ti]))
    hyp = tuple(f"_t{i}" for i in range(1, n + 1)) + tuple(
        f"_f{i}" for i in range(1, n + 1))
    psi_parts = [App(OR_AND, (Var(q), Var(v), Var(pv)))
                 for v, pv in sorted(primed.items())]
    psi = _or_tree(psi_parts)
    helper_inst = AbductionInstance(FunctionSet([OR, OR_AND]), tuple(kb),
                                    hyp, "F", psi)
    return compile_instance(helper_inst, base, use_const0=False,
                            use_const1=True)


def _dnf_formula(phi: DnfFormula) -> Formula:
    terms = []
    for t in phi.terms:
        lits = [Var(l.var) if l.positive else App(NOT, (Var(l.var),))
                for l in t]
        terms.append(_and_tree(lits))
    return _or_tree(terms)


def from_pi1_count(psi: Qbf2Instance, base: FunctionSet) -> AbductionInstance:
    """Parsimonious counting construction: the number of assignments to the
    existential variables making the universally quantified DNF true equals
    the number of full explanations."""
    names = {f.name for f in base}
    ext = base.extended(*[c for c in (CONST0, CONST1)
                          if c.name not in names])
    _require(identify_clone(ext) == _BF,
             "parsimonious counting reduction needs [B + constants] = BF")
    n = psi.num_exists
    q, t = "_q0", "_t0"
    xp = {f"x{i}": f"_p{i}" for i in range(1, n + 1)}
    rvars = {f"x{i}": f"_r{i}" for i in range(1, n + 1)}
    kb: list[Formula] = []
    for v in sorted(xp):
        kb.append(App(IMPLIES, (Var(v), Var(rvars[v]))))
        kb.append(App(IMPLIES, (Var(xp[v]), Var(rvars[v]))))
        kb.append(_or_tree([App(NOT, (Var(v),)), App(NOT, (Var(xp[v]),))]))
    kb.append(App(IMPLIES, (_dnf_formula(psi.matrix), Var(t))))
    kb.append(App(IMPLIES,
                  (_and_tree([Var(rvars[v]) for v in sorted(rvars)]
                             + [Var(t)]),
                   Var(q))))
    hyp = tuple(sorted(xp)) + tuple(sorted(xp[v] for v in xp))
    helper_inst = AbductionInstance(
        FunctionSet([OR, AND, NOT, IMPLIES]), tuple(kb), hyp, "Q",
        Literal(q, True))
    return compile_instance(helper_inst, base, use_const0=True,
                            use_const1=True)


def from_pos2sat_count(phi: CnfFormula,
                       base: FunctionSet,
                       num_vars: int | None = None
                       ) -> tuple[AbductionInstance, int]:
    """Counting construction for positive 2-CNF: the CNF's model count over
    x1..xn equals 2^n minus the instance's full-explanation count."""
    _require(clone_leq(_V2, identify_clone(base)),
             "positive-2-SAT counting reduction needs OR in [B]")
    for i, c in enumerate(phi.clauses):
        if len(c) != 2 or any(not l.positive for l in c):
            raise InputError(_at(phi.lines, i)
                             + "clauses must hold exactly two positive atoms")
    indices = []
    for v in phi.variables:
        if not (v.startswith("x") and v[1:].isdigit() and int(v[1:]) >= 1):
            raise InputError("variables must be named x1..xn")
        indices.append(int(v[1:]))
    n = num_vars if num_vars is not None else max(indices)
    if any(i > n for i in indices):
        raise InputError("clause variables outside x1..xn")
    q = "_q0"
    kb = [_or_tree([Var(a.var), Var(b.var), Var(q)])
          for a, b in phi.clauses]
    hyp = tuple(f"x{i}" for i in range(1, n + 1))
    helper_inst = AbductionInstance(FunctionSet([OR]), tuple(kb), hyp, "Q",
                                    Literal(q, True))
    return (compile_instance(helper_inst, base, use_const0=False,
                             use_const1=False), n)


def gen_random_instance(seed: int, base: FunctionSet, num_vars: int = 4,
                        num_formulas: int = 3, num_hyp: int = 2,
                        variant: str = "Q", depth: int = 2,
                        allow_constants: bool = False) -> AbductionInstance:
    """Deterministic random instance over the given base; used as a test
    harness.  The hypothesis variables and the manifestation variable are
    forced to occur in the knowledge base."""
    if num_hyp + 1 > num_vars:
        raise InputError("need at least one non-hypothesis variable")
    rng = random.Random(seed)
    variables = [f"v{i}" for i in range(1, num_vars + 1)]
    hyp = variables[:num_hyp]
    mpool = variables[num_hyp:]
    apps = [f for f in base if f.arity > 0]
    if not apps:
        raise InputError("base needs a connective of positive arity")

    def tree(d: int) -> Formula:
        if d == 0 or rng.random() < 0.2:
            if allow_constants and rng.random() < 0.15:
                return App(CONST1 if rng.random() < 0.5 else CONST0, ())
            return Var(rng.choice(variables))
        f = rng.choice(apps)
        # recurses at most `depth` deep
        return App(f, tuple(tree(d - 1) for _ in range(f.arity)))

    kb = [tree(depth) for _ in range(num_formulas)]

    if variant == "Q":
        manifestation: Formula | Literal | tuple = Literal(
            rng.choice(mpool), rng.random() < 0.8)
        mnames = [manifestation.var]
    elif variant in ("C", "T"):
        chosen = rng.sample(mpool, rng.randint(1, min(2, len(mpool))))
        manifestation = tuple(Literal(v, rng.random() < 0.8) for v in chosen)
        mnames = [l.var for l in manifestation]
    else:
        f = rng.choice(apps)
        manifestation = App(f, tuple(Var(rng.choice(mpool))
                                     for _ in range(f.arity)))
        mnames = free_vars(manifestation)

    # force hypothesis and manifestation variables into the knowledge base
    covered = set(free_vars(kb))
    for v in hyp + mnames:
        if v not in covered:
            kb.append(Var(v))
    return AbductionInstance(base, tuple(kb), tuple(hyp), variant,
                             manifestation)


# ---------------------------------------------------------------------------
# Ground-truth evaluation of source problems (enumeration at desk scale)

def linear_system_solvable(system: LinearSystem) -> bool:
    n = system.num_vars
    for bits in range(1 << n):
        ok = True
        for indices, c in system.equations:
            total = sum((bits >> (i - 1)) & 1 for i in indices) & 1
            if total != c:
                ok = False
                break
        if ok:
            return True
    return False


def _assignments(variables: list[str]):
    for bits in range(1 << len(variables)):
        yield {v: (bits >> j) & 1 for j, v in enumerate(variables)}


def _clause_value(clause: tuple[Literal, ...], sigma: dict[str, int]) -> int:
    return 1 if any(sigma[l.var] == (1 if l.positive else 0)
                    for l in clause) else 0


def cnf_satisfiable(phi: CnfFormula) -> bool:
    return any(all(_clause_value(c, sigma) for c in phi.clauses)
               for sigma in _assignments(phi.variables))


def cnf_model_count(phi: CnfFormula, variables: list[str]) -> int:
    return sum(1 for sigma in _assignments(variables)
               if all(_clause_value(c, sigma) for c in phi.clauses))


def exactly_two_satisfiable(phi: CnfFormula) -> bool:
    """Ground truth for the 2-in-3 construction: an assignment making
    exactly two atoms of every clause true."""
    return any(
        all(sum(sigma[l.var] for l in c) == 2 for c in phi.clauses)
        for sigma in _assignments(phi.variables))


def _dnf_value(phi: DnfFormula, sigma: dict[str, int]) -> int:
    return 1 if any(all(sigma[l.var] == (1 if l.positive else 0) for l in t)
                    for t in phi.terms) else 0


def qbf_models(chi: Qbf2Instance) -> int:
    """Number of existential assignments under which the matrix holds for
    every universal assignment."""
    xs = [f"x{i}" for i in range(1, chi.num_exists + 1)]
    ys = [f"y{j}" for j in range(1, chi.num_forall + 1)]
    count = 0
    for sx in _assignments(xs):
        if all(_dnf_value(chi.matrix, {**sx, **sy})
               for sy in _assignments(ys)):
            count += 1
    return count


def qbf_true(chi: Qbf2Instance) -> bool:
    return qbf_models(chi) > 0


# ---------------------------------------------------------------------------
# Source-problem file formats

def _source_lines(text: str, comments: tuple[str, ...] = ("#",)
                  ) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith(comments):
            yield lineno, line.split()


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InputError(f"line {lineno}: expected integers, got "
                         f"{' '.join(tokens)!r}") from None


def _count(parts: list[str], lineno: int) -> int:
    """The n >= 0 of a `directive n` header line."""
    counts = _ints(parts[1:], lineno)
    if len(counts) != 1 or counts[0] < 0:
        raise InputError(f"line {lineno}: expected `{parts[0]} n`")
    return counts[0]


def parse_linear_system(text: str) -> LinearSystem:
    """Lines `eq i1 i2 ... = c`, optional `vars n` header."""
    num_vars = 0
    declared = False
    equations = []
    for lineno, parts in _source_lines(text):
        if parts[0] == "vars":
            num_vars = _count(parts, lineno)
            declared = True
        elif parts[0] == "eq":
            if "=" not in parts or parts.index("=") != len(parts) - 2:
                raise InputError(f"line {lineno}: missing `= c`")
            *indices, c = _ints(parts[1:-2] + parts[-1:], lineno)
            if declared and any(i > num_vars for i in indices):
                raise InputError(
                    f"line {lineno}: variable index exceeds declared count")
            equations.append((tuple(indices), c))
            num_vars = max([num_vars] + indices)
        else:
            raise InputError(f"line {lineno}: unknown directive {parts[0]!r}")
    return LinearSystem(num_vars, tuple(equations))


def parse_cnf(text: str) -> CnfFormula:
    """One clause per line, integer literals (1 -2 3 means x1 or not x2 or
    x3); `c` lines are comments."""
    clauses = []
    lines = []
    for lineno, parts in _source_lines(text, ("c", "#")):
        values = _ints(parts, lineno)
        if 0 in values:
            raise InputError(f"line {lineno}: literal 0 is reserved")
        clauses.append(tuple(Literal(f"x{abs(v)}", v > 0) for v in values))
        lines.append(lineno)
    return CnfFormula(tuple(clauses), tuple(lines))


def parse_qbf(text: str) -> Qbf2Instance:
    """`exists n` and `forall m` headers, then one `dnf` term per line with
    integer literals: 1..n are x-variables, n+1..n+m are y-variables."""
    num_exists = num_forall = None
    raw_terms: list[tuple[int, list[int]]] = []
    for lineno, parts in _source_lines(text):
        if parts[0] == "exists":
            num_exists = _count(parts, lineno)
        elif parts[0] == "forall":
            num_forall = _count(parts, lineno)
        elif parts[0] == "dnf":
            values = _ints(parts[1:], lineno)
            if 0 in values:
                raise InputError(f"line {lineno}: literal 0 is reserved")
            raw_terms.append((lineno, values))
        else:
            raise InputError(f"line {lineno}: unknown directive {parts[0]!r}")
    if num_exists is None or num_forall is None:
        raise InputError("missing `exists`/`forall` header")
    terms = []
    for lineno, t in raw_terms:
        lits = []
        for value in t:
            index = abs(value)
            if 1 <= index <= num_exists:
                name = f"x{index}"
            elif index <= num_exists + num_forall:
                name = f"y{index - num_exists}"
            else:
                raise InputError(f"line {lineno}: literal {value} outside "
                                 f"quantifier range")
            lits.append(Literal(name, value > 0))
        terms.append(tuple(lits))
    lines = tuple(lineno for lineno, _ in raw_terms)
    return Qbf2Instance(num_exists, num_forall,
                        DnfFormula(tuple(terms), lines))
