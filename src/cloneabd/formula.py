"""Formula ASTs over a declared connective set: parsing, printing,
evaluation, substitution, balanced-tree rewriting, connective replacement and
CNF gate encoding (each gate by the prime implicates of its table; negation
as literal polarity, and asserted roots without a gate variable).

Concrete syntax is s-expressions: ``formula := var | '0' | '1' |
'(' fname formula+ ')'``.  Variables match ``[a-zA-Z_][a-zA-Z0-9_']*``.
Parsing uses an explicit stack and every walk is a loop over `postorder`,
so nesting depth is bounded by memory, not by the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import InputError
from .truthtable import (FunctionSet, TruthTable, compose, mask_to_table,
                         projection_mask, row_index)

VAR_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class App:
    fn: TruthTable
    args: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.fn.arity:
            raise InputError(
                f"connective {self.fn.name!r} expects {self.fn.arity} "
                f"arguments, got {len(self.args)}")


Formula = Union[Var, Const, App]


@dataclass(frozen=True)
class Literal:
    var: str
    positive: bool

    def negated(self) -> "Literal":
        return Literal(self.var, not self.positive)

    def __str__(self) -> str:
        return self.var if self.positive else "!" + self.var


def parse_literal(text: str) -> Literal:
    positive = True
    if text.startswith("!"):
        positive = False
        text = text[1:]
    if not VAR_RE.fullmatch(text):
        raise InputError(f"bad literal syntax: {text!r}")
    return Literal(text, positive)


# ---------------------------------------------------------------------------
# Parsing / printing

_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, position) pairs: each parenthesis, and each maximal run of
    other characters that holds no whitespace."""
    return [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]


def parse_formula(text: str, fns: FunctionSet) -> Formula:
    """One formula, read left to right with an explicit stack of the open
    applications, so nesting depth is bounded by memory only."""
    tokens = _tokenize(text)

    def fail(msg: str, at: int) -> None:
        raise InputError(f"parse error at position {at}: {msg}")

    done: list[Formula] = []
    args = done
    # per open application: its table, the position of its '(' and its
    # arguments so far
    frames: list[tuple[TruthTable, int, list[Formula]]] = []
    pos = 0
    while pos < len(tokens):
        tok, at = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                fail("expected connective name", at)
            name, nat = tokens[pos]
            pos += 1
            if name in "()":
                fail("expected connective name", nat)
            if name not in fns:
                fail(f"unknown connective {name!r}", nat)
            args = []
            frames.append((fns.get(name), at, args))
            continue
        if tok == ")":
            if not frames:
                fail("unexpected ')'", at)
            fn, start, children = frames.pop()
            if len(children) != fn.arity:
                fail(f"connective {fn.name!r} expects {fn.arity} arguments, "
                     f"got {len(children)}", start)
            node: Formula = App(fn, tuple(children))
            args = frames[-1][2] if frames else done
        elif tok in ("0", "1"):
            node = Const(int(tok))
        elif VAR_RE.fullmatch(tok):
            node = Var(tok)
        else:
            fail(f"bad variable name {tok!r}", at)
        args.append(node)
        if not frames:
            break
    if frames:
        fail("missing ')'", len(text))
    if not done:
        fail("unexpected end of input", len(text))
    if pos != len(tokens):
        fail("trailing input", tokens[pos][1])
    return done[0]


def postorder(phi: Formula | Iterable[Formula]) -> list[Formula]:
    """The nodes of a formula, or of each formula of an iterable in turn,
    children before parents and left to right, so each formula's root
    comes last.  Every walk over formulas reads this list, with a stack of
    the values of the nodes not yet consumed, and none recurses."""
    stack = [phi] if isinstance(phi, (Var, Const, App)) else list(phi)
    out = []
    while stack:
        f = stack.pop()
        out.append(f)
        if isinstance(f, App):
            stack.extend(f.args)
    out.reverse()  # it was popped root first and right to left
    return out


def render_formula(phi: Formula) -> str:
    """phi as an s-expression, its tokens written once each in preorder
    from an explicit stack: linear in the size of phi at any depth."""
    out: list[str] = []
    stack: list[Formula | str] = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            out.append(f)
        elif isinstance(f, App):
            out.append("(" + f.fn.name)
            stack.append(")")
            for arg in reversed(f.args):
                stack += (arg, " ")
        else:
            out.append(f.name if isinstance(f, Var) else str(f.value))
    return "".join(out)


def rebuild(phi: Formula,
            node: Callable[[Formula, tuple[Formula, ...]], Formula]
            ) -> Formula:
    """phi rebuilt bottom-up: each node f becomes node(f, args), with args
    the rebuilt arguments of f (empty for a variable or a constant)."""
    stack: list[Formula] = []
    for f in postorder(phi):
        if isinstance(f, App) and f.args:
            cut = len(stack) - f.fn.arity
            stack[cut:] = [node(f, tuple(stack[cut:]))]
        else:
            stack.append(node(f, ()))
    return stack[0]


# ---------------------------------------------------------------------------
# Semantics

def eval_formula(phi: Formula, sigma: Mapping[str, int]) -> int:
    return formula_mask(phi, {v: b & 1 for v, b in sigma.items()}, 0)


def substitute_map(phi: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace variables by formulas."""
    return rebuild(phi, lambda f, args: App(f.fn, args) if args else
                   mapping.get(f.name, f) if isinstance(f, Var) else f)


def free_vars(phi: Formula | Iterable[Formula]) -> list[str]:
    """Sorted variable names of a formula or an iterable of formulas."""
    return sorted({f.name for f in postorder(phi) if isinstance(f, Var)})


def formula_mask(phi: Formula, masks: Mapping[str, int], m: int) -> int:
    """The arity-m table (an int mask, row i in bit i) of a formula whose
    variables are given as arity-m tables: every row evaluated at once,
    one `compose` per connective."""
    values: list[int] = []
    for f in postorder(phi):
        if isinstance(f, App):
            cut = len(values) - f.fn.arity
            values[cut:] = [compose(f.fn, values[cut:], m)]
        elif isinstance(f, Var):
            if f.name not in masks:
                raise InputError(f"unassigned variable {f.name!r}")
            values.append(masks[f.name])
        else:
            values.append((1 << (1 << m)) - 1 if f.value else 0)
    return values[0]


def table_of(phi: Formula, variables: Sequence[str] | None = None) -> TruthTable:
    """Truth table of a formula over the given (sorted) variable list."""
    if variables is None:
        variables = free_vars(phi)
    n = len(variables)
    masks = {v: projection_mask(j, n) for j, v in enumerate(variables)}
    return mask_to_table(formula_mask(phi, masks, n), n, "anon")


# ---------------------------------------------------------------------------
# Balanced trees and connective replacement

def _check_associative(op: TruthTable) -> None:
    k = op.arity
    if k not in (2, 3):
        raise InputError(
            f"balanced trees support arity 2 or 3, not {k} ({op.name!r})")
    if not _regroups(k, op.bits):
        if k == 2:
            raise InputError(f"connective {op.name!r} is not associative")
        raise InputError(
            f"connective {op.name!r} does not regroup associatively")


@cache
def _regroups(arity: int, bits: tuple[int, ...]) -> bool:
    """Whether a binary table is associative, op(op(x,y),z) ==
    op(x,op(y,z)), or a ternary one regroups, op(op(a,b,c),d,e) ==
    op(a,b,op(c,d,e)); decided once per table, whatever its name."""
    def op(*args: int) -> int:
        return bits[row_index(args)]

    if arity == 2:
        return all(op(op(x, y), z) == op(x, op(y, z))
                   for x, y, z in product((0, 1), repeat=3))
    return all(op(op(a, b, c), d, e) == op(a, b, op(c, d, e))
               for a, b, c, d, e in product((0, 1), repeat=5))


def _split_sizes(n: int, k: int) -> list[int]:
    """Split n leaves into k parts, each congruent to 1 mod (k-1), balanced."""
    sizes = [1] * k
    rest = n - k
    step = k - 1
    i = 0
    while rest > 0:
        sizes[i % k] += step
        rest -= step
        i += 1
    return sizes


def balanced_tree(op: TruthTable, operands: Sequence[Formula]) -> Formula:
    """Combine operands under an associative op into a log-depth tree,
    equivalent to the left-nested chain.  A k-ary tree needs 1 mod (k-1)
    operands."""
    if not operands:
        raise InputError("balanced_tree needs at least one operand")
    _check_associative(op)
    k = op.arity
    ops = list(operands)
    if len(ops) > 1 and (len(ops) - 1) % (k - 1) != 0:
        raise InputError(
            f"{len(ops)} operands cannot fill a {k}-ary tree without padding")

    def build(chunk: list[Formula]) -> Formula:
        # recurses log_k(len(ops)) deep: every part is at most half a chunk
        if len(chunk) == 1:
            return chunk[0]
        parts = []
        start = 0
        for size in _split_sizes(len(chunk), k):
            parts.append(build(chunk[start:start + size]))
            start += size
        return App(op, tuple(parts))

    return build(ops)


def replace_connectives(phi: Formula,
                        repr_map: Mapping[str, Formula]) -> Formula:
    """Rewrite every connective by its template formula (over x1..xk).

    Templates typically come from representation synthesis.  Callers should
    balance chains first, since template substitution multiplies the size
    of a deep formula.
    """
    def node(f: Formula, args: tuple[Formula, ...]) -> Formula:
        if not isinstance(f, App):
            return f
        if f.fn.name not in repr_map:
            raise InputError(
                f"no replacement template for connective {f.fn.name!r}")
        return substitute_map(repr_map[f.fn.name],
                              {f"x{i + 1}": arg for i, arg in enumerate(args)})

    return rebuild(phi, node)


# ---------------------------------------------------------------------------
# CNF gate encoding

# the literal tables, identity and negation, and the polarity of each
_POLARITY = {(0, 1): 1, (1, 0): -1}


@dataclass
class CnfEncoding:
    clauses: list[list[int]]
    var_of: dict[str, int]
    num_vars: int
    # the literals equivalent to the formulas defined but not asserted
    roots: list[int] = field(default_factory=list)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def lit(self, literal: Literal) -> int:
        v = self.var_of.get(literal.var)
        if v is None:
            v = self.new_var()
            self.var_of[literal.var] = v
        return v if literal.positive else -v

    def gate(self, phi: Formula) -> int:
        """Appends the definitions of phi's gates and returns a CNF literal
        equivalent to phi; nothing asserts it.  Identity and negation fold
        into their child's literal."""
        lits: list[int] = []
        for f in postorder(phi):
            if isinstance(f, Var):
                lits.append(self.var_of.get(f.name)
                            or self.lit(Literal(f.name, True)))
            elif isinstance(f, Const):
                g = self.new_var()
                self.clauses.append([g if f.value else -g])
                lits.append(g)
            elif f.fn.bits in _POLARITY:
                lits[-1] *= _POLARITY[f.fn.bits]
            else:
                cut = len(lits) - f.fn.arity
                children = lits[cut:]
                g = self.new_var()
                lits[cut:] = [g]
                self.emit(gate_implicates(f.fn.arity, f.fn.bits),
                          children + [g])
        return lits[0]

    def assert_formula(self, phi: Formula) -> None:
        """Appends clauses that hold exactly where phi does; a root
        connective's gate is fixed to the root's polarity."""
        sign = 1
        while isinstance(phi, App) and phi.fn.bits in _POLARITY:
            sign, phi = sign * _POLARITY[phi.fn.bits], phi.args[0]
        if isinstance(phi, App) and phi.args:
            self.emit(gate_implicates(phi.fn.arity, phi.fn.bits, sign),
                      [self.gate(a) for a in phi.args])
        else:
            self.clauses.append([sign * self.gate(phi)])

    def emit(self, clauses: Iterable[Sequence[int]],
             lits: Sequence[int]) -> None:
        """Appends position clauses, position j+1 read as lits[j]."""
        for clause in clauses:
            self.clauses.append([lits[e - 1] if e > 0 else -lits[-e - 1]
                                 for e in clause])


@cache
def gate_implicates(arity: int, bits: tuple[int, ...],
                    sign: int = 0) -> tuple[tuple[int, ...], ...]:
    """The prime implicates of g <-> f(c1..ck) for the table `bits`, as
    clauses over positions: literal +-(j+1) is child j for j < k and +-(k+1)
    is the gate g.  Shortest clauses first, then in enumeration order.
    With sign 1 or -1, g is fixed true or false: the clauses g satisfies
    are dropped, and g leaves the rest.

    Points are the 2^(k+1) assignments with g least significant, so
    `projection_mask` gives each position's points.  A clause is an
    implicate iff its falsifying cube holds no model, and prime iff freeing
    any one fixed position of that cube lets a model in.
    """
    if sign:  # recurses one level, with sign 0
        g = (arity + 1) * sign
        return tuple(tuple(e for e in clause if e != -g)
                     for clause in gate_implicates(arity, bits)
                     if g not in clause)
    width = arity + 1
    models = sum(1 << (2 * row + out) for row, out in enumerate(bits))
    every = (1 << (1 << width)) - 1
    # the points where position j is 0, and where it is 1
    sides = [(every ^ mask, mask)
             for mask in (projection_mask(j, width) for j in range(width))]
    # cube: per position None (free), 0 or 1, the values that falsify
    empty = {}  # insertion-ordered, so the clause order is deterministic
    for cube in product((None, 0, 1), repeat=width):
        points = every
        for side, value in zip(sides, cube):
            if value is not None:
                points &= side[value]
        if not points & models:
            empty[cube] = None
    prime = []
    for cube in empty:
        fixed = [j for j, value in enumerate(cube) if value is not None]
        if not any(cube[:j] + (None,) + cube[j + 1:] in empty
                   for j in fixed):
            prime.append(tuple(-(j + 1) if cube[j] else j + 1
                               for j in fixed))
    return tuple(sorted(prime, key=len))


def encode_cnf(formulas: Iterable[Formula],
               assumptions: Iterable[Literal] = (),
               variables: Iterable[str] = (),
               define: Iterable[Formula] = ()) -> CnfEncoding:
    """Tseitin-style gate encoding of a conjunction of formulas plus
    assumption literals.

    One fresh variable per internal node other than identity and negation,
    which flip their child's polarity; per gate, the prime implicates of
    g <-> f(children) (`gate_implicates`), so unit propagation derives a
    child wherever the table forces one.  An asserted root's gate is fixed
    to its polarity instead (Plaisted & Greenbaum, 1986).  Inner gates stay
    full equivalences, so satisfying assignments project bijectively onto
    the original variables.  Extra ``variables`` are allocated even when
    they do not occur, so projections and model counts range over them
    too.  The gates of the ``define`` formulas follow without being
    asserted; ``roots`` holds their literals, negative where a root folds a
    negation, which a caller may pass as assumptions.
    """
    enc = CnfEncoding([], {}, 0)
    for v in sorted(set(variables)):
        enc.lit(Literal(v, True))
    for phi in formulas:
        enc.assert_formula(phi)
    enc.roots = [enc.gate(phi) for phi in define]
    for lit in assumptions:
        enc.clauses.append([enc.lit(lit)])
    return enc
