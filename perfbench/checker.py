"""Independent answer checker for the benchmark.

It imports nothing from `cloneabd`. Instances are read from their file text
with a parser of its own, every formula is evaluated as a bit-parallel truth
table (a Python int with one bit per assignment), and from those tables it
decides existence, counts full explanations and lists them in canonical
candidate order. Source problems of the reductions (2-QBF, CNF, linear
systems) are evaluated by brute force over their own few variables.

Canonical candidate order: hypotheses sorted by name, the candidate index
read as a binary number with the first hypothesis most significant, bit 1
meaning the positive literal. Rows of a truth table follow the same rule
(first variable most significant), so with the hypotheses placed first,
candidate `a` owns the rows `a << r .. (a + 1) << r` for the `r` other
variables.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

VARIANT_OF_KEY = {"query": "Q", "clause": "C", "term": "T", "qformula": "F"}
VAR_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")
MAX_TABLE_VARS = 24


class CheckError(Exception):
    """An input the checker cannot read or a table too large to build."""


# ---------------------------------------------------------------------------
# Instances

@dataclass(frozen=True)
class Instance:
    fn_lines: tuple[str, ...]
    fns: dict  # name -> (arity, bits)
    kb: tuple  # formulas: ("v", name) | ("c", bit) | ("f", name, args)
    hypotheses: tuple[str, ...]  # sorted
    variant: str
    manifestation: object  # (name, positive) | tuple of those | formula

    def manifestation_vars(self) -> set[str]:
        if self.variant == "Q":
            return {self.manifestation[0]}
        if self.variant in ("C", "T"):
            return {v for v, _ in self.manifestation}
        return formula_vars([self.manifestation])

    def universe(self) -> list[str]:
        """Hypotheses first (sorted), then every other variable (sorted)."""
        rest = (formula_vars(self.kb) | self.manifestation_vars()) - set(
            self.hypotheses)
        return list(self.hypotheses) + sorted(rest)


def parse_literal(text: str) -> tuple[str, bool]:
    positive = not text.startswith("!")
    name = text if positive else text[1:]
    if not VAR_RE.fullmatch(name):
        raise CheckError(f"bad literal {text!r}")
    return name, positive


def parse_formula(text: str, fns: dict):
    """s-expression formula; iterative, so depth is not limited."""
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    stack: list[list] = []
    result = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            if i + 1 >= len(tokens) or tokens[i + 1] not in fns:
                raise CheckError(f"unknown connective after '(' in {text!r}")
            stack.append([tokens[i + 1]])
            i += 2
            continue
        if tok == ")":
            if not stack:
                raise CheckError(f"unbalanced ')' in {text!r}")
            name, *args = stack.pop()
            if len(args) != fns[name][0]:
                raise CheckError(f"arity mismatch for {name!r}")
            node = ("f", name, tuple(args))
        elif tok in ("0", "1"):
            node = ("c", int(tok))
        elif VAR_RE.fullmatch(tok):
            node = ("v", tok)
        else:
            raise CheckError(f"bad token {tok!r}")
        i += 1
        if stack:
            stack[-1].append(node)
        elif result is None:
            result = node
        else:
            raise CheckError(f"trailing input in {text!r}")
    if stack or result is None:
        raise CheckError(f"incomplete formula {text!r}")
    return result


def parse_instance(text: str) -> Instance:
    fn_lines, fns, kb, hyp = [], {}, [], []
    variant = manifestation = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "fn":
            name, arity, bits = rest.split()
            if len(bits) != 1 << int(arity) or set(bits) - {"0", "1"}:
                raise CheckError(f"bad table line {line!r}")
            fns[name] = (int(arity), tuple(int(b) for b in bits))
            fn_lines.append(line)
        elif key == "kb":
            kb.append(parse_formula(rest, fns))
        elif key == "hyp":
            hyp.extend(rest.split())
        elif key in VARIANT_OF_KEY:
            if variant is not None:
                raise CheckError("two manifestation lines")
            variant = VARIANT_OF_KEY[key]
            if variant == "Q":
                manifestation = parse_literal(rest)
            elif variant in ("C", "T"):
                manifestation = tuple(parse_literal(p) for p in rest.split())
            else:
                manifestation = parse_formula(rest, fns)
        else:
            raise CheckError(f"unknown directive {key!r}")
    if variant is None:
        raise CheckError("no manifestation line")
    return Instance(tuple(fn_lines), fns, tuple(kb), tuple(sorted(set(hyp))),
                    variant, manifestation)


def formula_vars(formulas) -> set[str]:
    out: set[str] = set()
    todo = list(formulas)
    while todo:
        node = todo.pop()
        if node[0] == "v":
            out.add(node[1])
        elif node[0] == "f":
            todo.extend(node[2])
    return out


# ---------------------------------------------------------------------------
# Bit-parallel truth tables

def variable_masks(n: int) -> tuple[int, list[int]]:
    """The all-rows mask over n variables and each variable's column, the
    first variable most significant in the row index."""
    rows = 1 << n
    full = (1 << rows) - 1
    masks = []
    for i in range(n):
        half = 1 << (n - 1 - i)  # rows per constant run of variable i
        period = (1 << (2 * half)) - 1
        ones_high = ((1 << half) - 1) << half
        masks.append(ones_high * (full // period))
    return full, masks


def evaluate(phi, env: dict, fns: dict, full: int) -> int:
    """Table of a formula; env maps each variable to its column mask."""
    kind = phi[0]
    if kind == "v":
        return env[phi[1]]
    if kind == "c":
        return full if phi[1] else 0
    arity, bits = fns[phi[1]]
    pairs = [(full ^ c, c) for c in
             (evaluate(a, env, fns, full) for a in phi[2])]
    out = 0
    for row, bit in enumerate(bits):
        if bit:
            term = full
            for j, pair in enumerate(pairs):
                term &= pair[(row >> (arity - 1 - j)) & 1]
            out |= term
    return out


def _literal_mask(lit, env, full) -> int:
    name, positive = lit
    return env[name] if positive else full ^ env[name]


def _tables(inst: Instance, fixed: dict[str, bool]) -> tuple[int, int]:
    """(KB table, table of KB and not manifestation) over the variables not
    in `fixed`, which are replaced by constants; universe order kept."""
    free = [v for v in inst.universe() if v not in fixed]
    if len(free) > MAX_TABLE_VARS:
        raise CheckError(f"{len(free)} free variables exceed the table cap")
    full, masks = variable_masks(len(free))
    env = dict(zip(free, masks))
    env.update({v: full if b else 0 for v, b in fixed.items()})
    kb = full
    for phi in inst.kb:
        kb &= evaluate(phi, env, inst.fns, full)
        if not kb:
            break
    if inst.variant == "Q":
        m = _literal_mask(inst.manifestation, env, full)
    elif inst.variant == "C":
        m = 0
        for lit in inst.manifestation:
            m |= _literal_mask(lit, env, full)
    elif inst.variant == "T":
        m = full
        for lit in inst.manifestation:
            m &= _literal_mask(lit, env, full)
    else:
        m = evaluate(inst.manifestation, env, inst.fns, full)
    return kb, kb & ~m


def _chunks(table: int, total_bits: int, chunk_bits: int) -> list[bool]:
    """Per chunk (highest rows last), whether any bit is set."""
    count = total_bits // chunk_bits
    if chunk_bits >= 8:
        raw = table.to_bytes(total_bits // 8, "little")
        step = chunk_bits // 8
        zero = bytes(step)
        return [raw[a * step:(a + 1) * step] != zero for a in range(count)]
    unit = (1 << chunk_bits) - 1
    return [bool((table >> (a * chunk_bits)) & unit) for a in range(count)]


def full_explanations(inst: Instance) -> list[int]:
    """Indices, ascending, of the full candidates that are explanations."""
    n = len(inst.universe())
    h = len(inst.hypotheses)
    kb, bad = _tables(inst, {})
    consistent = _chunks(kb, 1 << n, 1 << (n - h))
    violated = _chunks(bad, 1 << n, 1 << (n - h))
    return [a for a in range(1 << h) if consistent[a] and not violated[a]]


def candidate_text(hypotheses, index: int) -> str:
    h = len(hypotheses)
    return " ".join(v if (index >> (h - 1 - j)) & 1 else "!" + v
                    for j, v in enumerate(hypotheses))


def is_explanation(inst: Instance, text: str) -> bool:
    """KB and E satisfiable and KB and E entail the manifestation, for any
    consistent set E of hypothesis literals."""
    fixed: dict[str, bool] = {}
    for part in text.split():
        name, positive = parse_literal(part)
        if (name not in inst.hypotheses
                or fixed.get(name, positive) != positive):
            return False
        fixed[name] = positive
    kb, bad = _tables(inst, fixed)
    return kb != 0 and bad == 0


# ---------------------------------------------------------------------------
# Source problems. Literals are (index, positive); CNF/DNF over x1..xn, and
# a 2-QBF's y_j is variable num_exists + j, as in the program's file formats.

def _assignments(n: int):
    for bits in range(1 << n):
        yield [None] + [(bits >> (i - 1)) & 1 for i in range(1, n + 1)]


def _clause_true(clause, sigma) -> bool:
    return any(sigma[i] == positive for i, positive in clause)


def cnf_models(clauses, n: int) -> int:
    return sum(all(_clause_true(c, s) for c in clauses)
               for s in _assignments(n))


def exactly_two_satisfiable(clauses, n: int) -> bool:
    return any(all(sum(s[i] for i, _ in c) == 2 for c in clauses)
               for s in _assignments(n))


def qbf_good(num_exists: int, num_forall: int, terms) -> list[int]:
    """Existential assignments (bit i-1 holds x_i) under which the DNF
    holds for every universal assignment."""
    return [x for x in range(1 << num_exists)
            if all(any(all(((s >> (i - 1)) & 1) == positive
                           for i, positive in t) for t in terms)
                   for s in (x | (y << num_exists)
                             for y in range(1 << num_forall)))]


def linear_system_solvable(num_vars: int, equations) -> bool:
    return any(all(sum(s[i] for i in idx) % 2 == c for idx, c in equations)
               for s in _assignments(num_vars))


# ---------------------------------------------------------------------------
# Judging one answer

@dataclass(frozen=True)
class Expect:
    """What an operation must answer. `found` and `count` come from the
    source problem of a reduction instance; when they are None the
    instance's own truth tables decide."""

    command: str  # solve | count | enumerate | generate
    instance: str = ""
    found: bool | None = None
    count: int | None = None
    sidecar: dict | None = None
    base_lines: tuple[str, ...] = ()


def _explanations(text: str, cache: dict) -> list[int]:
    if text not in cache:
        cache[text] = full_explanations(parse_instance(text))
    return cache[text]


def check(expect: Expect, code: int, stdout: str,
          cache: dict | None = None) -> str | None:
    """None when the answer is right, else what is wrong with it. `cache`
    keeps explanation lists between operations on the same instance."""
    cache = {} if cache is None else cache
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit {code}, output is not JSON: {stdout[:80]!r}"
    if expect.command == "generate":
        return _check_generate(expect, code, out)
    if expect.command == "solve":
        found = expect.found
        if found is None:
            found = bool(_explanations(expect.instance, cache))
        if out.get("found") is not found:
            return f"found {out.get('found')!r}, expected {found}"
        if code != (0 if found else 1):
            return f"exit {code} with found {found}"
        if found and not is_explanation(parse_instance(expect.instance),
                                        out.get("explanation") or ""):
            return f"{out.get('explanation')!r} is not an explanation"
        return None
    if code != 0:
        return f"exit {code}"
    if expect.command == "count":
        count = expect.count
        if count is None:
            count = len(_explanations(expect.instance, cache))
        if out.get("count") != count:
            return f"count {out.get('count')!r}, expected {count}"
        return None
    inst = parse_instance(expect.instance)
    wanted = [candidate_text(inst.hypotheses, a)
              for a in _explanations(expect.instance, cache)]
    got = out.get("explanations")
    if got != wanted:
        return (f"{len(got) if isinstance(got, list) else got!r} "
                f"explanations differ from the {len(wanted)} expected")
    return None


def _check_generate(expect: Expect, code: int, out: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    if out.get("sidecar") != expect.sidecar:
        return f"sidecar {out.get('sidecar')!r}, expected {expect.sidecar!r}"
    # the parser accepts only declared connectives, so declaring exactly the
    # base's tables means using nothing else
    try:
        inst = parse_instance(out.get("instance", ""))
    except (CheckError, ValueError) as exc:
        return f"generated instance does not parse: {exc}"
    if inst.fn_lines != tuple(expect.base_lines):
        return f"declares {inst.fn_lines}, not the base {expect.base_lines}"
    # the instance itself must answer as the source problem says
    found = full_explanations(inst)
    count = expect.sidecar.get("expectedCount")
    if count is not None and len(found) != count:
        return f"the instance has {len(found)} explanations, expected {count}"
    solvable = expect.sidecar.get("expectSolvable")
    if solvable is not None and bool(found) != solvable:
        return f"the instance has {len(found)} explanations, expected " \
               f"{'some' if solvable else 'none'}"
    return None
