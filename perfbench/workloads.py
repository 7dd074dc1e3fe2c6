"""Seeded inputs for the four benchmark workloads.

Each workload function writes its input files into a work directory and returns the
operations to time, each with what the checker needs to judge its answer.
Random instances come from the generator below; reduction instances come
from `cloneabd.reductions`, applied to 2-QBF, CNF and linear-system sources
that this module writes in the program's source formats.

Steadiness across seeds: a seed changes every instance, but not the mix.
Where the cost of an operation depends on how far a candidate scan runs,
instances are drawn until their scan length (the canonical index of the
first explanation plus one, or all 2^|A| candidates when there is none), as
computed by the checker or from the source problem, falls in the band of
its slot. So every seed poses scans of the same lengths, of new content.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checker
from checker import Expect

BASES = {
    "or": ("fn or 2 0111",),
    "and": ("fn and 2 0001",),
    "not": ("fn not 1 10",),
    "xor3": ("fn xor3 3 01101001",),
    "xor_not": ("fn xor 2 0110", "fn not 1 10"),
    "xnor": ("fn xnor 2 1001",),
    "maj3": ("fn maj3 3 00010111",),
    "and_not": ("fn and 2 0001", "fn not 1 10"),
    "nand": ("fn nand 2 1110",),
    "implies": ("fn implies 2 1101",),
    "andnot": ("fn andnot 2 0010",),
    "or_and": ("fn or 2 0111", "fn and 2 0001"),
    "or_and3": ("fn or_and 3 00011111",),
}

# Every (reduction, base) pair over BASES that the reductions accept; the
# other pairs are refused by design (a clone condition) and left out.
GENERATE_PAIRS = {
    "linsys": ("xor3", "xor_not", "xnor", "and_not", "nand"),
    "2in3": ("maj3", "or_and", "or_and3"),
    "3sat-term": ("or", "and_not", "nand", "implies", "or_and", "or_and3"),
    "qsat2": ("maj3", "and_not", "nand", "implies", "andnot", "or_and",
              "or_and3"),
    "pi1-count": ("and_not", "nand", "implies", "andnot"),
    "pos2sat": ("or", "and_not", "nand", "implies", "or_and", "or_and3"),
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    expect: Expect


class Inputs:
    """Input files of one run, in write order, under one directory."""

    def __init__(self, root: Path):
        self.root = root
        self.files: list[tuple[str, str]] = []

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        self.files.append((name, text))
        return str(path)


# ---------------------------------------------------------------------------
# Random instances

def random_table(rng: random.Random, name: str) -> str:
    arity = rng.choice((2, 3))
    bits = "".join(rng.choice("01") for _ in range(1 << arity))
    return f"fn {name} {arity} {bits}"


def random_instance(rng: random.Random, fn_lines, num_vars: int,
                    num_hyp: int, num_kb: int, variant: str,
                    depth: int) -> str:
    """Instance text: hypotheses v1..v<num_hyp>, manifestation over the other
    variables, and every hypothesis and manifestation variable in the KB,
    whose formulas are full trees of the given depth."""
    apps = [(p[1], int(p[2])) for p in (l.split() for l in fn_lines)
            if int(p[2]) > 0]
    names = [f"v{i}" for i in range(1, num_vars + 1)]
    hyp, pool = names[:num_hyp], names[num_hyp:]
    if variant == "Q":
        v = rng.choice(pool)
        key, man = "query", (v if rng.random() < 0.8 else "!" + v)
        mvars = [v]
    elif variant in ("C", "T"):
        mvars = rng.sample(pool, rng.randint(1, 2))
        key = "clause" if variant == "C" else "term"
        man = " ".join(v if rng.random() < 0.8 else "!" + v for v in mvars)
    else:
        name, arity = rng.choice(apps)
        args = [rng.choice(pool) for _ in range(arity)]
        key, man = "qformula", f"({name} {' '.join(args)})"
        mvars = args
    pending = list(dict.fromkeys(hyp + mvars))
    rng.shuffle(pending)

    def tree(d: int) -> str:
        if d == 0:
            return pending.pop() if pending else rng.choice(names)
        name, arity = rng.choice(apps)
        return f"({name} {' '.join(tree(d - 1) for _ in range(arity))})"

    kb = [tree(depth) for _ in range(num_kb)]
    while pending:
        kb.append(tree(depth))
    lines = list(fn_lines) + [f"kb {phi}" for phi in kb]
    lines += ["hyp " + " ".join(hyp), f"{key} {man}"]
    return "\n".join(lines) + "\n"


def scan_length(text: str) -> tuple[int, int]:
    """(candidates a canonical-order scan tries, candidates in all): the
    first explanation's index + 1, or all of them when there is none."""
    inst = checker.parse_instance(text)
    total = 1 << len(inst.hypotheses)
    found = checker.full_explanations(inst)
    return (found[0] + 1 if found else total), total


def walk_size(text: str) -> tuple[int, int]:
    """(full explanations, proper prefixes of them): the nodes of the
    binary tree over the hypotheses, in canonical order, that lead to an
    explanation. A self-reducing enumeration tests the children of each of
    those prefixes, so its work follows the second number."""
    inst = checker.parse_instance(text)
    h = len(inst.hypotheses)
    found = checker.full_explanations(inst)
    prefixes = {(a >> (h - d), d) for a in found for d in range(h)}
    return len(found), len(prefixes)


DRAW_TRIES = 20000


def draw(make, accept):
    """First made value that passes `accept`; the seed fixes which."""
    for _ in range(DRAW_TRIES):
        value = make()
        if accept(value):
            return value
    raise RuntimeError("no input in the requested band; widen the band")


# ---------------------------------------------------------------------------
# Sources, with their own evaluation. Literals are (index, positive).

@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple

    def text(self) -> str:
        return "".join(" ".join(str(i if p else -i) for i, p in c) + "\n"
                       for c in self.clauses)

    def models(self) -> int:
        return checker.cnf_models(self.clauses, self.num_vars)

    def exactly_two(self) -> bool:
        return checker.exactly_two_satisfiable(self.clauses, self.num_vars)


@dataclass(frozen=True)
class Qbf:
    num_exists: int
    num_forall: int
    terms: tuple

    def text(self) -> str:
        return (f"exists {self.num_exists}\nforall {self.num_forall}\n"
                + "".join("dnf " + " ".join(str(i if p else -i)
                                            for i, p in t) + "\n"
                          for t in self.terms))

    def good(self) -> list[int]:
        return checker.qbf_good(self.num_exists, self.num_forall, self.terms)


@dataclass(frozen=True)
class LinSys:
    num_vars: int
    equations: tuple

    def text(self) -> str:
        return f"vars {self.num_vars}\n" + "".join(
            "eq " + " ".join(map(str, idx)) + f" = {c}\n"
            for idx, c in self.equations)

    def solvable(self) -> bool:
        return checker.linear_system_solvable(self.num_vars, self.equations)


def random_cnf(rng, n: int, m: int, width: int, positive: bool) -> Cnf:
    return Cnf(n, tuple(
        tuple((i, positive or rng.random() < 0.5)
              for i in sorted(rng.sample(range(1, n + 1), width)))
        for _ in range(m)))


def random_qbf(rng, ne: int, nf: int, terms: int) -> Qbf:
    return Qbf(ne, nf, tuple(
        tuple((i, rng.random() < 0.5)
              for i in sorted(rng.sample(range(1, ne + nf + 1),
                                         rng.randint(2, 3))))
        for _ in range(terms)))


def random_linsys(rng, n: int, m: int) -> LinSys:
    return LinSys(n, tuple(
        (tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))),
         rng.randint(0, 1))
        for _ in range(m)))


def qsat2_scan_length(q: Qbf) -> int:
    """Scan length on the qsat2 instance of `q`, from the source alone.

    The construction's hypotheses sort as _f1.._fn, _t1.._tn. A candidate
    with _fi and _ti both false is inconsistent; _fi false forces x_i true,
    _ti false forces x_i false, both true leave x_i free. A candidate is an
    explanation iff every x it allows makes the 2-QBF matrix valid in y.
    """
    n = q.num_exists
    good = set(q.good())
    for index in range(1 << (2 * n)):
        xs = [0]
        for i in range(n):
            f = (index >> (2 * n - 1 - i)) & 1
            t = (index >> (n - 1 - i)) & 1
            options = (0, 1) if f and t else (0,) if f else (1,) if t else ()
            xs = [x | (o << i) for x in xs for o in options]
        if xs and all(x in good for x in xs):
            return index + 1
    return 1 << (2 * n)


# ---------------------------------------------------------------------------
# Reduction instances through the program

def reduce_source(reduction: str, source_text: str, base_lines) -> str:
    """Instance text the program's reduction builds from a source file."""
    from cloneabd import reductions
    from cloneabd.abduction import serialize_instance
    from cloneabd.truthtable import parse_function_set
    base = parse_function_set("\n".join(base_lines))
    if reduction == "qsat2":
        inst = reductions.from_qsat2_formula(
            reductions.parse_qbf(source_text), base)
    elif reduction == "2in3":
        inst = reductions.from_two_in_three_sat(
            reductions.parse_cnf(source_text), base)
    elif reduction == "3sat-term":
        inst = reductions.from_three_sat_term(
            reductions.parse_cnf(source_text), base)
    elif reduction == "pos2sat":
        inst, _ = reductions.from_pos2sat_count(
            reductions.parse_cnf(source_text), base)
    else:
        raise ValueError(reduction)
    return serialize_instance(inst)


def _op(label: str, command: str, path: str, expect: Expect) -> Op:
    return Op(label, (command, path, "--json"), expect)


# ---------------------------------------------------------------------------
# Workloads

ROUTE_MIX_BASES = ("or", "and", "not", "xor3", "xor_not", "maj3", "maj3",
                   "and_not", "implies", "or_and3")
ROUTE_MIX_INSTANCES = 160


def route_mix(rng: random.Random, inputs: Inputs) -> list[Op]:
    """solve and count on small instances over fixed and random bases."""
    ops = []
    for k in range(ROUTE_MIX_INSTANCES):
        variant = "QCTF"[k % 4]
        slot = (k // 4) % (len(ROUTE_MIX_BASES) + 1)
        if slot < len(ROUTE_MIX_BASES):
            fn_lines = BASES[ROUTE_MIX_BASES[slot]]
        else:
            fn_lines = tuple(random_table(rng, f"r{j}")
                             for j in range(rng.randint(1, 2)))
        text = random_instance(rng, fn_lines, num_vars=6, num_hyp=3,
                               num_kb=3, variant=variant, depth=2)
        path = inputs.write(f"rm{k:03d}.inst", text)
        for command in ("solve", "count"):
            ops.append(_op(f"{command} rm{k:03d}", command, path,
                           Expect(command, text)))
    return ops


# (family, base, hypotheses, slots); a slot is a scan-length band [lo, hi),
# or None for "no explanation", a scan of every candidate. Sizes are fixed
# per family. On a qsat2 instance with 4 existential variables, 3^4 of the
# 2^8 candidates are consistent (see qsat2_scan_length), and scan lengths
# 46, 61 and 76 end on the 4th, 6th and 10th of them, so each of those
# scans makes as many full entailment checks. The 20 scans of length 61
# over [AND, NOT] sit in the middle of the cost order, with 16 cheaper
# operations below and 5 heavier ones above, so that the median and the
# tail percentile both fall among like scans.
SIGMA2_FAMILIES = (
    ("2in3", "maj3", 10, ((16, 17),)),
    ("2in3", "or_and3", 10, ((24, 25),)),
    ("3sat-term", "or", 10, ((32, 33),)),
    ("3sat-term", "or_and", 10, ((94, 95),)),
    ("qsat2", "and_not", 8, ((46, 47),) * 12 + ((61, 62),) * 20),
    ("3sat-term", "or", 10, (None,)),
    ("2in3", "maj3", 10, (None,)),
    ("qsat2", "maj3", 8, ((76, 77),)),
    ("qsat2", "and_not", 8, (None,)),
    ("random", "and_not", 10, (None,)),
)


def uses_all(cnf: Cnf) -> bool:
    return len({i for c in cnf.clauses for i, _ in c}) == cnf.num_vars


def _sigma2_instance(rng, family: str, base: str, num_hyp: int, band):
    """(instance text, source-problem answer or None for random)."""
    fn_lines = BASES[base]

    def in_band(length_total: tuple[int, int]) -> bool:
        length, total = length_total
        return length == total if band is None else (
            band[0] <= length < band[1] and length < total)

    if family == "qsat2":
        ne = num_hyp // 2
        nf, terms = (3, 2 * ne + 2) if band else (2, 4)
        q = draw(lambda: random_qbf(rng, ne, nf, terms),
                 lambda q: in_band((qsat2_scan_length(q), 1 << (2 * ne))))
        return reduce_source("qsat2", q.text(), fn_lines), bool(q.good())
    if family in ("2in3", "3sat-term"):
        def make():
            """(answer, instance), or None when the source alone shows
            that the instance cannot fall in the band."""
            if family == "2in3":
                cnf = random_cnf(rng, *((6, 3) if band else (5, 4)), 3, True)
                answer = cnf.exactly_two()
            else:
                cnf = random_cnf(rng, 5, 16 if band else 24, 3, False)
                answer = cnf.models() > 0
            if not uses_all(cnf) or answer == (band is None):
                return None
            return answer, reduce_source(family, cnf.text(), fn_lines)
        return draw(make, lambda p: p is not None and in_band(
            scan_length(p[1])))[::-1]
    text = draw(lambda: random_instance(rng, fn_lines,
                                        num_vars=num_hyp + 4,
                                        num_hyp=num_hyp, num_kb=6,
                                        variant=rng.choice("QCTF"), depth=3),
                lambda t: in_band(scan_length(t)))
    return text, None


def sigma2_scan(rng: random.Random, inputs: Inputs) -> list[Op]:
    """solve on the NP- and Sigma2P-hard routes, scans of fixed lengths."""
    ops = []
    for family, base, num_hyp, slots in SIGMA2_FAMILIES:
        for band in slots:
            text, found = _sigma2_instance(rng, family, base, num_hyp, band)
            name = f"s2-{len(ops):02d}-{family}-{base}"
            path = inputs.write(name + ".inst", text)
            ops.append(_op(f"solve {name}", "solve", path,
                           Expect("solve", text, found=found)))
    return ops


# (base, variant, hypotheses, KB formulas, band of full explanations, band
# of their proper prefixes); the costs of counting and enumerating follow
# these. KB formulas are full trees of depth COUNT_ENUM_DEPTH.
COUNT_ENUM_FAMILIES = (
    ("xor3", "Q", 10, 11, (8, 9), (56, 64)),
    ("xor_not", "C", 10, 9, (8, 17), (40, 64)),
    ("and", "Q", 8, 4, (1, 2), (8, 9)),
    ("or", "Q", 7, 6, (16, 33), (24, 60)),
    ("or", "C", 7, 6, (16, 33), (24, 60)),
    ("or", "Q", 7, 6, (16, 33), (24, 60)),
    ("or", "C", 7, 6, (16, 33), (24, 60)),
)
COUNT_ENUM_DEPTH = 2
COUNT_ENUM_PER_FAMILY = 4
POS2SAT_BASES = ("or", "implies")
POS2SAT_PER_BASE = 3


def count_enum(rng: random.Random, inputs: Inputs) -> list[Op]:
    """count and enumerate on the same affine, literal and disjunctive
    instances, plus count on pos2sat instances."""
    ops = []
    for base, variant, h, kb, counts, prefixes in COUNT_ENUM_FAMILIES:
        for j in range(COUNT_ENUM_PER_FAMILY):
            def fits(text: str) -> bool:
                found, inner = walk_size(text)
                return (counts[0] <= found < counts[1]
                        and prefixes[0] <= inner < prefixes[1])
            text = draw(lambda: random_instance(
                rng, BASES[base], num_vars=h + 5, num_hyp=h, num_kb=kb,
                variant=variant, depth=COUNT_ENUM_DEPTH), fits)
            name = f"ce-{len(ops) // 2:02d}-{base}-{variant}"
            path = inputs.write(name + ".inst", text)
            for command in ("count", "enumerate"):
                ops.append(_op(f"{command} {name}", command, path,
                               Expect(command, text)))
    for base in POS2SAT_BASES:
        for j in range(POS2SAT_PER_BASE):
            cnf = draw(lambda: random_cnf(rng, 6, 5, 2, positive=True),
                       uses_all)
            text = reduce_source("pos2sat", cnf.text(), BASES[base])
            name = f"ce-pos2sat-{base}-{j}"
            path = inputs.write(name + ".inst", text)
            ops.append(_op(f"count {name}", "count", path,
                           Expect("count", text,
                                  count=(1 << 6) - cnf.models())))
    return ops


# Sources per pair: three, except one for the pairs whose representation
# synthesis alone takes 0.15-0.9 s, which would otherwise fill the round.
GENERATE_SOURCES_PER_PAIR = 3
SLOW_PAIRS = (("linsys", "and_not"), ("linsys", "nand"), ("qsat2", "andnot"))


def _generate_source(rng, reduction: str):
    """(source text, expected sidecar fields from its own evaluation); sizes
    are fixed per reduction, so a pair's cost does not depend on the seed."""
    if reduction == "linsys":
        s = random_linsys(rng, 4, 4)
        ok = s.solvable()
        return s.text(), {"systemSolvable": ok, "expectSolvable": not ok}
    if reduction in ("qsat2", "pi1-count"):
        q = random_qbf(rng, 2, 2, 4)
        m = len(q.good())
        if reduction == "qsat2":
            return q.text(), {"expectSolvable": m > 0}
        return q.text(), {"expectedCount": m}
    n, m, width, positive = {"2in3": (5, 2, 3, True),
                             "3sat-term": (4, 5, 3, False),
                             "pos2sat": (4, 3, 2, True)}[reduction]
    c = draw(lambda: random_cnf(rng, n, m, width, positive), uses_all)
    if reduction == "2in3":
        return c.text(), {"expectSolvable": c.exactly_two()}
    if reduction == "3sat-term":
        return c.text(), {"expectSolvable": c.models() > 0}
    models = c.models()
    return c.text(), {"n": n, "formulaModels": models,
                      "expectedCount": (1 << n) - models}


def generate(rng: random.Random, inputs: Inputs) -> list[Op]:
    """abd generate --source for every accepted (reduction, base) pair."""
    base_paths = {}
    ops = []
    for reduction, bases in GENERATE_PAIRS.items():
        for base in bases:
            if base not in base_paths:
                base_paths[base] = inputs.write(
                    f"{base}.fns", "\n".join(BASES[base]) + "\n")
            sources = (1 if (reduction, base) in SLOW_PAIRS
                       else GENERATE_SOURCES_PER_PAIR)
            for j in range(sources):
                text, fields = _generate_source(rng, reduction)
                name = f"gen-{reduction}-{base}-{j}"
                path = inputs.write(name + ".src", text)
                sidecar = {"reduction": reduction, "seed": 0, **fields}
                ops.append(Op(
                    f"generate {name}",
                    ("generate", "--reduction", reduction, "--base",
                     base_paths[base], "--source", path, "--json"),
                    Expect("generate", "", sidecar=sidecar,
                           base_lines=BASES[base])))
    return ops


WORKLOADS = {"route_mix": route_mix, "sigma2_scan": sigma2_scan,
            "count_enum": count_enum, "generate": generate}
