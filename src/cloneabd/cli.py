"""Command-line surface: identify, classify, solve, count, enumerate,
verify, generate and repr subcommands with deterministic text/JSON output.

Exit codes: 0 success, 1 definite negative answer, 2 input error (including
a --method route outside the instance's clone), 3 resource budget exceeded
(including running out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache
from pathlib import Path

from . import reductions, solvers
from .abduction import (Explanation, ExplanationTest, entails_manifestation,
                        is_explanation, parse_instance, serialize_instance)
from .errors import (AbdError, InputError, NoRepresentationError,
                     ResourceBudgetError)
from .formula import render_formula
from .lattice import (classify_clone_counting, classify_clone_decision,
                      identify_clone, signature_of,
                      synthesize_representation)
from .truthtable import parse_function_line, parse_function_set

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _default_budget() -> int:
    env = os.environ.get("ABD_BUDGET")
    if not env:
        return solvers.DEFAULT_CANDIDATE_BUDGET
    try:
        return int(env)
    except ValueError:
        raise InputError(
            f"ABD_BUDGET must be an integer, got {env!r}") from None


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


# `identify --json` signature keys and the property names they report
_SIGNATURE_KEYS = (("allReproduce0", "r0"), ("allReproduce1", "r1"),
                   ("allMonotone", "m"), ("allSelfDual", "d"),
                   ("allAffine", "l"))


def cmd_identify(args: argparse.Namespace) -> int:
    fns = parse_function_set(_read(args.base))
    if not len(fns):
        raise InputError("base file declares no functions")
    clone = identify_clone(fns)
    sig = signature_of(fns)
    signature = {key: name in sig.bools for key, name in _SIGNATURE_KEYS}
    for key, degree in (("sep0degree", sig.s0), ("sep1degree", sig.s1)):
        signature[key] = "inf" if degree == float("inf") else int(degree)
    _emit(args, {"clone": clone.name, "signature": signature},
          f"clone: {clone.name}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    fns = parse_function_set(_read(args.base))
    if not len(fns):
        raise InputError("base file declares no functions")
    clone = identify_clone(fns)
    rows = []
    variants = (["Q", "C", "T", "F"] if args.variant == "all"
                else [args.variant])
    if not args.counting_only:
        for variant in variants:
            rows.append({"variant": variant, "clone": clone.name,
                         "label": classify_clone_decision(clone, variant)})
    if args.counting or args.counting_only:
        rows.append({"variant": "counting", "clone": clone.name,
                     "label": classify_clone_counting(clone)})
    text = "\n".join(f"{r['variant']}: {r['label']} (clone {r['clone']})"
                     for r in rows)
    _emit(args, {"rows": rows}, text)
    return EXIT_OK


def _instance_and_route(args: argparse.Namespace):
    """The instance and the route entry named by --method (`auto`: the
    clone's), resolved once; a route outside its clone is an input error."""
    inst = parse_instance(_read(args.instance))
    name = None if args.method == "auto" else args.method
    return inst, solvers.ROUTES[solvers.route_of(inst, name)]


def cmd_solve(args: argparse.Namespace) -> int:
    inst, route = _instance_and_route(args)
    outcome = solvers.solve(inst, args.budget, route)
    payload = {
        "found": outcome.found,
        "explanation": (outcome.explanation.serialize()
                        if outcome.explanation is not None else None),
        "method": outcome.method,
        "candidatesTried": outcome.candidates_tried,
    }
    if outcome.found:
        _emit(args, payload, f"explanation: {outcome.explanation}"
              f" (method {outcome.method})")
        return EXIT_OK
    _emit(args, payload, f"no explanation (method {outcome.method})")
    return EXIT_NO


def cmd_count(args: argparse.Namespace) -> int:
    inst, route = _instance_and_route(args)
    count = solvers.count_full(inst, route, args.budget)
    method = route.count_label
    _emit(args, {"count": count, "method": method, "exact": True},
          f"full explanations: {count} (method {method})")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    inst, route = _instance_and_route(args)
    results = solvers.enumerate_full(inst, route, args.budget)
    if args.json:
        print(json.dumps({"explanations":
                          [e.serialize() for e in results]}, sort_keys=True))
    else:
        for e in results:
            print(e.serialize())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    e = Explanation.parse(args.explanation)
    test = ExplanationTest(inst)
    ok = is_explanation(inst, e, test)
    satisfiable = test.kb_sat(test.assumption_ids(e.literals))
    entails = entails_manifestation(inst, e.literals, test)
    assert ok == (satisfiable and entails)
    payload = {"isExplanation": ok, "satisfiableWithE": satisfiable,
               "entailsManifestation": entails}
    _emit(args, payload,
          f"isExplanation: {ok} (satisfiable: {satisfiable}, "
          f"entails: {entails})")
    return EXIT_OK if ok else EXIT_NO


def _random_source(reduction: str, seed: int):
    rng = random.Random(seed)
    if reduction == "linsys":
        n = rng.randint(2, 4)
        eqs = []
        for _ in range(rng.randint(2, 4)):
            k = rng.randint(1, min(3, n))
            eqs.append((tuple(rng.sample(range(1, n + 1), k)),
                        rng.randint(0, 1)))
        return reductions.LinearSystem(n, tuple(eqs))
    if reduction in ("2in3",):
        n = rng.randint(3, 4)
        clauses = []
        for _ in range(rng.randint(1, 2)):
            atoms = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(reductions.Literal(f"x{i}", True)
                                 for i in atoms))
        return reductions.CnfFormula(tuple(clauses))
    if reduction == "3sat-term":
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, min(3, n))
            atoms = rng.sample(range(1, n + 1), k)
            clauses.append(tuple(
                reductions.Literal(f"x{i}", rng.random() < 0.5)
                for i in atoms))
        return reductions.CnfFormula(tuple(clauses))
    if reduction in ("qsat2", "pi1-count"):
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        terms = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            pool = ([f"x{i}" for i in range(1, n + 1)]
                    + [f"y{j}" for j in range(1, m + 1)])
            chosen = rng.sample(pool, min(k, len(pool)))
            terms.append(tuple(reductions.Literal(v, rng.random() < 0.5)
                               for v in chosen))
        return reductions.Qbf2Instance(
            n, m, reductions.DnfFormula(tuple(terms)))
    if reduction == "pos2sat":
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(1, n + 1), 2)
            clauses.append((reductions.Literal(f"x{a}", True),
                            reductions.Literal(f"x{b}", True)))
        return reductions.CnfFormula(tuple(clauses))
    raise InputError(f"unknown reduction {reduction!r}")


def _parse_source(reduction: str, text: str):
    if reduction == "linsys":
        return reductions.parse_linear_system(text)
    if reduction in ("2in3", "3sat-term", "pos2sat"):
        return reductions.parse_cnf(text)
    return reductions.parse_qbf(text)


def cmd_generate(args: argparse.Namespace) -> int:
    base = parse_function_set(_read(args.base))
    if args.source:
        source = _parse_source(args.reduction, _read(args.source))
    else:
        source = _random_source(args.reduction, args.seed)

    sidecar: dict = {"reduction": args.reduction, "seed": args.seed}
    if args.reduction == "linsys":
        inst = reductions.from_linear_system(source, base)
        solvable = reductions.linear_system_solvable(source)
        sidecar["systemSolvable"] = solvable
        sidecar["expectSolvable"] = not solvable
    elif args.reduction == "2in3":
        inst = reductions.from_two_in_three_sat(source, base)
        sidecar["expectSolvable"] = reductions.exactly_two_satisfiable(source)
    elif args.reduction == "3sat-term":
        inst = reductions.from_three_sat_term(source, base)
        sidecar["expectSolvable"] = reductions.cnf_satisfiable(source)
    elif args.reduction == "qsat2":
        inst = reductions.from_qsat2_formula(source, base)
        sidecar["expectSolvable"] = reductions.qbf_true(source)
    elif args.reduction == "pi1-count":
        inst = reductions.from_pi1_count(source, base)
        sidecar["expectedCount"] = reductions.qbf_models(source)
    elif args.reduction == "pos2sat":
        inst, n = reductions.from_pos2sat_count(source, base)
        models = reductions.cnf_model_count(
            source, [f"x{i}" for i in range(1, n + 1)])
        sidecar["n"] = n
        sidecar["formulaModels"] = models
        sidecar["expectedCount"] = (1 << n) - models
    else:
        raise InputError(f"unknown reduction {args.reduction!r}")

    text = serialize_instance(inst)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    if args.json:
        print(json.dumps({"instance": text, "sidecar": sidecar},
                         sort_keys=True))
    else:
        if not args.out:
            sys.stdout.write(text)
        print(f"# sidecar: {json.dumps(sidecar, sort_keys=True)}")
    return EXIT_OK


def cmd_repr(args: argparse.Namespace) -> int:
    base = parse_function_set(_read(args.base))
    target = parse_function_line(args.target)
    try:
        phi = synthesize_representation(base, target, args.budget)
    except NoRepresentationError:
        _emit(args, {"found": False, "formula": None},
              f"{target.name} is not generated by the base at arity "
              f"{target.arity}")
        return EXIT_NO
    _emit(args, {"found": True, "formula": render_formula(phi)},
          render_formula(phi))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `abd` parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="abd",
        description="clone-aware propositional abduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")
        p.add_argument("--budget", type=int, default=None,
                       help="search budget (default from ABD_BUDGET)")

    p = sub.add_parser("identify", help="name the clone of a connective set")
    p.add_argument("base", help="file of `fn` lines")
    common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("classify", help="complexity classification")
    p.add_argument("base")
    p.add_argument("--variant", default="all",
                   choices=["all", "Q", "C", "T", "F"])
    p.add_argument("--counting", action="store_true",
                   help="also classify the counting problem")
    p.add_argument("--counting-only", action="store_true")
    common(p)
    p.set_defaults(func=cmd_classify)

    for name, fn in (("solve", cmd_solve), ("count", cmd_count),
                     ("enumerate", cmd_enumerate)):
        p = sub.add_parser(name)
        p.add_argument("instance", help="instance file")
        p.add_argument("--method", default="auto",
                       choices=["auto", *solvers.ROUTES],
                       help="route to run (default: the clone's route); "
                       "a route other than general or oracle exits 2 on a "
                       "knowledge base outside its clone")
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="check an explanation")
    p.add_argument("instance")
    p.add_argument("explanation",
                   help="space-separated literals, e.g. '!x y'")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="reduction-based instance generator")
    p.add_argument("--reduction", required=True,
                   choices=["linsys", "2in3", "3sat-term", "qsat2",
                            "pi1-count", "pos2sat"])
    p.add_argument("--base", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--source", help="explicit source-problem file")
    p.add_argument("--out", help="write the instance file here")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("repr", help="synthesize a representation")
    p.add_argument("base")
    p.add_argument("target", help="`fn` line of the target function")
    common(p)
    p.set_defaults(func=cmd_repr)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.budget is None:
            # read per command, so a malformed value exits 2 and a changed
            # one holds for the next call in this process
            args.budget = _default_budget()
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:  # a guard: no formula walk recurses
        print("error: input nested too deeply (recursion limit exceeded)",
              file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except AbdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
