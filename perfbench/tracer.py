"""Spans and counts around the program's layers, from outside the program.

`install` replaces each traced function by a wrapper in every `cloneabd`
module that binds it, so calls made through a module's own import (such as
`cloneabd.abduction.sat_solve`) are traced as well. A wrapper records a span
(name, start, end, parent) and, for some layers, counts taken from the
arguments or the result. Spans stay in memory; `round_metrics` turns one
round's spans and counts into the per-layer metrics, and `dump` writes the
spans out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, span name); several functions may share a span name.
TRACED = (
    ("cli", "main", "cli.main"),
    ("abduction", "parse_instance", "abduction.parse_instance"),
    ("formula", "parse_formula", "formula.parse_formula"),
    ("solvers", "route_of", "solvers.route_of"),
    ("lattice", "identify_clone", "lattice.identify_clone"),
    ("lattice", "clone_leq", "lattice.clone_leq"),
    ("truthtable", "function_properties", "truthtable.function_properties"),
    ("solvers", "solve_literal_kb", "solvers.solve_literal_kb"),
    ("solvers", "solve_disjunctive_kb", "solvers.solve_disjunctive_kb"),
    ("solvers", "solve_affine", "solvers.solve_affine"),
    ("solvers", "solve_monotone", "solvers.solve_monotone"),
    ("solvers", "solve_general", "solvers.solve_general"),
    ("solvers", "count_full", "solvers.count_full"),
    ("solvers", "enumerate_full", "solvers.enumerate_full"),
    ("solvers", "build_affine_system", "solvers.build_affine_system"),
    ("abduction", "oracle_count_full", "abduction.oracle_count_full"),
    ("abduction", "is_explanation", "abduction.is_explanation"),
    ("abduction", "entails_manifestation", "abduction.entails_manifestation"),
    ("formula", "encode_cnf", "formula.encode_cnf"),
    ("sat", "sat_solve", "sat.sat_solve"),
    ("lattice", "synthesize_representation",
     "lattice.synthesize_representation"),
    ("truthtable", "compose", "truthtable.compose"),
    ("reductions", "compile_instance", "reductions.compile_instance"),
    ("abduction", "eliminate_false", "abduction.eliminate_false"),
    ("reductions", "linear_system_solvable", "reductions.ground_truth"),
    ("reductions", "exactly_two_satisfiable", "reductions.ground_truth"),
    ("reductions", "cnf_satisfiable", "reductions.ground_truth"),
    ("reductions", "cnf_model_count", "reductions.ground_truth"),
    ("reductions", "qbf_models", "reductions.ground_truth"),
    ("reductions", "qbf_true", "reductions.ground_truth"),
)

CALLS = ("lattice.identify_clone", "lattice.clone_leq",
         "truthtable.function_properties", "sat.sat_solve",
         "formula.encode_cnf", "abduction.is_explanation",
         "abduction.entails_manifestation", "solvers.build_affine_system",
         "lattice.synthesize_representation", "truthtable.compose")
SELF_MS = ("cli.main", "abduction.parse_instance", "formula.parse_formula",
           "lattice.identify_clone", "lattice.clone_leq",
           "truthtable.function_properties", "sat.sat_solve",
           "formula.encode_cnf", "lattice.synthesize_representation",
           "truthtable.compose", "reductions.compile_instance")
INCLUSIVE_MS = ("solvers.route_of", "solvers.solve_literal_kb",
                "solvers.solve_disjunctive_kb", "solvers.solve_affine",
                "solvers.solve_monotone", "solvers.solve_general",
                "solvers.count_full", "solvers.enumerate_full",
                "abduction.oracle_count_full", "abduction.eliminate_false",
                "reductions.ground_truth")
SAT_COUNTS = ("decisions", "propagations", "conflicts")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.clone_keys: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0, 0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result) -> None:
        if name == "sat.sat_solve":
            self.counts["sat.sat_solve.calls"] += 1
            given = kwargs.get("stats", args[2] if len(args) > 2 else None)
            if given is None:
                for key in SAT_COUNTS:
                    self.counts[f"sat.{key}"] += getattr(result.stats, key)
            # a caller-owned SatStats accumulates over calls; the program
            # passes none today, so its deltas are not attributed here
        elif name == "formula.encode_cnf":
            self.counts["formula.encode_cnf.clauses"] += len(result.clauses)
        elif name == "solvers.enumerate_full":
            self.counts["solvers.enumerate_full.outputs"] += len(result)
        elif name == "lattice.identify_clone":
            self.clone_keys.add(tuple(sorted((f.arity, f.bits)
                                             for f in args[0])))

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.clone_keys.clear()

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since the last reset."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:  # outermost span of its name
                incl_ns[name] += end - start
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_MS:
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        for name in INCLUSIVE_MS:
            out[f"{name}.ms"] = incl_ns[name] / 1e6
        for key in SAT_COUNTS:
            out[f"sat.sat_solve.{key}"] = self.counts[f"sat.{key}"]
        out["formula.encode_cnf.clauses"] = self.counts[
            "formula.encode_cnf.clauses"]
        outputs = self.counts["solvers.enumerate_full.outputs"]
        out["solvers.enumerate_full.outputs"] = outputs
        out["solvers.affine_systems_per_output"] = (
            calls["solvers.build_affine_system"] / outputs if outputs else 0)
        identify = calls["lattice.identify_clone"]
        out["lattice.identify_clone.distinct_per_call"] = (
            len(self.clone_keys) / identify if identify else 0)
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a `cloneabd` module binds it."""
    modules = [m for key, m in sys.modules.items()
               if key == "cloneabd" or key.startswith("cloneabd.")]
    for module_name, attr, span in TRACED:
        original = getattr(sys.modules[f"cloneabd.{module_name}"], attr)
        wrapper = tracer.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
