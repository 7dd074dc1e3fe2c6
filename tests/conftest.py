import time

import pytest

from cloneabd.formula import Literal, parse_formula
from cloneabd.abduction import AbductionInstance
from cloneabd.truthtable import (AND, ANDNOT, CONST0, CONST1, IMPLIES, MAJ3,
                                 NOT, OR, XOR, XOR3, FunctionSet, TruthTable)

# named tables used across the suite
OR_AND = TruthTable("or_and", 3, (0, 0, 0, 1, 1, 1, 1, 1))  # x or (y and z)
AND_OR = TruthTable("and_or", 3, (0, 0, 0, 0, 0, 1, 1, 1))  # x and (y or z)


class Deadline:
    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds

    def check(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, \
            f"{label}: {elapsed:.1f}s exceeds the {self.seconds}s bound"


def make_instance(fn_list, kb_texts, hyps, variant, manifestation):
    """Shorthand instance builder for tests: formulas from s-expressions."""
    fns = FunctionSet(fn_list)
    kb = tuple(parse_formula(t, fns) for t in kb_texts)
    if variant == "F" and isinstance(manifestation, str):
        manifestation = parse_formula(manifestation, fns)
    return AbductionInstance(fns, kb, tuple(hyps), variant, manifestation)


def lit(text):
    if text.startswith("!"):
        return Literal(text[1:], False)
    return Literal(text, True)


@pytest.fixture
def or_fns():
    return FunctionSet([OR])


@pytest.fixture
def bf_fns():
    return FunctionSet([AND, NOT])
