"""The watched-literal decision procedure and its incremental use under
assumptions."""

import itertools
import random

import pytest

from cloneabd.sat import SatStats, Solver, sat_solve


def brute_least_model(clauses, n):
    """The least model, variable 1 most significant and false first, or
    None."""
    for bits in itertools.product((False, True), repeat=n):
        model = {i + 1: bits[i] for i in range(n)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            return model
    return None


def brute_sat(clauses, n):
    return brute_least_model(clauses, n) is not None


def random_clauses(rng, n, max_clauses):
    return [[rng.choice([-1, 1]) * rng.randint(1, n)
             for _ in range(rng.randint(1, 3) + rng.randint(0, 1))]
            for _ in range(rng.randint(0, max_clauses))]


def test_empty_and_trivial():
    assert sat_solve([], 0).is_sat
    assert sat_solve([[1]], 1).is_sat
    assert not sat_solve([[1], [-1]], 1).is_sat
    assert not sat_solve([[]], 0).is_sat


def test_unit_propagation_chain():
    clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
    res = sat_solve(clauses, 4)
    assert res.is_sat
    assert all(res.model[v] for v in (1, 2, 3, 4))


def test_random_agreement_with_brute_force():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 10)):
            width = rng.randint(1, 3)
            clause = [rng.choice([-1, 1]) * rng.randint(1, n)
                      for _ in range(width)]
            clauses.append(clause)
        assert sat_solve(clauses, n).is_sat == brute_sat(clauses, n)


def test_backtrack_reopens_variables_below_the_failed_decision():
    # x1 false forces x2 and leaves no value of x3 that works, so the
    # search returns to x1; x2 is then unassigned again and is decided false
    clauses = [[1, 2], [1, 3, 4], [1, 3, -4], [1, -3, 4], [1, -3, -4]]
    res = sat_solve(clauses, 4)
    assert res.model == {1: True, 2: False, 3: False, 4: False}


def test_model_is_total():
    res = sat_solve([[1, 2]], 3)
    assert res.is_sat
    assert set(res.model) == {1, 2, 3}


def test_stats_counted():
    stats = SatStats()
    sat_solve([[1, 2], [-1, 2], [1, -2], [-1, -2]], 2, stats=stats)
    assert stats.conflicts > 0


def test_unforced_chain_of_ten_thousand_variables():
    # every decision is free, so a recursive search would nest 10 000 deep
    n = 10_000
    chain = [[-i, i + 1] for i in range(1, n)]
    res = sat_solve(chain, n)
    assert res.is_sat
    assert not any(res.model.values())
    assert not sat_solve(chain + [[1], [-n]], n).is_sat


def test_prepared_solver_under_assumptions():
    """Repeated and interleaved assumption sets on one prepared solver:
    each answer and model equals a fresh solve with the assumptions as unit
    clauses, and the least model found by brute force."""
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 8)
        clauses = random_clauses(rng, n, 4 * n)
        solver = Solver(clauses, n)
        queries = [[rng.choice([-1, 1]) * rng.randint(1, n)
                    for _ in range(rng.randint(0, 3))] for _ in range(4)]
        for assumptions in queries + queries[::-1]:
            got = sat_solve(solver, assumptions=assumptions)
            units = clauses + [[l] for l in assumptions]
            assert got.model == sat_solve(units, n).model
            assert got.model == brute_least_model(units, n)


def test_prepared_solver_answers_after_refused_assumption():
    # the assumptions before the out-of-range one are assigned first
    clauses = [[1, 2], [1, -2], [-3, 4], [3, 5]]
    solver = Solver(clauses, 5)
    for assumptions in ([6], [3, -4, 6], [-5, 0]):
        with pytest.raises(ValueError):
            sat_solve(solver, assumptions=assumptions)
    for assumptions in ([], [-1], [3], [-4], [-4, -5], [2, -3]):
        got = sat_solve(solver, assumptions=assumptions)
        units = clauses + [[l] for l in assumptions]
        assert got.model == brute_least_model(units, 5), assumptions


def test_prepared_clauses_with_repeats_tautologies_and_duplicates():
    """Clauses that repeat a literal, tautologies, duplicate clauses (also
    with their literals permuted) and the empty clause: every answer is the
    least model by brute force, also under assumptions."""
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 6)
        clauses = random_clauses(rng, n, 3 * n)
        for c in list(clauses):
            v = rng.randint(1, n)
            if rng.random() < 0.3:
                clauses.append(c + [c[0]] if c else [v, v])
            if rng.random() < 0.3:
                clauses.append(c + [v, -v])
            if rng.random() < 0.3:
                clauses.insert(rng.randint(0, len(clauses)),
                               rng.sample(c, len(c)))
        if rng.random() < 0.05:
            clauses.insert(rng.randint(0, len(clauses)), [])
        solver = Solver(clauses, n)
        for assumptions in ([], [rng.choice([-1, 1]) * rng.randint(1, n)]):
            got = sat_solve(solver, assumptions=assumptions)
            units = clauses + [[l] for l in assumptions]
            assert got.model == brute_least_model(units, n)


def test_tampered_model_fails_the_re_check(monkeypatch):
    """A search that claims a model the clauses or the assumptions refute
    is caught before the model is returned."""
    def assign_all_false(self, assumptions, stats):
        for v in range(1, self.num_vars + 1):
            self._assign(-v)
        return True

    monkeypatch.setattr(Solver, "_search", assign_all_false)
    with pytest.raises(AssertionError, match="model failed re-check"):
        sat_solve([[1, 2], [-1, -2]], 2)
    with pytest.raises(AssertionError, match="model failed an assumption"):
        sat_solve([[-1, -2]], 2, assumptions=[2])
    assert sat_solve([[-1, -2]], 2, assumptions=[-2]).is_sat
