import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from gridsearch import grid_sat
from lbk import linarith
from lbk.lexq import LambdaScalar
from lbk.linarith import (
    GE,
    GT,
    ConstraintSystem,
    LinearConstraint,
    feasible,
    project_interval,
)


def scalar(q, rank=1):
    return LambdaScalar.rational(Q(q), rank)


def sys1(*rows):
    return ConstraintSystem(1, tuple(LinearConstraint((Q(c),), rel, scalar(b)) for c, rel, b in rows))


def equal_rows(coeffs, bound):
    """The equality coeffs . x = bound as its two rows, >= and <=."""
    return (LinearConstraint(coeffs, GE, bound), LinearConstraint(tuple(-c for c in coeffs), GE, -bound))


def test_an_equality_relation_is_rejected():
    with pytest.raises(ValueError, match="unknown relation"):
        LinearConstraint((Q(1),), "=", scalar(2))


def test_constraint_coefficients_are_a_fraction_tuple():
    half = Q(1, 2)
    given = LinearConstraint([1, half, 0.5], GE, scalar(1))
    assert given.coeffs == (Q(1), half, half)
    assert type(given.coeffs) is tuple
    assert all(type(c) is Q for c in given.coeffs)
    assert given.coeffs[1] is half
    same = LinearConstraint((Q(1), half, half), GE, scalar(1))
    assert same == given and hash(same) == hash(given)
    assert LinearConstraint((1, 2), GE, scalar(0)) == LinearConstraint((Q(1), Q(2)), GE, scalar(0))


def test_unsat_opposite_rays():
    assert not feasible(sys1((1, GE, 0), (-1, GE, 1))).sat


def test_empty_system_sat_with_zero_witness():
    result = feasible(ConstraintSystem(1, ()))
    assert result.sat
    assert result.witness == (LambdaScalar.zero(1),)


def test_lex_rank_two_interval():
    lo = LambdaScalar([Q(0), Q(1)])
    hi = LambdaScalar([Q(1), Q(0)])
    system = ConstraintSystem(
        1,
        (
            LinearConstraint((Q(1),), GE, lo),
            LinearConstraint((Q(-1),), GE, -hi),
        ),
    )
    result = feasible(system)
    assert result.sat
    (w,) = result.witness
    assert lo <= w <= hi
    assert system.holds_at(result.witness)


def test_strict_touching_bounds_unsat():
    assert not feasible(sys1((1, GT, 0), (-1, GE, 0))).sat
    assert feasible(sys1((1, GT, 0))).sat
    assert feasible(sys1((1, GT, 0))).witness == (LambdaScalar.rational(1),)


def test_equality_relation():
    system = sys1((1, GE, 2), (-1, GE, -2))
    result = feasible(system)
    assert result.sat and result.witness == (scalar(2),)
    assert not feasible(sys1((1, GE, 2), (-1, GE, -2), (1, GE, 3))).sat


def test_witness_modes():
    bounded = sys1((1, GE, 0), (-1, GE, -4))
    assert feasible(bounded).witness == (scalar(2),)  # midpoint
    assert feasible(sys1((1, GE, 5))).witness == (scalar(6),)  # bound + 1
    assert feasible(sys1((-1, GE, -5))).witness == (scalar(4),)  # bound - 1


def _random_system(rng, nvars, lex_rank=1):
    rows = []
    for _ in range(rng.randint(0, 4)):
        den = rng.choice((1, 2))
        coeffs = tuple(Q(rng.randint(-3 * den, 3 * den), den) for _ in range(nvars))
        rel = rng.choice((GE, GE, GE, GT, None))  # None: an equality
        bound = LambdaScalar.rational(rng.randint(-5, 5), lex_rank)
        rows.extend(equal_rows(coeffs, bound) if rel is None else (LinearConstraint(coeffs, rel, bound),))
    return ConstraintSystem(nvars, tuple(rows))


def test_oracle_agreement_sample():
    rng = random.Random(202)
    for _ in range(150):
        system = _random_system(rng, rng.choice((1, 1, 2, 2, 3)))
        verdict = feasible(system)
        hit = grid_sat(system)
        if hit is not None:
            assert verdict.sat, f"oracle found {hit}, solver says unsat: {system}"
            assert system.holds_at(hit)
        if verdict.sat:
            assert system.holds_at(verdict.witness)


def _lex_system(rng, nvars, lex_rank):
    """Like _random_system, with bounds that use every lex component."""
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(nvars))
        rel = rng.choice((GE, GE, GT, None))  # None: an equality
        bound = LambdaScalar([Q(rng.randint(-4, 4))] + [Q(rng.randint(-2, 2)) for _ in range(lex_rank - 1)])
        rows.extend(equal_rows(coeffs, bound) if rel is None else (LinearConstraint(coeffs, rel, bound),))
    return ConstraintSystem(nvars, tuple(rows))


def _pin(system, index, value):
    """The system plus x_index = value."""
    row = tuple(Q(int(j == index)) for j in range(system.nvars))
    return ConstraintSystem(system.nvars, system.constraints + equal_rows(row, value))


def test_project_interval_is_exact():
    rng = random.Random(31)
    seen = Counter()
    for _ in range(250):
        nvars = rng.randint(1, 3)
        lex_rank = rng.choice((1, 2))
        system = _lex_system(rng, nvars, lex_rank)
        verdict = feasible(system, lex_rank=lex_rank)
        one = LambdaScalar.one(lex_rank)
        steps = [one, one / 1000] + [LambdaScalar([Q(0), Q(1)])] * (lex_rank == 2)
        for index in range(nvars):
            interval = project_interval(system, index, lex_rank)
            assert (interval is None) == (not verdict.sat), system
            if interval is None:
                seen["empty"] += 1
                continue
            # sign -1 walks below the lower side, +1 above the upper side.
            for side, sign in zip(interval, (-1, 1)):
                if side is None:
                    far = verdict.witness[index] + one * (1000 * sign)
                    assert feasible(_pin(system, index, far), lex_rank).sat, (system, index)
                    seen["open"] += 1
                    continue
                value, strict = side
                assert feasible(_pin(system, index, value), lex_rank).sat == (not strict)
                for step in steps:
                    assert not feasible(_pin(system, index, value + step * sign), lex_rank).sat
                seen["strict" if strict else "closed"] += 1
    assert min(seen[k] for k in ("empty", "open", "strict", "closed")) >= 20, seen


def test_back_substitution_meets_only_nonempty_intervals(monkeypatch):
    """Once elimination finds no contradictory constant row, every interval
    back-substitution reads is nonempty: the rows attaining its two bounds
    combine to a row of the next system, which holds at the values already
    chosen.  A degenerate interval has both sides non-strict, and its
    midpoint is the shared endpoint."""
    seen = Counter()
    bounds_for = linarith._bounds_for

    def checked(rows, idx, partial, rank):
        lo, hi = bounds_for(rows, idx, partial, rank)
        if lo is not None and hi is not None:
            assert lo[0] <= hi[0], (lo, hi)
            if lo[0] == hi[0]:
                assert not lo[1] and not hi[1], (lo, hi)
                assert linarith._interval_pick(lo, hi, rank) == lo[0]
                seen["degenerate"] += 1
            else:
                seen["open"] += 1
        return lo, hi

    monkeypatch.setattr(linarith, "_bounds_for", checked)
    rng, lex_rng = random.Random(202), random.Random(31)
    systems = [_random_system(rng, rng.choice((1, 1, 2, 2, 3))) for _ in range(150)]
    systems += [_lex_system(lex_rng, lex_rng.randint(1, 3), lex_rng.choice((1, 2))) for _ in range(250)]
    for system in systems:
        verdict = feasible(system)
        # "no" exactly when elimination meets a contradictory constant row.
        eliminated = linarith._eliminate_columns(linarith._normalize(system), range(system.nvars - 1, -1, -1))
        assert verdict.sat == (eliminated is not None), system
        seen["sat" if verdict.sat else "unsat"] += 1
    assert min(seen[k] for k in ("degenerate", "open", "sat", "unsat")) >= 20, seen
