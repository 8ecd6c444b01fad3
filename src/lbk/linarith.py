"""Exact linear feasibility over the ordered scalars.

Systems have rational coefficients and :class:`~lbk.lexq.LambdaScalar`
bounds; the unknowns range over the scalar group itself.  Because that group
is a densely ordered Q-vector space, Fourier-Motzkin elimination is a
complete decision procedure: a system is satisfiable iff the eliminated
system has no contradictory constant row, and a witness can be rebuilt by
back-substitution, which never meets an empty interval: the rows attaining a
variable's two bounds combine to a row of the next system, which already
holds (Schrijver, Theory of Linear and Integer Programming, section 12.2).

Witness extraction, per interval shape:

* two-sided interval -> midpoint (the shared endpoint when degenerate),
* lower bound only   -> bound + 1,
* upper bound only   -> bound - 1,
* free               -> 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lexq import LambdaScalar

GE = ">="
GT = ">"

_RELATIONS = (GE, GT)


@dataclass(frozen=True)
class LinearConstraint:
    """sum_j coeffs[j] * x_j  >= or >  bound (an equality is two >= rows)."""

    coeffs: tuple[Fraction, ...]
    relation: str
    bound: LambdaScalar

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        coeffs = self.coeffs
        if type(coeffs) is not tuple or not all(type(c) is Fraction for c in coeffs):
            coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
            object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, point: Sequence[LambdaScalar]) -> bool:
        if len(point) != len(self.coeffs):
            raise ValueError("point arity does not match constraint")
        total = LambdaScalar.lincomb(self.coeffs, point)
        if self.relation == GE:
            return total >= self.bound
        return total > self.bound

    def negation(self) -> "LinearConstraint":
        """The complement of this constraint: >= and > swap, row and bound negated."""
        neg = tuple(-c for c in self.coeffs)
        if self.relation == GE:
            return LinearConstraint(neg, GT, -self.bound)
        return LinearConstraint(neg, GE, -self.bound)


@dataclass(frozen=True)
class ConstraintSystem:
    nvars: int
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if len(c.coeffs) != self.nvars:
                raise ValueError("constraint arity does not match system")

    def holds_at(self, point: Sequence[LambdaScalar]) -> bool:
        return all(c.evaluate(point) for c in self.constraints)


@dataclass(frozen=True)
class Feasibility:
    sat: bool
    witness: Optional[tuple[LambdaScalar, ...]]


# Internal rows all read "sum_j coeffs[j] x_j >= bound" (strict when flagged).
_Row = tuple[tuple[Fraction, ...], bool, LambdaScalar]


def _normalize(system: ConstraintSystem) -> list[_Row]:
    return [(c.coeffs, c.relation == GT, c.bound) for c in system.constraints]


def _constant_row_ok(row: _Row) -> bool:
    coeffs, strict, bound = row
    zero = bound * 0
    return zero > bound if strict else zero >= bound


def _combine(lower: _Row, upper: _Row, idx: int) -> _Row:
    """Eliminate column idx between a lower row (coeff > 0) and an upper one (< 0)."""
    c1 = lower[0][idx]
    c2 = upper[0][idx]
    coeffs = tuple(c1 * b - c2 * a for a, b in zip(lower[0], upper[0]))
    bound = LambdaScalar.lincomb((-c2, c1), (lower[2], upper[2]))
    return (coeffs, lower[1] or upper[1], bound)


def _eliminate_rows(rows: list[_Row], idx: int) -> list[_Row]:
    """The rows with column idx eliminated: rows without it, plus every
    lower/upper combination (coefficient > 0 / < 0), deduplicated."""
    lowers: list[_Row] = []
    uppers: list[_Row] = []
    kept: list[_Row] = []
    for row in rows:
        c = row[0][idx]
        if c > 0:
            lowers.append(row)
        elif c < 0:
            uppers.append(row)
        else:
            kept.append(row)
    seen = set(kept)
    for lo in lowers:
        for up in uppers:
            combo = _combine(lo, up, idx)
            if combo not in seen:
                seen.add(combo)
                kept.append(combo)
    return kept


def _contradicts(rows: list[_Row]) -> bool:
    return any(not any(row[0]) and not _constant_row_ok(row) for row in rows)


def _eliminate_columns(rows: list[_Row], columns: Sequence[int]) -> Optional[tuple[list[_Row], list]]:
    """Eliminate the columns in order, or return None as soon as a constant
    row is contradictory.  Returns the remaining rows and, per column, the
    rows that mention it before its elimination (for back-substitution)."""
    stages: list[tuple[int, list[_Row]]] = []
    if _contradicts(rows):
        return None
    for idx in columns:
        stages.append((idx, [r for r in rows if r[0][idx] != 0]))
        rows = _eliminate_rows(rows, idx)
        if _contradicts(rows):
            return None
    return rows, stages


def _interval_pick(
    lo: Optional[tuple[LambdaScalar, bool]],
    hi: Optional[tuple[LambdaScalar, bool]],
    rank: int,
) -> LambdaScalar:
    one = LambdaScalar.one(rank)
    if lo is None and hi is None:
        return LambdaScalar.zero(rank)
    if hi is None:
        return lo[0] + one
    if lo is None:
        return hi[0] - one
    return (lo[0] + hi[0]) / 2


def _bounds_for(rows: list[_Row], idx: int, partial: dict[int, LambdaScalar], rank: int):
    """Lower/upper bounds on variable idx once later variables are known."""
    lo: Optional[tuple[LambdaScalar, bool]] = None
    hi: Optional[tuple[LambdaScalar, bool]] = None
    for coeffs, strict, bound in rows:
        c = coeffs[idx]
        rest = LambdaScalar.zero(rank)
        for j, a in enumerate(coeffs):
            if j != idx and a != 0:
                rest = rest + partial[j] * a
        limit = (bound - rest) / c
        if c > 0:
            if lo is None or limit > lo[0] or (limit == lo[0] and strict):
                lo = (limit, strict)
        else:
            if hi is None or limit < hi[0] or (limit == hi[0] and strict):
                hi = (limit, strict)
    return lo, hi


def feasible(system: ConstraintSystem, lex_rank: Optional[int] = None) -> Feasibility:
    """Decide satisfiability exactly; on SAT also return a checkable witness.

    ``lex_rank`` is only needed for systems with no constraints at all (the
    witness has to live somewhere); otherwise it is read off the bounds.
    """
    if lex_rank is None:
        lex_rank = system.constraints[0].bound.rank if system.constraints else 1
    eliminated = _eliminate_columns(_normalize(system), range(system.nvars - 1, -1, -1))
    if eliminated is None:
        return Feasibility(False, None)
    _, stages = eliminated

    partial: dict[int, LambdaScalar] = {}
    for idx, active in reversed(stages):
        lo, hi = _bounds_for(active, idx, partial, lex_rank)
        partial[idx] = _interval_pick(lo, hi, lex_rank)
    witness = tuple(partial[i] for i in range(system.nvars))
    if not system.holds_at(witness):
        raise AssertionError("internal error: witness fails re-substitution")
    return Feasibility(True, witness)


def project_interval(system: ConstraintSystem, index: int, lex_rank: Optional[int] = None):
    """Exact bounds of variable ``index`` over the solution set.

    Returns ``None`` when the system is infeasible, else a pair
    ``(lower, upper)`` where each side is ``None`` (unbounded) or a tuple
    ``(value, strict)``.
    """
    if lex_rank is None:
        lex_rank = system.constraints[0].bound.rank if system.constraints else 1
    columns = [idx for idx in range(system.nvars - 1, -1, -1) if idx != index]
    eliminated = _eliminate_columns(_normalize(system), columns)
    if eliminated is None:
        return None
    rows, _ = eliminated
    lo, hi = _bounds_for([r for r in rows if r[0][index] != 0], index, {}, lex_rank)
    if lo is not None and hi is not None:
        if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
            return None
    return lo, hi
