"""Brute-force grid oracle for linear feasibility, independent of the solver.

Scans the integer grid [-50, 50]^n scaled by 1/6: the first n-1 coordinates
are enumerated outright and the last is decided by exact integer interval
arithmetic, which gives the same verdict as testing every grid point.  Only
stdlib integers are used; nothing here touches the elimination code.
"""
from __future__ import annotations

from fractions import Fraction

from lbk.lexq import LambdaScalar
from lbk.linarith import GE, GT, ConstraintSystem

GRID_RADIUS = 50
GRID_SCALE = 6


def _integer_rows(system: ConstraintSystem) -> list[tuple[list[int], str, int]]:
    """Clear denominators: rows (c, rel, b) meaning sum c_j i_j rel b over grid indices."""
    rows = []
    for constraint in system.constraints:
        bound = constraint.bound
        assert bound.rank == 1, "oracle runs over plain rationals"
        parts = [Fraction(c) for c in constraint.coeffs] + [bound.parts[0] * GRID_SCALE]
        denom = 1
        for p in parts:
            denom = denom * p.denominator // _gcd(denom, p.denominator)
        coeffs = [int(c * denom) for c in parts[:-1]]
        rows.append((coeffs, constraint.relation, int(parts[-1] * denom)))
    return rows


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def grid_sat(system: ConstraintSystem):
    """A satisfying grid point (tuple of LambdaScalar) or None."""
    n = system.nvars
    rows = _integer_rows(system)
    if n == 0:
        ok = all(_const_holds(rel, 0, b) for coeffs, rel, b in rows)
        return () if ok else None
    point = _scan(rows, n, [])
    if point is None:
        return None
    return tuple(LambdaScalar.rational(Fraction(i, GRID_SCALE)) for i in point)


def _const_holds(rel: str, lhs: int, rhs: int) -> bool:
    if rel == GE:
        return lhs >= rhs
    return lhs > rhs


def _scan(rows, n: int, prefix: list[int]):
    if len(prefix) == n - 1:
        return _last_coordinate(rows, n, prefix)
    for value in range(-GRID_RADIUS, GRID_RADIUS + 1):
        hit = _scan(rows, n, prefix + [value])
        if hit is not None:
            return hit
    return None


def _last_coordinate(rows, n: int, prefix: list[int]):
    lo, hi = -GRID_RADIUS, GRID_RADIUS
    for coeffs, rel, bound in rows:
        partial = sum(c * v for c, v in zip(coeffs[:-1], prefix))
        c = coeffs[n - 1]
        rest = bound - partial
        if c == 0:
            if not _const_holds(rel, partial, bound):
                return None
            continue
        strict = rel == GT
        exact = rest % c == 0
        if c > 0:
            # c*i >= rest  ->  i >= ceil(rest/c), one more when strict and exact
            edge = -((-rest) // c)
            if strict and exact:
                edge += 1
            lo = max(lo, edge)
        else:
            edge = rest // c
            if strict and exact:
                edge -= 1
            hi = min(hi, edge)
    if lo > hi:
        return None
    return prefix + [lo]
