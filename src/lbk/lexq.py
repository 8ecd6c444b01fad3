"""Lexicographically ordered rational tuples.

Every quantity in this library that the geometry treats as a "length" or
"offset" is a :class:`LambdaScalar`: a fixed-rank tuple of exact rationals
compared lexicographically.  Rank 1 is plain Q; rank >= 2 adds layers that
behave like infinitesimals relative to the earlier components, which is what
makes the non-Archimedean examples work.  The scalars form a totally ordered
abelian group closed under division by nonzero integers, so midpoints and
exact elimination never leave the domain.

Internally a scalar is a tuple of ``int`` numerators over one positive
``int`` denominator, always reduced (the gcd of the denominator and every
numerator is 1), so each value has exactly one representation.  Arithmetic,
comparison and ``abs`` work on those ints and create no ``Fraction``, and
every result costs at most one gcd.  The ``parts`` property rebuilds the
public view, a tuple of reduced ``Fraction`` values.
:meth:`LambdaScalar.lincomb` sums a whole linear combination with rational
coefficients over one common denominator and builds only the result; single
pairings and Fourier-Motzkin bounds go through it.  The two integer passes
below bring their scalars to one common denominator by one step (``_scaled``).
The point pass :meth:`LambdaScalar.dots` gives int linear forms of a point as
ints over one denominator; point and germ membership compare such a
value with a bound's :attr:`LambdaScalar.ints` by cross-multiplying, and sector
signs compare two such passes the same way, so none of them builds a scalar.
The apartment metric cross-multiplies two passes too and builds only the
distance, by the fold :meth:`LambdaScalar.sum_abs` of absolute values.
:meth:`LambdaScalar.affine` is ``M x + s`` for an int matrix, one scalar per
output coordinate; point moves go through it.  A scalar keeps its hash once
computed, so a non-integer scalar rebuilds its ``Fraction`` parts for hashing
only once.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

_new = object.__new__


def _make(nums: tuple[int, ...], den: int) -> "LambdaScalar":
    """Trusted constructor: ``den > 0`` and ``gcd(den, *nums) == 1`` hold."""
    s = _new(LambdaScalar)
    s._nums = nums
    s._den = den
    return s


def _reduced(nums: tuple[int, ...], den: int) -> "LambdaScalar":
    """Scalar nums/den for a positive den, after dividing out the common factor."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return _make(tuple(n // g for n in nums), den // g)
    return _make(nums, den)


def _scaled(xs: Sequence["LambdaScalar"]) -> tuple[int, list[Sequence[int]]]:
    """(d, nums): a common denominator d > 0 of the scalars xs, which share one lex rank,
    and the lex components of d * x per x."""
    if not xs:
        raise ValueError("an integer pass needs at least one coordinate")
    d = 1
    for x in xs:  # one pass checks each coordinate and folds its denominator into d
        if not isinstance(x, LambdaScalar):
            raise TypeError(f"expected LambdaScalar, got {type(x).__name__}")
        if len(x._nums) != len(xs[0]._nums):
            raise ValueError(f"lex rank mismatch: {xs[0].rank} vs {x.rank}")
        if x._den != 1:
            d = lcm(d, x._den)
    return d, [x._nums if x._den == d else [n * (d // x._den) for n in x._nums] for x in xs]


def _dots(rows: Iterable[Sequence[int]], cols: list) -> list[list[int]]:
    """Per int row, its dot product with each column."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


class LambdaScalar:
    """Element of lex-ordered Q^k.  Immutable and hashable."""

    __slots__ = ("_nums", "_den", "_hash")  # _hash is set by the first __hash__

    def __init__(self, parts: Iterable[Rational]):
        fracs = [p if isinstance(p, (int, Fraction)) else Fraction(p) for p in parts]
        if not fracs:
            raise ValueError("scalar needs at least one component")
        den = lcm(*(f.denominator for f in fracs))
        # Each component is reduced, so nums and den share no factor.
        self._nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self._den = den

    @classmethod
    def zero(cls, rank: int) -> "LambdaScalar":
        return cls.rational(0, rank)

    @classmethod
    def one(cls, rank: int) -> "LambdaScalar":
        return cls.rational(1, rank)

    @classmethod
    def rational(cls, value: Rational, rank: int = 1) -> "LambdaScalar":
        """Embed a rational as (value, 0, ..., 0); the order embedding Q -> Q^k."""
        if rank < 1:
            raise ValueError("scalar needs at least one component")
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _make((value.numerator,) + (0,) * (rank - 1), value.denominator)

    @staticmethod
    def lincomb(coeffs: Iterable[Rational], xs: Iterable["LambdaScalar"]) -> "LambdaScalar":
        """sum_j coeffs[j] * xs[j] for int or Fraction coefficients.

        Pairs terms as ``zip`` does.  The terms are brought to one common
        denominator and summed as ints, so the result is built once.
        """
        ps: list[int] = []
        dens: list[int] = []
        rows: list[tuple[int, ...]] = []
        for c, x in zip(coeffs, xs):
            if not isinstance(x, LambdaScalar):
                raise TypeError(f"expected LambdaScalar, got {type(x).__name__}")
            if isinstance(c, int):
                ps.append(c)
                dens.append(x._den)
            elif isinstance(c, Fraction):
                ps.append(c.numerator)
                dens.append(c.denominator * x._den)
            else:
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
            rows.append(x._nums)
        if not rows:
            raise ValueError("linear combination needs at least one term")
        rank = len(rows[0])
        for r in rows:
            if len(r) != rank:
                raise ValueError(f"lex rank mismatch: {rank} vs {len(r)}")
        den = lcm(*dens)
        if den != 1:
            ps = [p * (den // d) for p, d in zip(ps, dens)]
        return _reduced(tuple(sum(map(mul, ps, col)) for col in zip(*rows)), den)

    @staticmethod
    def sum_abs(vectors: Iterable[list[int]], rank: int, den: int) -> "LambdaScalar":
        """sum of |v| / den over lists v of rank int lex components, for den > 0: each v is
        negated when its first nonzero component is negative, and only the sum is built."""
        total = zero = [0] * rank
        for v in vectors:
            if v < zero:  # lists compare lexicographically: the sign of the first nonzero
                total = [t - x for t, x in zip(total, v)]
            else:
                total = [t + x for t, x in zip(total, v)]
        return _reduced(tuple(total), den)

    @staticmethod
    def dots(rows: Iterable[Sequence[int]], xs: Sequence["LambdaScalar"]) -> tuple[int, list[list[int]]]:
        """(d, dots): a common denominator d > 0 of xs, and per int row the lex
        components of d * sum_j row[j] * xs[j], in one integer pass; no scalar is built."""
        d, nums = _scaled(xs)
        return d, _dots(rows, list(zip(*nums)))

    @staticmethod
    def affine(matrix: Sequence[Sequence[int]], xs: Sequence["LambdaScalar"], shift: Sequence["LambdaScalar"]) -> tuple["LambdaScalar", ...]:
        """matrix * xs + shift for an int matrix, over one common denominator of xs and
        shift, building one scalar per output coordinate."""
        n = len(xs)
        if not n:
            raise ValueError("an integer pass needs at least one coordinate")
        d, nums = _scaled([*xs, *shift])
        cols = list(zip(*nums[:n]))
        return tuple([
            _reduced(tuple([sum(map(mul, row, col)) + s for col, s in zip(cols, t)]), d) for row, t in zip(matrix, nums[n:])
        ])

    @property
    def parts(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    @property
    def ints(self) -> tuple[tuple[int, ...], int]:
        """(nums, den): the lex components as int numerators over one positive denominator."""
        return self._nums, self._den

    @property
    def rank(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def sign(self) -> int:
        for n in self._nums:
            if n:
                return 1 if n > 0 else -1
        return 0

    def _check(self, other: "LambdaScalar") -> None:
        if not isinstance(other, LambdaScalar):
            raise TypeError(f"expected LambdaScalar, got {type(other).__name__}")
        if len(other._nums) != len(self._nums):
            raise ValueError(f"lex rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "LambdaScalar") -> "LambdaScalar":
        self._check(other)
        d1, d2 = self._den, other._den
        return _reduced(tuple(a * d2 + b * d1 for a, b in zip(self._nums, other._nums)), d1 * d2)

    def __sub__(self, other: "LambdaScalar") -> "LambdaScalar":
        self._check(other)
        d1, d2 = self._den, other._den
        return _reduced(tuple(a * d2 - b * d1 for a, b in zip(self._nums, other._nums)), d1 * d2)

    def __neg__(self) -> "LambdaScalar":
        return _make(tuple(-n for n in self._nums), self._den)

    def __mul__(self, factor: Rational) -> "LambdaScalar":
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        p, q = factor.numerator, factor.denominator
        return _reduced(tuple(n * p for n in self._nums), self._den * q)

    __rmul__ = __mul__

    def __truediv__(self, divisor: Rational) -> "LambdaScalar":
        if not isinstance(divisor, (int, Fraction)):
            return NotImplemented
        p, q = divisor.numerator, divisor.denominator
        if p == 0:
            raise ZeroDivisionError("scalar division by zero")
        if p < 0:
            p, q = -p, -q
        return _reduced(tuple(n * q for n in self._nums), self._den * p)

    def __abs__(self) -> "LambdaScalar":
        return self if self.sign() >= 0 else -self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LambdaScalar)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        # Integers hash like the equal Fractions, so hash(s) == hash(s.parts);
        # for the common integer scalars this builds no Fraction, and each
        # scalar computes its hash once.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._nums) if self._den == 1 else hash(self.parts)
            return self._hash

    def __reduce__(self):
        # Copies and pickles carry the value, not the kept hash, which holds for this build of Python only.
        return _make, (self._nums, self._den)

    def _cross(self, other: "LambdaScalar") -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Numerators of self and other over a shared denominator."""
        self._check(other)
        d1, d2 = self._den, other._den
        return tuple(a * d2 for a in self._nums), tuple(b * d1 for b in other._nums)

    def __lt__(self, other: "LambdaScalar") -> bool:
        a, b = self._cross(other)
        return a < b

    def __le__(self, other: "LambdaScalar") -> bool:
        a, b = self._cross(other)
        return a <= b

    def __gt__(self, other: "LambdaScalar") -> bool:
        a, b = self._cross(other)
        return a > b

    def __ge__(self, other: "LambdaScalar") -> bool:
        a, b = self._cross(other)
        return a >= b

    def __str__(self) -> str:
        return "|".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"LambdaScalar({self})"
