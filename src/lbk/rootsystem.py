"""Spherical root systems from Cartan data, and their finite reflection groups.

Conventions, fixed once and used consistently everywhere:

* simple reflections act on root coefficients by sigma_i(alpha_j) =
  alpha_j - a_ij * alpha_i, where A = (a_ij) is the Cartan matrix;
* the symmetrizer D = diag(d_1..d_n) is the positive rational vector making
  D*A symmetric, rescaled so min d_i = 1.  With the pairing
  (alpha_i, v) = d_i * sum_j a_ij lambda_j this is exactly the choice that
  makes the pairing a symmetric reflection-invariant form (see README,
  "Conventions").

Each group element is one object, built by a breadth-first enumeration of the group: every route to it returns
that object, so it is its own key, and elements of two separately built systems neither compare equal nor multiply.
It holds its integer action matrix on base coordinates, its lexicographically least reduced word, its place in the
group's (length, word) order, and its system weakly, so that a system is freed by reference count.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence, Union
from weakref import proxy

from .lexq import LambdaScalar

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_ROOT_CLOSURE_FACTOR = 10
WEYL_CAP = 10000  # _enumerate gives up on larger reflection groups
MAX_RANK = 16  # every root system of rank 14 or more exceeds WEYL_CAP


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(m: Matrix, v: Sequence[int]) -> Root:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def named_cartan(name: str) -> Matrix:
    """Cartan matrix for a type label such as A2, B3, C2 or G2."""
    label = name.strip().upper().replace("_", "")
    if len(label) < 2 or label[0] not in "ABCG" or not label[1:].isdigit():
        raise ValueError(f"unknown root system type {name!r}")
    family, n = label[0], int(label[1:])
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK} in {name!r}")
    if family == "G":
        if n != 2:
            raise ValueError("type G only exists in rank 2")
        return ((2, -3), (-1, 2))
    if family in "BC" and n < 2:
        raise ValueError(f"type {family} needs rank >= 2")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = -1
            rows[i + 1][i] = -1
    if family == "B":
        # Last simple root short: the (n-1, n) bond doubles one way.
        rows[n - 2][n - 1] = -1
        rows[n - 1][n - 2] = -2
    elif family == "C":
        rows[n - 2][n - 1] = -2
        rows[n - 1][n - 2] = -1
    return tuple(tuple(r) for r in rows)


def _validate_cartan(cartan: Matrix) -> None:
    n = len(cartan)
    if not n:
        raise ValueError("Cartan matrix is empty")
    if n > MAX_RANK:
        raise ValueError(f"Cartan rank {n} exceeds {MAX_RANK}")
    for row in cartan:
        if len(row) != n:
            raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")


def _symmetrizer(cartan: Matrix) -> tuple[Fraction, ...]:
    """Positive d with d_i * a_ij == d_j * a_ji, normalized to min d_i = 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i == j or cartan[i][j] == 0:
                    continue
                value = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = value
                    queue.append(j)
                elif d[j] != value:
                    raise ValueError("Cartan matrix is not symmetrizable")
    lo = min(d)  # type: ignore[type-var]
    return tuple(v / lo for v in d)  # type: ignore[union-attr]


class WeylElement:
    """Finite reflection group element: action matrix, canonical word and its ``index`` in :meth:`RootSystem.weyl_elements`.
    Its system, held through its weak proxy, builds one instance per element, so equality and hash are identity."""

    __slots__ = ("system", "matrix", "word", "index")

    def __init__(self, system: "RootSystem", matrix: Matrix, word: tuple[int, ...], index: int):
        self.system = system
        self.matrix = matrix
        self.word = word
        self.index = index

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.system is not self.system:
            raise ValueError("cannot multiply elements of different root systems")
        return self.system._product(self, other)

    def inverse(self) -> "WeylElement":
        return self.system._inverse(self)

    def act_root(self, root: Sequence[int]) -> Root:
        return _mat_vec(self.matrix, root)

    def act_point(self, coords):
        """Apply the integer action matrix to a tuple of LambdaScalars."""
        return tuple(LambdaScalar.lincomb(row, coords) for row in self.matrix)

    def __repr__(self) -> str:
        return "e" if not self.word else "*".join(f"r{i}" for i in self.word)


class RootSystem:
    """Cartan matrix, symmetrizer, positive roots and the reflection group."""

    def __init__(self, cartan: Iterable[Iterable[int]], *, label: str = ""):
        matrix = tuple(tuple(int(x) for x in row) for row in cartan)
        _validate_cartan(matrix)
        self.cartan: Matrix = matrix
        self.rank = len(matrix)
        self.label = label
        self.sym = _symmetrizer(matrix)
        self.positive_roots: tuple[Root, ...] = self._close_positive_roots()
        self._positive_set = frozenset(self.positive_roots)
        self._elements: list[WeylElement] | None = None
        self._by_matrix: dict[Matrix, WeylElement] = {}
        # Products and inverses, keyed by the elements and filled on first use: the group is finite.  Generators are
        # involutions, so the reversed word gives the inverse.  Tables and elements reach the system by its weak proxy.
        me = proxy(self)
        self._product = cache(lambda a, b: me.element(_mat_mul(a.matrix, b.matrix)))
        self._inverse = cache(lambda w: me.from_word(reversed(w.word)))

    # -- roots ---------------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """Coefficient vector of alpha_i (1-based index)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def reflection_matrix(self, i: int) -> Matrix:
        """Action matrix of sigma_i on root coefficients (1-based index)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range")
        k = i - 1
        rows = []
        for r in range(self.rank):
            if r == k:
                rows.append(tuple((1 if j == k else 0) - self.cartan[k][j] for j in range(self.rank)))
            else:
                rows.append(tuple(1 if j == r else 0 for j in range(self.rank)))
        return tuple(rows)

    def _close_positive_roots(self) -> tuple[Root, ...]:
        bound = _ROOT_CLOSURE_FACTOR * self.rank * self.rank
        reflections = [self.reflection_matrix(i) for i in range(1, self.rank + 1)]
        roots: set[Root] = {self.simple_root(i) for i in range(1, self.rank + 1)}
        frontier = list(roots)
        while frontier:
            nxt = []
            for r in frontier:
                for m in reflections:
                    image = _mat_vec(m, r)
                    if image not in roots and tuple(-x for x in image) not in roots:
                        roots.add(image)
                        nxt.append(image)
            if len(roots) > bound:
                raise ValueError("Cartan matrix is not of finite type (root closure diverges)")
            frontier = nxt
        positive = sorted(roots)
        if any(any(c < 0 for c in r) for r in positive):
            raise AssertionError("root closure produced a non-positive representative")
        return tuple(positive)

    def is_positive_root(self, root: Sequence[int]) -> bool:
        return tuple(root) in self._positive_set

    def is_root(self, root: Sequence[int]) -> bool:
        r = tuple(root)
        return r in self._positive_set or tuple(-c for c in r) in self._positive_set

    # -- group ---------------------------------------------------------

    def _enumerate(self) -> None:
        """Build the group once (not a memo but the group itself, which raises past WEYL_CAP), level by level: a level's
        words are the previous level's, in order, each followed by the generators in turn, so they come in (length, word) order."""
        if self._elements is not None:
            return
        identity = WeylElement(me := proxy(self), _identity(self.rank), (), 0)
        by_matrix = {identity.matrix: identity}
        elements = [identity]
        level = [identity]
        reflections = [self.reflection_matrix(i) for i in range(1, self.rank + 1)]
        while level:
            nxt = []
            for w in level:
                for i in range(1, self.rank + 1):
                    m = _mat_mul(w.matrix, reflections[i - 1])
                    if m not in by_matrix:
                        elem = WeylElement(me, m, w.word + (i,), len(elements))
                        by_matrix[m] = elem
                        elements.append(elem)
                        nxt.append(elem)
                        if len(elements) > WEYL_CAP:
                            raise ValueError(
                                f"reflection group exceeds the cap of {WEYL_CAP} elements"
                            )
            level = nxt
        self._elements = elements
        self._by_matrix = by_matrix

    def weyl_elements(self) -> list[WeylElement]:
        """Every group element, sorted by (length, word)."""
        self._enumerate()
        return list(self._elements)  # type: ignore[arg-type]

    def element(self, matrix: Matrix) -> WeylElement:
        self._enumerate()
        try:
            return self._by_matrix[matrix]
        except KeyError:
            raise ValueError("matrix is not the action of any group element") from None

    def identity(self) -> WeylElement:
        self._enumerate()
        return self._by_matrix[_identity(self.rank)]

    def simple(self, i: int) -> WeylElement:
        return self.element(self.reflection_matrix(i))

    def from_word(self, word: Sequence[int]) -> WeylElement:
        m = _identity(self.rank)
        for i in word:
            m = _mat_mul(m, self.reflection_matrix(int(i)))
        return self.element(m)

    def longest_element(self) -> WeylElement:
        elements = self.weyl_elements()
        top = max(w.length for w in elements)
        longest = [w for w in elements if w.length == top]
        if len(longest) != 1:
            raise AssertionError("longest element is not unique")
        return longest[0]

    def __repr__(self) -> str:
        return f"RootSystem({self.label or self.cartan})"


def build_root_system(spec: Union[str, Iterable[Iterable[int]]]) -> RootSystem:
    """Build from a type name ("A2", "B3", "C2", "G2") or an explicit Cartan matrix."""
    if isinstance(spec, str):
        return RootSystem(named_cartan(spec), label=spec.strip().upper().replace("_", ""))
    return RootSystem(spec)

