"""Reference computations that share no code with lbk.

The checks in this benchmark compare lbk's answers with values rebuilt here
from first principles: the pairing and the metric from a Cartan matrix in
plain ``fractions.Fraction`` arithmetic, and the chamber and apartment counts
of the fixture families from their closed forms.  Scalars are handled as
tuples of Fractions compared lexicographically, the same values lbk's
``LambdaScalar.parts`` hold.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

# Order of the finite reflection group of each root system the ladder uses.
WEYL_ORDER = {"A1": 2, "A2": 6, "B2": 8, "G2": 12}

Lex = tuple  # tuple[Fraction, ...], lexicographically ordered


def lex_abs(x: Lex) -> Lex:
    for part in x:
        if part:
            return x if part > 0 else tuple(-p for p in x)
    return x


def lex_add(x: Lex, y: Lex) -> Lex:
    return tuple(a + b for a, b in zip(x, y))


def symmetrizer(cartan) -> list[Fraction]:
    """d with d_i a_ij = d_j a_ji, scaled so that min d_i = 1."""
    n = len(cartan)
    d: list = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        todo = [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if i != j and cartan[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    todo.append(j)
    low = min(d)
    return [x / low for x in d]


def positive_roots(cartan) -> set[tuple[int, ...]]:
    """Closure of the simple roots under s_k(b) = b - (sum_j a_kj b_j) alpha_k."""
    n = len(cartan)
    simple = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    roots = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for k in range(n):
            c = sum(cartan[k][j] * b[j] for j in range(n))
            image = tuple(b[i] - c * (i == k) for i in range(n))
            if image not in roots and all(x >= 0 for x in image):
                roots.add(image)
                todo.append(image)
    return roots


class Pairing:
    """(alpha, v) = sum_ij r_i d_i a_ij v_j and the metric sum_{alpha>0} |(alpha, v - w)|."""

    def __init__(self, cartan):
        self.cartan = [[int(x) for x in row] for row in cartan]
        self.sym = symmetrizer(self.cartan)
        self.roots = sorted(positive_roots(self.cartan))

    def pair(self, root, point: tuple[Lex, ...]) -> Lex:
        n = len(self.cartan)
        rank = len(point[0])
        weights = [
            sum(root[i] * self.sym[i] * self.cartan[i][j] for i in range(n)) for j in range(n)
        ]
        return tuple(
            sum((weights[j] * point[j][k] for j in range(n)), Fraction(0)) for k in range(rank)
        )

    def distance(self, p: tuple[Lex, ...], q: tuple[Lex, ...]) -> Lex:
        diff = tuple(tuple(a - b for a, b in zip(x, y)) for x, y in zip(p, q))
        total = tuple(Fraction(0) for _ in p[0])
        for root in self.roots:
            total = lex_add(total, lex_abs(self.pair(root, diff)))
        return total

    def holds(self, root, sense: int, bound: Lex, point: tuple[Lex, ...]) -> bool:
        value = self.pair(root, point)
        return value >= bound if sense == 1 else value <= bound


def pairing(cartan) -> Pairing:
    """The Pairing of a Cartan matrix, built when a check first needs it.

    Checks run outside the timed spans, so the reference data is built there
    too and not in a workload's set-up.
    """
    return _pairing(tuple(tuple(int(x) for x in row) for row in cartan))


@cache
def _pairing(cartan: tuple) -> Pairing:
    return Pairing(cartan)


def parse_point(text: str) -> tuple[Lex, ...]:
    """Read a point printed as ``(a|b,c|d)``: coordinates split by ',', parts by '|'."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a point: {text!r}")
    return tuple(
        tuple(Fraction(part) for part in coord.split("|")) for coord in body[1:-1].split(",")
    )


def expected_counts(family: str, size: int, roots: str, pruned: bool) -> tuple[int, int]:
    """(chambers, apartments) at infinity of a ladder member, pruned or not.

    A tree with n ends has n chambers and C(n,2) apartments; fan(m, R) has
    m*|W|/2 chambers and C(m,2) apartments; one chart has |W| chambers and one
    apartment.  Dropping a chart of a tree or fan removes one apartment and no
    chamber, since every end or leaf still lies in another chart.
    """
    w = WEYL_ORDER[roots]
    if family == "tree":
        chambers, apartments = size, comb(size, 2)
    elif family == "fan":
        chambers, apartments = size * w // 2, comb(size, 2)
    elif family == "single":
        chambers, apartments = w, 1
    else:
        raise ValueError(f"no closed form for {family!r}")
    return chambers, apartments - (1 if pruned else 0)
