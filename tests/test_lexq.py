import copy
import pickle
import random
from fractions import Fraction as Q

import pytest

from lbk.apartment import Apartment
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system


def lam(*parts):
    return LambdaScalar([Q(p) for p in parts])


def test_lexicographic_examples():
    assert lam(0, 1) < lam(1, 0)
    assert lam(2, -5) == lam(2, -5)
    assert lam(Q(1, 2), 100) > lam(Q(1, 2), 99)


def test_abs_examples():
    assert abs(lam(0, 0)) == lam(0, 0)
    assert abs(lam(-1, 3)) == lam(1, -3)
    assert abs(lam(0, -2)) == lam(0, 2)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        lam(1) < lam(1, 0)
    with pytest.raises(ValueError):
        lam(1) + lam(1, 0)


def test_group_and_module_laws():
    a, b = lam(1, -2), lam(Q(3, 4), 5)
    assert a + b == b + a
    assert a - a == lam(0, 0)
    assert -(-a) == a
    assert (a * 6) / 6 == a
    assert a * Q(2, 3) == LambdaScalar([Q(2, 3), Q(-4, 3)])


def test_divisibility():
    rng = random.Random(11)
    for _ in range(200):
        a = lam(Q(rng.randint(-30, 30), rng.randint(1, 9)), Q(rng.randint(-30, 30), rng.randint(1, 9)))
        m = rng.randint(1, 12)
        b = a / m
        assert b * m == a


def test_total_order_properties():
    rng = random.Random(5)

    def rand():
        return lam(Q(rng.randint(-6, 6), rng.randint(1, 4)), Q(rng.randint(-6, 6), rng.randint(1, 4)))

    for _ in range(500):
        a, b, c = rand(), rand(), rand()
        # totality: exactly one of <, ==, > holds
        assert (a < b) + (a == b) + (a > b) == 1
        # antisymmetry
        if a <= b and b <= a:
            assert a == b
        # transitivity
        if a <= b and b <= c:
            assert a <= c


def test_abs_properties():
    rng = random.Random(9)
    for _ in range(200):
        a = lam(Q(rng.randint(-9, 9), rng.randint(1, 5)), Q(rng.randint(-9, 9), rng.randint(1, 5)))
        assert abs(a) >= LambdaScalar.zero(2)
        assert (abs(a) == LambdaScalar.zero(2)) == a.is_zero()


def test_embedding_and_formatting():
    assert LambdaScalar.rational(Q(3, 2), 3).parts == (Q(3, 2), 0, 0)
    assert str(lam(Q(1, 2), -3)) == "1/2|-3"
    assert LambdaScalar.one(2) > LambdaScalar.zero(2)


# -- the int-numerator kernel against a plain Fraction-tuple reference ---------

CASES = 300


def rand_parts(rng, rank):
    return tuple(Q(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(rank))


def rand_factor(rng):
    if rng.random() < 0.5:
        return rng.randint(-12, 12)
    return Q(rng.randint(-50, 50), rng.randint(1, 12))


def ref_sign(parts):
    for p in parts:
        if p:
            return 1 if p > 0 else -1
    return 0


def seeded_pairs(seed):
    rng = random.Random(seed)
    for _ in range(CASES):
        rank = rng.randint(1, 3)
        yield rng, rank, rand_parts(rng, rank), rand_parts(rng, rank)


def test_kernel_matches_fraction_reference():
    for rng, rank, x, y in seeded_pairs(17):
        a, b = LambdaScalar(x), LambdaScalar(y)
        assert a.parts == x and all(type(p) is Q for p in a.parts)
        assert a.rank == rank
        assert (a + b).parts == tuple(p + q for p, q in zip(x, y))
        assert (a - b).parts == tuple(p - q for p, q in zip(x, y))
        assert (-a).parts == tuple(-p for p in x)
        f = rand_factor(rng)
        assert (a * f).parts == tuple(p * f for p in x)
        assert (f * a).parts == tuple(p * f for p in x)
        if f:
            assert (a / f).parts == tuple(p / Q(f) for p in x)
        assert (abs(a)).parts == (x if ref_sign(x) >= 0 else tuple(-p for p in x))
        assert a.sign() == ref_sign(x)
        assert a.is_zero() == (ref_sign(x) == 0)
        assert str(a) == "|".join(str(p) for p in x)
        assert repr(a) == f"LambdaScalar({a})"
        assert hash(a) == hash(x)
        assert (a == b) == (x == y) and (a != b) == (x != y)
        assert (a < b) == (x < y) and (a <= b) == (x <= y)
        assert (a > b) == (x > y) and (a >= b) == (x >= y)
        assert a == LambdaScalar(x) and hash(a) == hash(LambdaScalar(list(x)))


def canonical_routes(a, b, rank):
    """Routes by which a's value is reached again."""
    return [(a + b) - b, (a * 6) / 6, -(-a), (a * Q(7, 3)) * Q(3, 7), a + LambdaScalar.zero(rank)]


def test_kernel_values_are_canonical():
    # One representation per value: results reached by different routes are
    # equal, hash alike and sort alike.
    for rng, rank, x, y in seeded_pairs(23):
        a, b = LambdaScalar(x), LambdaScalar(y)
        for r in canonical_routes(a, b, rank):
            assert r == a and r.parts == x and hash(r) == hash(a) and str(r) == str(a)
        assert not (a - a).sign() and (a - a) == LambdaScalar.zero(rank)
        assert a * 0 == LambdaScalar.zero(rank) and a * Q(0) == LambdaScalar.zero(rank)


def test_kept_hash_is_the_parts_hash():
    # The first __hash__ keeps the hash; it is hash(parts) on the first call and
    # every later one, and copies and pickles, made before or after, agree.
    for rng, rank, x, y in seeded_pairs(37):
        a, b = LambdaScalar(x), LambdaScalar(y)
        for r in canonical_routes(a, b, rank) + [a, LambdaScalar.lincomb([1, -1], [a, b]) + b]:
            before = [copy.copy(r), pickle.loads(pickle.dumps(r))]
            assert hash(r) == hash(x)
            assert hash(r) == hash(r.parts) == hash(x)
            for c in before + [copy.copy(r), pickle.loads(pickle.dumps(r))]:
                assert c == r and hash(c) == hash(x)
                assert hash(c) == hash(c.parts)


def fold(coeffs, xs):
    """The loop lincomb replaces: total = total + x * c over the nonzero terms."""
    total = xs[0] * 0
    for c, x in zip(coeffs, xs):
        if c != 0:
            total = total + x * c
    return total


def test_lincomb_matches_fold_and_reference():
    rng = random.Random(29)
    for _ in range(CASES):
        rank, terms = rng.randint(1, 3), rng.randint(1, 6)
        xs = [rand_parts(rng, rank) for _ in range(terms)]
        coeffs = [rand_factor(rng) for _ in range(terms)]
        scalars = [LambdaScalar(x) for x in xs]
        got = LambdaScalar.lincomb(coeffs, scalars)
        assert got == fold(coeffs, scalars)
        assert got.parts == tuple(sum((c * x[k] for c, x in zip(coeffs, xs)), Q(0)) for k in range(rank))
        # zip pairing: surplus terms on either side are ignored
        assert LambdaScalar.lincomb(coeffs + [1], scalars) == got
        assert LambdaScalar.lincomb(iter(coeffs), iter(scalars + [scalars[0]])) == got


def test_signs_match_the_sign_of_each_lincomb():
    """Apartment.pass_signs reads a sign per row off two passes over any int rows (LambdaScalar.dots)."""
    signs = Apartment(build_root_system("A1")).pass_signs
    rng = random.Random(43)
    for _ in range(CASES):
        rank, terms, nrows = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 6)
        xs = [LambdaScalar(rand_parts(rng, rank)) for _ in range(terms)]
        # Some coordinates repeat, so some rows pair to zero or lead with a zero component.
        ys = [x if rng.random() < 0.3 else LambdaScalar(rand_parts(rng, rank)) for x in xs]
        rows = [[rng.randint(-3, 3) for _ in range(terms)] for _ in range(nrows)]
        rows[rng.randrange(nrows)] = [0] * terms
        diffs = [x - y for x, y in zip(xs, ys)]
        passes = LambdaScalar.dots(rows, xs), LambdaScalar.dots(rows, ys)
        assert signs(*passes) == tuple(LambdaScalar.lincomb(row, diffs).sign() for row in rows)
        assert signs(passes[0], passes[0]) == (0,) * nrows
    # The sign is the first nonzero component's: (0|-1) is negative.
    rows = [[1], [-2], [0]]
    assert signs(LambdaScalar.dots(rows, [LambdaScalar([0, -1])]), LambdaScalar.dots(rows, [LambdaScalar.zero(2)])) == (-1, 1, 0)


def rand_point(rng, rank, coords=2):
    """Coordinates with mixed denominators, an integer one now and then."""
    return tuple(
        LambdaScalar(rand_parts(rng, rank) if rng.random() < 0.8 else [rng.randint(-9, 9) for _ in range(rank)])
        for _ in range(coords)
    )


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_affine_matches_act_point_plus_shift(name):
    """M x + s in one pass equals the action row by row through lincomb, plus the shift, for every Weyl element."""
    rng = random.Random(f"affine:{name}")
    for w in build_root_system(name).weyl_elements():
        for _ in range(20):
            rank = rng.randint(1, 3)
            x, shift = rand_point(rng, rank), rand_point(rng, rank)
            want = tuple(LambdaScalar.lincomb(row, x) + t for row, t in zip(w.matrix, shift))
            assert LambdaScalar.affine(w.matrix, x, shift) == want
            assert LambdaScalar.affine(w.matrix, x, (LambdaScalar.zero(rank),) * 2) == w.act_point(x)


def test_dots_match_lincomb():
    rng = random.Random(59)
    for _ in range(CASES):
        rank, terms, nrows = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 6)
        xs = rand_point(rng, rank, terms)
        rows = [[rng.randint(-3, 3) for _ in range(terms)] for _ in range(nrows)]
        d, dots = LambdaScalar.dots(rows, xs)
        assert d > 0
        assert [LambdaScalar([Q(n, d) for n in v]) for v in dots] == [LambdaScalar.lincomb(row, xs) for row in rows]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_half_sides_from_the_point_pass(name):
    """A one-half row holds p, read from p's one pass (Apartment.holds), exactly when the side
    sense * (pairing(root, p) - bound) has sign at least 0, for every root, both senses, tight
    bounds and lex ranks 1-3.  Given a direction w, it holds the germ of w at p exactly when the
    side is 1, or 0 and the half caps no generator w.u_k of the cone: sense * (root, w.u_k) < 0."""
    rng = random.Random(f"sides:{name}")
    roots = build_root_system(name)
    every_root = list(roots.positive_roots) + [tuple(-c for c in r) for r in roots.positive_roots]
    seen = {True: 0, False: 0}
    for lex_rank in (1, 2, 3):
        ap = Apartment(roots, lex_rank)
        cones = {w: ap.sector_cone(w) for w in ap.directions()}
        for _ in range(20):
            p = rand_point(rng, lex_rank)
            pass_ = ap.root_dots(p)
            for root in every_root:
                value, row = ap.pairing(root, p), ap.pairing_row(root)
                for sense in (1, -1):
                    for bound in (value, LambdaScalar(rand_parts(rng, lex_rank)), value + LambdaScalar.rational(Q(1, 7), lex_rank)):
                        side = sense * (value - bound).sign()
                        region = ap.region([ap.half(root, sense, bound)])
                        assert ap.holds(ap.rows(region), pass_) == (side >= 0)
                        assert ap.region_contains_point(region, p) == (side >= 0)
                        w = rng.choice(list(cones))
                        caps = any(sense * sum(a * x for a, x in zip(row, u)) < 0 for u in cones[w])
                        assert ap.holds(ap.rows(region), pass_, w) == (side > 0 or side == 0 and not caps)
                        if not side:
                            seen[caps] += 1
    assert min(seen.values()) >= 50, seen


def test_ordered_group_laws():
    for rng, rank, x, y in seeded_pairs(31):
        a, b, c = LambdaScalar(x), LambdaScalar(y), LambdaScalar(rand_parts(rng, rank))
        zero = LambdaScalar.zero(rank)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a and a + (-a) == zero
        if a <= b:
            assert a + c <= b + c
            assert a * 3 <= b * 3 and a * Q(1, 5) <= b * Q(1, 5)
            assert a * -2 >= b * -2
        assert abs(a + b) <= abs(a) + abs(b)
        assert abs(a) >= zero and abs(-a) == abs(a)
        assert (a * Q(2, 3) + a * Q(1, 3)) == a
        n = rng.randint(1, 12)
        assert (a / n) * n == a
        assert (a / -n) * -n == a


def test_kernel_errors():
    a, b = lam(1, Q(-1, 2)), lam(Q(1, 3))
    for op in (
        lambda: a + 1,
        lambda: a - Q(1),
        lambda: a < 1,
        lambda: a >= Q(1, 2),
        lambda: a * 1.5,
        lambda: a / 1.5,
        lambda: a * a,
        lambda: LambdaScalar.lincomb([1, 1], [a, 1]),
        lambda: LambdaScalar.lincomb([1.5], [a]),
        lambda: LambdaScalar.dots([[1]], [1]),
        lambda: LambdaScalar.dots([[1, 1]], [a, Q(1)]),
        lambda: LambdaScalar.affine([[1]], [1], [a]),
        lambda: LambdaScalar.affine([[1]], [a], [Q(1)]),
    ):
        with pytest.raises(TypeError):
            op()
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a <= b,
        lambda: a > b,
        lambda: LambdaScalar.lincomb([1, 2], [a, b]),
        lambda: LambdaScalar.lincomb([], []),
        lambda: LambdaScalar.dots([[1, 1]], [a, b]),
        lambda: LambdaScalar.dots([[]], []),
        lambda: LambdaScalar.affine([[1]], [a], [b]),
        lambda: LambdaScalar.affine([[1, 1], [1, 1]], [a, a], [a, b]),
        lambda: LambdaScalar.affine([[]], [], [a]),
        lambda: LambdaScalar([]),
        lambda: LambdaScalar.zero(0),
    ):
        with pytest.raises(ValueError):
            op()
    for op in (lambda: a / 0, lambda: a / Q(0), lambda: LambdaScalar.zero(2) / 0):
        with pytest.raises(ZeroDivisionError):
            op()
    assert a != b and a != 1 and not (a == (1, Q(-1, 2)))
