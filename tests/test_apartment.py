import copy
import pickle
import random
from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest

from lbk.apartment import Apartment
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system
from test_region_agreement import panel_region


def make(name, lam=1):
    return Apartment(build_root_system(name), lam)


def rand_scalar(rng, rank):
    return LambdaScalar([Q(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rank)])


def rand_point(ap, rng):
    return tuple(rand_scalar(rng, ap.lex_rank) for _ in range(ap.rank))


# -- pairing / metric / coordinates -----------------------------------------


def test_pairing_examples():
    ap = make("A2")
    a1 = ap.simple_point(1, 0)
    assert ap.pairing((1, 0), a1) == ap.scalar(2)
    assert ap.pairing((0, 1), a1) == ap.scalar(-1)
    assert ap.pairing((1, 1), ap.origin()).is_zero()


def test_pairing_rejects_non_roots():
    ap = make("A2")
    v = ap.simple_point(1, 0)
    for bad in ((2, 0), [2, 0], (1,), (1, 0, 0), (0, 0)):
        with pytest.raises(ValueError):
            ap.pairing(bad, v)
        # Rows of real roots are cached by now; a non-root still misses and raises.
        assert ap.pairing([1, 1], v) == ap.pairing((1, 1), v) == ap.scalar(1)
        with pytest.raises(ValueError):
            ap.pairing_row(bad)


def test_point_passes_reject_the_wrong_lex_rank():
    """A point pass is read against bounds of the apartment's lex rank and pairs the metric rows
    with the apartment's coordinates, so a point of another lex rank or coordinate count raises,
    in every pass reader and in the metric."""
    ap = make("A2")
    deep = tuple(LambdaScalar([1, 2]) for _ in range(2))
    short, long = (LambdaScalar([1]),), tuple(LambdaScalar([1]) for _ in range(3))
    region = ap.half_region((1, 0), 1, 0)
    for p in (deep, short, long):
        for read in (
            lambda: ap.root_dots(p),
            lambda: ap.metric(p, p),
            lambda: ap.metric(ap.origin(), p),
            lambda: ap.region_contains_point(region, p),
            lambda: ap.region_contains_germ(region, ap.sector(p, ap.roots.identity()).germ()),
        ):
            with pytest.raises(ValueError):
                read()


def test_metric_examples():
    a2 = make("A2")
    v = a2.simple_point(Q(5, 2), -3)
    assert a2.metric(v, v).is_zero()
    assert a2.metric(a2.origin(), a2.simple_point(1, 0)) == a2.scalar(4)
    a1 = make("A1")
    assert a1.metric(a1.origin(), a1.simple_point(3)) == a1.scalar(6)


def reference_metric(cartan, p, q):
    """sum over positive roots of |(alpha, p - q)| in Fraction tuples, from the Cartan matrix alone."""
    n = len(cartan)
    d = [None] * n  # the symmetrizer: d_i a_ij = d_j a_ji, min d_i = 1
    for start in range(n):
        if d[start] is None:
            d[start], todo = Q(1), [start]
            while todo:
                i = todo.pop()
                for j in range(n):
                    if i != j and cartan[i][j] and d[j] is None:
                        d[j] = d[i] * Q(cartan[i][j], cartan[j][i])
                        todo.append(j)
    d = [x / min(d) for x in d]
    roots, todo = set(), [tuple(int(i == k) for i in range(n)) for k in range(n)]
    while todo:  # close the simple roots under the simple reflections
        b = todo.pop()
        if b in roots or min(b) < 0:
            continue
        roots.add(b)
        for k in range(n):
            c = sum(cartan[k][j] * b[j] for j in range(n))
            todo.append(tuple(b[i] - c * (i == k) for i in range(n)))
    diff = [tuple(a - b for a, b in zip(x.parts, y.parts)) for x, y in zip(p, q)]
    total = [Q(0)] * len(diff[0])
    for root in roots:
        weights = [sum(root[i] * d[i] * cartan[i][j] for i in range(n)) for j in range(n)]
        value = [sum((w * x[k] for w, x in zip(weights, diff)), Q(0)) for k in range(len(total))]
        if value < [0] * len(value):
            value = [-v for v in value]
        total = [t + v for t, v in zip(total, value)]
    return tuple(total)


@pytest.mark.parametrize(
    "name,lam", [("A1", 1), ("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2), ("C2", 2), ("G2", 2), ("A3", 2)]
)
def test_metric_matches_fraction_reference(name, lam):
    ap = make(name, lam)
    cartan = ap.roots.cartan
    rng = random.Random(f"metric:{name}:{lam}")
    for _ in range(40):
        u, v = rand_point(ap, rng), rand_point(ap, rng)
        pairs = [(u, v), (v, u), (u, u)]
        if lam >= 2:
            # u - w has first lex components 0 and second ones negative; the
            # pairings with the roots then take their sign from the second.
            tail = [Q(rng.randint(-5, 5), 3) for _ in range(lam - 2)]
            step = tuple(LambdaScalar([0, Q(-rng.randint(1, 9), rng.randint(1, 4))] + tail) for _ in range(ap.rank))
            w = tuple(a - b for a, b in zip(u, step))
            pairs += [(u, w), (w, u)]
        for p, q in pairs:
            got = ap.metric(p, q)
            assert got.parts == reference_metric(cartan, p, q)
            assert got == ap.metric(q, p)
    if lam >= 2:
        # (0|-1) in every coordinate: each pairing's first lex component is 0.
        p = tuple(LambdaScalar([0, -1] + [0] * (lam - 2)) for _ in range(ap.rank))
        got = ap.metric(p, ap.origin())
        assert got.parts == reference_metric(cartan, p, ap.origin())
        assert got.parts[0] == 0 and got.parts[1] > 0


def test_coordinate_examples():
    a1 = make("A1")
    assert a1.coordinate(a1.origin(), 1).is_zero()
    assert a1.coordinate(a1.simple_point(3), 1) == a1.scalar(3)
    a2 = make("A2")
    assert a2.coordinate(a2.simple_point(1, 0), 2) == a2.scalar(Q(-1, 2))


def test_points_determined_by_coordinates():
    rng = random.Random(4)
    for name in ("A2", "B2"):
        ap = make(name, 2)
        for _ in range(40):
            v = rand_point(ap, rng)
            assert ap.point_from_coordinates(ap.coordinates(v)) == v


def test_apply_examples():
    ap = make("A1")
    v = ap.simple_point(Q(7, 3))
    assert ap.isometry(ap.roots.identity()).apply(v) == v
    assert ap.isometry(ap.roots.simple(1)).apply(v) == ap.simple_point(Q(-7, 3))
    assert ap.isometry(ap.roots.identity(), ap.simple_point(1)).apply(ap.origin()) == ap.simple_point(1)


def test_isometry_group_laws():
    ap = make("B2", 2)
    rng = random.Random(12)
    els = ap.directions()
    for _ in range(30):
        g = ap.isometry(rng.choice(els), rand_point(ap, rng))
        h = ap.isometry(rng.choice(els), rand_point(ap, rng))
        v = rand_point(ap, rng)
        assert g.compose(h).apply(v) == g.apply(h.apply(v))
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().apply(g.apply(v)) == v


def test_metric_properties_random():
    rng = random.Random(99)
    for name in ("A2", "G2"):
        ap = make(name, 2)
        els = ap.directions()
        for _ in range(60):
            u, v, w = (rand_point(ap, rng) for _ in range(3))
            assert ap.metric(u, v) == ap.metric(v, u)
            assert ap.metric(u, v) + ap.metric(v, w) >= ap.metric(u, w)
            assert ap.metric(u, v).sign() >= 0
            g = ap.isometry(rng.choice(els), rand_point(ap, rng))
            assert ap.metric(g.apply(u), g.apply(v)) == ap.metric(u, v)


# -- hulls --------------------------------------------------------------------


def test_hull_single_point_is_point():
    ap = make("A2")
    p = ap.simple_point(Q(1, 3), -2)
    hull = ap.convex_hull([p])
    assert ap.region_contains_point(hull, p)
    probe = ap.region_feasible(hull)
    assert probe.sat and probe.witness == p
    # every positive-root pairing is pinned, so the hull is that single point
    for root in ap.roots.positive_roots:
        assert ap.region_contains(ap.wall_region(root, ap.pairing(root, p)), hull)


def test_hull_segment_example():
    ap = make("A1")
    hull = ap.convex_hull([ap.origin(), ap.simple_point(2)])
    bounds = {(h.sense, str(h.bound)) for h in hull.halves}
    assert bounds == {(1, "0"), (-1, "4")}


def test_hull_of_subsector_and_base_is_sector():
    rng = random.Random(21)
    for name in ("A2", "G2"):
        ap = make(name)
        for _ in range(25):
            base = rand_point(ap, rng)
            w = rng.choice(ap.directions())
            sector = ap.sector(base, w)
            gens = ap.sector_cone(w)
            shift = [ap.zero() for _ in range(ap.rank)]
            for gen in gens:
                t = Q(rng.randint(0, 5), rng.randint(1, 2))
                for j in range(ap.rank):
                    shift[j] = shift[j] + ap.scalar(t * gen[j])
            sub = ap.sector(tuple(b + s for b, s in zip(base, shift)), w)
            hull = ap.convex_hull([base], [sub])
            assert ap.region_equal(hull, ap.sector_region(sector))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_cone_slopes_are_generator_slopes(name):
    """(r, w.u_k) is the k-th simple-root coefficient of w^-1 r, so the sign
    of the Fraction slope along each cone generator is an integer's sign."""
    ap = make(name)
    for w in ap.directions():
        gens = ap.sector_cone(w)
        inverse = w.inverse()
        for r in ap.roots.positive_roots:
            row = ap.pairing_row(r)
            pulled = inverse.act_root(r)
            assert ap.cone_slopes(w, r) == pulled
            for k, gen in enumerate(gens):
                slope = sum(c * g for c, g in zip(row, gen))
                assert (slope > 0) - (slope < 0) == (pulled[k] > 0) - (pulled[k] < 0)
                assert slope == pulled[k]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_caps_reads_the_sign_of_each_generator_slope(name):
    """A half (root, sense) caps generator k exactly when sense times the
    Fraction slope (root, w.u_k) is negative; the generators come from the
    inverse pairing matrix (sector_cone), not from cone_slopes."""
    ap = make(name)
    for w in ap.directions():
        gens = ap.sector_cone(w)
        for r in ap.roots.positive_roots:
            row = ap.pairing_row(r)
            slopes = [sum(c * g for c, g in zip(row, gen)) for gen in gens]
            for sense in (1, -1):
                expected = {k for k, slope in enumerate(slopes, start=1) if sense * slope < 0}
                assert ap.caps(w, r, sense) == expected


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "B3", "C3"])
def test_admits_on_the_wall_is_caps_free(name):
    """On its wall (side 0) a half holds a chunk of the direction-w germ exactly when it caps no generator
    of the cone: admits reads the sign of w^-1 beta_k, and caps is the reference.  Off the wall the verdict is
    the side's alone, whatever the direction."""
    ap = make(name)
    for w in ap.directions():
        for k, r in enumerate(ap.roots.positive_roots):
            for sense in (1, -1):
                assert ap.admits(k, sense, 0, w) == (not ap.caps(w, r, sense)), (name, w.word, r, sense)
                for side in (1, -1):
                    assert ap.admits(k, sense, side, w) == ap.admits(k, sense, side) == (side == sense)
    assert all(ap.admits(k, sense, 0) for k in range(len(ap.roots.positive_roots)) for sense in (1, -1))


# -- germs and parallelism ------------------------------------------------------


def test_region_contains_germ_examples():
    ap = make("A1")
    germ = ap.fundamental_sector().germ()
    assert ap.region_contains_germ(ap.whole_region(), germ)
    assert ap.region_contains_germ(ap.half_region((1,), 1, 0), germ)
    assert not ap.region_contains_germ(ap.half_region((1,), -1, 0), germ)


def test_sector_contains_own_germ():
    rng = random.Random(6)
    ap = make("G2", 2)
    for _ in range(20):
        s = ap.sector(rand_point(ap, rng), rng.choice(ap.directions()))
        assert ap.region_contains_germ(ap.sector_region(s), s.germ())


def first_sector_by_regions(ap, base, holds):
    """The region scan the sign pass replaced: the first direction, in order,
    whose sector region at base passes holds(region)."""
    return next(ap.sector(base, w) for w in ap.directions() if holds(ap.sector_region(ap.sector(base, w))))


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_sector_with_germ_finds_a_sector_at_every_base(name, lam):
    """Every germ (x, w) lies in a sector at every base y: a point z a little
    way into the germ's open cone lies on no wall through y, so in one open
    chamber y + w'C.  The halves of that sector tight at x are positive on
    w(u_1+...+u_n), and a root's coefficients share one sign, so none of them
    caps a generator of the germ's cone.

    The sign pass gives the answers of the region scans it replaced:
    sector_contains_point and sector_through, with and without a germ's direction, agree with
    sector regions tested point by point and germ by germ, in direction
    order, with targets at the base and on walls through it."""
    ap = make(name, lam)
    values = [ap.scalar(q) for q in (-1, Q(-1, 2), 0, Q(1, 3), 1)]
    if lam == 2:
        values += [LambdaScalar([Q(0), Q(1)]), LambdaScalar([Q(1), Q(-1, 2)])]
    grid = list(product(values, repeat=ap.rank))
    bases = [ap.origin(), grid[1], grid[-1]]
    dirs = ap.directions()
    kinds = Counter()
    for y in bases:
        for x in grid:
            on_wall = any(ap.pairing(r, x) == ap.pairing(r, y) for r in ap.roots.positive_roots)
            kinds["at" if x == y else "wall" if on_wall else "off"] += 1
            signs = ap.pass_signs(ap.root_dots(x), ap.root_dots(y))
            for w in dirs:
                s = ap.sector(y, w)
                assert ap.sector_contains_point(s, signs) == ap.region_contains_point(ap.sector_region(s), x)
            assert ap.sector(y, ap.sector_through(signs)) == first_sector_by_regions(ap, y, lambda r: ap.region_contains_point(r, x))
            for w in dirs:
                germ = ap.sector(x, w).germ()
                want = first_sector_by_regions(ap, y, lambda r: ap.region_contains_germ(r, germ))
                assert ap.sector(y, ap.sector_through(signs, w)) == want
    # In rank 1 the only wall through y is y itself.
    assert kinds["at"] == len(bases) and kinds["off"] >= len(bases), kinds
    assert kinds["wall"] >= len(bases) or ap.rank == 1, kinds


def test_sectors_parallel():
    ap = make("A1")
    s = ap.fundamental_sector()
    assert ap.sectors_parallel(s, s)
    assert ap.sectors_parallel(s, ap.sector(ap.simple_point(1), ap.roots.identity()))
    assert not ap.sectors_parallel(s, ap.sector(ap.origin(), ap.roots.simple(1)))
    # equivalence relation on random sectors
    rng = random.Random(3)
    ap2 = make("A2")
    sectors = [ap2.sector(rand_point(ap2, rng), rng.choice(ap2.directions())) for _ in range(12)]
    for a in sectors:
        assert ap2.sectors_parallel(a, a)
        for b in sectors:
            assert ap2.sectors_parallel(a, b) == ap2.sectors_parallel(b, a)
            for c in sectors:
                if ap2.sectors_parallel(a, b) and ap2.sectors_parallel(b, c):
                    assert ap2.sectors_parallel(a, c)


def test_parallel_sectors_same_germ_only_at_same_base():
    ap = make("A1")
    s = ap.fundamental_sector()
    t = ap.sector(ap.simple_point(1), ap.roots.identity())
    assert not ap.germ_equal(s.germ(), t.germ())
    assert ap.germ_equal(s.germ(), ap.fundamental_sector().germ())


# -- germ distance and galleries ---------------------------------------------------


def test_germ_distance_examples():
    ap = make("A2")
    o = ap.origin()
    s = ap.sector(o, ap.roots.identity()).germ()
    t = ap.sector(o, ap.roots.simple(1)).germ()
    top = ap.sector(o, ap.roots.longest_element()).germ()
    assert ap.germ_distance(s, s).is_identity()
    assert ap.germ_distance(s, t) == ap.roots.simple(1)
    assert ap.germ_distance(s, top) == ap.roots.longest_element()
    assert ap.germ_distance(s, top).length == 3


def test_gallery_examples():
    ap = make("A2")
    o = ap.origin()
    s = ap.sector(o, ap.roots.identity()).germ()
    assert ap.gallery(s, s) == ()
    assert ap.gallery(s, ap.sector(o, ap.roots.simple(1)).germ()) == (1,)
    top = ap.sector(o, ap.roots.longest_element()).germ()
    gallery = ap.gallery(s, top)
    assert len(gallery) == 3
    assert gallery == (1, 2, 1)


def test_gallery_length_realizes_distance():
    ap = make("G2")
    o = ap.origin()
    for w1 in ap.directions():
        for w2 in ap.directions():
            g1 = ap.sector(o, w1).germ()
            g2 = ap.sector(o, w2).germ()
            delta = ap.germ_distance(g1, g2)
            assert len(ap.gallery(g1, g2)) == delta.length


def test_germ_distance_triangle():
    rng = random.Random(8)
    ap = make("B2")
    o = ap.origin()
    for _ in range(100):
        g1, g2, g3 = (ap.sector(o, rng.choice(ap.directions())).germ() for _ in range(3))
        d12 = ap.germ_distance(g1, g2).length
        d23 = ap.germ_distance(g2, g3).length
        d13 = ap.germ_distance(g1, g3).length
        assert d13 <= d12 + d23


def test_germ_distance_needs_common_base():
    ap = make("A1")
    g1 = ap.fundamental_sector().germ()
    g2 = ap.sector(ap.simple_point(1), ap.roots.identity()).germ()
    with pytest.raises(ValueError):
        ap.germ_distance(g1, g2)


# -- region algebra ------------------------------------------------------------


def test_region_equality_and_containment():
    ap = make("A2")
    half = ap.half_region((1, 0), 1, 0)
    redundant = ap.intersect(half, ap.half_region((1, 0), 1, -1))
    assert ap.region_equal(half, redundant)
    assert ap.region_contains(ap.whole_region(), half)
    assert not ap.region_contains(half, ap.whole_region())


def test_region_keeps_its_generated_hash():
    """A region hashes as the dataclass would, once; copies carry the halves only."""
    ap = make("B2", 2)
    region = ap.intersect(ap.half_region((1, 0), 1, 0), ap.half_region((1, 1), -1, 3))
    assert hash(region) == hash((region.halves,)) and "_hash" in vars(region)
    assert repr(region) == f"ConvexRegion(halves={region.halves!r})"
    for twin in (copy.copy(region), pickle.loads(pickle.dumps(region)), ap.region(region.halves)):
        assert "_hash" not in vars(twin)
        assert twin == region and hash(twin) == hash(region)
    assert ap.region_feasible(ap.region(region.halves)) == ap.region_feasible(region)


@pytest.mark.parametrize("name, chambers", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48)])
def test_open_cells_of_the_root_walls_are_the_chambers(name, chambers):
    """The walls of every positive root through the origin cut the apartment into |W| open cells, one per
    Weyl chamber: every witness lies strictly off every wall, and no two have the same signs."""
    ap = make(name)
    cells = ap.open_cells([ap.half(r, 1, ap.zero()) for r in ap.roots.positive_roots], 10**6)
    assert len(cells) == len(ap.directions()) == chambers
    origin = ap.root_dots(ap.origin())
    signs = [ap.pass_signs(ap.root_dots(p), origin) for p in cells]
    assert all(all(s) for s in signs)
    assert len(set(signs)) == chambers


def test_open_cells_of_an_infinitesimal_cell():
    """Walls at 0 and 0|1 cut a lex-rank-2 line into 3 cells; the middle one has infinitesimal width, and
    its witness lies strictly inside it.  The descent makes 7 FM solves: one budget fewer gives None."""
    ap = make("A1", 2)
    eps = LambdaScalar([0, 1])
    halves = [ap.half((1,), 1, ap.zero()), ap.half((1,), -1, eps)]
    cells = ap.open_cells(halves, 7)
    values = sorted(ap.pairing((1,), p) for p in cells)
    assert len(values) == 3
    assert values[0] < ap.zero() < values[1] < eps < values[2]
    assert ap.open_cells(halves, 6) is None


def test_open_cells_key_each_wall_once():
    """Halves of either sense on one wall, given by either root, make one wall and 2 cells; no wall, one cell."""
    ap = make("A1")
    assert len(ap.open_cells([ap.half((1,), 1, 0), ap.half((1,), -1, 0), ap.half((-1,), 1, 0)], 3)) == 2
    assert len(ap.open_cells([], 1)) == 1
    assert ap.open_cells([], 0) is None


def test_transform_region_roundtrip():
    rng = random.Random(31)
    ap = make("B2", 2)
    for _ in range(20):
        region = ap.intersect(
            ap.half_region(rng.choice(ap.roots.positive_roots), 1, rand_scalar(rng, 2)),
            ap.half_region(rng.choice(ap.roots.positive_roots), -1, rand_scalar(rng, 2)),
        )
        g = ap.isometry(rng.choice(ap.directions()), rand_point(ap, rng))
        back = ap.transform_region(ap.transform_region(region, g), g.inverse())
        assert ap.region_equal(region, back)
        p = rand_point(ap, rng)
        assert ap.region_contains_point(region, p) == ap.region_contains_point(
            ap.transform_region(region, g), g.apply(p)
        )


def test_classify_region_kinds():
    ap = make("A2")
    assert ap.classify_region(ap.half_region((1, 1), 1, 2)).kind == "half-apartment"
    assert ap.classify_region(ap.wall_region((0, 1), 0)).kind == "wall"
    empty = ap.intersect(ap.half_region((1, 0), 1, 1), ap.half_region((1, 0), -1, 0))
    assert ap.classify_region(empty).kind == "empty"
    assert ap.classify_region(ap.sector_region(ap.fundamental_sector())).kind == "other"
    panel = panel_region(ap, ap.sector(ap.simple_point(1, 1), ap.roots.simple(2)), 1)
    assert ap.classify_region(panel).kind == "other"
