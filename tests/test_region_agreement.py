"""Region decisions made without a full elimination agree with the
Fourier-Motzkin (FM) scans they replace.

Regions are seeded random intersections of halves placed around a random
sector: its own walls, their opposite sides and halves of any root, with
bounds at, just below or just above the sector's apex.  That yields empty
regions, regions with redundant halves, sectors and panels inside and
outside a region, and cuts that are exactly a panel.  The root of a
sector's type-i wall vanishes on its type-i panel cone.  The FM-based
references are kept here as the definition each shortcut must match.
"""
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from lbk.apartment import AffineIsometry, Apartment, ConvexRegion, HalfApartment, RegionShape
from lbk.atlas import Atlas, Transition, _agree_on
from lbk.lexq import LambdaScalar
from lbk.linarith import GE, GT, ConstraintSystem, LinearConstraint, feasible
from lbk.rootsystem import build_root_system

SYSTEMS = [("A1", 1), ("A1", 2), ("A2", 1), ("A2", 2), ("A2", 3), ("B2", 1), ("G2", 1), ("A3", 1), ("B3", 1), ("C3", 1)]
TRIALS = 120


def rand_scalar(rng, rank):
    return LambdaScalar([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank)])


def offset(rng, rank):
    """Mostly zero, so halves often pass through the apex."""
    return rand_scalar(rng, rank) if rng.random() < 0.4 else LambdaScalar.zero(rank)


def rand_half(ap, rng, sector):
    base = sector.base
    if rng.random() < 0.5:
        root = rng.choice(ap.sector_roots(sector.direction))
    else:
        root = rng.choice(ap.roots.positive_roots)
        root = root if rng.random() < 0.5 else tuple(-c for c in root)
    bound = ap.pairing(root, base) + offset(rng, ap.lex_rank)
    return ap.half(root, rng.choice((1, -1)), bound)


def rand_region(ap, rng, sector):
    halves = [rand_half(ap, rng, sector) for _ in range(rng.randint(0, 4))]
    if halves and rng.random() < 0.3:
        # A redundant copy of a half with a weaker bound.
        h = rng.choice(halves)
        slack = LambdaScalar.one(ap.lex_rank) * h.sense
        halves.append(ap.half(h.root, h.sense, h.bound - slack))
    rng.shuffle(halves)
    return ap.region(halves)


def cases(name, lam, seed):
    ap = Apartment(build_root_system(name), lam)
    rng = random.Random(f"{seed}:{name}:{lam}")
    dirs = ap.directions()
    for _ in range(TRIALS):
        base = tuple(rand_scalar(rng, lam) for _ in range(ap.rank))
        sector = ap.sector(base, rng.choice(dirs))
        yield ap, rng, sector, rand_region(ap, rng, sector)


def panel_region(ap, s, panel_type):
    """The type-i sector panel of s: the face where the i-th pairing is pinned."""
    halves = []
    for k, r in enumerate(ap.sector_roots(s.direction), start=1):
        bound = ap.pairing(r, s.base)
        halves.append(ap.half(r, 1, bound))
        if k == panel_type:
            halves.append(ap.half(r, -1, bound))
    return ap.region(halves)


def region_empty(ap, region):
    return not ap.region_feasible(region).sat


def panel_by_equality(ap, sector, overlap):
    """The FM scan check_se's panel rule replaced: the cut equals one of the panels."""
    cut = ap.intersect(ap.sector_region(sector), overlap)
    if region_empty(ap, cut):
        return None
    for i in range(1, ap.rank + 1):
        if ap.region_equal(cut, panel_region(ap, sector, i)):
            return i
    return None


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_sector_in_region_agrees_with_fm(name, lam):
    """A whole sector lies in a region exactly when its cone fits and its base lies in it: the rule
    Atlas.holding and Atlas.transport_sector read (Atlas.fitting, then the base's pass)."""
    seen = {True: 0, False: 0}
    for ap, _, sector, region in cases(name, lam, 1):
        expected = ap.region_contains(region, ap.sector_region(sector))
        assert (ap.sector_fits(sector.direction, region) and ap.region_contains_point(region, sector.base)) == expected
        seen[expected] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_panel_of_sector_agrees_with_equality_scan(name, lam):
    """check_se's panel rule, asked only when the base lies in the overlap: the overlap caps exactly
    one generator k of the direction's cone (Apartment.capped) and does not hold the sector's germ
    (the germ rule of Apartment.holds), and then the panel is k."""
    seen = Counter()
    for ap, rng, sector, region in cases(name, lam, 2):
        # Also pin one wall, at the apex or past it, so the cut is often a
        # panel of the sector or a slab along one.
        i = rng.randint(1, ap.rank)
        root = ap.sector_roots(sector.direction)[i - 1]
        bound = ap.pairing(root, sector.base) + rng.choice((0, 1)) * LambdaScalar.one(lam)
        for overlap in (region, ap.intersect(region, ap.half_region(root, -1, bound))):
            expected = panel_by_equality(ap, sector, overlap)
            base_in = ap.region_contains_point(overlap, sector.base)
            capped = ap.capped(sector.direction, overlap)
            incident = base_in and len(capped) == 1 and not ap.region_contains_germ(overlap, sector.germ())
            assert (min(capped) if incident else None) == expected
            if not base_in:
                seen["base outside"] += 1
            elif expected is not None:
                seen["panel"] += 1
            elif ap.region_contains(overlap, ap.sector_region(sector)):
                seen["sector inside"] += 1
            elif any(ap.region_contains(overlap, panel_region(ap, sector, k)) for k in range(1, ap.rank + 1)):
                seen["cut leaves the panel"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_region_half_agrees_with_region_equal(name, lam):
    found = empty = 0
    for ap, rng, sector, region in cases(name, lam, 3):
        candidates = list(region.halves) + [rand_half(ap, rng, sector) for _ in range(2)]
        half = ap.region_half(region)
        for h in candidates:
            assert (half == h) == ap.region_equal(region, ConvexRegion((h,)))
        found += half is not None
        empty += region_empty(ap, region)
    assert found >= 10 and empty >= 5, (found, empty)


def one_root_region(ap, rng):
    """Halves of a single root: half-apartments, slabs, walls, empty
    intervals and repeated halves.  Two candidate bounds make walls common."""
    root = rng.choice(ap.roots.positive_roots)
    bounds = [rand_scalar(rng, ap.lex_rank) for _ in range(2)]
    halves = []
    for _ in range(rng.randint(1, 4)):
        signed = root if rng.random() < 0.5 else tuple(-c for c in root)
        halves.append(ap.half(signed, rng.choice((1, -1)), rng.choice(bounds)))
    if rng.random() < 0.3:
        halves.append(rng.choice(halves))
    return ConvexRegion(tuple(halves))


def classify_by_fm(ap, region):
    """The FM classifier classify_region replaced, with its sector-panel
    match dropped: such regions read "other"."""
    probe = ap.region_feasible(region)
    if not probe.sat:
        return RegionShape("empty")
    for h in region.halves:
        half = ConvexRegion((h,))
        if contains_by_fm(ap, region, half) and contains_by_fm(ap, half, region):
            return RegionShape("half-apartment", root=h.root, sense=h.sense, bound=h.bound)
    witness = probe.witness
    constants = []
    for root in ap.roots.positive_roots:
        value = ap.pairing(root, witness)
        if contains_by_fm(ap, ap.wall_region(root, value), region):
            constants.append((root, value))
    for root, value in constants:
        if contains_by_fm(ap, region, ap.wall_region(root, value)):
            return RegionShape("wall", root=root, bound=value)
    return RegionShape("other")


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_classify_region_agrees_with_fm_classifier(name, lam):
    kinds = Counter()
    for ap, rng, sector, region in cases(name, lam, 9):
        for r in (region, one_root_region(ap, rng), ap.intersect(region, rand_region(ap, rng, sector))):
            expected = classify_by_fm(ap, r)
            assert ap.classify_region(r) == expected, r
            if expected.kind == "half-apartment":
                assert ap.region_half(r) == HalfApartment(expected.root, expected.sense, expected.bound)
            else:
                assert ap.region_half(r) is None
            several = len({h.root for h in r.halves}) > 1
            kinds[expected.kind, several] += 1
    whole = ap.whole_region()
    assert ap.classify_region(whole) == classify_by_fm(ap, whole) == RegionShape("other")
    assert ap.region_half(whole) is None
    single = [kinds[kind, False] for kind in ("half-apartment", "wall", "empty", "other")]
    assert min(single) >= 10, kinds
    if ap.rank > 1:
        assert kinds["empty", True] >= 5 and kinds["other", True] >= 20, kinds


# -- fits, implication, containment and cocycles --------------------------------


def slopes(ap, h, gens):
    """The rate of change of h's pairing along each cone generator."""
    row = ap.pairing_row(h.root)
    return [sum(c * g for c, g in zip(row, gen)) for gen in gens]


def cone_capped(ap, gens, region):
    """Some half of the region decreases along a generator of the cone."""
    return any(slope * h.sense < 0 for h in region.halves for slope in slopes(ap, h, gens))


def fits_by_fm(ap, direction, region, panel_type):
    """The deleted sector_fitting_region (type 0) and panel_fits_region
    bodies: the cone check, then an FM solve of the region."""
    gens = [g for k, g in enumerate(ap.sector_cone(direction), start=1) if k != panel_type]
    return not cone_capped(ap, gens, region) and feasible(ap.region_system(region), ap.lex_rank).sat


def subsector_by_fm(ap, sector, region):
    """The deleted subsector_in_region body: the cone check, then an FM solve
    for lengths t_k >= 0 along the cone generators that move the apex into
    the region."""
    gens = ap.sector_cone(sector.direction)
    if cone_capped(ap, gens, region):
        return False
    n = ap.rank
    rows = [LinearConstraint(tuple(Q(j == k) for j in range(n)), GE, ap.zero()) for k in range(n)]
    for h in region.halves:
        coeffs = tuple(slope * h.sense for slope in slopes(ap, h, gens))
        rows.append(LinearConstraint(coeffs, GE, (h.bound - ap.pairing(h.root, sector.base)) * h.sense))
    return feasible(ConstraintSystem(n, tuple(rows)), ap.lex_rank).sat


def germ_by_fm(ap, region, germ):
    """The region_contains_germ body before the tangent-cone rule: the base
    in the region, then one FM variable eps > 0 pushed along every generator
    of the direction cone."""
    base = germ.base
    if not ap.region_contains_point(region, base):
        return False
    rows = [LinearConstraint((Q(1),), GT, ap.zero())]
    for h in region.halves:
        gap = (h.bound - ap.pairing(h.root, base)) * h.sense
        for slope in slopes(ap, h, ap.sector_cone(germ.direction)):
            rows.append(LinearConstraint((slope * h.sense,), GE, gap))
    return feasible(ConstraintSystem(1, tuple(rows)), ap.lex_rank).sat


def satisfies_by_fm(ap, region, c):
    """No point of the region violates c."""
    system = ap.region_system(region)
    return not feasible(ConstraintSystem(system.nvars, system.constraints + (c.negation(),)), ap.lex_rank).sat


def contains_by_fm(ap, outer, inner):
    """The region_contains body before the single-half test."""
    return all(satisfies_by_fm(ap, inner, ap.half_constraint(h)) for h in outer.halves)


def fixes_by_fm(ap, g, region):
    """Does g fix every point of the region?  Each row of (M - I) x = -shift
    by two FM solves, with no single-half test."""
    n = ap.rank
    for r in range(n):
        coeffs = tuple(g.linear.matrix[r][c] - (1 if r == c else 0) for c in range(n))
        bound = -g.shift[r]
        rows = (LinearConstraint(coeffs, GE, bound), LinearConstraint(tuple(-c for c in coeffs), GE, -bound))
        if not all(satisfies_by_fm(ap, region, row) for row in rows):
            return False
    return True


def agree_by_fm(ap, f, g, region):
    """Do f and g agree at every point of the region?  g^-1 f fixes it, as g is a bijection."""
    return fixes_by_fm(ap, g.inverse().compose(f), region)


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_capped_is_the_cap_rule_of_sector_fits(name, lam):
    """capped is the union of the per-half caps, and a sector (face 0) or its type-k panel fits exactly
    when the region caps no generator but the face's own and, for a panel, the region is nonempty."""
    seen = Counter()
    for ap, _, sector, region in cases(name, lam, 5):
        w = sector.direction
        capped = ap.capped(w, region)
        assert capped == frozenset().union(*(ap.caps(w, h.root, h.sense) for h in region.halves))
        for k in range(ap.rank + 1):
            assert ap.sector_fits(w, region, k) == (capped <= {k} and (k == 0 or not region_empty(ap, region)))
        seen[len(capped)] += 1
    assert len(seen) == ap.rank + 1 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_sector_fits_agrees_with_fm(name, lam):
    seen = {True: 0, False: 0}
    empty = 0
    for ap, _, sector, region in cases(name, lam, 4):
        w = sector.direction
        for panel_type in range(ap.rank + 1):
            expected = fits_by_fm(ap, w, region, panel_type)
            assert ap.sector_fits(w, region, panel_type) == expected
            seen[expected] += 1
        empty += region_empty(ap, region)
    assert min(seen.values()) >= 20 and empty >= 5, (seen, empty)


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_fit_subsector_agrees_with_subsector_search(name, lam):
    """The fit table's sector bit for chart 1 is the FM subsector search; a
    chart always holds its own sectors, and chart 1 has no way back to 0."""
    seen = {True: 0, False: 0}
    for ap, _, sector, region in cases(name, lam, 5):
        identity = ap.isometry(ap.roots.identity())
        atlas = Atlas(ap, ["0", "1"], {(0, 1): Transition(region, identity)})
        expected = subsector_by_fm(ap, sector, region)
        assert atlas.fitting(0, sector.direction) == (0b11 if expected else 0b01)
        assert atlas.fitting(1, sector.direction) == 0b10
        seen[expected] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_region_contains_germ_agrees_with_fm(name, lam):
    seen = Counter()
    for ap, rng, sector, region in cases(name, lam, 10):
        dirs = ap.directions()
        near = tuple(c + rand_scalar(rng, lam) for c in sector.base)
        for base in (sector.base, near):
            on_wall = any(ap.pairing(h.root, base) == h.bound for h in region.halves)
            for w in [sector.direction] + rng.sample(dirs, min(3, len(dirs))):
                germ = ap.sector(base, w).germ()
                expected = germ_by_fm(ap, region, germ)
                assert ap.region_contains_germ(region, germ) == expected, (region, germ)
                seen[expected, on_wall] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


def rand_constraint(ap, rng, region):
    """Mostly a scaled and shifted copy of a region half, else any root row,
    with a zero row now and then."""
    lam = ap.lex_rank
    if region.halves and rng.random() < 0.6:
        base = ap.half_constraint(rng.choice(region.halves))
        mu = Q(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, 1, 1, -1))
        coeffs = tuple(mu * a for a in base.coeffs)
        bound = base.bound * mu + offset(rng, lam)
    elif rng.random() < 0.85:
        root = rng.choice(ap.roots.positive_roots)
        coeffs = tuple(a * rng.choice((1, -1)) for a in ap.pairing_row(root))
        bound = rand_scalar(rng, lam)
    else:
        coeffs = (Q(0),) * ap.rank
        bound = rand_scalar(rng, lam)
    return LinearConstraint(coeffs, rng.choice((GE, GE, GT)), bound)


def weyl_pair_rows(ap, rng, sector):
    """The constraints _agree_on builds for a pair f = g h: each row of (F - G) x = s_g - s_f as its two
    inequalities.  h fixes the sector's apex, as a reflection in a wall through it or any Weyl element,
    and g is random, so with a rotation the rows are no root's row."""
    p, u = sector.base, sector.direction
    i = rng.randint(1, ap.rank)
    linear = rng.choice((u * ap.roots.simple(i) * u.inverse(), rng.choice(ap.directions())))
    h = AffineIsometry(linear, tuple(a - b for a, b in zip(p, linear.act_point(p))))
    g = ap.isometry(rng.choice(ap.directions()), tuple(rand_scalar(rng, ap.lex_rank) for _ in range(ap.rank)))
    f = g.compose(h)
    return [
        LinearConstraint(tuple((a - b) * sign for a, b in zip(fr, gr)), GE, (sg - sf) * sign)
        for fr, gr, sf, sg in zip(f.linear.matrix, g.linear.matrix, f.shift, g.shift)
        for sign in (-1, 1)
    ]


def row_kind(ap, coeffs):
    """"zero", "root" for a multiple of a root's pairing row, else "other"."""
    if not any(coeffs):
        return "zero"
    parallel = (all(a * q[k] == b * q[j] for j, a in enumerate(coeffs) for k, b in enumerate(coeffs)) for q in map(ap.pairing_row, ap.roots.positive_roots))
    return "root" if any(parallel) else "other"


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_implied_is_sound_and_region_satisfies_agrees_with_fm(name, lam):
    """region_satisfies, read from the region's normal form, agrees with an FM search for a region point that
    violates the constraint: on random constraints, and on the rows of F - G of Weyl pairs, as _agree_on builds
    them, on the region, on its cut by a wall through the apex and on the apex, where f and g agree.  Up to
    rank 2 every such row is a multiple of a root's row or zero; from rank 3 on some are neither."""
    seen = Counter()
    for ap, rng, sector, region in cases(name, lam, 6):
        walls = [ap.wall_region(r, ap.pairing(r, sector.base)) for r in ap.sector_roots(sector.direction)]
        checks = [(region, rand_constraint(ap, rng, region), "random") for _ in range(3)]
        rows = weyl_pair_rows(ap, rng, sector)
        checks += [(r, c, "weyl") for r in (region, ap.intersect(region, rng.choice(walls)), ap.intersect(*walls)) for c in rows]
        for r, c, source in checks:
            expected = satisfies_by_fm(ap, r, c)
            assert ap.region_satisfies(r, c) == expected, (r, c)
            seen[source, expected, row_kind(ap, c.coeffs)] += 1
    assert min(seen["random", answer, kind] for answer in (True, False) for kind in ("zero", "root")) >= 5, seen
    assert ap.rank == 1 or seen["random", True, "other"] + seen["random", False, "other"] >= 20, seen
    kinds = ("root", "other") if ap.rank > 2 else ("root",)
    assert min(seen["weyl", answer, kind] for answer in (True, False) for kind in kinds) >= 10, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_region_contains_agrees_with_fm(name, lam):
    """Containment and equality read from the normal forms agree with FM's per-half scan, and a region's
    normal form is None exactly when FM finds it empty."""
    seen = {True: 0, False: 0}
    for ap, rng, sector, region in cases(name, lam, 7):
        halves = list(region.halves)
        others = [
            ap.region(rng.sample(halves, rng.randint(0, len(halves)))),
            rand_region(ap, rng, sector),
            ap.sector_region(sector),
            ap.region(ap.half(h.root, h.sense, h.bound - LambdaScalar.one(ap.lex_rank) * h.sense) for h in halves),
        ]
        for other in [region] + others:
            assert (ap.bounds(other) is None) == region_empty(ap, other), other
        for other in others:
            for outer, inner in ((other, region), (region, other)):
                expected = contains_by_fm(ap, outer, inner)
                assert ap.region_contains(outer, inner) == expected
                seen[expected] += 1
            assert ap.region_equal(region, other) == (
                contains_by_fm(ap, region, other) and contains_by_fm(ap, other, region)
            )
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_fixes_region_agrees_with_all_rows_fm(name, lam):
    seen = {True: 0, False: 0}
    for ap, rng, sector, region in cases(name, lam, 8):
        p = sector.base
        u = sector.direction
        i = rng.randint(1, ap.rank)
        root = ap.sector_roots(u)[i - 1]
        reflection = u * ap.roots.simple(i) * u.inverse()
        linear = rng.choice((reflection, reflection, rng.choice(ap.directions())))
        # An isometry fixing p; a reflection fixes the whole wall of root at p.
        moved = linear.act_point(p)
        g = AffineIsometry(linear, tuple(a - b for a, b in zip(p, moved)))
        if rng.random() < 0.5:
            region = ap.intersect(region, ap.wall_region(root, ap.pairing(root, p)))
        if rng.random() < 0.1:
            g = ap.isometry(ap.roots.identity(), tuple(rand_scalar(rng, lam) for _ in range(ap.rank)))
        expected = fixes_by_fm(ap, g, region)
        assert _agree_on(ap, g, ap.isometry(ap.roots.identity()), region) == expected
        seen[expected] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_agree_on_agrees_with_fm_over_random_pairs(name, lam):
    """Random (f, g) pairs: g random, the identity in some cases, and f = g h
    with h fixing a point, the wall of a reflection at it, or nothing."""
    seen = {True: 0, False: 0}
    for ap, rng, sector, region in cases(name, lam, 9):
        p, u = sector.base, sector.direction
        i = rng.randint(1, ap.rank)
        root = ap.sector_roots(u)[i - 1]
        linear = rng.choice((u * ap.roots.simple(i) * u.inverse(), rng.choice(ap.directions())))
        h = AffineIsometry(linear, tuple(a - b for a, b in zip(p, linear.act_point(p))))
        if rng.random() < 0.5:
            region = ap.intersect(region, ap.wall_region(root, ap.pairing(root, p)))
        if rng.random() < 0.2:
            h = ap.isometry(rng.choice(ap.directions()), tuple(rand_scalar(rng, lam) for _ in range(ap.rank)))
        shift = tuple(rand_scalar(rng, lam) for _ in range(ap.rank))
        g = ap.isometry(ap.roots.identity()) if rng.random() < 0.2 else ap.isometry(rng.choice(ap.directions()), shift)
        f = g.compose(h)
        expected = agree_by_fm(ap, f, g, region)
        assert _agree_on(ap, f, g, region) == expected
        assert _agree_on(ap, g, f, region) == expected
        seen[expected] += 1
    assert min(seen.values()) >= 20, seen
