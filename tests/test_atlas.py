import random
from fractions import Fraction

import pytest

from lbk.apartment import Apartment
from lbk.atlas import (
    Atlas,
    BuildingGerm,
    BuildingPoint,
    BuildingSector,
    NoCommonChartError,
    Transition,
    charts_of,
    common_chart,
    global_distance,
    validate,
)
from lbk.axioms import Retraction
from lbk.fixtures import broken_pair, fan, lambda_tree, shifted_rays, single_apartment
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system


def two_chart_atlas(ap, region, iso):
    return Atlas(
        ap,
        ["1", "2"],
        {
            (0, 1): Transition(region, iso),
            (1, 0): Transition(ap.transform_region(region, iso), iso.inverse()),
        },
    )


def test_validate_single_chart():
    report = validate(single_apartment("A2", 1))
    assert report.ok and not report.issues


def test_validate_glued_pair():
    ap = Apartment(build_root_system("A2"), 1)
    atlas = two_chart_atlas(ap, ap.half_region((1, 0), 1, 0), ap.isometry(ap.roots.identity()))
    assert validate(atlas).ok


def broken_symmetry_atlas():
    ap = Apartment(build_root_system("A1"), 1)
    identity = ap.isometry(ap.roots.identity())
    return Atlas(
        ap,
        ["1", "2"],
        {
            (0, 1): Transition(ap.half_region((1,), 1, 0), identity),
            (1, 0): Transition(ap.half_region((1,), 1, 1), identity),  # wrong region
        },
    )


def missing_reverse_atlas():
    ap = Apartment(build_root_system("A1"), 1)
    identity = ap.isometry(ap.roots.identity())
    return Atlas(ap, ["1", "2"], {(0, 1): Transition(ap.half_region((1,), 1, 0), identity)})


def empty_overlap_atlas():
    ap = Apartment(build_root_system("A1"), 1)
    empty = ap.intersect(ap.half_region((1,), 1, 1), ap.half_region((1,), -1, 0))
    return two_chart_atlas(ap, empty, ap.isometry(ap.roots.identity()))


def cocycle_breaking_atlas():
    ap = Apartment(build_root_system("A1"), 1)
    identity = ap.isometry(ap.roots.identity())
    shifted = ap.isometry(ap.roots.identity(), ap.simple_point(1))
    ray = ap.half_region((1,), 1, 0)
    # 1->2 and 1->3 use the identity, 2->3 shifts: composite moves points.
    transitions = {
        (0, 1): Transition(ray, identity),
        (1, 0): Transition(ray, identity),
        (0, 2): Transition(ray, identity),
        (2, 0): Transition(ray, identity),
        (1, 2): Transition(ray, shifted),
        (2, 1): Transition(ap.transform_region(ray, shifted), shifted.inverse()),
    }
    return Atlas(ap, ["1", "2", "3"], transitions)


# The atlases above whose gluing validate must reject.
FAULTY_ATLASES = [broken_symmetry_atlas, missing_reverse_atlas, empty_overlap_atlas, cocycle_breaking_atlas]


def test_validate_reports_broken_symmetry():
    report = validate(broken_symmetry_atlas())
    assert not report.ok
    assert any("symmetry" in issue for issue in report.issues)


def test_validate_reports_missing_reverse_and_empty_overlap():
    report = validate(missing_reverse_atlas())
    assert any("no reverse" in issue for issue in report.issues)

    report2 = validate(empty_overlap_atlas())
    assert any("empty" in issue for issue in report2.issues)


def test_validate_reports_cocycle_violation():
    report = validate(cocycle_breaking_atlas())
    assert any("cocycle" in issue for issue in report.issues)


def test_common_chart_examples():
    tripod = lambda_tree(3)
    ap = tripod.apartment
    same = BuildingPoint(0, ap.simple_point(5))
    assert common_chart(tripod, same, BuildingPoint(0, ap.simple_point(-3))) == 0

    ray2 = BuildingPoint(tripod.index("12"), ap.simple_point(-1))
    ray3 = BuildingPoint(tripod.index("13"), ap.simple_point(-2))
    assert tripod.name(common_chart(tripod, ray2, ray3)) == "23"

    ap1 = Apartment(build_root_system("A1"), 1)
    disconnected = Atlas(ap1, ["1", "2"], {})
    p = BuildingPoint(0, ap1.simple_point(0))
    q = BuildingPoint(1, ap1.simple_point(0))
    assert common_chart(disconnected, p, q) is None


def test_global_distance_examples():
    tripod = lambda_tree(3)
    ap = tripod.apartment
    p = BuildingPoint(tripod.index("23"), ap.simple_point(1))
    assert global_distance(tripod, p, p).is_zero()

    y = BuildingPoint(tripod.index("12"), ap.simple_point(-1))  # ray2 @ 1
    z = BuildingPoint(tripod.index("13"), ap.simple_point(-2))  # ray3 @ 2
    assert global_distance(tripod, y, z) == ap.scalar(6)

    single = single_apartment("A2", 1)
    u = BuildingPoint(0, single.apartment.simple_point(1, 0))
    v = BuildingPoint(0, single.apartment.simple_point(0, 1))
    assert global_distance(single, u, v) == single.apartment.metric(u.point, v.point)


def test_global_distance_no_common_chart():
    ap1 = Apartment(build_root_system("A1"), 1)
    disconnected = Atlas(ap1, ["1", "2"], {})
    with pytest.raises(NoCommonChartError):
        global_distance(
            disconnected,
            BuildingPoint(0, ap1.simple_point(0)),
            BuildingPoint(1, ap1.simple_point(0)),
        )


def test_transport_preserves_metric():
    tripod = lambda_tree(3, 2)
    ap = tripod.apartment
    a = tripod.index("12")
    b = tripod.index("23")
    p = ap.point([ap.scalar(-1)])
    q = ap.point([ap.scalar(-3)])
    tp = tripod.transport_point(a, p, b)
    tq = tripod.transport_point(a, q, b)
    assert tp is not None and tq is not None
    assert ap.metric(tp, tq) == ap.metric(p, q)


def same_point(atlas, bp, bq):
    """Are bp and bq one point?  bq's chart is a bit of bp's holding mask, and bp lands on bq's
    point there (locate_point), as germ_coapartment decides that its two bases are one."""
    return atlas.locate_point(bp).get(bq.chart) == bq.point


def test_points_equal_through_transition():
    tripod = lambda_tree(3)
    ap = tripod.apartment
    branch_in_12 = BuildingPoint(tripod.index("12"), ap.origin())
    branch_in_23 = BuildingPoint(tripod.index("23"), ap.origin())
    assert same_point(tripod, branch_in_12, branch_in_23)
    assert not same_point(tripod, branch_in_12, BuildingPoint(tripod.index("23"), ap.simple_point(1)))
    # Chart 23 holds 12's point -1 (at 1 there), and chart 13 does not hold it.
    minus_one = BuildingPoint(tripod.index("12"), ap.simple_point(-1))
    assert same_point(tripod, minus_one, BuildingPoint(tripod.index("23"), ap.simple_point(1)))
    assert not same_point(tripod, minus_one, BuildingPoint(tripod.index("13"), ap.simple_point(-1)))


def test_intersection_region_classifier():
    tripod = lambda_tree(3)
    i, j, k = (tripod.index(n) for n in ("12", "13", "23"))
    assert tripod.apartment.classify_region(tripod.overlap_region(i, j)).kind == "half-apartment"

    f4 = fan(4)
    a, b = f4.index("12"), f4.index("34")
    assert f4.apartment.classify_region(f4.overlap_region(a, b)).kind == "wall"

    ap1 = Apartment(build_root_system("A1"), 1)
    disconnected = Atlas(ap1, ["1", "2"], {})
    assert disconnected.overlap_region(0, 1) is None


def test_negative_fixtures_validate_clean():
    assert validate(broken_pair()).ok
    assert validate(shifted_rays()).ok


# -- the one chart search -------------------------------------------------------


def seeded_base(ap, rng):
    return tuple(
        LambdaScalar([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(ap.lex_rank)])
        for _ in range(ap.rank)
    )


def seeded_items(atlas, rng, count):
    """Germs and whole sectors at seeded points, as often a sector as a germ."""
    ap = atlas.apartment
    items = []
    for _ in range(count):
        chart = rng.randrange(atlas.size)
        base = seeded_base(ap, rng)
        kind = rng.choice((BuildingGerm, BuildingSector))
        items.append(kind(chart, ap.sector(base, rng.choice(ap.directions()))))
    return items


def scanned_point(atlas, i, p, j):
    """Atlas.transport_point as it was, the slow reference: chart i's point p in chart j when the one
    transition's region holds it (Apartment.region_contains_point), moved by its isometry; else None."""
    if i == j:
        return p
    t = atlas.transition(i, j)
    if t is None or not atlas.apartment.region_contains_point(t.region, p):
        return None
    return t.iso.apply(p)


def scanned_item(atlas, item, j):
    """transport_germ and transport_sector as they were, the slow reference: a germ or whole sector in
    chart j when the one transition's region holds a chunk of the germ (Apartment.region_contains_germ)
    or, per transition and not from Atlas.fitting, caps no generator of the sector's cone and holds its
    base (the deleted Apartment.sector_in_region); moved by the isometry and its linear part; else None."""
    if item.chart == j:
        return item.sector
    t, ap = atlas.transition(item.chart, j), atlas.apartment
    base, w = item.sector.base, item.sector.direction
    if t is None or not (ap.region_contains_germ(t.region, item.germ()) if isinstance(item, BuildingGerm)
                         else ap.sector_fits(w, t.region) and ap.region_contains_point(t.region, base)):
        return None
    return ap.sector(t.iso.apply(base), t.iso.linear * w)


def transport(atlas, item, chart):
    """The item in the chart, or None, decided one transition at a time by the slow references."""
    if isinstance(item, BuildingPoint):
        return scanned_point(atlas, item.chart, item.point, chart)
    return scanned_item(atlas, item, chart)


def record_calls(monkeypatch, *names):
    """The argument tuples of every call of the named Atlas methods, per name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(Atlas, name)

        def recorded(self, *args, name=name, original=original, **kwargs):
            calls[name].append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Atlas, name, recorded)
    return calls


def brute_force_mask(atlas, item):
    """The charts the item moves into, tried one chart at a time."""
    return sum(1 << c for c in atlas.charts() if transport(atlas, item, c) is not None)


def brute_force_holding(atlas, items):
    """Every item's image in every chart, then the first chart with all of them."""
    for c in atlas.charts():
        images = [transport(atlas, item, c) for item in items]
        if None not in images:
            return c, images
    return None


@pytest.mark.parametrize(
    "atlas", [lambda_tree(5, 2), fan(4, "A2"), fan(3, "B2")], ids=["tree(5,2)", "fan(4,A2)", "fan(3,B2)"]
)
def test_first_chart_holding_agrees_with_brute_force(atlas, monkeypatch):
    """``holding`` is the mask of the charts the item moves into, and the first
    chart search (``first_held`` given ``holding``) makes one point pass per item
    (``LambdaScalar.dots``), in ``holding``, and moves each item once, into the
    chart it returns, by the move rule that runs no fit test."""
    rng = random.Random(f"first-chart:{atlas.label}")
    point_rng = random.Random(f"holding-points:{atlas.label}")
    found = missed = sector_first = shared = 0
    for _ in range(150):
        items = seeded_items(atlas, rng, rng.randint(1, 3))
        expected = brute_force_holding(atlas, items)
        point = BuildingPoint(point_rng.randrange(atlas.size), seeded_base(atlas.apartment, point_rng))
        for item in items + [point]:
            assert atlas.holding(item) == brute_force_mask(atlas, item), item
        shared += len(charts_of(atlas.holding(point))) > 1
        for germ in items:
            if isinstance(germ, BuildingGerm):
                assert list(Retraction(atlas, germ, germ.chart).maps) == charts_of(brute_force_mask(atlas, germ))
        calls = record_calls(monkeypatch, "move_held", "transport_germ", "transport_sector")
        passes = []
        dots = LambdaScalar.dots
        monkeypatch.setattr(LambdaScalar, "dots", staticmethod(lambda rows, xs: passes.append(xs) or dots(rows, xs)))
        assert atlas.first_held(*items) == expected
        monkeypatch.undo()
        assert passes == [item.sector.base for item in items]
        assert calls["move_held"] == ([(item, expected[0]) for item in items] if expected else [])
        assert not calls["transport_germ"] and not calls["transport_sector"]
        found += expected is not None
        missed += expected is None
        sector_first += isinstance(items[0], BuildingSector)
    assert found >= 10 and missed >= 10 and sector_first >= 10 and shared >= 10, (found, missed, sector_first, shared)
