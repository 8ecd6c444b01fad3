"""The overlap index of an atlas agrees with the chart-by-chart scans it replaces.

The atlas numbers each distinct overlap region once: ``Atlas.regions[c]`` is
the region of class id c, ``Atlas.halves[c]`` its half-apartment or None, and
``Atlas.class_of[(i, j)]`` the class of transition (i, j).
``Atlas.overlap_classes`` groups each chart's overlaps by class id, with the
mask of the charts meeting it there (bit c for chart c), and
``Atlas.reach`` reads them with one test per group: ``locate_point`` tests
each distinct region once, ``charts_meeting`` reads the charts meeting a
chart in a given half off the groups, and the fit table ``Atlas.fitting``
decides each (chart, direction, face) fit once.  The references below are the
per-chart loops they replaced, run over the 40 digest members and
``fm_fallback``, whose overlaps include a quadrant, a wall and an empty
region.  A6 then decides each distinct pair of overlap classes once.
"""
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import lbk.apartment
from lbk import fixtures
from lbk.apartment import Apartment
from lbk.atlas import Atlas, BuildingGerm, BuildingPoint, BuildingSector, Transition, charts_of, global_distance, lowest
from lbk.axioms import (
    AXIOM_ORDER,
    Sample,
    check_a6,
    check_ec,
    check_se,
    germ_coapartment,
    recheck_a6_counterexample,
    run_axioms,
)
from lbk.infinity import infinity_complex
from lbk.linarith import feasible
from lbk.rootsystem import build_root_system
from report_digest import members
from test_atlas import scanned_item, scanned_point, seeded_base
from test_golden import fm_fallback

ATLASES = dict(members())
ATLASES["fm_fallback"] = fm_fallback()


def locate_by_scan(atlas, bp):
    """The point in each chart, by one transport per chart (the slow reference)."""
    out = {}
    for j in atlas.charts():
        p = scanned_point(atlas, bp.chart, bp.point, j)
        if p is not None:
            out[j] = p
    return out


def wall_points(atlas, i):
    """Points of chart i on each wall of its overlaps, and a witness inside each overlap."""
    ap = atlas.apartment
    out = []
    for c in atlas.overlap_classes[i]:
        region = atlas.regions[c]
        probe = ap.region_feasible(region)
        if probe.sat:
            out.append(probe.witness)
        for h in region.halves:
            row = ap.pairing_row(h.root)
            k = next(c for c, a in enumerate(row) if a)
            out.append(tuple(h.bound / row[k] if c == k else ap.zero() for c in range(ap.rank)))
    return out


def probe_points(atlas):
    sample = Sample(atlas, seed=5)
    extra = [BuildingPoint(i, p) for i in atlas.charts() for p in wall_points(atlas, i)]
    return sample.points + extra


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_index_groups_every_transition_once(name):
    atlas = ATLASES[name]
    for i in atlas.charts():
        classes = atlas.overlap_classes[i]
        listed = [j for js in classes.values() for j in charts_of(js)]
        assert sorted(listed) == [j for j in atlas.charts() if atlas.transition(i, j) is not None]
        for c, js in classes.items():
            assert type(js) is int and charts_of(js) == sorted(charts_of(js))
            assert all(atlas.overlap_region(i, j) == atlas.regions[c] for j in charts_of(js))


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_overlap_classes_number_each_distinct_region_once(name):
    """The class ids number the distinct overlap regions of the whole atlas:
    distinct regions, each transition's own, each halved once, and per chart
    disjoint class masks whose union is the charts glued to it."""
    atlas = ATLASES[name]
    ap = atlas.apartment
    assert len(set(atlas.regions)) == len(atlas.regions)
    assert atlas.class_of.keys() == atlas.transitions.keys()
    assert all(atlas.regions[c] == atlas.transitions[pair].region for pair, c in atlas.class_of.items())
    assert sorted(set(atlas.class_of.values())) == list(range(len(atlas.regions)))
    assert atlas.halves == [ap.region_half(r) for r in atlas.regions]
    for i in atlas.charts():
        masks = list(atlas.overlap_classes[i].values())
        assert sum(masks) == atlas.glued(i)
        assert all(not a & b for a, b in combinations(masks, 2))


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_locate_point_agrees_with_the_per_chart_scan(name):
    atlas = ATLASES[name]
    for bp in probe_points(atlas):
        located = atlas.locate_point(bp)
        expected = locate_by_scan(atlas, bp)
        assert list(located.items()) == list(expected.items()), (name, bp)


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_transports_agree_with_the_per_transition_rules(name):
    """transport_point (locate_point), transport_sector (the fit-table bit and the base's pass) and
    transport_germ give the slow references' None or image in every chart, for seeded points, whole
    sectors and germs; and a whole sector reaches another chart exactly when FM puts its region in
    the overlap (Apartment.region_contains), a reference that shares no code with the fit table."""
    atlas = ATLASES[name]
    ap = atlas.apartment
    rng = random.Random(f"transport-rules:{name}")
    seen = Counter()
    for _ in range(30):
        chart, base = rng.randrange(atlas.size), seeded_base(ap, rng)
        w = rng.choice(ap.directions())
        sector, germ = BuildingSector(chart, ap.sector(base, w)), BuildingGerm(chart, ap.sector(base, w))
        for j in atlas.charts():
            assert atlas.transport_point(chart, base, j) == scanned_point(atlas, chart, base, j), (name, chart, base, j)
            image = atlas.transport_sector(sector, j)
            assert image == scanned_item(atlas, sector, j), (name, sector, j)
            assert atlas.transport_germ(germ, j) == scanned_item(atlas, germ, j), (name, germ, j)
            if j != chart and (t := atlas.transition(chart, j)) is not None:
                assert (image is not None) == ap.region_contains(t.region, ap.sector_region(sector.sector)), (name, sector, j)
                seen[image is not None] += 1
    if atlas.size > 1:
        assert seen[True] and seen[False], (name, seen)


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_charts_meeting_agrees_with_the_overlap_half_scan(name):
    atlas = ATLASES[name]
    ap = atlas.apartment
    for i in atlas.charts():
        halves = {atlas.overlap_half(i, c) for c in atlas.charts()} - {None}
        halves |= {ap.half(h.root, -h.sense, h.bound) for h in halves}
        halves.add(ap.half(ap.roots.positive_roots[0], 1, ap.scalar(Fraction(7, 3))))  # met by no chart
        for h in halves:
            meeting = atlas.charts_meeting(i, h)
            assert charts_of(meeting) == [c for c in atlas.charts() if atlas.overlap_half(i, c) == h]


def test_probes_reach_overlaps_that_are_not_halves_and_points_in_many_charts():
    """fm_fallback has overlaps that are no single half, which charts_meeting
    must leave out, and the probe points of a tree lie in several charts."""
    atlas = ATLASES["fm_fallback"]
    assert any(atlas.halves[c] is None for i in atlas.charts() for c in atlas.overlap_classes[i])
    tree = ATLASES["tree(6,1)"]
    assert any(len(tree.locate_point(bp)) > 2 for bp in probe_points(tree))


def test_charts_meeting_merges_regions_that_are_one_half():
    """A weaker extra half leaves a region the same half-apartment under
    another halves tuple, so two overlap classes meet chart a in one half."""
    ap = Apartment(build_root_system("A1"), 1)
    identity = ap.isometry(ap.roots.identity())
    half = ap.half((1,), 1, 0)
    plain, padded = ap.region([half]), ap.region([half, ap.half((1,), 1, -1)])
    glue = {(0, 1): plain, (0, 2): padded, (0, 3): plain}
    atlas = Atlas(ap, ["a", "b", "c", "d"], {pair: Transition(r, identity) for pair, r in glue.items()})
    assert list(atlas.overlap_classes[0].values()) == [0b1010, 0b0100]
    assert atlas.charts_meeting(0, half) == 0b1110


@pytest.mark.parametrize(
    "build", [lambda: fixtures.lambda_tree(8, 1), lambda: fixtures.fan(5, "B2", 1)], ids=["tree(8,1)", "fan(5,B2)"]
)
def test_charts_meeting_reads_each_overlap_class_half_once(build, monkeypatch):
    """Building the atlas halves each distinct overlap region of the atlas
    exactly once, into the tables that charts_meeting and overlap_half read;
    A6, EC and SE then read those tables and call region_half no more."""
    halved, asked = Counter(), Counter()
    region_half = Apartment.region_half

    def counted_half(self, region):
        halved[region] += 1
        return region_half(self, region)

    def reading(method):
        def counted(self, *args):
            asked[method.__name__] += 1
            return method(self, *args)

        return counted

    monkeypatch.setattr(Apartment, "region_half", counted_half)
    atlas = build()
    assert halved == Counter(atlas.regions)
    assert len(atlas.halves) == len(atlas.regions)
    halved.clear()
    monkeypatch.setattr(Atlas, "charts_meeting", reading(Atlas.charts_meeting))
    monkeypatch.setattr(Atlas, "overlap_half", reading(Atlas.overlap_half))
    check_a6(atlas)
    check_ec(atlas)
    check_se(Sample(atlas))
    assert not halved
    assert min(asked["charts_meeting"], asked["overlap_half"]) > 2 * sum(map(len, atlas.overlap_classes)), asked


def test_charts_of_and_lowest_read_a_mask_in_chart_order():
    """A chart set is an int, bit c for chart c, of any width: charts_of lists
    its charts in chart order and lowest gives the first, or None."""
    rng = random.Random("chart-masks")
    sets = [[], [0], [63], [64], [200], list(range(201)), [200, 3, 64, 3]]
    sets += [[rng.randrange(240) for _ in range(rng.randrange(12))] for _ in range(200)]
    for charts in sets:
        mask = 0
        for c in charts:
            mask |= 1 << c
        assert charts_of(mask) == sorted(set(charts))
        if charts:
            assert lowest(mask) == min(charts_of(mask))
    assert charts_of(0) == [] and lowest(0) is None
    assert charts_of(1 << 200 | 0b101) == [0, 2, 200] and lowest(1 << 200 | 1 << 70) == 70


def fit_subsector(atlas, i, w, face, j):
    """The per-chart fit the table replaced: does a direction-w sector of chart
    i, or its type-face panel, have a subsector in chart j?"""
    if i == j:
        return True
    t = atlas.transition(i, j)
    return t is not None and atlas.apartment.sector_fits(w, t.region, face)


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_fitting_agrees_with_the_per_chart_fit(name):
    atlas = ATLASES[name]
    ap = atlas.apartment
    for i in atlas.charts():
        for w in ap.directions():
            for face in range(ap.rank + 1):
                mask = atlas.fitting(i, w, face)
                assert mask >> i & 1 and mask < 1 << atlas.size
                for j in atlas.charts():
                    assert bool(mask >> j & 1) == fit_subsector(atlas, i, w, face, j), (i, w.word, face, j)
                assert atlas.fitting(i, w, face) is mask is atlas._fits[i][w.index * (ap.rank + 1) + face]  # the kept answer
            assert atlas.fitting(i, w) is atlas.fitting(i, w, 0)  # a defaulted face is face 0
        assert len(atlas._fits[i]) == len(ap.directions()) * (ap.rank + 1)  # one int key per (direction, face)


def test_reach_tests_each_overlap_class_once():
    """reach runs one test per overlap class, in the order the classes first
    appear, and returns the mask of the charts of the classes it accepts."""
    ap = Apartment(build_root_system("A1"), 1)
    identity = ap.isometry(ap.roots.identity())
    half = ap.half((1,), 1, 0)
    plain, wall = ap.region([half]), ap.wall_region((1,), 0)
    glue = {(0, 3): plain, (0, 1): wall, (0, 2): plain}
    atlas = Atlas(ap, ["a", "b", "c", "d"], {pair: Transition(r, identity) for pair, r in glue.items()})
    tested = []
    assert atlas.reach(0, lambda r: tested.append(r) or r == plain) == 0b1100
    assert tested == [wall, plain]
    identity_w, flip = ap.roots.identity(), ap.roots.simple(1)
    assert atlas.fitting(0, identity_w) == 0b1101  # the ray toward +infinity fits the half alpha_1 >= 0
    assert atlas.fitting(0, flip) == 0b0001
    assert atlas.fitting(0, identity_w, 1) == 0b1111  # the panel is the apex: every nonempty overlap


@pytest.mark.parametrize(
    "build", [lambda: fixtures.lambda_tree(8, 1), lambda: fixtures.fan(5, "B2", 1)], ids=["tree(8,1)", "fan(5,B2)"]
)
def test_checkers_decide_no_fit_the_complex_at_infinity_does_not(build, monkeypatch):
    """A4, SE and the complex at infinity read one fit table, so the checkers
    add no sector_fits call to those the complex at infinity makes alone."""
    calls = []
    original = lbk.apartment.Apartment.sector_fits

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(lbk.apartment.Apartment, "sector_fits", counted)
    infinity_complex(build())
    alone = len(calls)
    calls.clear()
    atlas = build()
    run_axioms(atlas, AXIOM_ORDER, samples=80)
    infinity_complex(atlas)
    assert 0 < len(calls) <= alone


@pytest.mark.parametrize("build", [lambda: fixtures.lambda_tree(8, 1), lambda: fixtures.fan(5, "B2", 1)])
def test_a6_solves_each_distinct_overlap_pair_once(build, monkeypatch):
    atlas = build()
    ap = atlas.apartment
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return feasible(*args, **kwargs)

    monkeypatch.setattr(lbk.apartment, "feasible", counted)
    report = check_a6(atlas)
    triples = [
        t for t in combinations(atlas.charts(), 3)
        if all(atlas.overlap_half(a, b) is not None for a, b in combinations(t, 2))
    ]
    distinct = {ap.intersect(atlas.overlap_region(i, j), atlas.overlap_region(i, k)).halves for i, j, k in triples}
    assert report.verdict == "pass"
    assert len(distinct) < len(report.lines)
    assert len(calls) <= len(distinct)


@pytest.mark.parametrize(
    "build", [lambda: fixtures.lambda_tree(8, 1), lambda: fixtures.fan(5, "B2", 1)], ids=["tree(8,1)", "fan(5,B2)"]
)
def test_a6_intersects_each_distinct_class_pair_once(build, monkeypatch):
    """Triple (i, j, k) reads only the classes of (i, j) and (i, k), so A6
    intersects the regions of each distinct class pair once, fewer times than
    it writes lines."""
    atlas = build()
    calls = []
    intersect = Apartment.intersect

    def counted(self, *regions):
        calls.append(regions)
        return intersect(self, *regions)

    monkeypatch.setattr(Apartment, "intersect", counted)
    report = check_a6(atlas)
    triples = [
        t for t in combinations(atlas.charts(), 3)
        if all(atlas.overlap_half(a, b) is not None for a, b in combinations(t, 2))
    ]
    pairs = {(atlas.class_of[(i, j)], atlas.class_of[(i, k)]) for i, j, k in triples}
    assert len(report.lines) == len(triples) and report.verdict == "pass"
    assert len(calls) == len(pairs) < len(report.lines)
    assert Counter(calls) == Counter((atlas.regions[a], atlas.regions[b]) for a, b in pairs)


def test_cached_answer_is_the_fresh_solve():
    ap = fixtures.lambda_tree(4, 1).apartment
    sat = ap.region([ap.half((1,), 1, 0), ap.half((1,), -1, 2)])
    rays = fixtures.shifted_rays()
    i, j, k = 0, 1, 2
    unsat = rays.apartment.intersect(rays.overlap_region(i, j), rays.overlap_region(i, k))
    for space, region in ((ap, sat), (rays.apartment, unsat)):
        fresh = feasible(space.region_system(region), space.lex_rank)
        assert space.region_feasible(region) == fresh
        assert space.region_feasible(region) == space.region_feasible(region)  # the same answer again
    assert ap.region_feasible(sat).sat and not rays.apartment.region_feasible(unsat).sat
    assert recheck_a6_counterexample(rays, i, j, k)


def warmed_tables(build, monkeypatch):
    """Weak references to a fresh atlas, its apartment and its root system, after the checkers, the complex
    at infinity and 350 seeded fresh-point distance and coapartment queries, checking the tables they
    keep along the way.  Their keys are regions, charts, directions, roots, sign vectors and transition-value
    ids, never points: once 50 queries have run, the next 300 solve no FM system and add no normal form, no fit mask and
    no composite map, the class walls stay as built, one row table per overlap region, and each table stays within its
    finite key set."""
    solves = Counter()

    def counted(*args):
        solves["feasible"] += 1
        return feasible(*args)

    monkeypatch.setattr(lbk.apartment, "feasible", counted)
    atlas = build()
    ap, rs = atlas.apartment, atlas.apartment.roots
    class_walls = [list(rows) for rows in atlas.class_walls]
    run_axioms(atlas, AXIOM_ORDER, samples=40)
    infinity_complex(atlas)
    rng = random.Random("object-tables")
    directions = ap.directions()
    sizes = []
    for count in (50, 300):
        for _ in range(count):
            p, q = (BuildingPoint(rng.randrange(atlas.size), seeded_base(ap, rng)) for _ in range(2))
            global_distance(atlas, p, q)
            g1, g2 = (BuildingGerm(bp.chart, ap.sector(bp.point, rng.choice(directions))) for bp in (p, q))
            germ_coapartment(atlas, g1, g2)
        sizes.append((solves["feasible"], sum(map(len, atlas._fits)), atlas.through.cache_info().currsize,
                      ap.rows.cache_info().currsize, ap.bounds.cache_info().currsize, ap.bases.cache_info().currsize))
        assert atlas.class_walls == class_walls
    assert sizes[0] == sizes[1], sizes
    assert 0 < sizes[1][2] <= len(atlas.isos) ** 2
    assert sizes[1][3] == len(atlas.regions)  # one row table per overlap region
    group = len(directions)
    assert rs._product.cache_info().currsize <= group**2 and rs._inverse.cache_info().currsize <= group
    assert ap.cone_slopes.cache_info().currsize <= group * len(rs.positive_roots)
    assert ap.sector_walls.cache_info().currsize <= group
    signs = 3 ** len(rs.positive_roots)  # sign vectors at the positive roots, or at a chart's walls
    assert ap.sector_through.cache_info().currsize <= (group + 1) * signs  # per sign vector, with no direction or one
    assert all(len(atlas._cells[i]) <= (group + 1) * 3 ** len(atlas.walls[i]) for i in atlas.charts())
    assert all(len(atlas._fits[i]) <= group * (rs.rank + 1) for i in atlas.charts())
    assert all(type(key) is int for table in atlas._cells + atlas._fits for key in table)
    # Fits are kept per overlap class, not per chart.
    assert ap.sector_fits.cache_info().currsize <= group * len(atlas.regions) * (rs.rank + 1)
    return weakref.ref(atlas), weakref.ref(ap), weakref.ref(rs)


@pytest.mark.parametrize("build", [lambda: fixtures.fan(4, "B2", 1), lambda: fixtures.lambda_tree(5, 2)], ids=["fan(4,B2)", "tree(5,2)"])
def test_tables_stay_bounded_and_die_with_their_object(build, monkeypatch):
    """An atlas, its apartment and its root system keep their tables as instance caches, so nothing
    outlives them: once the last reference goes, all three are freed."""
    refs = warmed_tables(build, monkeypatch)
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_atlas_and_apartment_die_by_reference_count():
    """With the cyclic collector off, lambda_tree(3), its apartment and its root system are freed as soon
    as the last reference goes, after a run of the checkers: their tables live in their own dicts and call
    their methods through a weak proxy, so no table holds a bound method or closure of its own object, and
    a Weyl element holds its system through the same weak proxy."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        atlas = fixtures.lambda_tree(3)
        run_axioms(atlas, AXIOM_ORDER, samples=40)
        refs = weakref.ref(atlas), weakref.ref(atlas.apartment), weakref.ref(atlas.apartment.roots)
        del atlas
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_root_system_dies_by_reference_count_and_its_group_still_multiplies():
    """With the cyclic collector off, the root system of lambda_tree(3) dies with its atlas, once its group
    has been enumerated and its product and inverse tables filled; while it lives, products and inverses
    are the table's elements, and a product across two systems of one type raises ValueError."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        atlas = fixtures.lambda_tree(3)
        rs = atlas.apartment.roots
        e, r = rs.identity(), rs.simple(1)
        assert r * r is e and r * e is r and r.inverse() is r and e.inverse() is e
        assert rs._product.cache_info().currsize == 2 and rs._inverse.cache_info().currsize == 2
        twin = fixtures.lambda_tree(3).apartment.roots
        with pytest.raises(ValueError):
            r * twin.simple(1)
        assert r.system is not twin.simple(1).system
        run_axioms(atlas, AXIOM_ORDER, samples=40)
        infinity_complex(atlas)
        ref = weakref.ref(rs)
        del atlas, rs, e, r
        assert ref() is None
        assert twin.simple(1) * twin.simple(1) is twin.identity()
    finally:
        if enabled:
            gc.enable()
