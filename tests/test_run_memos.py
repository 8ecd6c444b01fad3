"""One run of the checkers keeps exact memos of pure functions, ``Sample.format``
and the tables its checkers make (SE's panel, move and pairing tables among
them), and nothing past the run.  Every table a run keeps is a
``functools.cache``; ``record_memos`` wraps the ``cache`` of ``lbk.axioms`` to
see every value those tables return, hits included.

Every fixture transition has a zero shift.  ``moved_sample`` reads a digest
member through the per-chart isometries of :func:`test_se_panels.chart_moves`,
so its transitions carry shifts and reflections, and moves the original
sample's points and sectors with them.  Charts 0 and 1 keep their
coordinates: A5 retracts onto the origin germs of those charts, which must
stay the same germs of the building.
"""
import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

import lbk.apartment
import lbk.axioms
from lbk.apartment import AffineIsometry, Apartment, format_point
from lbk.atlas import BuildingPoint, BuildingSector, DistanceDisagreementError, charts_of, global_distance, lowest, shared_distance
from lbk.axioms import _CHECKERS, Sample, _cap_pairs, _pair_label, equivalence_suite, sector_class_distance
from lbk.fixtures import fan, lambda_tree
from lbk.infinity import infinity_complex
from lbk.rootsystem import WeylElement
from report_digest import LADDER, build as build_member
from test_axioms import bent_tree
from test_composite_maps import outcome as answer
from test_golden import fm_fallback
from test_se_panels import MEMBERS, chart_moves, moved_atlas, reference_se

CHECKED = ("A3", "A4", "A6", "EC", "SE", "A5")


def moved_sample(atlas, seed):
    """The member's sample, and the same building points and sectors in the moved member."""
    ap = atlas.apartment
    moves = chart_moves(atlas, seed)
    moves[:2] = [ap.isometry(ap.roots.identity())] * 2
    original, moved = Sample(atlas, seed), Sample(moved_atlas(atlas, moves), seed)
    moved.points = [BuildingPoint(bp.chart, moves[bp.chart].apply(bp.point)) for bp in original.points]
    moved.sectors = [
        BuildingSector(bs.chart, ap.sector(moves[bs.chart].apply(bs.sector.base), moves[bs.chart].linear * bs.sector.direction))
        for bs in original.sectors
    ]
    return original, moved


def outcome(axiom, line):
    """A line's verdict, with its witness charts (a point for A6) or a failure that names no point."""
    if line.verdict == "pass":
        return line.verdict, None if axiom == "A6" else sorted(line.detail.removeprefix("witness=").split("+"))
    return line.verdict, None if "(" in line.detail else line.detail


def record_memos(monkeypatch):
    """The tables ``lbk.axioms`` makes from now on, each recording every distinct value it
    returns, hits included, by (arguments, value object), next to the function it wraps."""
    tables = []

    def recording_cache(fn):
        memo = cache(fn)

        def recorded(*args):
            value = memo(*args)
            recorded.returned.setdefault((args, id(value)), (args, value))
            return value

        recorded.fn, recorded.returned, recorded.cache_info = fn, {}, memo.cache_info
        tables.append(recorded)
        return recorded

    monkeypatch.setattr(lbk.axioms, "cache", recording_cache)
    return tables


def assert_returns_fresh_calls(table, fn):
    """Each value the table returned, hit or miss, equals a fresh call of fn."""
    assert all(value == fn(*args) for args, value in list(table.returned.values())), fn


def misses(sample):
    return sample.format.cache_info().misses


@pytest.mark.parametrize("seed", [0, 1])
def test_checkers_on_shifted_transitions_match_the_originals(seed, monkeypatch):
    tables = record_memos(monkeypatch)
    shifted = fails = hits = 0
    entries = Counter()
    for name, atlas in MEMBERS:
        tables.clear()
        original, moved = moved_sample(atlas, seed)
        shifted += sum(any(not c.is_zero() for c in t.iso.shift) for t in moved.atlas.transitions.values())
        for axiom in CHECKED:
            before, after = _CHECKERS[axiom](original, 80), _CHECKERS[axiom](moved, 80)
            assert len(after.lines) == len(before.lines), (name, axiom)
            assert [outcome(axiom, line) for line in after.lines] == [outcome(axiom, line) for line in before.lines], (name, axiom)
            fails += sum(line.verdict == "fail" for line in after.lines)
        for table in tables:
            assert_returns_fresh_calls(table, table.fn)
            entries[table.fn.__qualname__] += table.cache_info().misses
        assert_returns_fresh_calls(moved.format, format_point)
        entries["format"] += misses(moved)
        hits += sum(table.cache_info().hits for table in tables)
    assert shifted > 1000 and fails > 300, (shifted, fails)
    moves, pairings = entries["AffineIsometry.apply"], entries["Apartment.pairing"]
    assert min(moves, pairings, entries["format"]) > 100 and hits > 10000, (entries, hits)


def record_runs(monkeypatch):
    """The Samples of every run, and the calls of the point move ``AffineIsometry.apply``,
    of ``Apartment.metric`` and of the point pass ``Apartment.root_dots``."""
    samples, calls = [], Counter()
    apply, metric, root_dots = AffineIsometry.apply, Apartment.metric, Apartment.root_dots

    class Recorded(Sample):
        def __init__(self, *args):
            super().__init__(*args)
            samples.append(self)

    def counted_apply(self, p):
        calls["apply"] += 1
        return apply(self, p)

    def counted_metric(self, v1, v2):
        calls["metric"] += 1
        return metric(self, v1, v2)

    def counted_root_dots(self, p):
        calls["root_dots"] += 1
        return root_dots(self, p)

    monkeypatch.setattr(lbk.axioms, "Sample", Recorded)
    monkeypatch.setattr(AffineIsometry, "apply", counted_apply)
    monkeypatch.setattr(Apartment, "metric", counted_metric)
    monkeypatch.setattr(Apartment, "root_dots", counted_root_dots)
    return samples, calls


@pytest.mark.parametrize("atlas", [lambda_tree(5, 2), fan(4, "B2")], ids=["tree(5,2)", "fan(4,B2)"])
def test_two_runs_on_one_atlas_make_the_same_misses(atlas, monkeypatch):
    """Nothing a run memoizes carries over to the next run on the same atlas: both runs
    make the same label misses, point moves and point passes (the apartment's own
    ``pass_moves`` table, which outlives runs, emptied first), and no distance goes
    through ``Apartment.metric``."""
    samples, calls = record_runs(monkeypatch)
    runs = []
    for _ in range(2):
        calls.clear()
        atlas.apartment.pass_moves.cache_clear()
        equivalence_suite(atlas, samples=80, seed=0)
        runs.append((misses(samples[-1]), calls["apply"], calls["root_dots"]))
        assert calls["metric"] == 0
    assert runs[0] == runs[1] and min(runs[0]) > 0, runs


def composite_keys(atlas, bp, bq):
    """The distinct (id of t_cj, id of t_dj) keys over the charts j holding both points."""
    shared = atlas.holding(bp) & atlas.holding(bq)
    return {(atlas.value_of[(bp.chart, j)], atlas.value_of[(bq.chart, j)]) for j in charts_of(shared)}


def test_global_distance_measures_once_per_composite_key(monkeypatch):
    """Outside a run nothing is memoized: one pass_metric call per distinct composite map
    t_cj^-1 t_dj (Atlas.through of a composite key) of the shared charts, again on every call.
    Distinct keys may give one map, so there are fewer calls than keys."""
    atlas = lambda_tree(5, 1)
    points = Sample(atlas).points
    calls = []
    metric = Apartment.pass_metric

    def counted(self, pp, pq):
        calls.append((pp, pq))
        return metric(self, pp, pq)

    def maps(bp, bq):
        return {atlas.through(*key) for key in composite_keys(atlas, bp, bq)}

    monkeypatch.setattr(Apartment, "pass_metric", counted)
    fewer = 0
    for bp in points:
        for bq in points:
            if keys := composite_keys(atlas, bp, bq):
                calls.clear()
                global_distance(atlas, bp, bq)
                assert len(calls) == len(maps(bp, bq))
                fewer += len(maps(bp, bq)) < len(keys)
    assert fewer > 100, fewer
    for _ in range(2):
        calls.clear()
        global_distance(atlas, points[0], points[1])
        assert len(calls) == len(maps(points[0], points[1]))


@pytest.mark.parametrize("build", [lambda: bent_tree((1, 2)), fm_fallback], ids=["bent_tree(1,2)", "fm_fallback"])
def test_a_disagreement_in_any_shared_chart_raises(build):
    """When the points moved into some shared chart, the third included, measure another
    distance than in the lowest one, global_distance raises; A5's rule, shared_distance
    from one run's passes, gives global_distance's value or raises the same error."""
    atlas = build()
    ap = atlas.apartment
    sample = Sample(atlas)
    points = sample.points
    late = 0
    for bp in points:
        for bq in points:
            shared = charts_of(atlas.holding(bp) & atlas.holding(bq))
            at_p, at_q = atlas.locate_point(bp), atlas.locate_point(bq)
            values = [ap.metric(at_p[j], at_q[j]) for j in shared]
            differ = [k for k, value in enumerate(values) if value != values[0]]
            if differ:
                with pytest.raises(DistanceDisagreementError):
                    global_distance(atlas, bp, bq)
                late += differ[0] > 1
            elif values:
                assert global_distance(atlas, bp, bq) == values[0]
            assert answer(lambda: shared_distance(atlas, sample.at, bp, bq)) == answer(lambda: global_distance(atlas, bp, bq))
    assert late > 0


def test_ladder_memo_misses_are_pinned(monkeypatch):
    """On the 20 ladder members at seed 0, the runs' label memos miss 391 times, and the
    pass moves 198 points and makes 706 point passes, each apartment's ``pass_moves`` table
    emptied first: A5 moves its images' passes, not its images.  No distance goes through
    ``Apartment.metric``: A5 reads the run's passes."""
    ladder = MEMBERS[: len(LADDER)]
    for _, atlas in ladder:
        atlas.apartment.pass_moves.cache_clear()
    samples, calls = record_runs(monkeypatch)
    for name, atlas in ladder:
        assert not equivalence_suite(atlas, samples=80, seed=0).alarms, name
    assert len(samples) == len(LADDER)
    assert sum(misses(sample) for sample in samples) == 391
    assert (calls["apply"], calls["metric"], calls["root_dots"]) == (198, 0, 706)


def test_ladder_pass_work_is_pinned(monkeypatch):
    """One pass over fresh ladder members at seed 0, as the benchmark's ladder op runs it (the suite at 80
    samples, then the complex at infinity), builds 40 normal forms (Apartment.bounds misses), one per
    distinct region whose floor falls short of a bound, and solves 46 FM systems, all of them A6 witnesses.
    Distances measure once per distinct composite map (4,194 pass metrics), and A5 moves each distinct
    point's image pass once per target (3,730 pass moves).  Fits are decided once per (direction, overlap
    region, face) (432 sector_fits), the cell table asks holds never, and
    the complex at infinity makes its Weyl products per transition value, not per union (1,004 products
    in all).  The cell tables keep 1,712 masks and the fit tables 1,516, each under one int key per chart.
    A memo lost, or a pass moved twice, moves one of these numbers."""
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(lbk.apartment, "feasible")
    for name in ("move_pass", "pass_metric", "sector_fits", "holds"):
        counted(Apartment, name)
    counted(WeylElement, "__mul__")
    builds = cells = fits = 0
    for _, *spec in LADDER:
        atlas = build_member(*spec)
        equivalence_suite(atlas, samples=80, seed=0)
        infinity_complex(atlas)
        builds += atlas.apartment.bounds.cache_info().misses
        cells += sum(map(len, atlas._cells))
        fits += sum(map(len, atlas._fits))
        assert all(type(key) is int for table in atlas._cells + atlas._fits for key in table)
    assert (builds, calls["feasible"], calls["pass_metric"], calls["move_pass"]) == (40, 46, 4194, 3730)
    assert (calls["sector_fits"], calls["holds"], calls["__mul__"]) == (432, 0, 1004)
    assert (cells, fits) == (1712, 1516)


def hand_built(atlas, seed):
    """A Sample with caller-chosen points and sectors: the drawn points reversed, then the first four
    again, so that equal points sit at two indices; every third drawn sector, then the sectors of every
    direction at two seeded bases that are no sample point."""
    ap = atlas.apartment
    sample = Sample(atlas, seed)
    rng = random.Random(f"hand-built:{seed}:{atlas.label}")
    bases = [
        BuildingPoint(rng.randrange(atlas.size), ap.point(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(ap.rank)))
        for _ in range(2)
    ]
    sample.points = sample.points[::-1] + sample.points[:4]
    sample.sectors = sample.sectors[::3] + [BuildingSector(bp.chart, ap.sector(bp.point, w)) for bp in bases for w in ap.directions()]
    return sample


# sha256 of the A3, A4, SE and A5 lines, rendered, of hand_built(atlas, 0), one line each.
HAND_BUILT = {
    "bent_tree": "00653bc0fd6b4a70044940657677125afb5589decfd1149e5dcca1e36d6aea9c",
    "fan(3,B2)": "752e05b36da01dd57ecbedf356810731cf76530141b08332957c54ab5857e44a",
    "fan(4,A2)-34": "1b5984037c599637ac6c2ab9cf351c8e53f16470de921f87d9010ac98257307f",
    "fm_fallback": "f066aa795ec889c232e08aa9ba00ba7caf127715b29f58e269cb175e39cc20f6",
    "tree(4,2)": "006e7e206a219207f6825d1e1150ffee80d7991bff4b43b6bd41c277b2bba0ff",
    "tree(5,1)-45": "11a1484b5652bb78316ef5535f30e344fba28228a5e42aba1c24d6d179ffd0fe",
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_samples_keep_their_lines(name, monkeypatch):
    """Checkers read a hand-built sample's points and sectors by index and its sectors' bases through the
    run's passes: SE writes the per-sector checker's lines, A3 the lines of its pairs' holding masks, A4 the
    charts of sector_class_distance, A5 measures each distinct pair of points once, wherever they sit, and
    the lines are these bytes."""
    atlas = {"bent_tree": bent_tree, "fm_fallback": fm_fallback}.get(name, lambda: dict(MEMBERS)[name])()
    sample = hand_built(atlas, 0)
    measured = []
    measure = lbk.axioms.shared_distance

    def counted(atlas, at, bp, bq):
        measured.append((bp, bq))
        return measure(atlas, at, bp, bq)

    monkeypatch.setattr(lbk.axioms, "shared_distance", counted)
    reports = {axiom: _CHECKERS[axiom](sample, 80) for axiom in ("A3", "A4", "SE", "A5")}
    assert reports["SE"].lines == reference_se(sample).lines
    pairs = _cap_pairs(sample.points, 60, 0, "a3")
    shared = [lowest(atlas.holding(bp) & atlas.holding(bq)) for bp, bq in pairs]
    assert [line.config for line in reports["A3"].lines] == [_pair_label(atlas, bp, bq, format_point) for bp, bq in pairs]
    assert [line.verdict == "pass" for line in reports["A3"].lines] == [c is not None for c in shared]
    found = [sector_class_distance(atlas, s1, s2) for s1, s2 in _cap_pairs(sample.sectors, 80, 0, "a4")]
    assert [line.detail for line in reports["A4"].lines[: len(found)]] == [
        "detail=no-chart-holds-both-subsectors" if f is None else f"witness={atlas.name(f[1])}" for f in found
    ]
    assert measured and len(measured) == len(set(measured))
    lines = [line for report in reports.values() for line in report.rendered()]
    assert hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest() == HAND_BUILT[name]
