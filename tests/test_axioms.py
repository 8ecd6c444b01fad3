import gc
import hashlib
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import combinations

import pytest

import lbk
from lbk.apartment import AffineIsometry, Apartment, format_point
from lbk.atlas import (
    Atlas,
    BuildingGerm,
    BuildingPoint,
    BuildingSector,
    DistanceDisagreementError,
    NoCommonChartError,
    Transition,
    global_distance,
    lowest,
    shared_chart,
    shared_distance,
    validate,
)
from lbk.axioms import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckLine,
    CoapartmentResult,
    Retraction,
    Sample,
    TheoremViolation,
    _cap_pairs,
    _sector_label,
    build_retraction,
    check_a3,
    check_a4,
    check_a5,
    check_a6,
    check_ec,
    check_se,
    equivalence_suite,
    finite_cover,
    germ_coapartment,
    opposite_germ,
    recheck_a6_counterexample,
    run_axioms,
    sector_class_distance,
)
from lbk.fixtures import broken_pair, drop_chart, fan, lambda_tree, shifted_rays, single_apartment
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system
from report_digest import members
from test_atlas import record_calls, same_point, seeded_base
from test_golden import fm_fallback


@pytest.fixture(scope="module")
def tripod():
    return lambda_tree(3)


def disconnected_pair():
    ap = Apartment(build_root_system("A1"), 1)
    return Atlas(ap, ["1", "2"], {})


def failed_lines(report):
    return [line for line in report.lines if line.verdict == FAIL]


# -- A4 ---------------------------------------------------------------------


def test_a4_single_chart(tripod):
    assert check_a4(Sample(single_apartment("A2", 1))).verdict == PASS


def test_a4_tripod_cross_rays_witness(tripod):
    ap = tripod.apartment
    s1 = BuildingSector(tripod.index("12"), ap.sector(ap.origin(), ap.roots.simple(1)))  # ray 2
    s2 = BuildingSector(tripod.index("13"), ap.sector(ap.origin(), ap.roots.simple(1)))  # ray 3
    report = check_a4(Sample(tripod))
    assert report.verdict == PASS
    both = tripod.fitting(s1.chart, s1.sector.direction) & tripod.fitting(s2.chart, s2.sector.direction)
    assert [tripod.name(c) for c in tripod.charts() if both >> c & 1] == ["23"]


def test_a4_disconnected_fails():
    report = check_a4(Sample(disconnected_pair()))
    assert report.verdict == FAIL
    assert failed_lines(report)


@cache
def digest_members():
    """The 40 digest members: 20 ladder members, then 18 pruned ones and two broken ones."""
    return list(members())


def test_exact_a4_agrees_with_a_scan_of_all_origin_sector_pairs():
    """A4 fails exactly off the ladder, and one sampled pair leaves the verdict
    to the scan of the fit table, which names the first pair no chart holds."""
    for index, (name, atlas) in enumerate(digest_members() + [("fm_fallback", fm_fallback())]):
        ap = atlas.apartment
        origin = [BuildingSector(c, ap.sector(ap.origin(), w)) for c in atlas.charts() for w in ap.directions()]
        gap = next((pair for pair in combinations(origin, 2) if sector_class_distance(atlas, *pair) is None), None)
        if index < 40:
            assert (gap is None) == (index < 20), name
        for samples in (1, 80):
            sample = Sample(atlas)
            report = check_a4(sample, samples)
            assert (report.verdict == PASS) == (gap is None), name
            # The exact line follows the sampled lines only when they all pass.
            sampled = len(_cap_pairs(sample.sectors, samples, sample.seed, "a4"))
            exact = report.lines[sampled:]
            if gap is None or any(line.verdict == FAIL for line in report.lines[:sampled]):
                assert exact == [], name
            else:
                label = f"({_sector_label(atlas, gap[0], format_point)},{_sector_label(atlas, gap[1], format_point)})"
                assert exact == [CheckLine(label, FAIL, "detail=no-chart-holds-both-subsectors")], name


@pytest.mark.parametrize("seed", range(6))
def test_no_alarm_on_the_digest_members(seed):
    """On the ladder the A1-A4 gate opens and the suite raises no ALARM; off
    it, exact A4 alone shuts the gate, which no ALARM can then pass."""
    for index, (name, atlas) in enumerate(digest_members()):
        if index < 20:
            suite = equivalence_suite(atlas, samples=80, seed=seed)
            assert suite.precondition_ok and not suite.alarms, (name, suite.alarms)
        else:
            assert check_a4(Sample(atlas, seed), samples=80).verdict == FAIL, name


# -- A6 ---------------------------------------------------------------------


def test_a6_vacuous_below_three_charts():
    assert check_a6(broken_pair()).verdict == PASS
    assert check_a6(single_apartment("A1", 1)).verdict == PASS


def test_a6_tripod_branch_point(tripod):
    report = check_a6(tripod)
    assert report.verdict == PASS
    assert len(report.lines) == 1
    assert "witness=(0)" in report.lines[0].detail


def test_a6_shifted_rays_fails_with_recheckable_certificate():
    atlas = shifted_rays()
    report = check_a6(atlas)
    assert report.verdict == FAIL
    bad = failed_lines(report)[0]
    assert bad.config == "(1,2,3)"
    assert recheck_a6_counterexample(atlas, 0, 1, 2)


# -- EC ---------------------------------------------------------------------


def test_ec_tripod_witnesses(tripod):
    report = check_ec(tripod)
    assert report.verdict == PASS
    details = {line.config: line.detail for line in report.lines}
    assert details["(12,13)"] == "witness=23"
    assert details["(12,23)"] == "witness=13"
    assert details["(13,23)"] == "witness=12"


def test_ec_broken_pair_fails():
    report = check_ec(broken_pair())
    assert report.verdict == FAIL
    assert failed_lines(report)[0].config == "(1,2)"


def test_ec_single_chart_vacuous():
    report = check_ec(single_apartment("A2", 1))
    assert report.verdict == PASS
    assert report.lines[0].detail == "detail=vacuous"


# -- SE ---------------------------------------------------------------------


def test_se_vacuous_without_panels():
    assert check_se(Sample(single_apartment("B2", 1))).verdict == PASS


def test_se_tripod_two_sides(tripod):
    report = check_se(Sample(tripod))
    assert report.verdict == PASS
    details = {line.config: line.detail for line in report.lines}
    # sector toward end 3 (chart 13, direction r1) meets chart 12 in the branch point
    assert details["(chart=12,sector=13:(0):1)"] == "witness=13+23"


def test_se_pruned_fan_fails():
    report = check_se(Sample(drop_chart(fan(3), "23")))
    assert report.verdict == FAIL


def test_se_broken_pair_fails():
    assert check_se(Sample(broken_pair())).verdict == FAIL


def test_se_side_chart_must_hold_the_sector_base():
    """Chart C lies on the far side of the wall alpha_1 = 0 in chart A, and
    the ray of X fits C's overlap alpha_1 >= 1, but C misses the ray's base."""
    ap = Apartment(build_root_system("A1"), 1)
    identity = ap.isometry(ap.roots.identity())
    x, a, c = 0, 1, 2
    glue = {(x, a): ap.half_region((1,), -1, 0), (a, c): ap.half_region((1,), 1, 0), (x, c): ap.half_region((1,), 1, 1)}
    transitions = {pair: Transition(r, identity) for (i, j), r in glue.items() for pair in ((i, j), (j, i))}
    atlas = Atlas(ap, ["X", "A", "C"], transitions)
    assert validate(atlas).ok
    lines = {line.config: line for line in check_se(Sample(atlas)).lines}
    assert lines["(chart=A,sector=X:(0):e)"] == CheckLine(
        "(chart=A,sector=X:(0):e)", FAIL, "detail=missing-side-apartment"
    )


# -- retraction ----------------------------------------------------------------


def ray1_germ(tripod):
    ap = tripod.apartment
    return BuildingGerm(tripod.index("12"), ap.fundamental_sector())


def count_fm_solves(monkeypatch) -> list:
    """Record every linarith.feasible call, under each name an lbk module holds it by."""
    calls = []
    original = lbk.linarith.feasible

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "lbk" or name.startswith("lbk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "atlas",
    [lambda_tree(5, 2), fan(4, "A2"), fan(3, "B2"), broken_pair(), shifted_rays()],
    ids=["tree(5,2)", "fan(4,A2)", "fan(3,B2)", "broken_pair", "shifted_rays"],
)
def test_se_makes_no_fm_solve(atlas, monkeypatch):
    calls = count_fm_solves(monkeypatch)
    report = check_se(Sample(atlas))
    assert report.lines[0].config != "(no-panel-incidences)"
    assert not calls


def count_passes(monkeypatch) -> Counter:
    """Count the Atlas.at calls of each (chart, point)."""
    passes = Counter()
    original = Atlas.at

    def counted(self, chart, point):
        passes[(chart, point)] += 1
        return original(self, chart, point)

    monkeypatch.setattr(Atlas, "at", counted)
    return passes


def test_a3_locates_each_point_once(monkeypatch):
    """A3 reads the charts holding each sampled point from one pass at it."""
    passes = count_passes(monkeypatch)
    sample = Sample(lambda_tree(6), seed=0)
    report = check_a3(sample, samples=60)
    assert len(report.lines) == 60
    assert passes and max(passes.values()) == 1
    assert set(passes) <= {(bp.chart, bp.point) for bp in sample.points}


@pytest.mark.parametrize(
    "atlas",
    [lambda_tree(5, 2), fan(4, "B2"), single_apartment("G2", 1)],
    ids=["tree(5,2)", "fan(4,B2)", "single(G2)"],
)
def test_one_run_locates_each_sampled_point_once(atlas, monkeypatch):
    """A3, SE and A5 read chart masks, and A5 its images and distances, from the passes of one
    Sample per run: one pass per distinct sampled point.  A5 moves each image's pass from its
    point's pass (Retraction.map_at), so no image is located.  The only other passes are at the
    germ bases of A5's three targets (the chart origins), where each Retraction reads its germ's holding."""
    ap = atlas.apartment
    dirs = ap.directions()
    targets = [(chart, w) for chart in atlas.charts() for w in (dirs[0], dirs[-1])][:3]
    points = Sample(atlas, 0).points
    read = {(bp.chart, bp.point) for bp in points}
    images = set()
    for chart, w in targets:
        rho = Retraction(atlas, BuildingGerm(chart, ap.sector(ap.origin(), w)), chart)
        for bp in points:
            try:
                images.add((chart, rho.evaluate(bp).point))
            except TheoremViolation:
                pass
    assert images - read or atlas.size == 1  # a single chart's retractions fix every point
    passes = count_passes(monkeypatch)
    once = Counter(read) + Counter((c, ap.origin()) for c, _ in targets)
    equivalence_suite(atlas, samples=80, seed=0)
    assert passes == once
    passes.clear()
    run_axioms(atlas, ("A3", "SE", "A5"))
    assert passes == once


def reference_designated_points(atlas, chart, extra, seed):
    """The sampler before Sample: the origin, then extra seeded points."""
    ap = atlas.apartment
    rng = random.Random(f"{seed}:{atlas.label}:{atlas.name(chart)}")
    drawn = [
        tuple(
            LambdaScalar([Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(ap.lex_rank)])
            for _ in range(ap.rank)
        )
        for _ in range(extra)
    ]
    return [ap.origin()] + drawn


def reference_building_points(atlas, seed):
    return [BuildingPoint(c, p) for c in atlas.charts() for p in reference_designated_points(atlas, c, 2, seed)]


def reference_building_sectors(atlas, seed):
    ap = atlas.apartment
    out = []
    for chart in atlas.charts():
        for base in reference_designated_points(atlas, chart, 1, seed):
            for w in ap.directions():
                out.append(BuildingSector(chart, ap.sector(base, w)))
    return out


def test_sample_draws_the_points_and_sectors_of_the_old_sampler():
    def words(sectors):
        return [(bs.chart, bs.sector.base, bs.sector.direction.word) for bs in sectors]

    for _, atlas in members():
        for seed in range(6):
            sample = Sample(atlas, seed)
            assert sample.points == reference_building_points(atlas, seed)
            assert words(sample.sectors) == words(reference_building_sectors(atlas, seed))


def test_retraction_identity_on_target(tripod):
    ap = tripod.apartment
    rho = build_retraction(tripod, ray1_germ(tripod), tripod.index("12"))
    for value in (3, 0, -2):
        bp = BuildingPoint(tripod.index("12"), ap.simple_point(value))
        assert rho.evaluate(bp) == bp


def test_retraction_folds_far_ray(tripod):
    ap = tripod.apartment
    rho = build_retraction(tripod, ray1_germ(tripod), tripod.index("12"))
    y = BuildingPoint(tripod.index("23"), ap.simple_point(-2))  # ray 3 at 2
    image = rho.evaluate(y)
    assert image.chart == tripod.index("12")
    assert image.point == ap.simple_point(-2)  # ray 2 at 2


def test_retraction_fixes_shared_ray(tripod):
    ap = tripod.apartment
    rho = build_retraction(tripod, ray1_germ(tripod), tripod.index("12"))
    y = BuildingPoint(tripod.index("13"), ap.simple_point(4))  # on ray 1
    assert rho.evaluate(y).point == ap.simple_point(4)


def test_retraction_spot_distances(tripod):
    ap = tripod.apartment
    rho = build_retraction(tripod, ray1_germ(tripod), tripod.index("12"))
    y = BuildingPoint(tripod.index("23"), ap.simple_point(-2))
    z = BuildingPoint(tripod.index("12"), ap.simple_point(-1))
    assert global_distance(tripod, y, z) == ap.scalar(6)
    assert ap.metric(rho.evaluate(y).point, rho.evaluate(z).point) == ap.scalar(2)


def test_retraction_requires_germ_in_chart(tripod):
    ap = tripod.apartment
    germ = BuildingGerm(tripod.index("12"), ap.sector(ap.simple_point(1), ap.roots.simple(1)))
    with pytest.raises(TheoremViolation):
        build_retraction(tripod, germ, tripod.index("23"))


def test_retraction_evaluation_fails_off_atlas():
    atlas = broken_pair()
    ap = atlas.apartment
    germ = BuildingGerm(0, ap.sector(ap.origin(), ap.roots.simple(1)))
    rho = build_retraction(atlas, germ, 0)
    stray = BuildingPoint(1, ap.simple_point(-1))
    with pytest.raises(TheoremViolation):
        rho.evaluate(stray)


def test_germ_stabilizer_is_trivial():
    ap = Apartment(build_root_system("B2"), 2)
    for w in ap.directions():
        germ = ap.sector(ap.origin(), w).germ()
        fixing = []
        for u in ap.directions():
            if (u * w).matrix == w.matrix and u.act_point(germ.base) == germ.base:
                fixing.append(u)
        assert [f.word for f in fixing] == [()]


def test_a5_tripod(tripod):
    assert check_a5(Sample(tripod), samples=60).verdict == PASS


def test_a5_fan():
    assert check_a5(Sample(fan(3)), samples=40).verdict == PASS


def test_a5_measures_each_sampled_pair_once(monkeypatch):
    """The three targets of a rank-1 model are chart 0 twice, then chart 1; the
    source distance of a pair is measured once, however many targets sample it."""
    atlas = lambda_tree(8, 1)
    sample = Sample(atlas)
    pairs = {pair for chart in (0, 1) for pair in _cap_pairs(sample.points, 200, 0, f"a5:{atlas.name(chart)}")}
    calls = []
    measure = lbk.axioms.shared_distance

    def counted(atlas, at, bp, bq):
        calls.append((bp, bq))
        return measure(atlas, at, bp, bq)

    monkeypatch.setattr(lbk.axioms, "shared_distance", counted)
    assert check_a5(sample).verdict == PASS
    assert sorted(calls, key=repr) == sorted(pairs, key=repr)


def test_a5_rerun_rebuilds_no_fractions(monkeypatch):
    """Sample points keep their scalars' hashes, so a second A5 run over the same
    sample builds almost no Fraction (1,988 when each hash rebuilt the parts)."""
    sample = Sample(lambda_tree(8, 1))
    assert check_a5(sample).verdict == PASS
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert check_a5(sample).verdict == PASS
    assert len(built) <= 10


# sha256 of check_a5(Sample(atlas)).rendered(), one line each, written before A5
# measured each pair once and built its labels only for the lines it writes.
# sha256 of check_a5(Sample(bent_tree()), samples=120).rendered(), one line each.
BENT_A5 = "95e04152b9c208166ff96d02ae313d3b52340cc065abade1376ef34c3cbbd2d2"

A5_LINES = {
    "fm_fallback": "8927cf530cce610a19686e3f195af3d37a837906d946e205c9cf4367d12e6592",
    "broken_pair": "2f47eda1ceb0e3c7dc2aea26495f89def99024e4e579c31fcdbfeeef2b256479",
    "tree(8,1)": "b8843096f4fd8c8a936e8ef2cb2905a8ce2c2ebeb748cf3d63b5895d93994199",
}


@pytest.mark.parametrize("name", sorted(A5_LINES))
def test_a5_lines_are_pinned(name):
    atlas = {"fm_fallback": fm_fallback, "broken_pair": broken_pair, "tree(8,1)": lambda: lambda_tree(8, 1)}[name]()
    lines = check_a5(Sample(atlas)).rendered()
    assert hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest() == A5_LINES[name]
    if name == "fm_fallback":
        assert any("detail=distance-disagrees-between-charts" in line for line in lines)


def bent_tree(pair=(0, 1)):
    """tree(3,1), its label kept, with the transition of ``pair`` replaced by the
    reflection r_1 followed by the shift 1 on the same overlap; its reverse is unchanged."""
    atlas = lambda_tree(3, 1)
    ap = atlas.apartment
    transitions = dict(atlas.transitions)
    transitions[pair] = Transition(transitions[pair].region, AffineIsometry(ap.roots.simple(1), (ap.scalar(1),)))
    return Atlas(ap, atlas.chart_names, transitions, label=atlas.label)


def test_a5_writes_the_failures_of_a_bent_transition():
    """A transition that is not the inverse of its reverse reaches A5's three
    pair failures: images that depend on the chart, distances that disagree
    between shared charts, and a retracted distance above the original."""
    lines = check_a5(Sample(bent_tree()), samples=120).rendered()
    details = Counter(line.split("detail=")[1] for line in lines[:-1])
    assert details == {
        "retraction_value_depends_on_the_chart_chosen": 42,
        "distance-disagrees-between-charts": 11,
        "distance-increased": 2,
    }
    assert lines[-1] == "SUMMARY axiom=A5 checked=55 pass=0 fail=55 inconclusive=0 verdict=fail"
    assert hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest() == BENT_A5


# Per seed, the pairs of the 40 members and bent_tree() that check_a5 (200 samples) does not measure.
SKIPPED_A5_PAIRS = {0: 10694, 1: 10612, 2: 10731}


@pytest.mark.parametrize("seed", range(3))
def test_a5_measures_no_pair_a_chart_of_the_maps_holds(seed):
    """check_a5 skips the image distance of a pair that a chart b of the maps holds: maps[b] after the
    transition into b moves both points by one affine Weyl isometry, and map_at has checked that every
    composite gives each point one image.  On the 40 members and bent_tree(), every pair it skips whose
    images and distance are defined keeps its distance, read from the run's passes as check_a5 reads it."""
    skipped = 0
    for name, atlas in digest_members() + [("bent_tree", bent_tree())]:
        ap = atlas.apartment
        sample = Sample(atlas, seed)
        dirs = ap.directions()
        for chart, w in [(chart, w) for chart in atlas.charts() for w in (dirs[0], dirs[-1])][:3]:
            rho = Retraction(atlas, BuildingGerm(chart, ap.sector(ap.origin(), w)), chart)
            for bp, bq in _cap_pairs(sample.points, 200, seed, f"a5:{atlas.name(chart)}"):
                if not sample.held(bp) & sample.held(bq) & rho.mask:
                    continue
                try:
                    ry, rz = (ap.move_pass(*rho.map_at(sample.at, b)[:2]) for b in (bp, bq))
                    original = shared_distance(atlas, sample.at, bp, bq)
                except (TheoremViolation, DistanceDisagreementError):
                    continue
                assert ap.pass_metric(ry, rz) == original, (name, bp, bq)
                skipped += 1
    assert skipped == SKIPPED_A5_PAIRS[seed]


def test_a5_failures_keep_no_frame_alive():
    """A5 keeps each failed image as its detail string, not its exception: a kept traceback would
    hold check_a5's frame, and with it the sample and its pass caches, in a reference cycle."""
    sample = Sample(bent_tree())
    alive = weakref.ref(sample)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert check_a5(sample, samples=120).verdict == FAIL
        del sample
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("index", range(43))
def test_retractions_fix_their_target_and_keep_co_chart_distances(index):
    """What A5 does not write a line for: every retraction of A5's targets fixes
    each sampled point of its target chart, and every sampled pair sharing a
    chart of the maps keeps its distance there and, when both images and the
    distance are defined, after retraction."""
    atlas = ([atlas for _, atlas in digest_members()] + [bent_tree(pair) for pair in ((0, 1), (1, 0), (1, 2))])[index]
    ap = atlas.apartment
    sample = Sample(atlas)
    dirs = ap.directions()
    for chart, w in [(chart, w) for chart in atlas.charts() for w in (dirs[0], dirs[-1])][:3]:
        rho = Retraction(atlas, BuildingGerm(chart, ap.sector(ap.origin(), w)), chart)
        for bp in sample.points:
            if bp.chart == chart:
                assert rho.evaluate(bp) == bp
        for bp, bq in _cap_pairs(sample.points, 120, sample.seed, f"a5:{atlas.name(chart)}"):
            at_p, at_q = atlas.locate_point(bp), atlas.locate_point(bq)
            shared = at_p.keys() & at_q.keys() & rho.maps.keys()
            for c in shared:
                move = rho.maps[c].apply
                assert ap.metric(move(at_p[c]), move(at_q[c])) == ap.metric(at_p[c], at_q[c])
            try:
                ry, rz = rho.evaluate(bp), rho.evaluate(bq)
                original = global_distance(atlas, bp, bq)
            except (TheoremViolation, NoCommonChartError, DistanceDisagreementError):
                continue
            if shared:
                assert ap.metric(ry.point, rz.point) == original


# -- section 4 searches -----------------------------------------------------------


def test_coapartment_same_chart(tripod):
    ap = tripod.apartment
    g1 = BuildingGerm(0, ap.sector(ap.origin(), ap.roots.identity()))
    g2 = BuildingGerm(0, ap.sector(ap.origin(), ap.roots.simple(1)))
    result = germ_coapartment(tripod, g1, g2)
    assert result.verdict == PASS and result.chart == 0


def test_coapartment_tripod_opposite_rays(tripod):
    ap = tripod.apartment
    g2 = BuildingGerm(tripod.index("12"), ap.sector(ap.origin(), ap.roots.simple(1)))
    g3 = BuildingGerm(tripod.index("13"), ap.sector(ap.origin(), ap.roots.simple(1)))
    result = germ_coapartment(tripod, g2, g3)
    assert tripod.name(result.chart) == "23"
    assert result.final_length == 1
    assert result.initial_length == 1


def test_coapartment_distinct_bases(tripod):
    ap = tripod.apartment
    g1 = BuildingGerm(tripod.index("12"), ap.sector(ap.simple_point(-1), ap.roots.simple(1)))
    g2 = BuildingGerm(tripod.index("13"), ap.sector(ap.origin(), ap.roots.simple(1)))
    result = germ_coapartment(tripod, g1, g2)
    assert result.verdict == PASS
    assert tripod.name(result.chart) == "23"


def test_coapartment_descent_never_lengthens():
    for n, k in ((3, 1), (4, 2)):
        atlas = lambda_tree(n, k)
        ap = atlas.apartment
        charts = list(atlas.charts())
        for c1 in charts:
            for c2 in charts:
                for w1 in ap.directions():
                    for w2 in ap.directions():
                        g1 = BuildingGerm(c1, ap.sector(ap.origin(), w1))
                        g2 = BuildingGerm(c2, ap.sector(ap.origin(), w2))
                        result = germ_coapartment(atlas, g1, g2)
                        assert result.verdict == PASS
                        if result.initial_length is not None and result.final_length is not None:
                            assert result.final_length <= result.initial_length


@pytest.mark.parametrize(
    "atlas", [lambda_tree(5, 2), fan(4, "A2"), fan(3, "B2")], ids=["tree(5,2)", "fan(4,A2)", "fan(3,B2)"]
)
def test_same_base_coapartment_transports_each_germ_once(atlas, monkeypatch):
    """The same-base search moves no point and no germ: one point pass is made per distinct
    (chart, base), read for both the point and the germ masks, and carried into g2's chart and
    the chart found (Atlas.carry_pass); the final length reads the transitions' linear parts.
    So no Atlas.at, locate_point, move_held or transport call is made, and no
    LambdaScalar.affine move."""
    ap = atlas.apartment
    calls = record_calls(monkeypatch, *POINT_MOVES)
    passes, moved = record_passes(atlas, monkeypatch), record_affine(monkeypatch)
    dirs = ap.directions()
    for c1 in atlas.charts():
        for c2, base in atlas.locate_point(BuildingPoint(c1, ap.origin())).items():
            for w1, w2 in zip(dirs, reversed(dirs)):
                for made in [*calls.values(), passes, moved]:
                    made.clear()
                g1, g2 = BuildingGerm(c1, ap.sector(ap.origin(), w1)), BuildingGerm(c2, ap.sector(base, w2))
                result = germ_coapartment(atlas, g1, g2)
                assert result.verdict == PASS and result.final_length is not None
                bases = list(dict.fromkeys([(g1.chart, g1.base), (g2.chart, g2.base)]))
                assert passes == [b for _, b in bases], passes
                assert not any(calls.values()) and not moved, (calls, moved)


@pytest.mark.parametrize(
    "atlas", [lambda_tree(5, 2), fan(4, "A2"), fan(3, "B2")], ids=["tree(5,2)", "fan(4,A2)", "fan(3,B2)"]
)
def test_distinct_base_descent_moves_only_the_first_germ(atlas, monkeypatch):
    """The descent moves no point and no germ, g1 included: the two bases' passes, one per
    distinct (chart, base), are carried into the points chart and the carrier (Atlas.carry_pass),
    five passes moved between charts at most, and the directions of g1 and of the sectors come
    from the transitions' linear parts and the passes' signs.  So no Atlas.at, locate_point,
    move_held or transport call is made, and no LambdaScalar.affine move."""
    ap = atlas.apartment
    calls = record_calls(monkeypatch, *POINT_MOVES, "carry_pass")
    passes, moved = record_passes(atlas, monkeypatch), record_affine(monkeypatch)
    rng = random.Random("descent")
    descents = 0
    for _ in range(60):
        g1, g2 = (BuildingGerm(rng.randrange(atlas.size), ap.sector(seeded_base(ap, rng), rng.choice(ap.directions())))
                  for _ in range(2))
        for made in [*calls.values(), passes, moved]:
            made.clear()
        result = germ_coapartment(atlas, g1, g2)
        bases = list(dict.fromkeys([(g1.chart, g1.base), (g2.chart, g2.base)]))
        assert passes == [b for _, b in bases], passes
        assert not any(calls[name] for name in POINT_MOVES) and not moved, (calls, moved)
        if result.stages[-1].startswith("final chart="):
            descents += 1
            assert len([(i, j) for i, j, _ in calls["carry_pass"] if i != j]) <= 5, calls["carry_pass"]
    assert descents > 20, descents


# The Atlas calls that move or locate a point, germ or sector, or make a point's pass and mask.
POINT_MOVES = ("at", "locate_point", "move_held", "transport_point", "transport_germ", "transport_sector")


def record_affine(monkeypatch):
    """The point of every LambdaScalar.affine move, in call order."""
    moved = []
    affine = LambdaScalar.affine
    monkeypatch.setattr(LambdaScalar, "affine", staticmethod(lambda matrix, xs, shift: moved.append(xs) or affine(matrix, xs, shift)))
    return moved


def point_descent(atlas, g1, g2):
    """germ_coapartment as it was, the slow reference: it moves the bases and the first germ between
    charts (Atlas.locate_point, Atlas.move_held) and reads each moved point's pass and mask from
    one query's cache of Atlas.at."""
    ap = atlas.apartment
    stages = []
    initial = sector_class_distance(atlas, BuildingSector(g1.chart, g1.sector), BuildingSector(g2.chart, g2.sector))
    initial_len = initial[0].length if initial else None
    p1, p2 = BuildingPoint(g1.chart, g1.base), BuildingPoint(g2.chart, g2.base)
    holding = partial(atlas.read, at := cache(atlas.at))
    held1, held2 = holding(p1), holding(p2)
    same_base = atlas.locate_point(p1).get(g2.chart) == g2.base

    def signs(chart, target, base):
        return ap.pass_signs(at(chart, target)[1:], at(chart, base)[1:])

    def direct_scan(fallback, exhausted):
        chart = lowest(holding(g1) & holding(g2))
        if chart is None:
            stages.append(exhausted)
            return CoapartmentResult(None, INCONCLUSIVE, initial_len, None, stages)
        s1, s2 = atlas.move_held(g1, chart), atlas.move_held(g2, chart)
        if same_base and s1.base != s2.base:
            stages.append(f"bases differ in chart={atlas.name(chart)}")
            return CoapartmentResult(None, INCONCLUSIVE, initial_len, None, stages)
        stages.append(f"direct-scan chart={atlas.name(chart)}" if fallback is None else f"fallback direct-scan ({fallback})")
        final_len = ap.germ_distance(s1.germ(), s2.germ()).length if same_base else None
        return CoapartmentResult(chart, PASS, initial_len, final_len, stages)

    if same_base:
        return direct_scan(None, "direct-scan exhausted")
    cc = shared_chart(p1, p2, held1 & held2)
    if cc is None:
        return direct_scan("no point chart", "no chart through both base points")
    stages.append(f"points chart={atlas.name(cc)}")
    x, y = atlas.locate_point(p1)[cc], atlas.locate_point(p2)[cc]
    connecting = BuildingSector(cc, ap.sector(x, ap.sector_through(signs(cc, y, x))))
    carrier = lowest(holding(g1) & holding(connecting))
    if carrier is None:
        return direct_scan("no germ+sector chart", "no chart with first germ and connecting sector")
    germ_in_carrier = atlas.move_held(g1, carrier)
    stages.append(f"germ+sector chart={atlas.name(carrier)}")
    y_in_carrier = atlas.locate_point(BuildingPoint(cc, y))[carrier]
    pivot_direction = ap.sector_through(signs(carrier, germ_in_carrier.base, y_in_carrier), germ_in_carrier.direction)
    final = lowest(holding(g2) & holding(BuildingSector(carrier, ap.sector(y_in_carrier, pivot_direction))))
    if final is None:
        return direct_scan("descent exhausted", "descent exhausted")
    stages.append(f"final chart={atlas.name(final)}")
    return CoapartmentResult(final, PASS, initial_len, None, stages)


def stage_path(result):
    """The path a descent took, named by the stage that decided it: a same-base result by its one
    stage, a fallback by the stage that gave up, whether the direct scan then found a chart or not."""
    first, last = result.stages[0], result.stages[-1]
    if first.startswith(("direct-scan", "bases differ")):
        return "bases differ" if first.startswith("bases differ") else "direct-scan"
    if last.startswith("final chart="):
        return "final chart"
    return ("no point chart", "no germ+sector chart", "descent exhausted")[len(result.stages) - 1]


def test_pass_descent_agrees_with_the_point_descent():
    """germ_coapartment, which moves passes, gives the repr of the point descent over seeded germ
    pairs on the 40 digest members (drop_chart members, broken_pair and shifted_rays among them),
    every other pair at one base, and on fm_fallback, whose gluing is not closed.  Every stage path
    is reached, and the count of each is pinned."""
    paths = Counter()
    for name, atlas in digest_members() + [("fm_fallback", fm_fallback())]:
        rng = random.Random(f"pass-descent:{name}")
        for i in range(60):
            g1 = pin_germ(atlas, rng)
            if i % 2:
                chart, base = rng.choice(sorted(atlas.locate_point(BuildingPoint(g1.chart, g1.base)).items()))
                g2 = pin_germ(atlas, rng, chart, base)
            else:
                g2 = pin_germ(atlas, rng)
            result = germ_coapartment(atlas, g1, g2)
            assert repr(result) == repr(point_descent(atlas, g1, g2)), (name, g1, g2)
            paths[stage_path(result)] += 1
    assert paths == {"direct-scan": 1248, "bases differ": 2, "final chart": 1142, "no point chart": 58,
                     "no germ+sector chart": 4, "descent exhausted": 6}, paths


def record_passes(atlas, monkeypatch):
    """The point of every Apartment.root_dots pass, in call order, once the passes of the atlas's
    transition shifts, which Apartment.pass_moves caches for a moved pass, are made."""
    for t in atlas.transitions.values():
        atlas.apartment.pass_moves(t.iso)
    points = []
    root_dots = Apartment.root_dots
    monkeypatch.setattr(Apartment, "root_dots", lambda self, p: points.append(p) or root_dots(self, p))
    return points


def test_opposite_germ_rank_one(tripod):
    ap = tripod.apartment
    germ = ray1_germ(tripod)
    result = opposite_germ(tripod, germ, tripod.index("23"), ap.simple_point(-2))
    assert result.verdict == PASS
    assert result.contains_point
    assert result.maximal_length == 1  # longest element of the rank-1 group


@pytest.mark.parametrize(
    "atlas", [lambda_tree(4), fan(3, "A2"), fan(3, "B2")], ids=["tree(4,1)", "fan(3,A2)", "fan(3,B2)"]
)
def test_opposite_germ_transports_each_germ_once(atlas, monkeypatch):
    """One point pass is made at the germ's base and one at y, read for every direction,
    and each is carried at most once into a chart, only into charts that hold the germ
    (Atlas.carry_pass); the one point moved is the germ's base, into the co-chart, for the
    parallel sector.  So no Atlas.at,
    locate_point, move_held or transport call is made, and one LambdaScalar.affine
    move at most, none when the co-chart is the germ's own."""
    ap = atlas.apartment
    calls = record_calls(monkeypatch, *POINT_MOVES, "carry_pass")
    passes, moved = record_passes(atlas, monkeypatch), record_affine(monkeypatch)
    for c in atlas.charts():
        germ = BuildingGerm(c, ap.sector(ap.origin(), ap.directions()[0]))
        held = atlas.holding(germ)
        for chart_b in atlas.charts():
            if chart_b == c:
                continue  # one candidate there would be the given germ itself
            for made in [*calls.values(), passes, moved]:
                made.clear()
            result = opposite_germ(atlas, germ, chart_b, ap.origin())
            assert result.verdict == PASS
            assert passes == [germ.base, ap.origin()], passes
            assert not any(calls[name] for name in POINT_MOVES), calls
            carried = [(i, j) for i, j, _ in calls["carry_pass"]]
            assert len(set(carried)) == len(carried) and all(held >> j & 1 for _, j in carried), carried
            assert moved == ([] if result.cochart == c else [germ.base]), moved


def test_opposite_germ_single_chart():
    atlas = single_apartment("A2", 1)
    ap = atlas.apartment
    germ = BuildingGerm(0, ap.sector(ap.origin(), ap.roots.identity()))
    y = ap.simple_point(2, 1)
    result = opposite_germ(atlas, germ, 0, y)
    assert result.verdict == PASS
    assert result.maximal_length == ap.roots.longest_element().length
    assert result.contains_point


def test_opposite_germ_at_base_point(tripod):
    ap = tripod.apartment
    germ = ray1_germ(tripod)
    result = opposite_germ(tripod, germ, tripod.index("12"), ap.origin())
    assert result.verdict == PASS
    assert result.contains_point


def test_opposite_germ_without_a_cochart_holding_the_germ():
    """In fm_fallback the gluing is not closed: the first chart holding the
    pivot and the chosen sector (c) does not hold the given germ, so no
    parallel sector at the germ's base can be read there."""
    atlas = fm_fallback()
    ap = atlas.apartment
    germ = BuildingGerm(atlas.index("d"), ap.sector(ap.origin(), ap.roots.simple(1)))
    chart_b = atlas.index("c")
    assert atlas.transport_germ(germ, chart_b) is None
    result = opposite_germ(atlas, germ, chart_b, ap.simple_point(Fraction(4, 3), Fraction(-9, 8)))
    assert result.verdict == INCONCLUSIVE and result.cochart is None
    assert result.sector == ap.sector(ap.simple_point(Fraction(4, 3), Fraction(-9, 8)), ap.roots.simple(2))
    assert result.maximal_length == 3


def test_coapartment_on_a_gluing_that_is_not_closed():
    """In fm_fallback, e's (0,4) and d's (0,3) are one point to e's holding mask and one move,
    but b, the first chart holding both germs, holds them at (0,4) and (0,3):
    no gallery length can be read there, so the search is inconclusive."""
    atlas = fm_fallback()
    ap = atlas.apartment
    w = ap.roots.from_word([1, 2])
    g1 = BuildingGerm(atlas.index("e"), ap.sector(ap.simple_point(0, 4), w))
    g2 = BuildingGerm(atlas.index("d"), ap.sector(ap.simple_point(0, 3), w))
    assert same_point(atlas, BuildingPoint(g1.chart, g1.base), BuildingPoint(g2.chart, g2.base))
    _, (s1, s2) = atlas.first_held(g1, g2)
    assert s1.base != s2.base
    result = germ_coapartment(atlas, g1, g2)
    assert result.verdict == INCONCLUSIVE and result.chart is None and result.final_length is None
    assert result.stages == ["bases differ in chart=b"]


def test_finite_cover_target_chart(tripod):
    ap = tripod.apartment
    germ = ray1_germ(tripod)
    cover = finite_cover(tripod, germ, tripod.index("12"))
    assert cover.verdict == PASS
    assert len(cover.pieces) == 1
    region, chart = cover.pieces[0]
    assert ap.region_equal(region, ap.whole_region())
    assert tripod.name(chart) == "12"


def test_finite_cover_tripod_two_sides(tripod):
    germ = ray1_germ(tripod)
    cover = finite_cover(tripod, germ, tripod.index("23"))
    assert cover.verdict == PASS
    assert len(cover.pieces) == 2
    assert sorted(cover.chart_names(tripod)) == ["12", "13"]


def test_finite_cover_five_end_tree():
    atlas = lambda_tree(5)
    ap = atlas.apartment
    germ = BuildingGerm(atlas.index("12"), ap.fundamental_sector())
    for chart in atlas.charts():
        cover = finite_cover(atlas, germ, chart)
        assert cover.verdict == PASS
        assert len(cover.pieces) <= 2


def test_finite_cover_pieces_relate_to_germ(tripod):
    ap = tripod.apartment
    germ = ray1_germ(tripod)
    cover = finite_cover(tripod, germ, tripod.index("23"))
    for region, chart in cover.pieces:
        assert tripod.transport_germ(germ, chart) is not None
        assert ap.region_feasible(region).sat


def pin_point(ap, rng):
    """Coordinates from a small grid, so bases and targets often share a wall."""
    return tuple(
        LambdaScalar([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ap.lex_rank)])
        for _ in range(ap.rank)
    )


def pin_germ(atlas, rng, chart=None, base=None):
    ap = atlas.apartment
    chart = rng.randrange(atlas.size) if chart is None else chart
    base = pin_point(ap, rng) if base is None else base
    return BuildingGerm(chart, ap.sector(base, rng.choice(ap.directions())))


def coapartment_digest(pairs_per_member=100):
    """sha256 of repr(germ_coapartment(...)) over seeded germ pairs on the five
    members of the benchmark's queries; every other pair shares its base."""
    digest = hashlib.sha256()
    for name, atlas in (
        ("tree(5,1)", lambda_tree(5, 1)),
        ("tree(4,2)", lambda_tree(4, 2)),
        ("fan(4,A2)", fan(4, "A2")),
        ("fan(3,B2)", fan(3, "B2")),
        ("single(G2)", single_apartment("G2", 1)),
    ):
        rng = random.Random(f"coapartment:{name}")
        for i in range(pairs_per_member):
            g1 = pin_germ(atlas, rng)
            if i % 2:
                chart, base = rng.choice(sorted(atlas.locate_point(BuildingPoint(g1.chart, g1.base)).items()))
                g2 = pin_germ(atlas, rng, chart, base)
            else:
                g2 = pin_germ(atlas, rng)
            digest.update(f"{repr(germ_coapartment(atlas, g1, g2))}\n".encode())
    return digest.hexdigest()


def opposite_digest(calls_per_member=40):
    """sha256 of the verdict, sector, co-chart, point test and maximal length
    of opposite_germ over seeded germs, charts and points."""
    digest = hashlib.sha256()
    for name, atlas in (
        ("tree(4,1)", lambda_tree(4, 1)),
        ("fan(3,A2)", fan(3, "A2")),
        ("fan(3,B2)", fan(3, "B2")),
        ("single(G2)", single_apartment("G2", 1)),
    ):
        rng = random.Random(f"opposite:{name}")
        for _ in range(calls_per_member):
            germ = pin_germ(atlas, rng)
            r = opposite_germ(atlas, germ, rng.randrange(atlas.size), pin_point(atlas.apartment, rng))
            digest.update(f"{(r.verdict, r.sector, r.cochart, r.contains_point, r.maximal_length)!r}\n".encode())
    return digest.hexdigest()


def cover_digest(calls_per_member=30):
    """sha256 of the verdict, pieces and uncovered point of finite_cover over seeded
    germs and target charts on the five members of the benchmark's queries."""
    digest = hashlib.sha256()
    for name, atlas in (
        ("tree(5,1)", lambda_tree(5, 1)),
        ("tree(4,2)", lambda_tree(4, 2)),
        ("fan(4,A2)", fan(4, "A2")),
        ("fan(3,B2)", fan(3, "B2")),
        ("single(G2)", single_apartment("G2", 1)),
    ):
        rng = random.Random(f"cover:{name}")
        for _ in range(calls_per_member):
            germ = pin_germ(atlas, rng)
            r = finite_cover(atlas, germ, rng.randrange(atlas.size))
            digest.update(f"{(r.verdict, r.pieces, r.uncovered)!r}\n".encode())
    return digest.hexdigest()


# Measured before finite_cover read one point pass per located copy of the base.
COVER_SHA256 = "2c0233b0e56691591003382320c8ab4e70529a71f796b009bb5e8a64e14938fc"


def test_finite_cover_results_are_pinned():
    assert cover_digest() == COVER_SHA256


def origin_cover_digest(atlas):
    """sha256 of finite_cover's verdict, pieces by halves and uncovered point for every germ at the
    origin, in every chart and direction, against every target chart."""
    ap = atlas.apartment
    digest = hashlib.sha256()
    for c in atlas.charts():
        for w in ap.directions():
            germ = BuildingGerm(c, ap.sector(ap.origin(), w))
            for b in atlas.charts():
                r = finite_cover(atlas, germ, b)
                digest.update(f"{(r.verdict, [(region.halves, chart) for region, chart in r.pieces], r.uncovered)!r}\n".encode())
    return digest.hexdigest()


# Measured when finite_cover's maximal-piece scan decided containment by FM, one solve per half.
ORIGIN_COVER_SHA256 = {
    "fan(3,A2)": "1e6e1e49101ba219a24102466ada86733599c866dd1da5900a32f93a0b9d684c",
    "fan(4,A2)": "fa12e72bd779cb77988acd11feffcad8a5206eee1b340e1f1e757496093a4b5f",
    "fan(5,A2)": "9685ff088365fad6508321d7928785b2a3fe56c08170758438e0e8dfb1593926",
    "fan(3,B2)": "b54f06eb36a9cdbe0b5c62acc4dcf4fb45a5253d5c1af1ac46a93cbe70e8d18e",
    "fan(4,B2)": "14f75e7d18ea06ae8a08cb9d9c6ccfdb711b23b457a0095cd6ebad9ecb302f5b",
    "fan(5,B2)": "0d238b6fcee7010c4e71fc06c297e97d5b70d569aefba93092fa7ee0ab0aa0a8",
}


@pytest.mark.parametrize("name", ORIGIN_COVER_SHA256)
def test_origin_covers_of_the_ladder_fans_are_pinned(name):
    """Every finite_cover of the ladder fans' origin germs, with containment and emptiness read from the
    normal form, gives the verdicts, pieces and uncovered points that FM gave."""
    leaves, roots = name.removeprefix("fan(").removesuffix(")").split(",")
    assert origin_cover_digest(fan(int(leaves), roots)) == ORIGIN_COVER_SHA256[name]


def half_descent_uncovered(ap, regions):
    """A point outside every region, or None when they cover the apartment: the slow reference rule.  It
    branches once per half of every region, on the half's negation, so its FM solves grow as the product
    of the regions' half counts."""

    def descend(idx, rows):
        probe = lbk.linarith.feasible(lbk.linarith.ConstraintSystem(ap.rank, rows), ap.lex_rank)
        if not probe.sat:
            return None
        if idx == len(regions):
            return probe.witness
        found = (descend(idx + 1, rows + (ap.half_constraint(h).negation(),)) for h in regions[idx].halves)
        return next((p for p in found if p is not None), None)

    return descend(0, ())


def cover_agreement_digest(calls_per_member=20):
    """sha256 of the verdict and pieces of finite_cover over seeded germs, bases off the origin among them,
    and target charts, after checking each cover against the half descent: the verdicts agree, and every
    uncovered point, of either rule, lies outside every piece.  Returns the digest and the uncovered count."""
    digest, uncovered = hashlib.sha256(), 0
    for name, atlas in (
        ("tree(4,1)", lambda_tree(4, 1)),
        ("tree(3,2)", lambda_tree(3, 2)),
        ("fan(3,A2)", fan(3, "A2")),
        ("fan(3,B2)", fan(3, "B2")),
        ("tree(4,1)-12", drop_chart(lambda_tree(4, 1), "12")),
        ("fan(4,A2)-12", drop_chart(fan(4, "A2"), "12")),
        ("fan(3,B2)-13", drop_chart(fan(3, "B2"), "13")),
        ("broken_pair", broken_pair()),
        ("shifted_rays", shifted_rays()),
    ):
        ap = atlas.apartment
        rng = random.Random(f"agree:{name}")
        for _ in range(calls_per_member):
            r = finite_cover(atlas, pin_germ(atlas, rng), rng.randrange(atlas.size))
            regions = [region for region, _ in r.pieces]
            slow = half_descent_uncovered(ap, regions)
            assert (r.verdict == PASS) == (slow is None), name
            if r.verdict != PASS:
                uncovered += 1
                assert r.uncovered is not None
                assert not any(ap.region_contains_point(region, p) for region in regions for p in (r.uncovered, slow))
            digest.update(f"{(r.verdict, r.pieces)!r}\n".encode())
    return digest.hexdigest(), uncovered


# Measured while finite_cover decided coverage by the half descent.
COVER_AGREEMENT_SHA256 = "9ac57a58434e525ae40f2caad504ae54daf80e7aa44dd2f8856a998f440ca455"


def test_finite_cover_agrees_with_the_half_descent():
    assert cover_agreement_digest() == (COVER_AGREEMENT_SHA256, 25)


def test_cover_budget_counts_the_open_cell_solves(monkeypatch):
    """fan(4,B2), the origin germ of chart 12 in direction e, target chart 23: the open-cell descent over the
    pieces' walls makes 27 FM solves (the half descent made 162)."""
    f4 = fan(4, "B2")
    ap = f4.apartment
    germ = BuildingGerm(f4.index("12"), ap.sector(ap.origin(), ap.roots.identity()))
    for budget, verdict in (("27", PASS), ("26", INCONCLUSIVE)):
        monkeypatch.setenv("LBK_BUDGET", budget)
        assert finite_cover(f4, germ, f4.index("23")).verdict == verdict


def deleted_side(ap, h, p):
    """The side of p of the half h, 1 inside, 0 on its wall, -1 outside, by scalars: ``Apartment.sides`` as it was."""
    return h.sense * (ap.pairing(h.root, p) - h.bound).sign()


def caps_by_cone(ap, w, h):
    """Does the half h cap a generator w.u_k of the direction-w cone: is sense * (root, w.u_k) < 0 for some k?"""
    row = ap.pairing_row(h.root)
    return any(h.sense * sum(a * x for a, x in zip(row, u)) < 0 for u in ap.sector_cone(w))


def deleted_holds_germ(ap, region, germ):
    """``Apartment.holds_germ`` as it was: the base lies in every half, and no half tight at it caps the cone."""
    sides = [(h, deleted_side(ap, h, germ.base)) for h in region.halves]
    return all(s >= 0 for _, s in sides) and not any(caps_by_cone(ap, germ.direction, h) for h, s in sides if not s)


def deleted_holds_sector(ap, region, sector):
    """``Apartment.holds_sector`` as it was: the base lies in every half, and no half caps the cone."""
    halves = region.halves
    return all(deleted_side(ap, h, sector.base) >= 0 for h in halves) and not any(caps_by_cone(ap, sector.direction, h) for h in halves)


def test_germ_and_sector_masks_agree_with_the_region_predicates():
    """holding(germ) and holding(sector), read from one point pass at the chart's walls
    (Apartment.admits of each half's sign), are the charts of the classes whose overlap region holds a chunk of the
    germ or the whole sector by the scalar rules the one rule replaced (deleted_holds_germ,
    deleted_holds_sector), and so are the region predicates, over seeded bases and every
    direction.  Bases on a grid often lie on walls: at least 100 germs lose a chart of their base."""
    capped = 0
    for name, atlas in digest_members():
        ap = atlas.apartment
        rng = random.Random(f"germ-masks:{name}")
        for _ in range(20):
            chart, base = rng.randrange(atlas.size), pin_point(ap, rng)
            point = atlas.holding(BuildingPoint(chart, base))
            for w in ap.directions():
                germ, sector = BuildingGerm(chart, ap.sector(base, w)), BuildingSector(chart, ap.sector(base, w))
                expected = atlas.reach(chart, lambda r: deleted_holds_germ(ap, r, germ.germ())) | 1 << chart
                assert atlas.holding(germ) == expected, (name, germ)
                assert atlas.reach(chart, lambda r: ap.region_contains_germ(r, germ.germ())) | 1 << chart == expected
                whole = atlas.reach(chart, lambda r: deleted_holds_sector(ap, r, sector.sector)) | 1 << chart
                assert atlas.holding(sector) == whole, (name, sector)
                assert atlas.reach(chart, lambda r: ap.sector_fits(w, r) and ap.region_contains_point(r, base)) | 1 << chart == whole
                capped += expected != point
    assert capped >= 100, capped


def query_members():
    """The five members of the benchmark's queries, each with the number of inputs it gets,
    and after each member of three or more charts its copy without the last chart, where
    some point pairs share no chart and some points no chart with a retraction's germ."""
    for name, atlas in (
        ("tree(5,1)", lambda_tree(5, 1)),
        ("tree(4,2)", lambda_tree(4, 2)),
        ("fan(4,A2)", fan(4, "A2")),
        ("fan(3,B2)", fan(3, "B2")),
        ("single(G2)", single_apartment("G2", 1)),
    ):
        yield name, atlas, 80
        if atlas.size >= 3:
            yield f"{name}-{atlas.size - 1}", drop_chart(atlas, atlas.size - 1), 25


def outcome(call) -> str:
    """repr of the call's result, or the class and message of the failure it raises."""
    try:
        return repr(call())
    except (NoCommonChartError, DistanceDisagreementError, TheoremViolation) as exc:
        return f"{type(exc).__name__}: {exc}"


def distance_digest():
    """sha256 of global_distance over 500 seeded pairs of building points."""
    digest = hashlib.sha256()
    for name, atlas, count in query_members():
        rng = random.Random(f"distance:{name}")
        for _ in range(count):
            bp, bq = (BuildingPoint(rng.randrange(atlas.size), pin_point(atlas.apartment, rng)) for _ in range(2))
            digest.update(f"{outcome(lambda: global_distance(atlas, bp, bq))}\n".encode())
    return digest.hexdigest()


def retraction_digest():
    """sha256 of Retraction.evaluate over 500 seeded building points, alternating between
    the two retractions the benchmark's queries build per member."""
    digest = hashlib.sha256()
    for name, atlas, count in query_members():
        ap = atlas.apartment
        dirs, last = ap.directions(), atlas.size - 1
        rhos = [
            Retraction(atlas, BuildingGerm(0, ap.sector(ap.origin(), dirs[0])), 0),
            Retraction(atlas, BuildingGerm(last, ap.sector(ap.origin(), dirs[-1])), last),
        ]
        rng = random.Random(f"retract:{name}")
        for i in range(count):
            bp = BuildingPoint(rng.randrange(atlas.size), pin_point(ap, rng))
            digest.update(f"{outcome(lambda: rhos[i % 2].evaluate(bp))}\n".encode())
    return digest.hexdigest()


# Both measured before the sector scans read signs instead of sector regions.
COAPARTMENT_SHA256 = "7ab9bed905ee71cadd818e12e1287ebe114b93a02d08b70a315061a96dc9b9be"
OPPOSITE_SHA256 = "a92af23c974f527594cb82fb419fe946c3ec17898fcee4f60a26e9c3d416fe18"


def test_coapartment_results_are_pinned():
    assert coapartment_digest() == COAPARTMENT_SHA256


def test_opposite_germ_results_are_pinned():
    assert opposite_digest() == OPPOSITE_SHA256


# Both measured before points were located from one integer pass; 8 of the pairs share no
# chart, and 10 of the points share no chart with their retraction's germ.
DISTANCE_SHA256 = "ac46623e047e7a69a7fda7f20636e1c32930cab174e83d80f36958422bc43e63"
RETRACTION_SHA256 = "e4f3260c1036c7f4a22a6c9aaac58b227a3c07850a15f416d21f539459199771"


def test_distance_results_are_pinned():
    assert distance_digest() == DISTANCE_SHA256


def test_retraction_results_are_pinned():
    assert retraction_digest() == RETRACTION_SHA256


# -- equivalence ---------------------------------------------------------------


def test_opposite_germ_rank_two_cross_chart():
    import random

    from lbk.lexq import LambdaScalar
    from fractions import Fraction as Q

    f4 = fan(4)
    ap = f4.apartment
    rng = random.Random(5)
    germ = BuildingGerm(f4.index("12"), ap.sector(ap.origin(), ap.roots.identity()))
    for _ in range(6):
        y = tuple(LambdaScalar([Q(rng.randint(-8, 8), rng.randint(1, 4))]) for _ in range(2))
        result = opposite_germ(f4, germ, f4.index("34"), y)
        assert result.verdict == PASS
        assert result.contains_point


def test_finite_cover_rank_two_disjoint_chart():
    f4 = fan(4)
    ap = f4.apartment
    germ = BuildingGerm(f4.index("12"), ap.sector(ap.origin(), ap.roots.identity()))
    cover = finite_cover(f4, germ, f4.index("34"))
    assert cover.verdict == PASS
    # every piece shares a chart that also holds the germ (charts with leaf 1)
    assert set(cover.chart_names(f4)) <= {"13", "14"}
    assert len(cover.pieces) >= 2


def test_coapartment_rank_two_random_pairs():
    import random

    from lbk.lexq import LambdaScalar
    from fractions import Fraction as Q

    f4 = fan(4)
    ap = f4.apartment
    rng = random.Random(7)

    def rp():
        return tuple(LambdaScalar([Q(rng.randint(-8, 8), rng.randint(1, 4))]) for _ in range(2))

    for _ in range(10):
        c1, c2 = rng.sample(range(f4.size), 2)
        g1 = BuildingGerm(c1, ap.sector(rp(), rng.choice(ap.directions())))
        g2 = BuildingGerm(c2, ap.sector(rp(), rng.choice(ap.directions())))
        assert germ_coapartment(f4, g1, g2).verdict == PASS


def test_equivalence_tripod(tripod):
    suite = equivalence_suite(tripod, samples=60)
    assert suite.precondition_ok
    assert not suite.alarms
    assert all(r.verdict == PASS for r in suite.reports.values())


def test_equivalence_negative_fixtures_fail_a4_gate():
    for atlas in (broken_pair(), shifted_rays()):
        suite = equivalence_suite(atlas, samples=40)
        assert not suite.precondition_ok
        assert not suite.alarms  # assertions only fire when the gate holds


def test_sector_class_distance(tripod):
    ap = tripod.apartment
    s1 = BuildingSector(tripod.index("12"), ap.sector(ap.origin(), ap.roots.simple(1)))
    s2 = BuildingSector(tripod.index("13"), ap.sector(ap.origin(), ap.roots.simple(1)))
    delta, chart = sector_class_distance(tripod, s1, s2)
    assert delta.length == 1
    assert tripod.name(chart) == "23"


def test_a3_passes_on_fixtures(tripod):
    assert check_a3(Sample(tripod)).verdict == PASS
    assert check_a3(Sample(fan(3))).verdict == PASS
    assert check_a3(Sample(disconnected_pair())).verdict == FAIL


def test_cover_budget_exhaustion_is_inconclusive(tripod, monkeypatch):
    monkeypatch.setenv("LBK_BUDGET", "1")
    cover = finite_cover(tripod, ray1_germ(tripod), tripod.index("23"))
    assert cover.verdict == INCONCLUSIVE


def test_report_verdict_precedence():
    from lbk.axioms import AxiomReport

    report = AxiomReport("A4")
    report.add("a", PASS)
    assert report.verdict == PASS
    report.add("b", INCONCLUSIVE)
    assert report.verdict == INCONCLUSIVE
    report.add("c", FAIL)
    assert report.verdict == FAIL
    rendered = report.rendered()
    assert rendered[-1].endswith("verdict=fail")
    assert "checked=3 pass=1 fail=1 inconclusive=1" in rendered[-1]


def listed_cap_pairs(items, samples, seed, tag):
    """The sampler as it once was: list every index pair, then draw from the list."""
    pairs = list(combinations(range(len(items)), 2))
    if len(pairs) <= samples:
        return [(items[a], items[b]) for a, b in pairs]
    rng = random.Random(f"{seed}:{tag}")
    chosen = rng.sample(pairs, samples)
    return [(items[a], items[b]) for a, b in sorted(chosen)]


def test_cap_pairs_draws_the_pairs_of_the_listed_sampler():
    for n in range(2, 120):
        items = list(range(n))
        for samples in (1, 5, 36, 60, 80, 120, 200):
            for seed in range(3):
                assert _cap_pairs(items, samples, seed, "a4") == listed_cap_pairs(items, samples, seed, "a4")
