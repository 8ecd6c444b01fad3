"""Acceptance suite: one test per criterion, exact checks, stated time caps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything asserted here is exact (no tolerances): witnesses are
re-substituted and region equalities are decided by elimination.
"""
import random
import time
from fractions import Fraction as Q

import pytest

from gridsearch import grid_sat
from lbk.apartment import Apartment
from lbk.atlas import BuildingGerm, BuildingPoint, global_distance, validate
from lbk.axioms import (
    PASS,
    check_a1,
    check_a2,
    check_a3,
    check_a4,
    check_a5,
    check_a6,
    check_ec,
    check_se,
    build_retraction,
    equivalence_suite,
    germ_coapartment,
    recheck_a6_counterexample,
    sector_class_distance,
)
from lbk.atlas import BuildingSector
from lbk.fixtures import broken_pair, fan, lambda_tree, shifted_rays, single_apartment
from lbk.infinity import infinity_complex
from lbk.lexq import LambdaScalar
from lbk.linarith import GE, GT, ConstraintSystem, LinearConstraint, feasible
from lbk.rootsystem import build_root_system


def announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: {text}: PASS")


def rand_scalar(rng, rank, top=12, den=6):
    return LambdaScalar([Q(rng.randint(-top, top), rng.randint(1, den)) for _ in range(rank)])


def rand_point(ap, rng):
    return tuple(rand_scalar(rng, ap.lex_rank) for _ in range(ap.rank))


POSITIVE_FIXTURES = {}
for _n in (2, 3, 4, 5):
    for _k in (1, 2):
        POSITIVE_FIXTURES[f"tree({_n},{_k})"] = lambda_tree(_n, _k)
for _m in (2, 3, 4):
    POSITIVE_FIXTURES[f"fan({_m})"] = fan(_m)
POSITIVE_FIXTURES["single(A2)"] = single_apartment("A2", 1)
POSITIVE_FIXTURES["single(G2)"] = single_apartment("G2", 2)

NEGATIVE_FIXTURES = {"broken_pair": broken_pair(), "shifted_rays": shifted_rays()}


@pytest.fixture(scope="module")
def suites():
    """Equivalence-suite runs shared by criteria 5, 6 and 7 (build time kept)."""
    start = time.time()
    out = {}
    for name, atlas in {**POSITIVE_FIXTURES, **NEGATIVE_FIXTURES}.items():
        out[name] = equivalence_suite(atlas, samples=80)
    out["__build_seconds__"] = time.time() - start
    return out


def test_criterion_1_metric_suite():
    start = time.time()
    rng = random.Random(10)
    for name in ("A1", "A2", "B2", "G2"):
        for lam in (1, 2):
            ap = Apartment(build_root_system(name), lam)
            isometries = [
                ap.isometry(rng.choice(ap.directions()), rand_point(ap, rng))
                for _ in range(200)
            ]
            for i in range(1000):
                u, v, w = (rand_point(ap, rng) for _ in range(3))
                duv = ap.metric(u, v)
                assert ap.metric(u, u).is_zero()
                assert duv == ap.metric(v, u)
                assert ap.metric(u, w) <= duv + ap.metric(v, w)
                if i < 200:
                    g = isometries[i]
                    assert ap.metric(g.apply(u), g.apply(v)) == duv
    elapsed = time.time() - start
    assert elapsed < 10, f"metric suite took {elapsed:.1f}s"
    announce(1, f"metric suite exact over 8 configurations in {elapsed:.1f}s")


def test_criterion_2_elimination_oracle():
    start = time.time()
    rng = random.Random(2024)
    oracle_hits = 0
    for _ in range(1000):
        nvars = rng.choice((1, 1, 1, 2, 2, 2, 2, 3, 3, 3))
        rows = []
        for _ in range(rng.randint(0, 4)):
            den = rng.choice((1, 1, 2))
            coeffs = tuple(Q(rng.randint(-3 * den, 3 * den), den) for _ in range(nvars))
            rel = rng.choice((GE, GE, GE, GE, GT, None))  # None: an equality, as two rows
            bound = LambdaScalar.rational(rng.randint(-5, 5))
            if rel is None:
                rows.append(LinearConstraint(coeffs, GE, bound))
                rows.append(LinearConstraint(tuple(-c for c in coeffs), GE, -bound))
            else:
                rows.append(LinearConstraint(coeffs, rel, bound))
        system = ConstraintSystem(nvars, tuple(rows))
        verdict = feasible(system)
        hit = grid_sat(system)
        if hit is not None:
            oracle_hits += 1
            assert system.holds_at(hit)
            assert verdict.sat, f"oracle point exists but solver reports unsat: {system}"
        if verdict.sat:
            assert system.holds_at(verdict.witness)
    elapsed = time.time() - start
    assert elapsed < 30, f"oracle suite took {elapsed:.1f}s"
    announce(2, f"elimination vs grid oracle on 1000 systems ({oracle_hits} oracle hits) in {elapsed:.1f}s")


def test_criterion_3_hull_of_subsector_and_base():
    rng = random.Random(33)
    checked = 0
    for name in ("A2", "G2"):
        ap = Apartment(build_root_system(name), 1)
        for _ in range(50):
            base = rand_point(ap, rng)
            direction = rng.choice(ap.directions())
            sector = ap.sector(base, direction)
            shift = [ap.zero() for _ in range(ap.rank)]
            for gen in ap.sector_cone(direction):
                t = Q(rng.randint(0, 6), rng.randint(1, 3))
                for j in range(ap.rank):
                    shift[j] = shift[j] + ap.scalar(t * gen[j])
            sub = ap.sector(tuple(b + s for b, s in zip(base, shift)), direction)
            hull = ap.convex_hull([base], [sub])
            assert ap.region_equal(hull, ap.sector_region(sector))
            checked += 1
    assert checked == 100
    announce(3, "hull(subsector, base) equals the sector on 100 configurations")


def test_criterion_4_weyl_counts():
    expected = {"A1": (2, 1), "A2": (6, 3), "B2": (8, 4), "G2": (12, 6)}
    for name, (order, longest) in expected.items():
        rs = build_root_system(name)
        assert len(rs.weyl_elements()) == order
        assert rs.longest_element().length == longest
        assert len(rs.positive_roots) == longest
    announce(4, "group orders 2/6/8/12 and longest lengths 1/3/4/6, root counts match")


def test_criterion_5_fixture_suite(suites):
    start = time.time()
    for name, atlas in POSITIVE_FIXTURES.items():
        assert validate(atlas).ok, name
        assert check_a1(atlas).verdict == PASS
        assert check_a2(atlas).verdict == PASS
        suite = suites[name]
        assert suite.precondition_ok, name
        for axiom in ("A3", "A4", "A5", "A6", "EC", "SE"):
            assert suite.reports[axiom].verdict == PASS, f"{name}: {axiom}"
    for ends in (2, 3, 4, 5):
        for lam in (1, 2):
            complex_ = infinity_complex(POSITIVE_FIXTURES[f"tree({ends},{lam})"])
            assert complex_.chamber_count == ends
            assert complex_.apartment_count == ends * (ends - 1) // 2
            assert not complex_.issues
    elapsed = time.time() - start + suites["__build_seconds__"]
    assert elapsed < 60, f"fixture suite took {elapsed:.1f}s"
    announce(5, f"trees and fans pass validate and A1-A6/EC/SE; tree infinity counts match in {elapsed:.1f}s")


def test_criterion_6_negative_fixtures(suites):
    broken = suites["broken_pair"]
    assert broken.reports["EC"].verdict == "fail"
    assert broken.reports["SE"].verdict == "fail"
    assert [line for line in broken.reports["EC"].lines if line.verdict == "fail"][0].config == "(1,2)"

    shifted = suites["shifted_rays"]
    assert shifted.reports["A6"].verdict == "fail"
    bad = [line for line in shifted.reports["A6"].lines if line.verdict == "fail"][0]
    assert bad.config == "(1,2,3)"
    atlas = NEGATIVE_FIXTURES["shifted_rays"]
    assert recheck_a6_counterexample(atlas, 0, 1, 2)

    # EC/SE counterexamples re-check: the demanded flip regions exist nowhere
    atlas = NEGATIVE_FIXTURES["broken_pair"]
    ap = atlas.apartment
    flip = ap.half_region((1,), -1, 0)
    for c in atlas.charts():
        region = atlas.overlap_region(0, c)
        assert region is None or c == 0 or not ap.region_equal(region, flip)
    announce(6, "broken_pair fails EC+SE, shifted_rays fails A6, certificates re-check")


def test_criterion_7_exchange_equivalence(suites):
    gated = 0
    for name, suite in suites.items():
        if name == "__build_seconds__" or not suite.precondition_ok:
            continue
        gated += 1
        assert not suite.alarms, f"{name}: {suite.alarms}"
        a6, ec, se = (suite.reports[n].verdict for n in ("A6", "EC", "SE"))
        assert a6 == ec == se, name
        if se == PASS:
            assert suite.reports["A5"].verdict == PASS, name
    assert gated >= len(POSITIVE_FIXTURES)
    announce(7, f"A6=EC=SE and SE=>A5 on all {gated} fixtures passing the A1-A4 gate, zero disagreements")


def test_criterion_8_retraction_suite():
    start = time.time()
    rng = random.Random(88)
    for ends in (3, 5):
        atlas = lambda_tree(ends, 2)
        ap = atlas.apartment
        targets = []
        for chart in list(atlas.charts())[:3]:
            direction = ap.directions()[chart % len(ap.directions())]
            targets.append((chart, BuildingGerm(chart, ap.sector(ap.origin(), direction))))
        assert len(targets) == 3
        points = []
        for chart in atlas.charts():
            points.append(BuildingPoint(chart, ap.origin()))
            for _ in range(3):
                points.append(BuildingPoint(chart, rand_point(ap, rng)))
        for chart, germ in targets:
            rho = build_retraction(atlas, germ, chart)
            pairs = 0
            while pairs < 200:
                y = rng.choice(points)
                z = rng.choice(points)
                ry, rz = rho.evaluate(y), rho.evaluate(z)
                original = global_distance(atlas, y, z)
                retracted = ap.metric(ry.point, rz.point)
                assert retracted <= original
                shared = atlas.locate_point(y).keys() & atlas.locate_point(z).keys() & set(rho.maps)
                if shared:
                    assert retracted == original
                if y.chart == chart:
                    assert rho.evaluate(y).point == y.point
                pairs += 1

    # tripod spot values over lex rank 2
    tripod = lambda_tree(3, 2)
    ap = tripod.apartment
    germ = BuildingGerm(tripod.index("12"), ap.fundamental_sector())
    rho = build_retraction(tripod, germ, tripod.index("12"))
    y = BuildingPoint(tripod.index("23"), (ap.scalar(-2),))
    z = BuildingPoint(tripod.index("12"), (ap.scalar(-1),))
    assert global_distance(tripod, y, z) == ap.scalar(6)
    ry, rz = rho.evaluate(y), rho.evaluate(z)
    assert ap.metric(ry.point, rz.point) == ap.scalar(2)
    elapsed = time.time() - start
    assert elapsed < 60, f"retraction suite took {elapsed:.1f}s"
    announce(8, f"retractions identity/non-expansive/isometric-on-co-chart, spot 6->2 exact, in {elapsed:.1f}s")


def test_criterion_9_germ_coapartments():
    rng = random.Random(99)
    checked = same_base = 0
    for name, atlas in POSITIVE_FIXTURES.items():
        ap = atlas.apartment
        dirs = ap.directions()
        germs = []
        for chart in atlas.charts():
            for w in (dirs[0], dirs[-1]):
                germs.append(BuildingGerm(chart, ap.sector(ap.origin(), w)))
            germs.append(BuildingGerm(chart, ap.sector(rand_point(ap, rng), rng.choice(dirs))))
        rng.shuffle(germs)
        pairs = [(germs[i], germs[j]) for i in range(len(germs)) for j in range(i + 1, len(germs))]
        if len(pairs) > 25:
            pairs = rng.sample(pairs, 25)
        for g1, g2 in pairs:
            result = germ_coapartment(atlas, g1, g2)
            assert result.verdict == PASS, f"{name}: no common chart for germ pair"
            checked += 1
            if result.final_length is not None:
                same_base += 1
                assert result.initial_length is not None
                assert result.final_length <= result.initial_length, name
                s1 = BuildingSector(g1.chart, g1.sector)
                s2 = BuildingSector(g2.chart, g2.sector)
                recomputed = sector_class_distance(atlas, s1, s2)
                assert recomputed is not None
                assert result.initial_length == recomputed[0].length
    assert checked >= 200
    assert same_base >= 40
    announce(9, f"{checked} germ pairs rejoined in common charts ({same_base} with the length bound)")
