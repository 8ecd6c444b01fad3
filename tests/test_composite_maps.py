"""Distances and retraction images through composite chart maps give what the
located path they replace gave.

``located_distance`` and ``located_image`` are that path, kept here as the
definition: each point is moved into every chart that holds it
(``Atlas.locate_point``), the pair is measured in every shared chart, and every
located copy in a chart of the maps is mapped.  ``global_distance`` and
``Retraction.evaluate`` instead move a point once per distinct composite map,
t_cj^-1 t_dj or maps[b] t_cb, keyed by transition-value ids.  Over seeded pairs
each answer must be the same value, or the same exception class and message.

Every fixture transition has a zero shift, so the digest members are also read
through ``moved_atlas``, whose transitions carry shifts and reflections; the
bent trees and ``fm_fallback`` have transitions that disagree, so their
answers include both disagreement messages.
"""
import random
from collections import Counter

import pytest

from lbk.apartment import AffineIsometry, Apartment, format_point
from lbk.atlas import (
    BuildingGerm,
    BuildingPoint,
    DistanceDisagreementError,
    NoCommonChartError,
    charts_of,
    global_distance,
)
from lbk.axioms import Retraction, Sample, TheoremViolation, _cap_pairs
from lbk.fixtures import fan, lambda_tree
from report_digest import members
from test_atlas import seeded_base
from test_axioms import bent_tree
from test_golden import fm_fallback
from test_se_panels import chart_moves, moved_atlas


def located_distance(atlas, bp, bq):
    """The distance measured in every chart holding both points, each point moved there."""
    at_p, at_q = atlas.locate_point(bp), atlas.locate_point(bq)
    shared = sorted(at_p.keys() & at_q.keys())
    if not shared:
        raise NoCommonChartError(
            f"no chart contains both {format_point(bp.point)}@{atlas.name(bp.chart)} "
            f"and {format_point(bq.point)}@{atlas.name(bq.chart)}"
        )
    values = [atlas.apartment.metric(at_p[j], at_q[j]) for j in shared]
    if any(v != values[0] for v in values[1:]):
        raise DistanceDisagreementError(
            f"distance from {format_point(bp.point)}@{atlas.name(bp.chart)} "
            f"to {format_point(bq.point)}@{atlas.name(bq.chart)} disagrees between shared charts"
        )
    return values[0]


def located_image(rho, bp):
    """The retraction's image from one image per located copy in a chart of its maps."""
    images = [rho.maps[b].apply(local) for b, local in rho.atlas.locate_point(bp).items() if b in rho.maps]
    if not images:
        raise TheoremViolation(f"no chart contains both the germ and {format_point(bp.point)}@{rho.atlas.name(bp.chart)}")
    if any(img != images[0] for img in images[1:]):
        raise TheoremViolation("retraction value depends on the chart chosen")
    return BuildingPoint(rho.chart, images[0])


def outcome(answer):
    """The value of answer(), or the class and message of the failure it raises."""
    try:
        return answer()
    except (NoCommonChartError, DistanceDisagreementError, TheoremViolation) as exc:
        return type(exc), str(exc)


def atlases(group):
    digest = [atlas for _, atlas in members()]
    if group == "digest":
        return digest
    if group == "moved":
        return [moved_atlas(atlas, chart_moves(atlas, 0)) for atlas in digest]
    return [bent_tree(pair) for pair in ((0, 1), (1, 0), (1, 2))] + [fm_fallback()]


def agreement(atlas, counts):
    """Compare both rules with the located path on the atlas's sample points, two seeded
    points per chart, and A5's three retraction targets, counting each kind of answer."""
    ap = atlas.apartment
    rng = random.Random(f"composite:{atlas.label}")
    points = Sample(atlas).points + [BuildingPoint(c, seeded_base(ap, rng)) for c in atlas.charts() for _ in range(2)]
    for bp, bq in _cap_pairs(points, 150, 0, "composite"):
        got = outcome(lambda: global_distance(atlas, bp, bq))
        assert got == outcome(lambda: located_distance(atlas, bp, bq)), (atlas.label, bp, bq)
        counts[got[0].__name__ if isinstance(got, tuple) else "distance"] += 1
    dirs = ap.directions()
    for chart, w in [(chart, w) for chart in atlas.charts() for w in (dirs[0], dirs[-1])][:3]:
        rho = Retraction(atlas, BuildingGerm(chart, ap.sector(ap.origin(), w)), chart)
        for bp in points:
            got = outcome(lambda: rho.evaluate(bp))
            assert got == outcome(lambda: located_image(rho, bp)), (atlas.label, chart, bp)
            counts[got[1].split(" ")[0] if isinstance(got, tuple) else "image"] += 1


@pytest.mark.parametrize("group", ["digest", "moved", "bent"])
def test_composite_rules_agree_with_the_located_path(group):
    counts = Counter()
    for atlas in atlases(group):
        agreement(atlas, counts)
    assert counts["distance"] > 300 and counts["image"] > 150, counts
    assert counts["NoCommonChartError"] > 0 and counts["no"] > 0, counts
    if group == "bent":
        assert counts["DistanceDisagreementError"] > 0 and counts["retraction"] > 0, counts


@pytest.mark.parametrize("group", ["digest", "moved", "bent"])
def test_map_at_moves_the_point_pass_to_the_image_pass(group):
    """Retraction.map_at's map moves the point's pass to the pass of the image Retraction.evaluate
    gives (all its pass_signs zero), and a run's passes (Sample.at) give the map and pass that
    Atlas.at gives, or the same failure.  With two or more composite keys, map_at returns the
    image's pass it moved for its check; with one, it moves nothing."""
    counts = Counter()
    for atlas in atlases(group):
        ap = atlas.apartment
        sample = Sample(atlas)
        rng = random.Random(f"map-at:{atlas.label}")
        points = sample.points + [BuildingPoint(c, seeded_base(ap, rng)) for c in atlas.charts() for _ in range(2)]
        dirs = ap.directions()
        for chart, w in [(chart, w) for chart in atlas.charts() for w in (dirs[0], dirs[-1])][:3]:
            rho = Retraction(atlas, BuildingGerm(chart, ap.sector(ap.origin(), w)), chart)
            for bp in points:
                got = outcome(lambda: rho.map_at(atlas.at, bp))
                assert outcome(lambda: rho.map_at(sample.at, bp)) == got, (atlas.label, chart, bp)
                if isinstance(got[0], type):
                    counts[got[1].split(" ")[0]] += 1
                    continue
                iso, pass_, moved = got
                image = ap.move_pass(iso, pass_)
                assert not any(ap.pass_signs(image, ap.root_dots(rho.evaluate(bp).point))), (atlas.label, chart, bp)
                keys = {(rho.map_of[b], atlas.value_of[(bp.chart, b)]) for b in charts_of(sample.held(bp) & rho.mask)}
                assert (moved is None) == (len(keys) == 1) and (moved is None or moved == image), (atlas.label, chart, bp)
                counts["several keys" if len(keys) > 1 else "image"] += 1
    assert counts["image"] > 100 and counts["several keys"] > 20 and counts["no"] > 0, counts
    if group == "bent":
        assert counts["retraction"] > 0, counts


@pytest.mark.parametrize("build", [lambda: fan(4, "B2", 1), lambda: lambda_tree(5, 2)], ids=["fan(4,B2)", "tree(5,2)"])
def test_retraction_moves_a_point_once_per_composite_key(build, monkeypatch):
    """Retraction.evaluate checks its image through one pass move per distinct (map id, transition value
    id) key of the charts holding both the point and the germ, when there are two or more keys, moves
    the point itself once, and builds each composite once per retraction."""
    atlas = build()
    ap = atlas.apartment
    calls = Counter()
    move_pass, apply = Apartment.move_pass, AffineIsometry.apply

    def counted_move_pass(self, iso, pp):
        calls["move_pass"] += 1
        return move_pass(self, iso, pp)

    def counted_apply(self, p):
        calls["apply"] += 1
        return apply(self, p)

    germ = BuildingGerm(0, ap.sector(ap.origin(), ap.directions()[-1]))
    rho = Retraction(atlas, germ, 0)
    monkeypatch.setattr(Apartment, "move_pass", counted_move_pass)
    monkeypatch.setattr(AffineIsometry, "apply", counted_apply)
    rng = random.Random("composite-moves")
    fewer = checked = 0
    for _ in range(100):
        bp = BuildingPoint(rng.randrange(atlas.size), seeded_base(ap, rng))
        charts = charts_of(atlas.holding(bp) & rho.mask)
        keys = {(rho.map_of[b], atlas.value_of[(bp.chart, b)]) for b in charts}
        calls.clear()
        outcome(lambda: rho.evaluate(bp))
        assert calls["move_pass"] == (len(keys) if len(keys) > 1 else 0)
        assert calls["apply"] == (1 if keys else 0)
        fewer += len(keys) < len(charts)
        checked += len(keys) > 1
    assert fewer > 10 and checked > 10, (fewer, checked)
    assert rho._composite.cache_info().currsize <= len(set(rho.maps.values())) * len(atlas.isos)
