"""The cell tables agree with the scans they replace.

A chart's point and germ masks are kept per sign vector at the chart's walls
(``Atlas.walls``): a half's verdict at a point reads only the point's sign at
its wall, and a tight half's germ verdict whether it caps a generator.  So
``Atlas.mask`` reads one table keyed by (chart, signs, direction or None).  The references below are the per-class ``holds`` loops
that ran on every call before, compared on the 40 digest members and
``fm_fallback``, at seeded points, the origin, points moved onto each wall and,
at lex rank 2, an infinitesimal off it on either side.  ``sector_through`` is a
table of its sign vectors, with no direction or a germ's, compared with the
direction scans over every sign vector of A1, A2, B2 and G2.
"""
import random
from collections import Counter
from itertools import product

import pytest

from lbk.apartment import Apartment
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system
from report_digest import members
from test_atlas import seeded_base
from test_golden import fm_fallback

ATLASES = dict(members())
ATLASES["fm_fallback"] = fm_fallback()


def scanned_point_mask(atlas, chart, pass_):
    """The point's mask by asking holds of every class of the chart (the slow reference)."""
    holds, mask = atlas.apartment.holds, 1 << chart
    for rows, js in atlas.half_rows[chart]:
        if holds(rows, pass_):
            mask |= js
    return mask


def scanned_germ_mask(atlas, chart, pass_, mask, w):
    """The germ's mask from the point's: less each class whose rows do not hold the germ (the slow reference)."""
    holds = atlas.apartment.holds
    for rows, js in atlas.half_rows[chart]:
        if js & mask and not holds(rows, pass_, w):
            mask ^= js
    return mask


def on_walls(atlas, chart, p):
    """p moved onto each wall of the chart's overlap halves along one coordinate, and at lex rank 2 also
    an infinitesimal to either side of it, where the second lex component decides the wall's sign."""
    ap = atlas.apartment
    offsets = [ap.zero()] + [LambdaScalar([0, e]) for e in (1, -1) if ap.lex_rank == 2]
    out = []
    for c in atlas.overlap_classes[chart]:
        for h in atlas.regions[c].halves:
            row = ap.pairing_row(h.root)
            k = next(j for j, a in enumerate(row) if a)
            gap = h.bound - ap.pairing(h.root, p)
            for eps in offsets:
                out.append(tuple(x + (gap + eps) / row[k] if j == k else x for j, x in enumerate(p)))
    return out


def probes(atlas, chart, rng):
    ap = atlas.apartment
    seeded = [seeded_base(ap, rng) for _ in range(8)]
    return [ap.origin()] + seeded + [q for p in [ap.origin()] + seeded[:2] for q in on_walls(atlas, chart, p)]


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_cell_table_agrees_with_the_class_scan(name):
    """Every chart and direction, twice over, so that the second round reads entries the first made, and
    every point of a chart with a wall meets a sign vector another point made first."""
    atlas = ATLASES[name]
    ap = atlas.apartment
    rng = random.Random(f"cells:{name}")
    walls_hit = set()
    for chart in atlas.charts():
        points = probes(atlas, chart, rng)
        for _ in range(2):
            for p in points:
                pass_ = ap.root_dots(p)
                mask = scanned_point_mask(atlas, chart, pass_)
                assert atlas.mask(chart, pass_) == mask, (name, chart, p)
                for w in ap.directions():
                    assert atlas.mask(chart, pass_, w) == scanned_germ_mask(atlas, chart, pass_, mask, w), (name, chart, p, w)
        keys = [signs for c, signs, w in atlas._cells if c == chart and w is None]
        assert len(keys) <= 3 ** len(atlas.walls[chart]), (name, chart)
        walls_hit |= {k for signs in keys for k, s in enumerate(signs) if s == 0}
    assert all(set(signs) <= {-1, 0, 1} and len(signs) == len(atlas.walls[c]) for c, signs, _ in atlas._cells)
    assert walls_hit or not any(atlas.walls), name  # some point lies on a wall


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_walls_are_the_distinct_walls_of_the_half_rows(name):
    """One wall per distinct (root, bound) of a chart's overlap halves: a half and its opposite share it."""
    atlas = ATLASES[name]
    ap = atlas.apartment
    for chart in atlas.charts():
        halves = {h for c in atlas.overlap_classes[chart] for h in atlas.regions[c].halves}
        want = {(ap.roots.positive_roots.index(h.root), *h.bound.ints) for h in halves}
        assert sorted(atlas.walls[chart]) == sorted(want) and len(atlas.walls[chart]) == len(want)


def scanned_sector_through(ap, signs):
    for w in ap.directions():
        if all(c * signs[k] >= 0 for k, c in ap.sector_walls(w)):
            return w
    raise AssertionError("direction cones cover the apartment")


def scanned_sector_with_germ(ap, direction, signs):
    positive = ap.roots.positive_roots
    for w in ap.directions():
        if all(c * signs[k] > 0 or not signs[k] and not ap.caps(direction, positive[k], c) for k, c in ap.sector_walls(w)):
            return w
    raise AssertionError("the sectors at a base hold every germ")


def outcome(scan, *args):
    try:
        return scan(*args)
    except (AssertionError, IndexError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_sector_tables_agree_with_the_direction_scans(name):
    """Over every sign vector in {-1, 0, 1}^|positive roots|, realizable or not, each asked twice so that the
    second call reads the table.  No such vector makes either scan raise, so the table ends with an entry per
    key and per key and direction.  A vector one sign short makes the scan and the table answer or raise alike, and the table keeps
    only the answers."""
    ap = Apartment(build_root_system(name), 1)
    keys = list(product((-1, 0, 1), repeat=len(ap.roots.positive_roots)))
    for signs in keys:
        for _ in range(2):
            assert outcome(ap.sector_through, signs) == outcome(scanned_sector_through, ap, signs) != "AssertionError", signs
            for w in ap.directions():
                want = outcome(scanned_sector_with_germ, ap, w, signs)
                assert outcome(ap.sector_through, signs, w) == want != "AssertionError", (signs, w)
    assert ap.sector_through.cache_info().currsize == (1 + len(ap.directions())) * len(keys)
    answered, raised = Counter(), 0
    for short in sorted({signs[1:] for signs in keys}):
        for _ in range(2):
            want = outcome(scanned_sector_through, ap, short)
            assert outcome(ap.sector_through, short) == want, short
            answered["through"] += want != "IndexError"
            for w in ap.directions():
                want = outcome(scanned_sector_with_germ, ap, w, short)
                assert outcome(ap.sector_through, short, w) == want, (short, w)
                answered["germ"] += want != "IndexError"
                raised += want == "IndexError"
    assert raised > 0
    assert ap.sector_through.cache_info().currsize == (1 + len(ap.directions())) * len(keys) + (answered["through"] + answered["germ"]) // 2
