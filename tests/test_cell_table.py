"""The cell tables agree with the scans they replace.

A chart's point and germ masks are kept per sign vector at the chart's walls
(``Atlas.walls``): a half's verdict at a point reads only the point's sign at
its wall, and a tight half's germ verdict whether it caps a generator.  So
``Atlas.mask`` reads one table per chart, keyed by one int, the signs in balanced
ternary offset by the direction (:func:`cell_key`), and a miss tests each overlap
class's halves at the signs of their walls (``Atlas.class_walls``).  The references below are the
per-class ``holds`` loops that ran on every call before, compared on the 40 digest members,
``fm_fallback`` and two atlases with transitions that have no reverse, at seeded points,
the origin, points moved onto each wall and, at lex rank 2, an infinitesimal off it on either side.  ``sector_through`` is a
table of its sign vectors, with no direction or a germ's, compared with the
direction scans over every sign vector of A1, A2, B2 and G2.
"""
import random
from collections import Counter
from itertools import product

import pytest

from lbk.apartment import Apartment
from lbk.atlas import Atlas
from lbk.fixtures import fan
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system
from report_digest import members
from test_atlas import missing_reverse_atlas, seeded_base
from test_golden import fm_fallback


def one_way(atlas):
    """The atlas less the reverse of every third glued pair: class_of lacks those pairs, and the charts
    glued to a chart are not the charts glued to it."""
    kept = {(i, j): t for (i, j), t in atlas.transitions.items() if i < j or (i + j) % 3}
    return Atlas(atlas.apartment, atlas.chart_names, kept, label=f"{atlas.label} one-way")


ATLASES = dict(members())
ATLASES["fm_fallback"] = fm_fallback()
ATLASES["missing_reverse"] = missing_reverse_atlas()
ATLASES["fan(4,B2)-one-way"] = one_way(fan(4, "B2"))


def class_rows(atlas, chart):
    """Per overlap class of the chart, its halves as int rows and its chart mask."""
    return [(atlas.apartment.rows(atlas.regions[c]), js) for c, js in atlas.overlap_classes[chart].items()]


def scanned_point_mask(atlas, chart, pass_):
    """The point's mask by asking holds of every class of the chart (the slow reference)."""
    holds, mask = atlas.apartment.holds, 1 << chart
    for rows, js in class_rows(atlas, chart):
        if holds(rows, pass_):
            mask |= js
    return mask


def scanned_germ_mask(atlas, chart, pass_, mask, w):
    """The germ's mask from the point's: less each class whose rows do not hold the germ (the slow reference)."""
    holds = atlas.apartment.holds
    for rows, js in class_rows(atlas, chart):
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


def ternary(signs):
    """Digits as one int in base 3, the first the most significant: balanced ternary for signs in {-1, 0, 1}."""
    code = 0
    for s in signs:
        code = 3 * code + s
    return code


def cell_key(signs, w):
    """The cell-table key of a chart's signs at its walls: their code, offset by 3^walls times the
    direction's index in ``directions()`` plus one, and not offset for a point."""
    return ternary(signs) + (0 if w is None else (w.index + 1) * 3 ** len(signs))


def digits(key, n):
    """The (direction index + 1 or 0, signs) a cell key of n walls stands for: the inverse of cell_key."""
    signs = []
    for _ in range(n):
        signs.append(s := (key + 1) % 3 - 1)
        key = (key - s) // 3
    return key, signs[::-1]


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
    directions = ap.directions()
    for chart in atlas.charts():
        points, walls, made = probes(atlas, chart, rng), atlas.walls[chart], set()
        for _ in range(2):
            for p in points:
                pass_ = ap.root_dots(p)
                signs = [ap.sign(pass_, k, nums, den) for k, nums, den in walls]
                mask = scanned_point_mask(atlas, chart, pass_)
                assert atlas.mask(chart, pass_) == mask == atlas._cells[chart][cell_key(signs, None)], (name, chart, p)
                made.add(cell_key(signs, None))
                walls_hit |= {q for q, s in enumerate(signs) if s == 0}
                for w in directions:
                    germ = scanned_germ_mask(atlas, chart, pass_, mask, w)
                    assert atlas.mask(chart, pass_, w) == germ == atlas._cells[chart][cell_key(signs, w)], (name, chart, p, w)
                    made.add(cell_key(signs, w))
        table = atlas._cells[chart]
        assert made <= set(table) and all(type(key) is int for key in table), (name, chart)
        assert len([key for key in table if digits(key, len(walls))[0] == 0]) <= 3 ** len(walls), (name, chart)
        assert all(0 <= digits(key, len(walls))[0] <= len(directions) for key in table), (name, chart)
        assert len({digits(key, len(walls))[0] for key in made}) == 1 + len(directions)
    assert walls_hit or not any(atlas.walls), name  # some point lies on a wall


def test_cell_keys_are_balanced_ternary_offset_by_the_direction():
    """cell_key is one-to-one: every sign vector of up to three walls, with no direction or each of G2's
    twelve, has its own key, and digits reads it back."""
    ws = Apartment(build_root_system("G2"), 1).directions()
    for n in range(4):
        keys = {}
        for signs in product((-1, 0, 1), repeat=n):
            for w in [None, *ws]:
                key = cell_key(list(signs), w)
                assert digits(key, n) == (0 if w is None else w.index + 1, list(signs))
                keys[key] = (signs, w)
        assert len(keys) == 3**n * (1 + len(ws))
    assert [w.index for w in ws] == list(range(len(ws)))


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_class_verdicts_are_the_holds_of_each_class(name):
    """Per chart, class_walls lists the overlap classes in class order, each with its chart mask and each of its
    rows as (position of the row's wall among the chart's walls, k, sense).  At every probe pass and direction or
    none, a class's verdict on a cell-table miss, each half admitting the pass's sign at its wall, is holds of its rows."""
    atlas = ATLASES[name]
    ap = atlas.apartment
    rng = random.Random(f"verdicts:{name}")
    for chart in atlas.charts():
        assert [js for js, _ in atlas.class_walls[chart]] == list(atlas.overlap_classes[chart].values())
        for c, (_, halves) in zip(atlas.overlap_classes[chart], atlas.class_walls[chart]):
            rows = ap.rows(atlas.regions[c])
            assert [(atlas.walls[chart][q], k, sense) for q, k, sense in halves] == [((k, nums, den), k, sense) for k, sense, nums, den in rows]
        for p in probes(atlas, chart, rng):
            pass_ = ap.root_dots(p)
            signs = [ap.sign(pass_, k, nums, den) for k, nums, den in atlas.walls[chart]]
            for w in [None, *ap.directions()]:
                for c, (_, halves) in zip(atlas.overlap_classes[chart], atlas.class_walls[chart]):
                    verdict = all(ap.admits(k, sense, signs[q], w) for q, k, sense in halves)
                    assert verdict == ap.holds(ap.rows(atlas.regions[c]), pass_, w), (name, chart, p, w)


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
