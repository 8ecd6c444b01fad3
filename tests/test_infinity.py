from itertools import product

import pytest

from lbk.apartment import Apartment
from lbk.atlas import charts_of
from lbk.fixtures import _end_pairs, drop_chart, fan, lambda_tree, single_apartment
from lbk.infinity import InfinityComplex, infinity_complex
from lbk.modelfile import parse_model
from lbk.rootsystem import build_root_system
from report_digest import members
from test_cell_table import one_way
from test_se_panels import chart_moves, moved_atlas


@pytest.mark.parametrize("name,count", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12)])
def test_single_chart_chamber_counts(name, count):
    complex_ = infinity_complex(single_apartment(name, 1))
    assert complex_.chamber_count == count
    assert complex_.apartment_count == 1
    assert not complex_.issues


def test_tripod_counts():
    complex_ = infinity_complex(lambda_tree(3))
    assert complex_.chamber_count == 3
    assert complex_.apartment_count == 3
    assert not complex_.issues


@pytest.mark.parametrize("ends", [2, 3, 4, 5])
def test_tree_counts(ends):
    complex_ = infinity_complex(lambda_tree(ends))
    assert complex_.chamber_count == ends
    assert complex_.apartment_count == ends * (ends - 1) // 2
    assert not complex_.issues


def test_tree_adjacency_is_complete_graph_on_ends():
    complex_ = infinity_complex(lambda_tree(4))
    pairs = complex_.adjacency[1]
    assert len(pairs) == 6  # every pair of ends shares the rank-1 panel class


def test_fan_thinness_and_distinct_apartments():
    for leaves in (2, 3, 4):
        complex_ = infinity_complex(fan(leaves))
        assert not complex_.issues
        # each apartment keeps the full chamber count of the model
        for chart, chambers in complex_.apartments.items():
            assert len(set(chambers)) == 6


def test_each_chart_direction_has_a_chamber():
    atlas = lambda_tree(3)
    complex_ = infinity_complex(atlas)
    for chart in atlas.charts():
        for w in atlas.apartment.directions():
            assert complex_.chamber(chart, w) in range(complex_.chamber_count)


def test_lines_render():
    lines = infinity_complex(lambda_tree(3)).lines()
    assert lines[0] == "chambers 3"
    assert lines[1] == "apartments 3"
    assert lines[-1] == "RESULT thin"


# Three A2 charts glued on the whole plane, one glue by the reflection r1:
# every chart sees the same three chambers, so chamber counts, distinct
# apartments and thinness all fail.
DEGENERATE = """\
lambda 1
roots A2
charts 3
glue 1 2 : ; word ; t (0,0)
glue 2 3 : ; word ; t (0,0)
glue 1 3 : ; word 1 ; t (0,0)
"""


def test_degenerate_atlas_lines_are_pinned():
    lines = infinity_complex(parse_model(DEGENERATE)).lines()
    thinness = [
        f"VIOLATION thinness fails in apartment {chart} at direction {w} type {t}"
        for chart in (1, 2, 3)
        for w, t in (("e", 1), ("r1", 1), ("r1*r2*r1", 2), ("r2*r1", 2))
    ]
    assert lines == [
        "chambers 3",
        "apartments 1",
        "apartment 1 : 0 1 2",
        "apartment 2 : 0 1 2",
        "apartment 3 : 0 1 2",
        "adjacency 1 : 1~2",
        "adjacency 2 : 0~1",
        "VIOLATION apartment 1 has 3 chambers, expected 6",
        "VIOLATION apartment 2 has 3 chambers, expected 6",
        "VIOLATION apartment 3 has 3 chambers, expected 6",
        "VIOLATION charts 1 and 2 give the same apartment at infinity",
        "VIOLATION charts 1 and 3 give the same apartment at infinity",
        *thinness,
        "RESULT degenerate",
    ]


class TupleUnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def reference_complex(atlas):
    """The complex at infinity from a union-find keyed by (chart, WeylElement, type) tuples, each carried
    direction a fresh Weyl product per union (the slow reference)."""
    ap = atlas.apartment
    directions = ap.directions()
    types = range(1, ap.rank + 1)
    mirror = {(w, i): w * ap.roots.simple(i) for w in directions for i in types}
    uf = TupleUnionFind()
    for chart in atlas.charts():
        for (w, itype), mirrored in mirror.items():
            uf.union((chart, w, itype), (chart, mirrored, itype))
    for i, w, itype in product(atlas.charts(), directions, range(ap.rank + 1)):
        for j in charts_of(atlas.fitting(i, w, itype) & ~(1 << i)):
            uf.union((i, w, itype), (j, atlas.carry_direction(i, j, w), itype))
    classes = {}
    for chart in atlas.charts():
        for w in directions:
            classes.setdefault(uf.find((chart, w, 0)), []).append((chart, w))
    by_word = [tuple(sorted(c, key=lambda cw: (cw[0], cw[1].word))) for c in classes.values()]
    members = sorted(by_word, key=lambda m: (m[0][0], m[0][1].word))
    chamber_of = {(chart, w): idx for idx, m in enumerate(members) for chart, w in m}
    apartments = {chart: tuple(chamber_of[(chart, w)] for w in directions) for chart in atlas.charts()}
    holders, local = {}, {}
    for (chart, w), chamber in chamber_of.items():
        for itype in types:
            pclass = uf.find((chart, w, itype))
            holders.setdefault(pclass, set()).add(chamber)
            local.setdefault((chart, pclass), set()).add(chamber)
    issues, seen_sets = [], {}
    for chart in atlas.charts():
        key = frozenset(apartments[chart])
        if len(key) != len(directions):
            issues.append(f"apartment {atlas.name(chart)} has {len(key)} chambers, expected {len(directions)}")
        if key in seen_sets:
            issues.append(f"charts {atlas.name(seen_sets[key])} and {atlas.name(chart)} give the same apartment at infinity")
        else:
            seen_sets[key] = chart
    for chart, w, itype in product(atlas.charts(), directions, types):
        here, mirrored = chamber_of[(chart, w)], chamber_of[(chart, mirror[(w, itype)])]
        if local[(chart, uf.find((chart, w, itype)))] != {here, mirrored} or here == mirrored:
            issues.append(f"thinness fails in apartment {atlas.name(chart)} at direction {w!r} type {itype}")
    adjacency = {i: set() for i in types}
    for (_, _, itype), chams in holders.items():
        adjacency[itype].update(frozenset((a, b)) for a in chams for b in chams if a < b)
    return InfinityComplex(atlas, members, chamber_of, apartments, adjacency, sorted(set(issues)))


def rank3_fan(roots, leaves):
    ap = Apartment(build_root_system(roots), 1)
    return _end_pairs(ap, leaves, f"fan leaves={leaves} roots={roots}", disjoint=ap.wall_region((1, 0, 0), ap.zero()))


def agreement_atlases():
    """The 40 digest members (their drop_chart variants, broken_pair and the degenerate shifted_rays among
    them), rank-3 fans and their drop_chart variants, one-way gluings, fans whose charts are moved by seeded
    isometries (transitions with rotations as linear parts, which are not their own inverses) and the degenerate
    model above."""
    yield from members()
    for roots, leaves in (("A3", 3), ("A3", 4), ("B3", 3)):
        whole = rank3_fan(roots, leaves)
        yield f"fan({leaves},{roots})", whole
        yield f"fan({leaves},{roots})-{whole.name(0)}", drop_chart(whole, 0)
    yield "tree(5,1)-one-way", one_way(lambda_tree(5))
    yield "fan(4,A3)-one-way", one_way(rank3_fan("A3", 4))
    for name, whole in (("fan(3,B2)", fan(3, "B2")), ("fan(3,G2)", fan(3, "G2")), ("fan(3,A3)", rank3_fan("A3", 3))):
        yield f"{name}-moved", moved_atlas(whole, chart_moves(whole, 2))
    yield "degenerate", parse_model(DEGENERATE)


AGREEMENT = dict(agreement_atlases())


@pytest.mark.parametrize("name", sorted(AGREEMENT))
def test_int_union_find_agrees_with_the_tuple_keyed_one(name):
    """Every field of the complex, and its lines, equal those of the tuple-keyed union-find."""
    atlas = AGREEMENT[name]
    got, want = infinity_complex(atlas), reference_complex(atlas)
    assert got.lines() == want.lines()
    assert got.chamber_members == want.chamber_members
    assert got.chamber_of == want.chamber_of and list(got.chamber_of) == list(want.chamber_of)
    assert got.apartments == want.apartments
    assert got.adjacency == want.adjacency
    assert got.issues == want.issues
