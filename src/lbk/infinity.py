"""The chamber system at infinity of an atlas.

Chambers are parallel classes of sectors.  Inside one chart a class is just a
direction; across charts two directions are identified when some sector with
the first direction fits inside the overlap region (bounded distance is the
same as sharing a subsector).  Panels at infinity get the same treatment one
dimension down.  One union-find over (chart, direction, type) faces, type 0
the sector and type i its type-i panel, closes off chains of overlaps for
both; the chambers holding each panel class give adjacency and thinness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .atlas import Atlas, charts_of
from .rootsystem import WeylElement


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


Node = tuple[int, WeylElement]


@dataclass
class InfinityComplex:
    atlas: Atlas
    chamber_members: list[tuple[tuple[int, WeylElement], ...]]
    chamber_of: dict[Node, int]
    apartments: dict[int, tuple[int, ...]]
    adjacency: dict[int, set[frozenset]]
    issues: list[str] = field(default_factory=list)

    @property
    def chamber_count(self) -> int:
        return len(self.chamber_members)

    @property
    def apartment_count(self) -> int:
        """Number of distinct chamber sets arising as chart apartments."""
        return len({frozenset(v) for v in self.apartments.values()})

    def chamber(self, chart: int, direction: WeylElement) -> int:
        return self.chamber_of[(chart, direction)]

    def lines(self) -> list[str]:
        out = [f"chambers {self.chamber_count}", f"apartments {self.apartment_count}"]
        for chart in sorted(self.apartments):
            ids = " ".join(str(c) for c in sorted(set(self.apartments[chart])))
            out.append(f"apartment {self.atlas.name(chart)} : {ids}")
        for itype in sorted(self.adjacency):
            pairs = sorted(tuple(sorted(p)) for p in self.adjacency[itype])
            body = " ".join(f"{a}~{b}" for a, b in pairs)
            out.append(f"adjacency {itype} : {body}")
        for issue in self.issues:
            out.append(f"VIOLATION {issue}")
        out.append(f"RESULT {'thin' if not self.issues else 'degenerate'}")
        return out


def infinity_complex(atlas: Atlas) -> InfinityComplex:
    ap = atlas.apartment
    directions = ap.directions()
    types = range(1, ap.rank + 1)
    mirror = {(w, i): w * ap.roots.simple(i) for w in directions for i in types}
    uf = _UnionFind()
    for chart in atlas.charts():
        for (w, itype), mirrored in mirror.items():
            uf.union((chart, w, itype), (chart, mirrored, itype))

    # Cross-chart identification from the atlas's fit table: a direction-w sector, or its
    # type-i panel, with a subsector in chart j is one of its direction carried there.
    for i, w, itype in product(atlas.charts(), directions, range(ap.rank + 1)):
        for j in charts_of(atlas.fitting(i, w, itype) & ~(1 << i)):
            uf.union((i, w, itype), (j, atlas.carry_direction(i, j, w), itype))

    classes: dict = {}
    for chart in atlas.charts():
        for w in directions:
            classes.setdefault(uf.find((chart, w, 0)), []).append((chart, w))
    # Chamber ids follow the least (chart, word) of each class.
    by_word = [tuple(sorted(c, key=lambda cw: (cw[0], cw[1].word))) for c in classes.values()]
    members = sorted(by_word, key=lambda m: (m[0][0], m[0][1].word))
    chamber_of = {(chart, w): idx for idx, m in enumerate(members) for chart, w in m}
    apartments = {chart: tuple(chamber_of[(chart, w)] for w in directions) for chart in atlas.charts()}

    # The chambers holding each panel class, over the atlas and per chart.
    holders: dict = {}
    local: dict = {}
    for (chart, w), chamber in chamber_of.items():
        for itype in types:
            pclass = uf.find((chart, w, itype))
            holders.setdefault(pclass, set()).add(chamber)
            local.setdefault((chart, pclass), set()).add(chamber)

    issues: list[str] = []
    seen_sets: dict[frozenset, int] = {}
    for chart in atlas.charts():
        key = frozenset(apartments[chart])
        if len(key) != len(directions):
            issues.append(
                f"apartment {atlas.name(chart)} has {len(key)} chambers, expected {len(directions)}"
            )
        if key in seen_sets:
            issues.append(
                f"charts {atlas.name(seen_sets[key])} and {atlas.name(chart)} "
                "give the same apartment at infinity"
            )
        else:
            seen_sets[key] = chart

    # Thinness: inside one apartment a type-i panel belongs to exactly the
    # two chambers exchanged by the generator.
    for chart in atlas.charts():
        for w in directions:
            for itype in types:
                here = chamber_of[(chart, w)]
                mirrored = chamber_of[(chart, mirror[(w, itype)])]
                pclass = uf.find((chart, w, itype))
                if local[(chart, pclass)] != {here, mirrored} or here == mirrored:
                    issues.append(
                        f"thinness fails in apartment {atlas.name(chart)} "
                        f"at direction {w!r} type {itype}"
                    )

    adjacency: dict[int, set[frozenset]] = {i: set() for i in types}
    for (_, _, itype), chams in holders.items():
        adjacency[itype].update(frozenset((a, b)) for a in chams for b in chams if a < b)

    return InfinityComplex(
        atlas=atlas,
        chamber_members=members,
        chamber_of=chamber_of,
        apartments=apartments,
        adjacency=adjacency,
        issues=sorted(set(issues)),
    )
