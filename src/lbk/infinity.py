"""The chamber system at infinity of an atlas.

Chambers are parallel classes of sectors.  Inside one chart a class is just a
direction; across charts two directions are identified when some sector with
the first direction fits inside the overlap region (bounded distance is the
same as sharing a subsector).  The classes are closed off by union-find, so
chains of overlaps are handled.  Panels at infinity get the same treatment
one dimension down, which yields the adjacency relation and the thinness
checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .atlas import Atlas
from .rootsystem import Matrix, WeylElement


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


Node = tuple[int, Matrix]


@dataclass
class InfinityComplex:
    atlas: Atlas
    chamber_members: list[tuple[tuple[int, WeylElement], ...]]
    chamber_of: dict[Node, int]
    apartments: dict[int, tuple[int, ...]]
    adjacency: dict[int, set[frozenset]]
    panel_class_of: dict[tuple[int, Matrix, int], int]
    issues: list[str] = field(default_factory=list)

    @property
    def chamber_count(self) -> int:
        return len(self.chamber_members)

    @property
    def apartment_count(self) -> int:
        """Number of distinct chamber sets arising as chart apartments."""
        return len({frozenset(v) for v in self.apartments.values()})

    def chamber(self, chart: int, direction: WeylElement) -> int:
        return self.chamber_of[(chart, direction.matrix)]

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
    uf = _UnionFind()
    for chart in atlas.charts():
        for w in directions:
            uf.add((chart, w.matrix))

    # Cross-chart identification: a direction-w sector fitting inside the
    # overlap is, transported, a direction-(linear*w) sector of the far chart.
    for (i, j), t in sorted(atlas.transitions.items()):
        for w in directions:
            if ap.sector_fits(w, t.region):
                moved = t.iso.linear * w
                uf.union((i, w.matrix), (j, moved.matrix))

    classes: dict[Node, list[tuple[int, WeylElement]]] = {}
    for chart in atlas.charts():
        for w in directions:
            classes.setdefault(uf.find((chart, w.matrix)), []).append((chart, w))
    ordered = sorted(classes, key=lambda node: min((c, w.word) for c, w in classes[node]))
    chamber_of: dict[Node, int] = {}
    members: list[tuple[tuple[int, WeylElement], ...]] = []
    for idx, node in enumerate(ordered):
        members.append(tuple(sorted(classes[node], key=lambda cw: (cw[0], cw[1].word))))
        for chart, w in classes[node]:
            chamber_of[(chart, w.matrix)] = idx

    apartments = {
        chart: tuple(chamber_of[(chart, w.matrix)] for w in directions)
        for chart in atlas.charts()
    }

    # Panels at infinity: same game one dimension down.
    puf = _UnionFind()
    for chart in atlas.charts():
        for w in directions:
            for itype in range(1, ap.rank + 1):
                puf.add((chart, w.matrix, itype))
    for chart in atlas.charts():
        for w in directions:
            for itype in range(1, ap.rank + 1):
                mirrored = w * ap.roots.simple(itype)
                puf.union((chart, w.matrix, itype), (chart, mirrored.matrix, itype))
    for (i, j), t in sorted(atlas.transitions.items()):
        for w in directions:
            for itype in range(1, ap.rank + 1):
                if ap.sector_fits(w, t.region, itype):
                    moved = t.iso.linear * w
                    puf.union((i, w.matrix, itype), (j, moved.matrix, itype))
    panel_class_of = {
        key: puf.find(key) for key in puf.parent
    }
    panel_ids: dict = {}
    for key in sorted(panel_class_of, key=lambda k: (k[0], k[2], k[1])):
        rep = panel_class_of[key]
        if rep not in panel_ids:
            panel_ids[rep] = len(panel_ids)
    panel_class = {key: panel_ids[rep] for key, rep in panel_class_of.items()}

    issues: list[str] = []
    for chart in atlas.charts():
        if len(set(apartments[chart])) != len(directions):
            issues.append(
                f"apartment {atlas.name(chart)} has "
                f"{len(set(apartments[chart]))} chambers, expected {len(directions)}"
            )
    seen_sets: dict[frozenset, int] = {}
    for chart in atlas.charts():
        key = frozenset(apartments[chart])
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
            for itype in range(1, ap.rank + 1):
                pclass = panel_class[(chart, w.matrix, itype)]
                here = chamber_of[(chart, w.matrix)]
                mirrored = chamber_of[(chart, (w * ap.roots.simple(itype)).matrix)]
                holders = {
                    chamber_of[(chart, u.matrix)]
                    for u in directions
                    if panel_class[(chart, u.matrix, itype)] == pclass
                }
                if holders != {here, mirrored} or here == mirrored:
                    issues.append(
                        f"thinness fails in apartment {atlas.name(chart)} "
                        f"at direction {w!r} type {itype}"
                    )

    adjacency: dict[int, set[frozenset]] = {i: set() for i in range(1, ap.rank + 1)}
    by_type: dict[tuple[int, int], set[int]] = {}
    for (chart, matrix, itype), pclass in panel_class.items():
        by_type.setdefault((itype, pclass), set()).add(chamber_of[(chart, matrix)])
    for (itype, _), chams in by_type.items():
        for a in chams:
            for b in chams:
                if a < b:
                    adjacency[itype].add(frozenset((a, b)))

    return InfinityComplex(
        atlas=atlas,
        chamber_members=members,
        chamber_of=chamber_of,
        apartments=apartments,
        adjacency=adjacency,
        panel_class_of=panel_class,
        issues=sorted(set(issues)),
    )
