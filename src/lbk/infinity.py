"""The chamber system at infinity of an atlas.

Chambers are parallel classes of sectors.  Inside one chart a class is just a
direction; across charts two directions are identified when some sector with
the first direction fits inside the overlap region (bounded distance is the
same as sharing a subsector).  Panels at infinity get the same treatment one
dimension down.  One union-find over (chart, direction, type) faces, type 0
the sector and type i its type-i panel, closes off chains of overlaps for
both; the chambers holding each panel class give adjacency and thinness.
A face is an int node and the union-find one parent list; mirrors and carried
directions are read by direction index from tables made once per call, one per
transition value id (:attr:`Atlas.isos`), so no Weyl product is made per union.
"""
from __future__ import annotations

from itertools import product
from typing import Optional

from .atlas import Atlas, charts_of
from .records import Record
from .rootsystem import WeylElement

Node = tuple[int, WeylElement]


class InfinityComplex(Record):
    __slots__ = ("atlas", "chamber_members", "chamber_of", "apartments", "adjacency", "issues")

    def __init__(self, atlas: Atlas, chamber_members: list[tuple[Node, ...]], chamber_of: dict[Node, int],
                 apartments: dict[int, tuple[int, ...]], adjacency: dict[int, set[frozenset]], issues: Optional[list[str]] = None):
        self.atlas, self.chamber_members, self.chamber_of = atlas, chamber_members, chamber_of
        self.apartments, self.adjacency, self.issues = apartments, adjacency, [] if issues is None else issues

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
    n, faces, charts = len(directions), ap.rank + 1, atlas.charts()
    types = range(1, faces)
    index = {w: k for k, w in enumerate(directions)}
    # Per direction index k, mirror[k][i] is the index of w_k r_i, and per transition value id v, carried[v][k] that of
    # w_k carried by the value's linear part.  The face (chart, w_k, type) is the node (chart * n + k) * faces + type.
    mirror = [[k] + [index[w * ap.roots.simple(i)] for i in types] for k, w in enumerate(directions)]
    carried = [range(n) if iso is None else [index[iso.linear * w] for w in directions] for iso in atlas.isos]
    parent = list(range(atlas.size * n * faces))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def join(a: int, nodes) -> None:
        a = find(a)
        for b in map(find, nodes):
            if b != a:
                parent[b] = a

    # A type-i panel is its mirror's (type 0 mirrors itself), and, from the atlas's fit table, a direction-w sector or
    # its type-i panel with a subsector in chart j is one of its direction carried there.
    for i, (k, w), itype in product(charts, enumerate(directions), range(faces)):
        fits = charts_of(atlas.fitting(i, w, itype) & ~(1 << i))
        join((i * n + k) * faces + itype,
             [(i * n + mirror[k][itype]) * faces + itype] + [(j * n + carried[atlas.value_of[(i, j)]][k]) * faces + itype for j in fits])
    root = [find(x) for x in range(len(parent))]

    classes: dict = {}
    for chart, k in product(charts, range(n)):
        classes.setdefault(root[(chart * n + k) * faces], []).append((chart, k))
    # Chamber ids follow the least (chart, word) of each class.
    words = [w.word for w in directions]
    by_word = [sorted(c, key=lambda ck: (ck[0], words[ck[1]])) for c in classes.values()]
    members = sorted(by_word, key=lambda m: (m[0][0], words[m[0][1]]))
    chamber = [0] * (atlas.size * n)  # per (chart, w_k), at chart * n + k
    for idx, m in enumerate(members):
        for chart, k in m:
            chamber[chart * n + k] = idx
    apartments = {chart: tuple(chamber[chart * n: chart * n + n]) for chart in charts}

    # The chambers holding each panel class, over the atlas and per chart.
    holders: dict = {}
    local: dict = {}
    for chart, k, itype in product(charts, range(n), types):
        pclass = root[(chart * n + k) * faces + itype]
        holders.setdefault(pclass, set()).add(chamber[chart * n + k])
        local.setdefault((chart, pclass), set()).add(chamber[chart * n + k])

    issues: list[str] = []
    seen_sets: dict[frozenset, int] = {}
    for chart in charts:
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
    for chart, k, itype in product(charts, range(n), types):
        here = chamber[chart * n + k]
        mirrored = chamber[chart * n + mirror[k][itype]]
        if local[(chart, root[(chart * n + k) * faces + itype])] != {here, mirrored} or here == mirrored:
            issues.append(
                f"thinness fails in apartment {atlas.name(chart)} "
                f"at direction {directions[k]!r} type {itype}"
            )

    adjacency: dict[int, set[frozenset]] = {i: set() for i in types}
    for pclass, chams in holders.items():
        adjacency[pclass % faces].update(frozenset((a, b)) for a in chams for b in chams if a < b)

    return InfinityComplex(
        atlas=atlas,
        chamber_members=[tuple((chart, directions[k]) for chart, k in m) for m in members],
        chamber_of={(chart, directions[k]): idx for idx, m in enumerate(members) for chart, k in m},
        apartments=apartments,
        adjacency=adjacency,
        issues=sorted(set(issues)),
    )
