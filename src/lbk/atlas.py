"""Atlas-presented candidate buildings: charts, gluing data, global queries.

An :class:`Atlas` is a finite presentation of a pair (point set, chart family): finitely many
copies of the model apartment, plus for ordered chart pairs an overlap region and the isometry
identifying it with a region of the other chart.  Point equality and :meth:`Atlas.holding`, the one chart
search, are one-hop, sound only for a closed gluing; :func:`validate` does not check closure (ROADMAP item 2).
The charts holding a point or germ are constant on each face of the arrangement of its chart's walls, so each chart's cell
table keeps them under one int, the signs of one integer pass at those walls (:meth:`Apartment.sign`) in balanced ternary after
the direction's digits, and a miss tests each overlap class's halves at those signs (:meth:`Atlas.mask`).  A pass is carried
between charts without moving its point (:meth:`Atlas.carry_pass`).  A point's copy in each chart holding it is
:meth:`Atlas.locate_point`; a held germ or sector moves by :meth:`Atlas.move_held`.
The atlas numbers its distinct transition isometries, and since the metric is invariant under the affine Weyl group,
a distance is measured once per distinct composite map t_cj^-1 t_dj (:meth:`Atlas.through`), from the two points'
passes with the map applied to a pass, not to a point: :func:`shared_distance`.
"""
from __future__ import annotations

from functools import cache, reduce
from operator import and_
from typing import Callable, Optional

from .apartment import (
    AffineIsometry,
    Apartment,
    ConvexRegion,
    HalfApartment,
    Pass,
    Point,
    Sector,
    SectorGerm,
    format_point,
    memoize,
)
from .lexq import LambdaScalar
from .linarith import GE, LinearConstraint
from .records import Record, Value, set_field
from .rootsystem import WeylElement


def is_chart_name(name: object) -> bool:
    """Chart names are nonempty strings without whitespace, ``:`` or ``#``,
    so that a model file's glue lines can name charts by label."""
    return isinstance(name, str) and bool(name) and not any(
        c.isspace() or c in ":#" for c in name
    )


def charts_of(mask: int) -> list[int]:
    """The charts of a chart mask (an int whose bit c stands for chart c), in chart order."""
    charts = []
    while mask:
        charts.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return charts


def lowest(mask: int) -> Optional[int]:
    """The first chart of a chart mask, or None when it is empty."""
    return (mask & -mask).bit_length() - 1 if mask else None


def _numbered(objects: list) -> tuple[list[int], list]:
    """Per object, the number of its value in order of first use, and the distinct values.  Objects are
    numbered by ``id`` first, so each distinct object is hashed once, and equal objects share a number."""
    by_id: dict[int, int] = {}
    values: dict = {}
    for x in objects:
        if id(x) not in by_id:
            by_id[id(x)] = values.setdefault(x, len(values))
    return [by_id[id(x)] for x in objects], list(values)


class NoCommonChartError(RuntimeError):
    """Raised when two points admit no shared chart (a compatibility failure)."""


class DistanceDisagreementError(RuntimeError):
    """Raised when shared charts give two points different distances (a compatibility failure)."""


class Transition(Value):
    __slots__ = ("region", "iso")

    def __init__(self, region: ConvexRegion, iso: AffineIsometry):
        set_field(self, "region", region)
        set_field(self, "iso", iso)

    def reverse(self, ap: Apartment) -> "Transition":
        """The way back: the inverse isometry on the image region."""
        return Transition(ap.transform_region(self.region, self.iso), self.iso.inverse())

    def same_as(self, ap: Apartment, other: "Transition") -> tuple[bool, bool]:
        """Is this transition ``other``, part by part: (the isometries are equal, the regions are equal)."""
        return self.iso == other.iso, ap.region_equal(self.region, other.region)


class BuildingPoint(Value):
    __slots__ = ("chart", "point")

    def __init__(self, chart: int, point: Point):
        set_field(self, "chart", chart)
        set_field(self, "point", point)


class BuildingSector(Value):
    __slots__ = ("chart", "sector")

    def __init__(self, chart: int, sector: Sector):
        set_field(self, "chart", chart)
        set_field(self, "sector", sector)


class BuildingGerm(Value):
    __slots__ = ("chart", "sector")

    def __init__(self, chart: int, sector: Sector):
        set_field(self, "chart", chart)
        set_field(self, "sector", sector)

    @property
    def base(self) -> Point:
        return self.sector.base

    def germ(self) -> SectorGerm:
        return self.sector.germ()


class Atlas:
    """Finitely many charts over one model apartment, plus gluing data."""

    def __init__(
        self,
        apartment: Apartment,
        chart_names: list[str],
        transitions: dict[tuple[int, int], Transition],
        label: str = "",
    ):
        if len(set(chart_names)) != len(chart_names):
            raise ValueError("chart names must be unique")
        for name in chart_names:
            if not is_chart_name(name):
                raise ValueError(
                    f"chart name {name!r} must be a nonempty string without whitespace, ':' or '#'"
                )
        self.apartment = apartment
        self.chart_names = list(chart_names)
        self.transitions = dict(transitions)
        self.label = label
        m = len(chart_names)
        for (i, j) in self.transitions:
            if not (0 <= i < m and 0 <= j < m) or i == j:
                raise ValueError(f"bad transition pair ({i}, {j})")
        # The overlap index, built once, read-only: each distinct overlap region (by halves tuple, so no
        # elimination runs) is one int class id, in transition order, with its region and half (or None);
        # per chart, overlap_classes[i] and the half index _meeting[i] map each id and half to a chart mask.
        items = sorted(self.transitions.items())
        ids, self.regions = _numbered([t.region for _, t in items])
        self.class_of = {pair: c for (pair, _), c in zip(items, ids)}
        self.halves = [apartment.region_half(r) for r in self.regions]
        self.overlap_classes: list[dict[int, int]] = [{} for _ in range(m)]
        self._meeting: list[dict[HalfApartment, int]] = [{} for _ in range(m)]
        for (i, j), c in self.class_of.items():
            self.overlap_classes[i][c] = self.overlap_classes[i].get(c, 0) | 1 << j
            if (h := self.halves[c]) is not None:
                self._meeting[i][h] = self._meeting[i].get(h, 0) | 1 << j
        # Per chart, the distinct walls (k, nums, den) of its classes' halves as int rows (Apartment.rows), and per class its
        # chart mask and its halves as (position of the half's wall among those walls, k, sense), in one pass; and per chart
        # the int-keyed tables of mask (at most 3^walls keys per direction or none) and fitting (one key per direction and face).
        self.walls, self.class_walls = [], []
        for classes in self.overlap_classes:
            walls: dict[tuple, int] = {}
            halves = [tuple([(walls.setdefault((k, nums, den), len(walls)), k, sense) for k, sense, nums, den in apartment.rows(self.regions[c])]) for c in classes]
            self.class_walls.append(list(zip(classes.values(), halves)))
            self.walls.append(tuple(walls))
        self._cells, self._fits, self._faces = [{} for _ in range(m)], [{} for _ in range(m)], apartment.rank + 1
        # Transition values, one hash per distinct object: value_of[(i, j)] is the id of t_ij's isometry in isos, in
        # order of first use, where id 0 is None, no move: t_ii and any identity transition, so no Weyl identity is built.
        number, seen = _numbered([t.iso for _, t in items])
        values: dict[Optional[AffineIsometry], int] = {None: 0}
        value = [values.setdefault(None if iso.is_identity() else iso, len(values)) for iso in seen]
        self.isos = list(values)
        self.value_of = {(i, i): 0 for i in range(m)} | {pair: value[n] for (pair, _), n in zip(items, number)}
        memoize(self, "through")

    # -- chart bookkeeping -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.chart_names)

    def charts(self) -> range:
        return range(self.size)

    def name(self, i: int) -> str:
        return self.chart_names[i]

    def index(self, name) -> int:
        if isinstance(name, int):
            if not 0 <= name < self.size:
                raise ValueError(f"chart index {name} out of range")
            return name
        try:
            return self.chart_names.index(str(name))
        except ValueError:
            raise ValueError(f"unknown chart {name!r}") from None

    def transition(self, i: int, j: int) -> Optional[Transition]:
        return self.transitions.get((i, j))

    def overlap_region(self, i: int, j: int) -> Optional[ConvexRegion]:
        """Image of chart j inside chart i, in chart-i coordinates."""
        if i == j:
            return self.apartment.whole_region()
        t = self.transition(i, j)
        return t.region if t else None

    def overlap_half(self, i: int, j: int) -> Optional[HalfApartment]:
        """The overlap of charts i and j as one half-apartment of chart i, or None."""
        c = self.class_of.get((i, j))
        return None if c is None else self.halves[c]

    def reach(self, i: int, fits: Callable[[ConvexRegion], bool]) -> int:
        """The charts glued to chart i along the overlap classes ``fits`` accepts: a sum of disjoint masks."""
        return sum(js for c, js in self.overlap_classes[i].items() if fits(self.regions[c]))

    def glued(self, i: int) -> int:
        """The mask of the charts with a transition from chart i."""
        return self.reach(i, lambda region: True)

    def charts_meeting(self, i: int, half: HalfApartment) -> int:
        """The mask of the charts whose overlap with chart i is exactly the given half, by chart i's half index."""
        return self._meeting[i].get(half, 0)

    def fitting(self, i: int, w: WeylElement, face: int = 0) -> int:
        """The charts holding a subsector of every direction-w sector of chart i (face 0),
        or of its type-face panel, as a bitmask: bit i and the charts glued along an overlap
        the face fits (:meth:`Apartment.sector_fits`).  Kept in chart i's fit table, keyed w.index * (rank + 1) + face."""
        try:
            return self._fits[i][w.index * self._faces + face]
        except KeyError:
            return self._fits[i].setdefault(w.index * self._faces + face, self.reach(i, lambda region: self.apartment.sector_fits(w, region, face)) | 1 << i)

    def holding(self, item: BuildingPoint | BuildingGerm | BuildingSector) -> int:
        """The charts holding a point, germ or whole sector, as a mask, from one pass over the point or base (:meth:`at`).
        A whole sector lies in a class exactly when its base does and the class caps no generator of its cone, and one
        chart's class masks are disjoint: so its mask is its base's AND :meth:`fitting`.  A germ's is its :meth:`mask`
        given its direction."""
        mask, *pass_ = self.at(item.chart, item.point if isinstance(item, BuildingPoint) else item.sector.base)
        if isinstance(item, BuildingGerm):
            return self.mask(item.chart, pass_, item.sector.direction)
        return mask & self.fitting(item.chart, item.sector.direction) if isinstance(item, BuildingSector) else mask

    def at(self, chart: int, point: Point) -> tuple[int, int, list[list[int]]]:
        """(mask, d, dots): one pass (d, dots) over the point (:meth:`Apartment.root_dots`) and its :meth:`mask`."""
        return self.mask(chart, pass_ := self.apartment.root_dots(point)), *pass_

    def mask(self, chart: int, pass_: Pass, w: Optional[WeylElement] = None) -> int:
        """The charts holding the point of a chart's pass (w None) or its direction-w germ: bit chart and each class
        whose halves hold it, read from the chart's cell table, keyed by the pass's :meth:`Apartment.sign` at each of
        the chart's walls, as one int.  A half's verdict reads only that sign (:meth:`Apartment.admits`), so an entry is
        exact; a miss reads the signs again into a list and tests each class's halves at the signs of their walls."""
        sign, code, walls = self.apartment.sign, 0 if w is None else w.index + 1, self.walls[chart]
        for k, nums, den in walls:  # the key: the signs as balanced-ternary digits after the digits of w.index + 1
            code = 3 * code + sign(pass_, k, nums, den)
        if (mask := (cells := self._cells[chart]).get(code)) is None:
            admits, signs = self.apartment.admits, [sign(pass_, k, nums, den) for k, nums, den in walls]
            holding = (js for js, halves in self.class_walls[chart] if all(admits(k, sense, signs[q], w) for q, k, sense in halves))
            mask = cells[code] = sum(holding, 1 << chart)
        return mask

    def carry_pass(self, i: int, j: int, pass_: Pass) -> Pass:
        """A chart-i point's pass in chart j, moved through the transition (:meth:`Apartment.move_pass`): no point is moved."""
        return pass_ if i == j else self.apartment.move_pass(self.transitions[(i, j)].iso, pass_)

    def carry_direction(self, i: int, j: int, w: WeylElement) -> WeylElement:
        """A chart-i sector direction in chart j: the transition's linear part after w."""
        return w if i == j else self.transitions[(i, j)].iso.linear * w

    # -- points --------------------------------------------------------------

    def transport_point(self, i: int, p: Point, j: int) -> Optional[Point]:
        """The chart-i point p in chart j, or None when chart j does not hold it: :meth:`locate_point`."""
        return self.locate_point(BuildingPoint(i, p)).get(j)

    def locate_point(self, bp: BuildingPoint) -> dict[int, Point]:
        """The point in each chart of its :meth:`holding` mask, in chart order, moved by each transition without a fit test."""
        i, p = bp.chart, bp.point
        return {j: p if j == i else self.transitions[(i, j)].iso.apply(p) for j in charts_of(self.holding(bp))}

    def through(self, a: int, b: int) -> Optional[AffineIsometry]:
        """isos[a]^-1 after isos[b], or None for no move (a == b, as values are distinct): for the ids
        of t_cj and t_dj it carries a point of chart d to chart c through chart j.  Cached per (a, b)."""
        if a == b:
            return None
        f, g = self.isos[a], self.isos[b]
        if f is None:
            return g
        return f.inverse() if g is None else f.inverse().compose(g)

    # -- sectors and germs ------------------------------------------------------

    def transport_sector(self, bs: BuildingSector, j: int) -> Optional[Sector]:
        """Image of a whole sector in chart j; None unless its :meth:`holding` mask holds it."""
        return self.move_held(bs, j) if self.holding(bs) >> j & 1 else None

    def transport_germ(self, bg: BuildingGerm, j: int) -> Optional[Sector]:
        """Image of a sector germ in chart j, for callers that do not know whether chart j holds it: the one
        transition's region must hold a chunk of the germ (:meth:`Apartment.holds`), one overlap, not the mask."""
        if bg.chart != j and ((t := self.transition(bg.chart, j)) is None
                              or not self.apartment.region_contains_germ(t.region, bg.germ())):
            return None
        return self.move_held(bg, j)

    def move_held(self, item: BuildingGerm | BuildingSector, j: int) -> Sector:
        """The item's sector moved into chart j through the transition, for a chart j its
        :meth:`holding` mask already holds: the move runs no fit test."""
        if item.chart == j:
            return item.sector
        iso = self.transitions[(item.chart, j)].iso
        return self.apartment.sector(iso.apply(item.sector.base), self.carry_direction(item.chart, j, item.sector.direction))

    def first_held(self, *items: BuildingGerm | BuildingSector) -> Optional[tuple[int, list[Sector]]]:
        """The first chart holding every given germ and whole sector: the lowest bit of the AND of the items'
        :meth:`holding` masks, with each item moved once, into it; or None."""
        c = lowest(reduce(and_, map(self.holding, items), (1 << self.size) - 1))
        if c is None:
            return None
        return c, [self.move_held(item, c) for item in items]


class ValidationReport(Record):
    __slots__ = ("ok", "issues", "notes")

    def __init__(self, ok: bool, issues: Optional[list[str]] = None, notes: Optional[list[str]] = None):
        self.ok, self.issues, self.notes = ok, [] if issues is None else issues, [] if notes is None else notes

    def lines(self) -> list[str]:
        out = []
        for note in self.notes:
            out.append(f"CHECK {note}")
        for issue in self.issues:
            out.append(f"VIOLATION {issue}")
        out.append(f"RESULT {'valid' if self.ok else 'invalid'}")
        return out


def validate(atlas: Atlas) -> ValidationReport:
    """Structural checks: symmetry, nonemptiness, closedness, cocycle.  A check reads only its
    transitions' values, so it is decided once per distinct value pair or triple.  The cocycle triples a pair
    meets are read from per-value chart masks, and the triples themselves are walked only to write a failure's lines."""
    ap = atlas.apartment
    issues: list[str] = []
    notes: list[str] = []

    pairs = sorted(atlas.transitions)
    ids: dict[Transition, int] = {}
    tid = {pair: ids.setdefault(atlas.transitions[pair], len(ids)) for pair in pairs}
    values = list(ids)
    reverse = [t.reverse(ap) for t in values]
    symmetric = cache(lambda a, b: values[b].same_as(ap, reverse[a]))  # value b against value a's reverse, per part

    @cache
    def cocycle(a: int, b: int, c: int) -> bool:
        """Do t_jk t_ij and t_ik agree on U_ij, U_ik and U_jk pulled back into chart i?"""
        tij, tjk, tik = values[a], values[b], values[c]
        through_j = tjk.iso.compose(tij.iso)
        if through_j == tik.iso:
            return True
        domain = ap.intersect(tij.region, ap.transform_region(tjk.region, reverse[a].iso), tik.region)
        return _agree_on(ap, through_j, tik.iso, domain)

    for (i, j) in pairs:
        label = f"({atlas.name(i)},{atlas.name(j)})"
        if (j, i) not in tid:
            issues.append(f"symmetry: transition {label} has no reverse")
            continue
        iso_ok, region_ok = symmetric(tid[(i, j)], tid[(j, i)])
        if not iso_ok:
            issues.append(f"symmetry: reverse isometry of {label} is not the inverse")
        if not region_ok:
            issues.append(f"symmetry: reverse region of {label} is not the image region")
    notes.append(f"symmetry pairs={len(pairs)}")

    for (i, j) in pairs:
        if i < j and atlas.transition(j, i) is not None:
            if ap.bounds(atlas.transitions[(i, j)].region) is None:
                issues.append(f"nonempty: overlap ({atlas.name(i)},{atlas.name(j)}) is empty")
    notes.append("overlaps closed convex by construction (half-apartment constraints)")

    # Triple (i, j, k) reads the values (tid[i, j], tid[j, k], tid[i, k]).  by_value[i][c] is the mask of the charts k
    # with tid[i, k] == c, so pair (i, j) meets (a, b, c) exactly when by_value[j][b] & by_value[i][c] is nonzero.
    glued, by_value = [atlas.glued(i) for i in atlas.charts()], [{} for _ in atlas.charts()]
    for (i, k), c in tid.items():
        by_value[i][c] = by_value[i].get(c, 0) | 1 << k
    if not all(cocycle(tid[(i, j)], b, c) for (i, j) in pairs for b, ks in by_value[j].items() for c, ls in by_value[i].items() if ks & ls):
        # A value triple fails: walk the triples for the lines, distinct and in order (pairs are sorted, none is (i, i)).
        for (i, j) in pairs:
            for k in charts_of(glued[i] & glued[j]):
                if not cocycle(tid[(i, j)], tid[(j, k)], tid[(i, k)]):
                    issues.append(f"cocycle: composite through ({atlas.name(i)},{atlas.name(j)},{atlas.name(k)}) moves overlap points")
    notes.append(f"cocycle triples={sum((glued[i] & glued[j]).bit_count() for i, j in pairs)}")
    notes.append("chart family is reflection-saturated by representation (precomposition reindexes)")
    return ValidationReport(not issues, issues, notes)


def _agree_on(ap: Apartment, f: AffineIsometry, g: AffineIsometry, region: ConvexRegion) -> bool:
    """Do f and g agree at every point of the region?  Each row of
    (F - G) x = s_g - s_f is checked as its two inequalities."""
    rows = zip(f.linear.matrix, g.linear.matrix, f.shift, g.shift)
    return all(
        ap.region_satisfies(region, LinearConstraint(tuple((a - b) * sign for a, b in zip(fr, gr)), GE, (sg - sf) * sign))
        for fr, gr, sf, sg in rows
        for sign in (-1, 1)
    )


def common_chart(atlas: Atlas, bp: BuildingPoint, bq: BuildingPoint) -> Optional[int]:
    """Some chart containing both points, or None (a compatibility failure)."""
    return shared_chart(bp, bq, atlas.holding(bp) & atlas.holding(bq))


def shared_chart(bp: BuildingPoint, bq: BuildingPoint, shared: int) -> Optional[int]:
    """:func:`common_chart` from the mask of the charts holding both points:
    their own chart when they share it, else the first shared chart."""
    if bp.chart == bq.chart and shared >> bp.chart & 1:
        return bp.chart
    return lowest(shared)


def global_distance(atlas: Atlas, bp: BuildingPoint, bq: BuildingPoint) -> LambdaScalar:
    """Metric evaluated in a shared chart; all shared charts must agree: :func:`shared_distance` from :meth:`Atlas.at`."""
    return shared_distance(atlas, atlas.at, bp, bq)


def shared_distance(atlas: Atlas, at: Callable, bp: BuildingPoint, bq: BuildingPoint) -> LambdaScalar:
    """The distance of two points in the charts holding both, from each point's one pass ``at(chart, point)``
    (:meth:`Atlas.at`, or a run's cache of it), which gives its mask and its pairings.  The metric is
    invariant under the affine Weyl group, so in chart j it is d(p, t_cj^-1 t_dj q), measured once per distinct map
    t_cj^-1 t_dj (:meth:`Atlas.through` of the ids of t_cj and t_dj) applied to q's pass (:meth:`Apartment.move_pass`),
    not to q.  The lowest shared chart's value is the distance; any other disagrees."""
    ap = atlas.apartment
    held_p, *pp = at(bp.chart, bp.point)
    held_q, *pq = at(bq.chart, bq.point)
    if not (shared := held_p & held_q):
        raise NoCommonChartError(
            f"no chart contains both {format_point(bp.point)}@{atlas.name(bp.chart)} "
            f"and {format_point(bq.point)}@{atlas.name(bq.chart)}"
        )
    c, d, value_of, values = bp.chart, bq.chart, atlas.value_of, {}
    for j in charts_of(shared):
        if (iso := atlas.through(value_of[(c, j)], value_of[(d, j)])) not in values:
            values[iso] = ap.pass_metric(pp, pq if iso is None else ap.move_pass(iso, pq))
    first, *others = values.values()
    if any(v != first for v in others):
        raise DistanceDisagreementError(
            f"distance from {format_point(bp.point)}@{atlas.name(bp.chart)} "
            f"to {format_point(bq.point)}@{atlas.name(bq.chart)} disagrees between shared charts"
        )
    return first
