"""Axiom deciders, the germ retraction, and the exchange-condition suite.

Every checker returns an :class:`AxiomReport` with one line per configuration
examined.  Chart searches are exhaustive (atlases are finite) and the
translation searches are single exact Fourier-Motzkin solves, so pass/fail
lines are certain for the configurations listed; sampling only enters where a
statement quantifies over all points of the model, and the sample is seeded
and reproducible.  INCONCLUSIVE (``'inconclusive-budget'``) is never folded into
pass or fail; no checker line gives it, only :func:`finite_cover` (budget spent,
or an open cell in no piece), :func:`germ_coapartment` (no chart holds both germs,
or their bases differ there) and :func:`opposite_germ` (no candidate or co-chart).
"""
from __future__ import annotations

import os
import random
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence

from .apartment import (
    AffineIsometry,
    Apartment,
    ConvexRegion,
    HalfApartment,
    Pass,
    Point,
    Sector,
    format_point,
)
from .atlas import (
    Atlas,
    BuildingGerm,
    BuildingPoint,
    BuildingSector,
    DistanceDisagreementError,
    NoCommonChartError,
    charts_of,
    lowest,
    shared_chart,
    shared_distance,
    validate,
)
from .lexq import LambdaScalar
from .records import Record

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive-budget"

DEFAULT_BUDGET = 200000


class TheoremViolation(RuntimeError):
    """A guaranteed object (common chart, consistent value) failed to appear."""


def search_budget() -> int:
    raw = os.environ.get("LBK_BUDGET", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_BUDGET


class CheckLine(Record):
    __slots__ = ("config", "verdict", "detail")

    def __init__(self, config: str, verdict: str, detail: str = ""):
        self.config, self.verdict, self.detail = config, verdict, detail


class AxiomReport(Record):
    __slots__ = ("axiom", "lines")

    def __init__(self, axiom: str, lines: Optional[list[CheckLine]] = None):
        self.axiom, self.lines = axiom, [] if lines is None else lines

    @property
    def verdict(self) -> str:
        verdicts = set(map(attrgetter("verdict"), self.lines))
        return FAIL if FAIL in verdicts else INCONCLUSIVE if INCONCLUSIVE in verdicts else PASS

    def add(self, config: str, verdict: str, detail: str = "") -> None:
        self.lines.append(CheckLine(config, verdict, detail))

    def check(self, config: str, witness: Optional[str], failure: str) -> None:
        """A pass line naming the witness, or a fail line naming the failure when there is none."""
        if witness is None:
            self.add(config, FAIL, f"detail={failure}")
        else:
            self.add(config, PASS, f"witness={witness}")

    def rendered(self) -> list[str]:
        return list(self.render())

    def render(self) -> Iterator[str]:
        """The report's lines one at a time, so that a writer holds one line, not the report's text."""
        for line in self.lines:
            yield f"AXIOM {self.axiom} config={line.config} verdict={line.verdict}" + (f" {line.detail}" if line.detail else "")
        counts = Counter(map(attrgetter("verdict"), self.lines))
        yield (f"SUMMARY axiom={self.axiom} checked={len(self.lines)} pass={counts[PASS]} "
               f"fail={counts[FAIL]} inconclusive={counts[INCONCLUSIVE]} verdict={self.verdict}")


# -- sampling ---------------------------------------------------------------


class Sample:
    """The seeded building points of one run of the checkers, each read by one pass.

    Per chart, in chart order: the origin, then two seeded rational points
    whose numerators and denominators are bounded by 12.  A3 and A5 pair the
    points by index, A4 pairs by index the sectors of every direction at the first
    two points of each chart, and SE reads them.  ``at`` (:meth:`Atlas.at`) and ``format`` (:func:`format_point`, for
    labels) are :func:`functools.cache` tables that live and die with the sample, so nothing keyed
    by points outlives the run: one pass per distinct (chart, point), which :meth:`indexed`, SE's masks
    (a sector's base need not be a sample point), and A5's images (:meth:`Retraction.map_at`) and
    distances (:func:`shared_distance`) read.  A caller may set ``points`` and ``sectors`` by hand.
    """

    def __init__(self, atlas: Atlas, seed: int = 0):
        ap = atlas.apartment
        self.atlas = atlas
        self.seed = seed
        self.points: list[BuildingPoint] = []
        self.sectors: list[BuildingSector] = []
        for chart in atlas.charts():
            rng = random.Random(f"{seed}:{atlas.label}:{atlas.name(chart)}")
            drawn = [ap.origin()] + [
                tuple(
                    LambdaScalar([Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(ap.lex_rank)])
                    for _ in range(ap.rank)
                )
                for _ in range(2)
            ]
            self.points += [BuildingPoint(chart, p) for p in drawn]
            self.sectors += [BuildingSector(chart, ap.sector(p, w)) for p in drawn[:2] for w in ap.directions()]
        self.format = cache(format_point)
        self.at = cache(atlas.at)

    def held(self, bp: BuildingPoint) -> int:
        """The charts holding a sampled point, as a mask, from the run's pass at it."""
        return self.at(bp.chart, bp.point)[0]

    def indexed(self) -> tuple[list[int], list[int]]:
        """Per point of ``points``, by index, read when a checker starts: the index of its first equal point, and its mask."""
        first: dict[BuildingPoint, int] = {}
        return [first.setdefault(bp, i) for i, bp in enumerate(self.points)], list(map(self.held, self.points))


def _cap_pairs(items: Sequence, samples: int, seed: int, tag: str) -> list:
    """All pairs of items in order, or a seeded sample of them.  random.sample
    picks indices from the population's length alone, so sampling the ranks of
    the pairs in combinations order draws what sampling the listed pairs did."""
    n = len(items)
    total = n * (n - 1) // 2
    if total <= samples:
        return list(combinations(items, 2))
    out, a, start = [], 0, 0  # start: the rank of the pair (a, a + 1)
    for rank in sorted(random.Random(f"{seed}:{tag}").sample(range(total), samples)):
        while rank >= start + n - 1 - a:
            start += n - 1 - a
            a += 1
        out.append((items[a], items[a + 1 + rank - start]))
    return out


def _pair_label(atlas: Atlas, bp: BuildingPoint, bq: BuildingPoint, fmt: Callable) -> str:
    return f"({atlas.name(bp.chart)}:{fmt(bp.point)},{atlas.name(bq.chart)}:{fmt(bq.point)})"


def _sector_label(atlas: Atlas, bs: BuildingSector | BuildingGerm, fmt: Callable) -> str:
    word = "".join(str(i) for i in bs.sector.direction.word) or "e"
    return f"{atlas.name(bs.chart)}:{fmt(bs.sector.base)}:{word}"


def sector_class_distance(atlas: Atlas, s1: BuildingSector, s2: BuildingSector):
    """The group distance between the parallel classes and the first chart holding
    subsectors of both (the lowest bit their :meth:`Atlas.fitting` masks share), or None."""
    chart = lowest(atlas.fitting(s1.chart, s1.sector.direction) & atlas.fitting(s2.chart, s2.sector.direction))
    if chart is None:
        return None
    w1, w2 = (atlas.carry_direction(bs.chart, chart, bs.sector.direction) for bs in (s1, s2))
    return w2.inverse() * w1, chart


# -- A1/A2/A3 ----------------------------------------------------------------


def check_a1(atlas: Atlas) -> AxiomReport:
    """Chart saturation under precomposition holds by representation."""
    report = AxiomReport("A1")
    report.add("structure", PASS, "detail=charts-are-reflection-saturated-copies")
    return report


def check_a2(atlas: Atlas) -> AxiomReport:
    """Overlap compatibility: re-reports the structural validation."""
    report = AxiomReport("A2")
    validation = validate(atlas)
    if validation.ok:
        report.add("structure", PASS, f"detail=checks:{len(validation.notes)}")
    else:
        for issue in validation.issues:
            report.add("structure", FAIL, f"detail={issue.replace(' ', '_')}")
    return report


def check_a3(sample: Sample, samples: int = 60) -> AxiomReport:
    """Every sampled point pair must admit a shared chart."""
    report = AxiomReport("A3")
    atlas, points = sample.atlas, sample.points
    _, held = sample.indexed()
    for i, j in _cap_pairs(range(len(points)), samples, sample.seed, "a3"):
        chart = shared_chart(points[i], points[j], held[i] & held[j])
        report.check(_pair_label(atlas, points[i], points[j], sample.format), None if chart is None else atlas.name(chart), "no-common-chart")
    return report


# -- A4 ----------------------------------------------------------------------


def check_a4(sample: Sample, samples: int = 200) -> AxiomReport:
    """Sector pairs must have subsectors in a common chart.  That depends only
    on their charts and directions, so when the sampled pairs pass, the first
    pair of (chart, direction) classes whose fit masks do not meet, in chart
    and ``directions()`` order, is one more fail line, named by the classes'
    sectors at the chart origin.  Sectors are paired by index: a pair's chart is the
    lowest bit its fit masks share, as in :func:`sector_class_distance`, and each
    sector's label is built once."""
    report = AxiomReport("A4")
    atlas, sectors = sample.atlas, sample.sectors
    ap = atlas.apartment
    label = partial(_sector_label, atlas, fmt=sample.format)
    labels = cache(lambda i: label(sectors[i]))
    fits = [atlas.fitting(bs.chart, bs.sector.direction) for bs in sectors]
    for i, j in _cap_pairs(range(len(sectors)), samples, sample.seed, "a4"):
        chart = lowest(fits[i] & fits[j])
        report.check(f"({labels(i)},{labels(j)})", None if chart is None else atlas.name(chart), "no-chart-holds-both-subsectors")
    if report.verdict == PASS:
        origin = [BuildingSector(c, ap.sector(ap.origin(), w)) for c in atlas.charts() for w in ap.directions()]
        masks = [atlas.fitting(bs.chart, bs.sector.direction) for bs in origin]
        for (s1, f1), (s2, f2) in combinations(zip(origin, masks), 2):
            if not f1 & f2:
                report.check(f"({label(s1)},{label(s2)})", None, "no-chart-holds-both-subsectors")
                break
    return report


# -- A6 ----------------------------------------------------------------------


def check_a6(atlas: Atlas) -> AxiomReport:
    """Triples of pairwise half-apartment overlaps must meet; each distinct overlap class pair is decided once."""
    report = AxiomReport("A6")
    ap, class_of = atlas.apartment, atlas.class_of

    @cache
    def witness(a: int, b: int) -> Optional[str]:
        probe = ap.region_feasible(ap.intersect(atlas.regions[a], atlas.regions[b]))
        return format_point(probe.witness) if probe.sat else None

    for i in atlas.charts():
        half_glued = [j for j in charts_of(atlas.glued(i)) if j > i and atlas.overlap_half(i, j) is not None]
        for j, k in combinations(half_glued, 2):
            if atlas.overlap_half(j, k) is None:
                continue
            config = f"({atlas.name(i)},{atlas.name(j)},{atlas.name(k)})"
            report.check(config, witness(class_of[(i, j)], class_of[(i, k)]), "triple-intersection-empty")
    if not report.lines:
        report.add("(no-triples)", PASS, "detail=vacuous")
    return report


def recheck_a6_counterexample(atlas: Atlas, i: int, j: int, k: int) -> bool:
    """Re-verify an A6 failure certificate, FM's empty triple, by the other rule: the normal form is empty too."""
    ap = atlas.apartment
    return ap.bounds(ap.intersect(atlas.overlap_region(i, j), atlas.overlap_region(i, k))) is None


# -- EC ----------------------------------------------------------------------


def check_ec(atlas: Atlas) -> AxiomReport:
    """Half-apartment pairs must extend to the symmetric-difference apartment."""
    report = AxiomReport("EC")
    ap = atlas.apartment
    for i, j in ((i, j) for i in atlas.charts() for j in charts_of(atlas.glued(i)) if j > i):
        halves = atlas.overlap_half(i, j), atlas.overlap_half(j, i)
        if None in halves:
            continue
        flipped = tuple(ap.half(h.root, -h.sense, h.bound) for h in halves)
        config = f"({atlas.name(i)},{atlas.name(j)})"
        witness = lowest(atlas.charts_meeting(i, flipped[0]) & atlas.charts_meeting(j, flipped[1]))
        report.check(config, None if witness is None else atlas.name(witness), "missing-exchange-apartment")
    if not report.lines:
        report.add("(no-half-apartment-pairs)", PASS, "detail=vacuous")
    return report


# -- SE ----------------------------------------------------------------------


def check_se(sample: Sample) -> AxiomReport:
    """Sectors meeting a chart in one of their panels must extend over both wall sides.

    The exchange hypothesis wants the chart to meet the sector in one of the
    sector's own panels (apex included), not a panel-shaped slice further out.
    Write a sector point as x = b + sum_k t_k w.u_k, t_k >= 0: a half caps
    generator k when it falls along it, and a root's coefficients w^-1 r share a
    sign.  So panel k fits and the sector does not exactly when k is the only
    capped generator (:meth:`Apartment.capped`, once per (direction, overlap
    class id)); each capping half then reads slack - t_k >= 0, and the cut stays
    on panel k (t_k = 0) exactly when one of them is tight at the base.  A chart
    a holding the base has the base in the overlap, so that is where the germ
    rule of :meth:`Apartment.holds` fails: a has a panel incidence exactly when
    the panel is capped and a is outside the germ's mask, read from the base's
    pass in the sample.  For a line it writes, the wall in chart a is read at
    the base's copy moved there, as the pairing is W-invariant, and its root is
    carried there once per (transition value id, root); the charts
    meeting chart a in either side of a wall are read once per (a, root, bound).
    """
    report = AxiomReport("SE")
    atlas = sample.atlas
    ap = atlas.apartment

    @cache
    def wall_root(w, c):
        """w.alpha_k when the overlap class caps exactly generator k of the cone, else None."""
        capped = ap.capped(w, atlas.regions[c])
        return w.act_root(ap.roots.simple_root(min(capped))) if len(capped) == 1 else None

    @cache
    def sides(a, root, bound):
        """The charts meeting chart a in either side of the wall (root, x) = bound, as two masks."""
        wall = ap.half(root, 1, bound)
        return [atlas.charts_meeting(a, HalfApartment(wall.root, s, wall.bound)) for s in (1, -1)]

    move, pairing = cache(AffineIsometry.apply), cache(ap.pairing)
    carried = cache(lambda v, root: root if atlas.isos[v] is None else atlas.isos[v].linear.act_root(root))  # per (value id, root)
    for bs in sample.sectors:
        chart, base, w = bs.chart, bs.sector.base, bs.sector.direction
        held, *pass_ = sample.at(chart, base)
        outside = held & ~atlas.mask(chart, pass_, w)
        fits = atlas.fitting(chart, w)
        label = None
        for a in charts_of(outside):
            root = wall_root(w, atlas.class_of[(chart, a)])
            if root is None:
                continue
            r = carried(atlas.value_of[(chart, a)], root)
            found = [lowest(meeting & fits & held) for meeting in sides(a, r, pairing(r, move(atlas.transitions[(chart, a)].iso, base)))]
            label = label or _sector_label(atlas, bs, sample.format)
            witness = None if None in found else "+".join(atlas.name(c) for c in found)
            report.check(f"(chart={atlas.name(a)},sector={label})", witness, "missing-side-apartment")
    if not report.lines:
        report.add("(no-panel-incidences)", PASS, "detail=vacuous")
    return report


# -- retraction ----------------------------------------------------------------


class Retraction:
    """Distance-diminishing map onto a chart, fixing a sector germ.

    The per-chart maps are the unique isometries carrying that chart's copy
    of the germ onto the target chart's copy.  Through chart b a point of chart
    c goes by the cached composite maps[b] t_cb, keyed by (map id, transition
    value id).  :meth:`map_at` reads the point's one pass, picks the lowest
    holding chart's composite and checks that every other distinct composite
    moves that pass to the same pass, which asserts well-definedness with no
    point moved; :meth:`evaluate` then moves the point once.
    """

    def __init__(self, atlas: Atlas, germ: BuildingGerm, chart: int):
        sectors = {b: atlas.move_held(germ, b) for b in charts_of(atlas.holding(germ))}
        if (target := sectors.get(chart)) is None:
            raise TheoremViolation(
                f"germ {_sector_label(atlas, germ, format_point)} is not contained in chart {atlas.name(chart)}"
            )
        self.atlas = atlas
        self.germ = germ
        self.chart = chart
        self.maps: dict[int, AffineIsometry] = {}
        for b, local in sectors.items():
            linear = target.direction * local.direction.inverse()
            negated = [[-a for a in row] for row in linear.matrix]  # shift = target base - linear(local base)
            self.maps[b] = AffineIsometry(linear, LambdaScalar.affine(negated, local.base, target.base))
        self.mask = sum(1 << b for b in self.maps)  # the charts of the maps, as a chart mask
        ids: dict[AffineIsometry, int] = {}
        self.map_of = {b: ids.setdefault(f, len(ids)) for b, f in self.maps.items()}
        maps = list(ids)
        self._composite = cache(lambda m, t: maps[m] if atlas.isos[t] is None else maps[m].compose(atlas.isos[t]))

    def evaluate(self, bp: BuildingPoint) -> BuildingPoint:
        """The point's image, read in the charts holding both it and the germ."""
        iso, *_ = self.map_at(self.atlas.at, bp)
        return BuildingPoint(self.chart, iso.apply(bp.point))

    def map_at(self, at: Callable, bp: BuildingPoint) -> tuple[AffineIsometry, Pass, Optional[Pass]]:
        """The map carrying the point into the target chart, with the point's pass ``at(chart, point)``
        (:meth:`Atlas.at`, or a run's ``Sample.at``): the composite of the lowest chart holding both
        it and the germ.  Every other distinct composite must move the pass to the same pass
        (:meth:`Apartment.move_pass`; equal passes have all :meth:`Apartment.pass_signs` zero), so with two
        or more the image's pass is moved here, and returned third; with one, the third is None."""
        held, *pass_ = at(bp.chart, bp.point)
        c, value_of, composites = bp.chart, self.atlas.value_of, {}
        for b in charts_of(held & self.mask):
            key = (self.map_of[b], value_of[(c, b)])
            if key not in composites:
                composites[key] = self._composite(*key)
        if not composites:
            raise TheoremViolation(
                f"no chart contains both the germ and {format_point(bp.point)}"
                f"@{self.atlas.name(bp.chart)}"
            )
        first, *others = composites.values()
        image = None
        if others:
            ap = self.atlas.apartment
            image = ap.move_pass(first, pass_)
            if any(any(ap.pass_signs(ap.move_pass(f, pass_), image)) for f in others):
                raise TheoremViolation("retraction value depends on the chart chosen")
        return first, pass_, image


def build_retraction(atlas: Atlas, germ: BuildingGerm, chart: int) -> Retraction:
    return Retraction(atlas, germ, chart)


def check_a5(sample: Sample, samples: int = 200) -> AxiomReport:
    """Retractions take one value per point and never increase distances.

    A retraction exists and fixes its target chart by construction: the germ
    lies in its own chart, and each map inverts the transition from the
    target.  The metric is W-invariant, so a pair sharing a chart b of the maps keeps its distance (maps[b] after
    t moves both, and :meth:`Retraction.map_at` checks that every composite gives one image): its images are not
    measured.  Distances read the sample's passes (:func:`shared_distance` from ``at``), and so does each image's
    pass, moved once per target and distinct point (:meth:`Retraction.map_at`), so no image point is built
    or located.  Points are paired by index, and a run measures each distinct pair of sampled points
    once, keyed by the indices of their first equal points (:meth:`Sample.indexed`)."""
    report = AxiomReport("A5")
    atlas, points = sample.atlas, sample.points
    ap = atlas.apartment
    dirs = ap.directions()
    targets = [(chart, w) for chart in atlas.charts() for w in (dirs[0], dirs[-1])][:3]
    first, held = sample.indexed()

    @cache
    def distance(i: int, j: int):
        """The distance of points i and j, measured once for every target; a failure is kept as its
        class, since an exception instance would keep its traceback's frames alive."""
        try:
            return shared_distance(atlas, sample.at, points[i], points[j])
        except (NoCommonChartError, DistanceDisagreementError) as exc:
            return type(exc)

    for chart, w in targets:
        germ = BuildingGerm(chart, ap.sector(ap.origin(), w))
        config_base = f"(chart={atlas.name(chart)},germ={_sector_label(atlas, germ, sample.format)})"
        rho = Retraction(atlas, germ, chart)
        written = len(report.lines)
        images: list[Pass | str] = []  # per point, its image's pass, or the detail of why there is none, once per first index
        for i, bp in enumerate(points):
            if first[i] < i:
                images.append(images[first[i]])
                continue
            try:
                iso, pass_, image = rho.map_at(sample.at, bp)
                images.append(ap.move_pass(iso, pass_) if image is None else image)
            except TheoremViolation as exc:
                images.append(str(exc).replace(" ", "_"))
        for i, j in _cap_pairs(range(len(points)), samples, sample.seed, f"a5:{atlas.name(chart)}"):
            ry, rz = images[i], images[j]
            if isinstance(ry, str) or isinstance(rz, str):
                failure = ry if isinstance(ry, str) else rz
            elif (original := distance(first[i], first[j])) is NoCommonChartError:
                continue
            elif original is DistanceDisagreementError:
                failure = "distance-disagrees-between-charts"
            elif not held[i] & held[j] & rho.mask and ap.pass_metric(ry, rz) > original:
                failure = "distance-increased"
            else:
                continue
            report.add(f"{config_base}:{_pair_label(atlas, points[i], points[j], sample.format)}", FAIL, f"detail={failure}")
        if len(report.lines) == written:
            report.add(config_base, PASS, f"witness=maps:{len(rho.maps)}")
    return report


# -- co-apartment searches ---------------------------------------------------


class CoapartmentResult(Record):
    __slots__ = ("chart", "verdict", "initial_length", "final_length", "stages")

    def __init__(self, chart: Optional[int], verdict: str, initial_length: Optional[int], final_length: Optional[int],
                 stages: Optional[list[str]] = None):
        self.chart, self.verdict = chart, verdict
        self.initial_length, self.final_length, self.stages = initial_length, final_length, [] if stages is None else stages


def germ_coapartment(atlas: Atlas, g1: BuildingGerm, g2: BuildingGerm) -> CoapartmentResult:
    """A chart containing both germs, found by the two-stage descent on the bases' passes, with no point built or
    moved: one pass per distinct (chart, base), carried between charts (:meth:`Atlas.carry_pass`), gives the point
    and germ masks and, by its signs (:meth:`Apartment.pass_signs`), the sector directions; a moved germ's direction
    is :meth:`Atlas.carry_direction`.  Two bases are one point in a chart when their passes there are equal."""
    ap = atlas.apartment
    stages: list[str] = []
    initial = sector_class_distance(atlas, BuildingSector(g1.chart, g1.sector), BuildingSector(g2.chart, g2.sector))
    initial_len = initial[0].length if initial else None
    (c1, w1), (c2, w2) = (g1.chart, g1.sector.direction), (g2.chart, g2.sector.direction)
    pass1 = ap.root_dots(g1.base)
    pass2 = pass1 if c1 == c2 and g1.base == g2.base else ap.root_dots(g2.base)
    held1, held2 = atlas.mask(c1, pass1), atlas.mask(c2, pass2)
    germ1, germ2 = atlas.mask(c1, pass1, w1), atlas.mask(c2, pass2, w2)

    def one_base(chart: int) -> bool:  # are the bases one point in the chart, which holds both: all signs zero?
        return not any(ap.pass_signs(atlas.carry_pass(c1, chart, pass1), atlas.carry_pass(c2, chart, pass2)))

    same_base = bool(held1 >> c2 & 1) and one_base(c2)  # g2's chart holds g1's base, at g2's base

    def direct_scan(fallback: Optional[str], exhausted: str) -> CoapartmentResult:
        """Finish in the first chart holding both germs, scanned only on the
        branches that need it; fallback names the stage that gave up, if any."""
        chart = lowest(germ1 & germ2)
        if chart is None:
            stages.append(exhausted)
            return CoapartmentResult(None, INCONCLUSIVE, initial_len, None, stages)
        if same_base and not one_base(chart):  # one point in g2's chart, two in this one: a gluing not closed
            stages.append(f"bases differ in chart={atlas.name(chart)}")
            return CoapartmentResult(None, INCONCLUSIVE, initial_len, None, stages)
        stages.append(f"direct-scan chart={atlas.name(chart)}" if fallback is None else f"fallback direct-scan ({fallback})")
        if not same_base:
            return CoapartmentResult(chart, PASS, initial_len, None, stages)
        delta = atlas.carry_direction(c2, chart, w2).inverse() * atlas.carry_direction(c1, chart, w1)  # germ distance there
        return CoapartmentResult(chart, PASS, initial_len, delta.length, stages)

    if same_base:
        return direct_scan(None, "direct-scan exhausted")

    # Distinct bases: chart through both points (their own when shared), sector toward the far point, two germ+sector stages.
    cc = c1 if c1 == c2 else lowest(held1 & held2)
    if cc is None:
        return direct_scan("no point chart", "no chart through both base points")
    stages.append(f"points chart={atlas.name(cc)}")
    x, y = atlas.carry_pass(c1, cc, pass1), atlas.carry_pass(c2, cc, pass2)
    connecting = ap.sector_through(ap.pass_signs(y, x))
    carrier = lowest(germ1 & (held1 if cc == c1 else atlas.mask(cc, x)) & atlas.fitting(cc, connecting))
    if carrier is None:
        return direct_scan("no germ+sector chart", "no chart with first germ and connecting sector")
    stages.append(f"germ+sector chart={atlas.name(carrier)}")
    y_there = atlas.carry_pass(cc, carrier, y)  # the carrier holds the connecting sector, so y
    signs = ap.pass_signs(x if carrier == cc else atlas.carry_pass(c1, carrier, pass1), y_there)
    pivot = ap.sector_through(signs, atlas.carry_direction(c1, carrier, w1))
    final = lowest(germ2 & atlas.mask(carrier, y_there) & atlas.fitting(carrier, pivot))
    if final is None:
        return direct_scan("descent exhausted", "descent exhausted")
    stages.append(f"final chart={atlas.name(final)}")
    return CoapartmentResult(final, PASS, initial_len, None, stages)


class OppositeResult(Record):
    __slots__ = ("verdict", "sector", "cochart", "parallel_at_base", "contains_point", "maximal_length")

    def __init__(self, verdict: str, sector: Optional[Sector] = None, cochart: Optional[int] = None,
                 parallel_at_base: Optional[Sector] = None, contains_point: bool = False, maximal_length: Optional[int] = None):
        self.verdict, self.sector, self.cochart = verdict, sector, cochart
        self.parallel_at_base, self.contains_point, self.maximal_length = parallel_at_base, contains_point, maximal_length


def opposite_germ(atlas: Atlas, germ: BuildingGerm, chart_b: int, y: Point) -> OppositeResult:
    """Sector of chart_b at y maximizing germ distance from the given germ.

    Returns the chosen sector, a chart holding it together with the germ, and
    the parallel sector based at the germ base that contains y.  It reads passes as :func:`germ_coapartment`
    does, one at y and one at the germ's base: the one point built is the base of the parallel sector.
    """
    ap = atlas.apartment
    c0, w0 = germ.chart, germ.sector.direction
    pass_g, pass_y = ap.root_dots(germ.base), ap.root_dots(y)
    mask, held_y = atlas.mask(c0, pass_g, w0), atlas.mask(chart_b, pass_y)
    there = {c: (atlas.carry_pass(chart_b, c, pass_y), atlas.carry_pass(c0, c, pass_g)) for c in charts_of(mask & held_y)}
    best = None
    for w in ap.directions():
        bprime = lowest(mask & atlas.mask(chart_b, pass_y, w))
        if bprime is None:
            continue
        y_here, g_here = there[bprime]
        pivot = ap.sector_through(ap.pass_signs(g_here, y_here), atlas.carry_direction(c0, bprime, w0))
        delta = pivot.inverse() * atlas.carry_direction(chart_b, bprime, w)  # germ_distance, pivot and candidate at y
        key = (-delta.length, w.word)
        if best is None or key < best[0]:
            best = (key, w, bprime, pivot, delta)
    if best is None:
        return OppositeResult(INCONCLUSIVE)
    _, w, bprime, pivot, delta = best
    t_sector = ap.sector(y, w)
    pivot_mask = atlas.mask(bprime, there[bprime][0]) & atlas.fitting(bprime, pivot)
    cochart = lowest(pivot_mask & held_y & atlas.fitting(chart_b, w))
    if cochart is None or not mask >> cochart & 1:
        return OppositeResult(INCONCLUSIVE, sector=t_sector, maximal_length=delta.length)
    y_there, g_there = there[cochart]  # the cochart holds t_sector, so its base y there
    base = germ.base if cochart == c0 else atlas.transitions[(c0, cochart)].iso.apply(germ.base)
    parallel = ap.sector(base, atlas.carry_direction(chart_b, cochart, w))
    contains = ap.sector_contains_point(parallel, ap.pass_signs(y_there, g_there))
    return OppositeResult(PASS, t_sector, cochart, parallel_at_base=parallel, contains_point=contains, maximal_length=delta.length)


class CoverResult(Record):
    __slots__ = ("verdict", "pieces", "uncovered")

    def __init__(self, verdict: str, pieces: Optional[list[tuple[ConvexRegion, int]]] = None, uncovered: Optional[Point] = None):
        self.verdict, self.pieces = verdict, [] if pieces is None else pieces
        self.uncovered = uncovered  # the witness of the first open cell that no piece holds

    def chart_names(self, atlas: Atlas) -> list[str]:
        return [atlas.name(c) for _, c in self.pieces]


def finite_cover(atlas: Atlas, germ: BuildingGerm, chart_b: int) -> CoverResult:
    """Closed convex pieces covering chart_b, each co-charted with the germ.  Coverage is decided over the open
    cells of the pieces' walls (:meth:`Apartment.open_cells`): INCONCLUSIVE once LBK_BUDGET's FM solves are
    spent, or with the first cell witness that no piece holds as ``uncovered``; PASS when every cell is held."""
    ap = atlas.apartment
    pass_ = ap.root_dots(germ.base)  # the base's pass, carried into each chart holding it, serves every direction
    base_held = atlas.mask(germ.chart, pass_)
    if (held := atlas.mask(germ.chart, pass_, germ.sector.direction)) >> chart_b & 1:
        # The whole chart already shares an apartment with the germ: itself.
        return CoverResult(PASS, [(ap.whole_region(), chart_b)])
    pieces: list[tuple[ConvexRegion, int]] = []
    for c in charts_of(base_held):
        xc, located = atlas.move_held(germ, c).base, atlas.mask(c, atlas.carry_pass(germ.chart, c, pass_))
        for w in ap.directions():
            carrier = lowest(located & atlas.fitting(c, w) & held)
            if carrier is None:
                continue
            sector = ap.sector(xc, w)
            if c == chart_b:
                region = ap.sector_region(sector)
            else:
                t = atlas.transition(c, chart_b)
                if t is None:
                    continue
                region = ap.transform_region(
                    ap.intersect(ap.sector_region(sector), t.region), t.iso
                )
            if ap.bounds(region) is None:
                continue
            pieces.append((region, carrier))
    # Keep maximal pieces only; duplicates add nothing to the union.
    kept: list[tuple[ConvexRegion, int]] = []
    for region, carrier in pieces:
        if any(ap.region_contains(other, region) for other, _ in kept):
            continue
        kept = [(o, ca) for o, ca in kept if not ap.region_contains(region, o)]
        kept.append((region, carrier))

    cells = ap.open_cells([h for r, _ in kept for h in r.halves], search_budget())
    if cells is None:
        return CoverResult(INCONCLUSIVE, kept)
    # Each open cell lies in a closed piece or misses it: the pieces cover the chart when every witness lies in one.
    uncovered = next((p for p in cells if not any(ap.holds(ap.rows(r), ap.root_dots(p)) for r, _ in kept)), None)
    return CoverResult(PASS if uncovered is None else INCONCLUSIVE, kept, uncovered=uncovered)


# -- equivalence ----------------------------------------------------------------


# Every checker at its share of the sample size, in report order: the A1-A4
# gate, the exchange conditions, then A5.  Each reads one Sample of the run.
_CHECKERS = {
    "A1": lambda sample, samples: check_a1(sample.atlas),
    "A2": lambda sample, samples: check_a2(sample.atlas),
    "A3": lambda sample, samples: check_a3(sample, min(samples, 60)),
    "A4": lambda sample, samples: check_a4(sample, samples),
    "A6": lambda sample, samples: check_a6(sample.atlas),
    "EC": lambda sample, samples: check_ec(sample.atlas),
    "SE": lambda sample, samples: check_se(sample),
    "A5": lambda sample, samples: check_a5(sample, min(samples, 120)),
}
AXIOM_ORDER = tuple(_CHECKERS)
GATE = AXIOM_ORDER[:4]
SUITE = AXIOM_ORDER[2:]  # the blocks equivalence_suite renders
COMPARED = AXIOM_ORDER[4:]  # the verdicts the EQUIVALENCE line lists


def run_axioms(atlas: Atlas, names, samples: int = 200, seed: int = 0) -> dict[str, AxiomReport]:
    """The named checkers, run on one Sample and keyed in AXIOM_ORDER."""
    sample = Sample(atlas, seed)
    return {name: _CHECKERS[name](sample, samples) for name in AXIOM_ORDER if name in names}


class EquivalenceReport(Record):
    __slots__ = ("reports", "precondition_ok", "alarms")

    def __init__(self, reports: dict[str, AxiomReport], precondition_ok: bool, alarms: Optional[list[str]] = None):
        self.reports, self.precondition_ok, self.alarms = reports, precondition_ok, [] if alarms is None else alarms

    def rendered(self) -> list[str]:
        return list(self.render())

    def render(self) -> Iterator[str]:
        """The suite's lines one at a time: each report's, then the verdicts compared and the alarms."""
        yield from chain.from_iterable(self.reports[name].render() for name in SUITE)
        verdicts = ",".join(f"{name}={self.reports[name].verdict}" for name in COMPARED)
        yield f"EQUIVALENCE precondition={'ok' if self.precondition_ok else 'unmet'} {verdicts}"
        yield from (f"ALARM {alarm}" for alarm in self.alarms)


def equivalence_suite(atlas: Atlas, samples: int = 200, seed: int = 0) -> EquivalenceReport:
    """Run every checker; when A1-A4 pass, assert the verdict agreements."""
    reports = run_axioms(atlas, AXIOM_ORDER, samples, seed)
    precondition_ok = all(reports[name].verdict == PASS for name in GATE)
    alarms = []
    if precondition_ok:
        a6, ec, se, a5 = (reports[n].verdict for n in COMPARED)
        if not (a6 == ec == se):
            alarms.append(f"exchange-equivalence-broken A6={a6} EC={ec} SE={se}")
        if se == PASS and a5 != PASS:
            alarms.append(f"retraction-missing-despite-exchange SE={se} A5={a5}")
    return EquivalenceReport(reports, precondition_ok, alarms)
