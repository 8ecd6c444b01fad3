"""SE decides each panel once per (direction, overlap class), reads each wall
at the base's copy moved into the holding chart, and writes the lines of the
per-sector checker it replaced.

``reference_se`` is that checker, kept here as the definition: per sector
and holding chart it matches the panel from the overlap's halves, moves the
wall through the transition with ``transform_half``, and scans the overlap
classes of the chart for each side of the wall.

Every fixture wall passes through the chart origin, so the digest members
alone cannot tell a wall moved into the wrong place.  ``recoordinated``
moves each chart's coordinates by its own isometry, which gives every
transition a shift and puts the walls at the origin sectors' new apexes.
"""
import random
from fractions import Fraction

import pytest

import lbk.apartment
from lbk.apartment import format_point
from lbk.atlas import Atlas, BuildingPoint, BuildingSector, Transition, charts_of, lowest
from lbk.axioms import AxiomReport, Sample, _sector_label, check_se
from report_digest import LADDER, members

MEMBERS = list(members())


def reference_panel(ap, sector, overlap):
    """The panel type when the sector meets the overlap in a face of itself, else None."""
    caps = [(h, ap.caps(sector.direction, h.root, h.sense)) for h in overlap.halves]
    capped = set().union(*(ks for _, ks in caps))
    if len(capped) != 1:
        return None
    tight = any(ks and ap.pairing(h.root, sector.base) == h.bound for h, ks in caps)
    return capped.pop() if tight else None


def reference_meeting(atlas, i, half):
    """The charts whose overlap with chart i is the half, one region_half per overlap class."""
    return atlas.reach(i, lambda region: atlas.apartment.region_half(region) == half)


def reference_se(sample):
    report = AxiomReport("SE")
    atlas = sample.atlas
    ap = atlas.apartment
    for bs in sample.sectors:
        chart, base, w = bs.chart, bs.sector.base, bs.sector.direction
        held = sum(1 << c for c in atlas.locate_point(BuildingPoint(chart, base)))
        fits = atlas.fitting(chart, w)
        for a in charts_of(held & ~(1 << chart)):
            t = atlas.transition(chart, a)
            panel_type = reference_panel(ap, bs.sector, t.region)
            if panel_type is None:
                continue
            face_root = w.act_root(ap.roots.simple_root(panel_type))
            wall = ap.transform_half(ap.half(face_root, 1, ap.pairing(face_root, base)), t.iso)
            found = [lowest(reference_meeting(atlas, a, ap.half(wall.root, s, wall.bound)) & fits & held) for s in (1, -1)]
            config = f"(chart={atlas.name(a)},sector={_sector_label(atlas, bs, format_point)})"
            witness = None if None in found else "+".join(atlas.name(c) for c in found)
            report.check(config, witness, "missing-side-apartment")
    if not report.lines:
        report.add("(no-panel-incidences)", "pass", "detail=vacuous")
    return report


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_se_writes_the_lines_of_the_per_sector_checker(seed):
    fails = panels = 0
    for name, atlas in MEMBERS:
        sample = Sample(atlas, seed)
        lines = check_se(sample).lines
        assert lines == reference_se(sample).lines, (name, seed)
        fails += sum(line.verdict == "fail" for line in lines)
        panels += sum(line.config != "(no-panel-incidences)" for line in lines)
    assert fails >= 50 and panels >= 1000, (fails, panels)


def chart_moves(atlas, seed):
    """Per chart, an isometry g_c of seeded direction and shift."""
    ap = atlas.apartment
    rng = random.Random(f"recoordinate:{seed}:{atlas.label}")
    return [
        ap.isometry(rng.choice(ap.directions()), ap.point(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(ap.rank)))
        for _ in atlas.charts()
    ]


def moved_atlas(atlas, moves):
    """The same building with chart c read through the isometry moves[c]:
    transitions g_j t_ij g_i^-1 on the images of the overlaps."""
    ap = atlas.apartment
    transitions = {
        (i, j): Transition(ap.transform_region(t.region, moves[i]), moves[j].compose(t.iso).compose(moves[i].inverse()))
        for (i, j), t in atlas.transitions.items()
    }
    return Atlas(ap, atlas.chart_names, transitions, atlas.label)


def recoordinated(atlas, seed):
    """The atlas moved by :func:`chart_moves`, and its origin sectors moved by g_c."""
    ap = atlas.apartment
    moves = chart_moves(atlas, seed)
    sectors = [
        BuildingSector(c, ap.sector(g.apply(ap.origin()), g.linear * w)) for c, g in enumerate(moves) for w in ap.directions()
    ]
    return moved_atlas(atlas, moves), sectors


def outcome(line):
    """A line's verdict and witness charts: the sides of a wall swap when a chart is reflected."""
    return line.verdict, sorted(line.detail.removeprefix("witness=").split("+"))


def origin_sample(atlas, sectors, seed=0):
    sample = Sample(atlas, seed)
    sample.sectors = sectors
    return sample


@pytest.mark.parametrize("seed", [0, 1])
def test_se_reads_moved_walls_as_the_per_sector_checker_does(seed):
    """In recoordinated members the walls carry shifts and reflections; SE
    writes the reference's lines there, and the verdicts and witness charts
    of the origin sectors of the members they came from."""
    panels = fails = 0
    for name, atlas in MEMBERS:
        ap = atlas.apartment
        moved, sectors = recoordinated(atlas, seed)
        lines = check_se(origin_sample(moved, sectors, seed)).lines
        assert lines == reference_se(origin_sample(moved, sectors, seed)).lines, name
        origin = [BuildingSector(c, ap.sector(ap.origin(), w)) for c in atlas.charts() for w in ap.directions()]
        before = check_se(origin_sample(atlas, origin, seed)).lines
        assert list(map(outcome, lines)) == list(map(outcome, before)), name
        panels += sum(line.config != "(no-panel-incidences)" for line in lines)
        fails += sum(line.verdict == "fail" for line in lines)
    assert panels >= 500 and fails >= 20, (panels, fails)


def test_se_decides_each_direction_and_overlap_class_once(monkeypatch):
    """On the 20 ladder members at seed 0, 94 (direction, overlap class)
    decisions stand for every (sector, holding chart) panel match: only a
    holding chart outside the sector's germ mask asks for one.  No wall is
    moved through a transition.  The fit table asks Apartment.capped too, so
    it is filled before the count."""
    decided, moved = [], []
    capped = lbk.apartment.Apartment.capped
    transform_half = lbk.apartment.Apartment.transform_half

    def counted_capped(self, w, overlap):
        decided.append((w, overlap))
        return capped(self, w, overlap)

    def counted_half(self, *args):
        moved.append(args)
        return transform_half(self, *args)

    runs = [(name, atlas, Sample(atlas, 0)) for name, atlas in MEMBERS[: len(LADDER)]]
    for _, atlas, sample in runs:
        for bs in sample.sectors:
            atlas.fitting(bs.chart, bs.sector.direction)
    monkeypatch.setattr(lbk.apartment.Apartment, "capped", counted_capped)
    monkeypatch.setattr(lbk.apartment.Apartment, "transform_half", counted_half)
    matches = 0
    for name, atlas, sample in runs:
        before = len(decided)
        assert check_se(sample).verdict == "pass", name
        assert len(set(decided[before:])) == len(decided) - before, name  # once per run
        matches += sum(len(atlas.locate_point(BuildingPoint(bs.chart, bs.sector.base))) - 1 for bs in sample.sectors)
    assert len(decided) == 94 and not moved
    assert matches > 40 * len(decided), matches
