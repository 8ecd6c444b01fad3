"""Region decisions made without a full elimination agree with the
Fourier-Motzkin (FM) scans they replace.

Regions are seeded random intersections of halves placed around a random
sector: its own walls, their opposite sides and halves of any root, with
bounds at, just below or just above the sector's apex.  That yields empty
regions, regions with redundant halves, sectors and panels inside and
outside a region, and cuts that are exactly a panel.  The FM-based
references are kept here as the definition each shortcut must match.
"""
import random
from fractions import Fraction as Q

import pytest

from lbk.apartment import Apartment, ConvexRegion
from lbk.axioms import _panel_of_sector
from lbk.lexq import LambdaScalar
from lbk.rootsystem import build_root_system

SYSTEMS = [("A1", 1), ("A1", 2), ("A2", 1), ("B2", 1), ("G2", 1)]
TRIALS = 120


def rand_scalar(rng, rank):
    return LambdaScalar([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank)])


def offset(rng, rank):
    """Mostly zero, so halves often pass through the apex."""
    return rand_scalar(rng, rank) if rng.random() < 0.4 else LambdaScalar.zero(rank)


def rand_half(ap, rng, sector):
    base = sector.base
    if rng.random() < 0.5:
        root = rng.choice(ap.sector_roots(sector.direction))
    else:
        root = rng.choice(ap.roots.positive_roots)
        root = root if rng.random() < 0.5 else tuple(-c for c in root)
    bound = ap.pairing(root, base) + offset(rng, ap.lex_rank)
    return ap.half(root, rng.choice((1, -1)), bound)


def rand_region(ap, rng, sector):
    halves = [rand_half(ap, rng, sector) for _ in range(rng.randint(0, 4))]
    if halves and rng.random() < 0.3:
        # A redundant copy of a half with a weaker bound.
        h = rng.choice(halves)
        slack = LambdaScalar.one(ap.lex_rank) * h.sense
        halves.append(ap.half(h.root, h.sense, h.bound - slack))
    rng.shuffle(halves)
    return ap.region(halves)


def cases(name, lam, seed):
    ap = Apartment(build_root_system(name), lam)
    rng = random.Random(f"{seed}:{name}:{lam}")
    dirs = ap.directions()
    for _ in range(TRIALS):
        base = tuple(rand_scalar(rng, lam) for _ in range(ap.rank))
        sector = ap.sector(base, rng.choice(dirs))
        yield ap, rng, sector, rand_region(ap, rng, sector)


def panel_by_equality(ap, sector, overlap):
    """The FM scan _panel_of_sector replaced: the cut equals one of the panels."""
    cut = ap.intersect(ap.sector_region(sector), overlap)
    if ap.region_empty(cut):
        return None
    for i in range(1, ap.rank + 1):
        if ap.region_equal(cut, ap.panel_region(sector, i)):
            return i
    return None


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_sector_in_region_agrees_with_fm(name, lam):
    seen = {True: 0, False: 0}
    for ap, _, sector, region in cases(name, lam, 1):
        faces = [(0, ap.sector_region(sector))]
        faces += [(i, ap.panel_region(sector, i)) for i in range(1, ap.rank + 1)]
        for panel_type, face in faces:
            expected = ap.region_contains(region, face)
            assert ap.sector_in_region(sector, region, panel_type) == expected
            seen[expected] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_panel_of_sector_agrees_with_equality_scan(name, lam):
    matched = empty = 0
    for ap, rng, sector, region in cases(name, lam, 2):
        if rng.random() < 0.5:
            # Pin one wall so the cut is often a panel of the sector.
            i = rng.randint(1, ap.rank)
            root = ap.sector_roots(sector.direction)[i - 1]
            region = ap.intersect(region, ap.half_region(root, -1, ap.pairing(root, sector.base)))
        expected = panel_by_equality(ap, sector, region)
        assert _panel_of_sector(ap, sector, region) == expected
        matched += expected is not None
        empty += ap.region_empty(ap.intersect(ap.sector_region(sector), region))
    assert matched >= 10 and empty >= 10, (matched, empty)


@pytest.mark.parametrize("name,lam", SYSTEMS)
def test_region_half_agrees_with_region_equal(name, lam):
    found = empty = 0
    for ap, rng, sector, region in cases(name, lam, 3):
        candidates = list(region.halves) + [rand_half(ap, rng, sector) for _ in range(2)]
        half = ap.region_half(region)
        for h in candidates:
            assert (half == h) == ap.region_equal(region, ConvexRegion((h,)))
        found += half is not None
        empty += ap.region_empty(region)
    assert found >= 10 and empty >= 5, (found, empty)
