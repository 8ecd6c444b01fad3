"""Deterministic model generators: positive and negative test atlases.

Trees are rank-1 atlases whose charts are end pairs glued along shared rays;
fans are rank-2 atlases made of half-apartments sharing one boundary wall.
The two negative generators are structurally clean (they validate) but are
built to break specific exchange/intersection properties.
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional

from .apartment import Apartment, ConvexRegion
from .atlas import Atlas, Transition
from .rootsystem import build_root_system


def _apartment(roots: str, lam: int) -> Apartment:
    return Apartment(build_root_system(roots), lam)


def single_apartment(roots: str = "A2", lam: int = 1) -> Atlas:
    """One chart, no gluing: the thin model."""
    ap = _apartment(roots, lam)
    return Atlas(ap, ["1"], {}, label=f"single {roots} lambda={lam}")


MAX_ENDS = 32  # E ends make E(E-1)/2 charts, and a fan glues every two of them


def _pair_name(a: int, b: int) -> str:
    return f"{a}{b}" if a < 10 and b < 10 else f"{a}-{b}"


def _end_pairs(ap: Apartment, ends: int, label: str, disjoint: Optional[ConvexRegion] = None) -> Atlas:
    """One chart per end pair {a,b} (a < b), both directions of each gluing, one transition per gluing value.

    In chart {a,b} end a is the nonnegative side of the alpha_1 wall through
    the origin and end b the nonpositive side.  Charts sharing an end overlap
    on that end's side, glued by the identity or by r_1; charts without one
    are glued on ``disjoint`` by the identity, or not at all when it is None.
    """
    if not 2 <= ends <= MAX_ENDS:
        raise ValueError(f"end count must be in 2..{MAX_ENDS}")
    pairs = list(combinations(range(1, ends + 1), 2))
    side_of = {s: ap.half_region(ap.roots.simple_root(1), s, ap.zero()) for s in (1, -1)}
    identity = ap.isometry(ap.roots.identity())
    flip = ap.isometry(ap.roots.simple(1))
    glue = {(si, sj): Transition(side_of[si], identity if si == sj else flip) for si in (1, -1) for sj in (1, -1)}
    apart = None if disjoint is None else Transition(disjoint, identity)

    transitions: dict[tuple[int, int], Transition] = {}
    for i, (a, b) in enumerate(pairs):
        for j, pj in enumerate(pairs):
            if i == j:
                continue
            if a in pj or b in pj:
                end = a if a in pj else b  # the one end the two pairs share
                transitions[(i, j)] = glue[1 if end == a else -1, 1 if end == pj[0] else -1]
            elif apart is not None:
                transitions[(i, j)] = apart
    return Atlas(ap, [_pair_name(a, b) for a, b in pairs], transitions, label=label)


def lambda_tree(ends: int, lam: int = 1) -> Atlas:
    """Tree with the given number of ends: one rank-1 chart per end pair,
    every branch point at the chart origin."""
    return _end_pairs(_apartment("A1", lam), ends, f"tree ends={ends} lambda={lam}")


def fan(leaves: int, roots: str = "A2", lam: int = 1) -> Atlas:
    """Half-apartments sharing one wall; charts are unordered leaf pairs.

    Charts with disjoint leaf pairs still meet: in the wall itself.
    """
    ap = _apartment(roots, lam)
    if ap.rank != 2:
        raise ValueError("fan fixtures use a rank-2 root system")
    label = f"fan leaves={leaves} roots={roots} lambda={lam}"
    return _end_pairs(ap, leaves, label, disjoint=ap.wall_region((1, 0), ap.zero()))


def broken_pair(lam: int = 1) -> Atlas:
    """Two lines glued along a ray with no third chart: exchange fails."""
    ap = _apartment("A1", lam)
    zero = ap.zero()
    identity = ap.isometry(ap.roots.identity())
    region = ap.half_region((1,), 1, zero)
    transitions = {
        (0, 1): Transition(region, identity),
        (1, 0): Transition(region, identity),
    }
    return Atlas(ap, ["1", "2"], transitions, label=f"broken-pair lambda={lam}")


def shifted_rays(lam: int = 1) -> Atlas:
    """Three lines with pairwise ray overlaps whose triple intersection is empty."""
    ap = _apartment("A1", lam)
    identity = ap.isometry(ap.roots.identity())

    def ray(sense: int, bound: int):
        return ap.half_region((1,), sense, ap.scalar(bound))

    transitions = {
        (0, 1): Transition(ray(1, 0), identity),
        (1, 0): Transition(ray(1, 0), identity),
        (0, 2): Transition(ray(-1, -1), identity),
        (2, 0): Transition(ray(-1, -1), identity),
        (1, 2): Transition(ray(-1, -2), identity),
        (2, 1): Transition(ray(-1, -2), identity),
    }
    return Atlas(ap, ["1", "2", "3"], transitions, label=f"shifted-rays lambda={lam}")


def drop_chart(atlas: Atlas, name) -> Atlas:
    """A copy of the atlas with one chart removed (for pruned negatives)."""
    gone = atlas.index(name)
    keep = [i for i in atlas.charts() if i != gone]
    renumber = {old: new for new, old in enumerate(keep)}
    names = [atlas.name(i) for i in keep]
    transitions = {
        (renumber[i], renumber[j]): t
        for (i, j), t in atlas.transitions.items()
        if i != gone and j != gone
    }
    return Atlas(atlas.apartment, names, transitions, label=f"{atlas.label} minus {atlas.name(gone)}")
