"""Deterministic model generators: positive and negative test atlases.

Trees are rank-1 atlases whose charts are end pairs glued along shared rays;
fans are rank-2 atlases made of half-apartments sharing one boundary wall.
The two negative generators are structurally clean (they validate) but are
built to break specific exchange/intersection properties.
"""
from __future__ import annotations

from itertools import combinations

from .apartment import Apartment
from .atlas import Atlas, Transition
from .rootsystem import build_root_system


def _apartment(roots: str, lam: int) -> Apartment:
    return Apartment(build_root_system(roots), lam)


def single_apartment(roots: str = "A2", lam: int = 1) -> Atlas:
    """One chart, no gluing: the thin model."""
    ap = _apartment(roots, lam)
    return Atlas(ap, ["1"], {}, label=f"single {roots} lambda={lam}")


def _pair_name(a: int, b: int) -> str:
    return f"{a}{b}" if a < 10 and b < 10 else f"{a}-{b}"


def lambda_tree(ends: int, lam: int = 1) -> Atlas:
    """Tree with the given number of ends: one rank-1 chart per end pair.

    All branch points sit at the chart origin.  In chart {i,j} (i < j) the
    ray toward end i is the nonnegative side of the wall at the origin, the
    ray toward end j the nonpositive side.
    """
    if ends < 2:
        raise ValueError("a tree needs at least 2 ends")
    ap = _apartment("A1", lam)
    pairs = list(combinations(range(1, ends + 1), 2))
    names = [_pair_name(a, b) for a, b in pairs]
    zero = ap.zero()
    identity = ap.isometry(ap.roots.identity())
    flip = ap.isometry(ap.roots.simple(1))

    def side(pair: tuple[int, int], end: int) -> int:
        return 1 if end == pair[0] else -1

    transitions: dict[tuple[int, int], Transition] = {}
    for i, pi in enumerate(pairs):
        for j, pj in enumerate(pairs):
            if i == j:
                continue
            shared = set(pi) & set(pj)
            if not shared:
                continue
            end = shared.pop()
            si, sj = side(pi, end), side(pj, end)
            region = ap.half_region((1,), si, zero)
            iso = identity if si == sj else flip
            transitions[(i, j)] = Transition(region, iso)
    return Atlas(ap, names, transitions, label=f"tree ends={ends} lambda={lam}")


def fan(leaves: int, roots: str = "A2", lam: int = 1) -> Atlas:
    """Half-apartments sharing one wall; charts are unordered leaf pairs.

    In chart {a,b} (a < b) leaf a is the nonnegative side of the alpha_1 wall
    through the origin and leaf b the nonpositive side.  Charts with disjoint
    leaf pairs still meet: in the wall itself.
    """
    if leaves < 2:
        raise ValueError("a fan needs at least 2 leaves")
    ap = _apartment(roots, lam)
    if ap.rank != 2:
        raise ValueError("fan fixtures use a rank-2 root system")
    pairs = list(combinations(range(1, leaves + 1), 2))
    names = [_pair_name(a, b) for a, b in pairs]
    zero = ap.zero()
    identity = ap.isometry(ap.roots.identity())
    mirror = ap.isometry(ap.roots.simple(1))
    wall = ap.wall_region((1, 0), zero)

    def side(pair: tuple[int, int], leaf: int) -> int:
        return 1 if leaf == pair[0] else -1

    transitions: dict[tuple[int, int], Transition] = {}
    for i, pi in enumerate(pairs):
        for j, pj in enumerate(pairs):
            if i == j:
                continue
            shared = set(pi) & set(pj)
            if shared:
                leaf = min(shared)
                si, sj = side(pi, leaf), side(pj, leaf)
                region = ap.half_region((1, 0), si, zero)
                iso = identity if si == sj else mirror
            else:
                region = wall
                iso = identity
            transitions[(i, j)] = Transition(region, iso)
    return Atlas(ap, names, transitions, label=f"fan leaves={leaves} roots={roots} lambda={lam}")


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
