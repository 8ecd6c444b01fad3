"""The pass readers of ``Apartment`` give what the scalar paths they replace give.

A pass (``Apartment.root_dots``) holds a point's pairings with the positive roots as
ints over one denominator.  ``pass_metric`` measures two points from their passes,
``pass_signs`` reads the sign of each pairing of their difference, and ``move_pass``
gives the pass of an isometry's image from the pass of the point.  ``sign``, the one
side test that ``pass_signs``, ``holds`` and the cell table read, is the sign of a
pairing less a bound, and ``admits`` the half rule ``holds`` reads it by.  Their references
are the ``Fraction`` metric ``reference_metric`` of ``test_apartment`` (``Apartment.metric``
reads passes too, so it is checked against the same reference), the pass of the moved
point, and ``deleted_signs``: the sign vector ``LambdaScalar.signs`` gave before the
readers replaced it, kept here as the definition.

Fixture transitions have zero shifts, so the digest members are also read through
``moved_atlas``, whose transitions carry shifts and reflections, and every member's
points are also moved by the isometries of ``chart_moves``.  Fans over A2, B2 and G2
at lex rank 2 join the members, which have those roots at lex rank 1 only.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from lbk.apartment import Apartment
from lbk.axioms import Sample, _cap_pairs
from lbk.fixtures import fan
from lbk.lexq import LambdaScalar, _dots, _scaled
from lbk.rootsystem import build_root_system
from report_digest import members
from test_apartment import reference_metric
from test_atlas import seeded_base
from test_se_panels import chart_moves, moved_atlas


def deleted_signs(rows, xs, ys):
    """Per int row, the sign of sum_j row[j] * (xs[j] - ys[j]), from one integer pass over a
    common denominator of xs and ys: ``LambdaScalar.signs`` as it was."""
    n = min(len(xs), len(ys))
    d, nums = _scaled([*xs[:n], *ys[:n]])
    diffs = ([a - b for a, b in zip(x, y)] for x, y in zip(nums, nums[n:]))
    zero = [0] * xs[0].rank
    return tuple((dots > zero) - (dots < zero) for dots in _dots(rows, list(zip(*diffs))))


def values(pass_):
    """A pass as exact values: per positive root, its pairing's lex components."""
    d, dots = pass_
    return [tuple(Fraction(n, d) for n in v) for v in dots]


def atlases(group):
    digest = [atlas for _, atlas in members()] + [fan(3, roots, 2) for roots in ("A2", "B2", "G2")]
    if group == "digest":
        return digest
    return [moved_atlas(atlas, chart_moves(atlas, 1)) for atlas in digest]


def check_readers(atlas, counts):
    """Every reader against its reference, on the sample points and two seeded points per chart,
    moved by every transition value, a composite map and each chart move."""
    ap = atlas.apartment
    rng = random.Random(f"passes:{atlas.label}")
    points = [bp.point for bp in Sample(atlas).points[:12]] + [seeded_base(ap, rng) for _ in range(4)]
    isos = [iso for iso in atlas.isos if iso is not None] + chart_moves(atlas, 2)
    if len(atlas.isos) > 2:
        isos.append(atlas.through(1, 2))
    passes = {p: ap.root_dots(p) for p in points}
    for iso in isos:
        for p in points:
            assert values(ap.move_pass(iso, passes[p])) == values(ap.root_dots(iso.apply(p))), (atlas.label, iso, p)
        counts["shifted"] += any(not c.is_zero() for c in iso.shift)
        counts["reflected"] += not iso.linear.is_identity()
    for p, q in _cap_pairs(points, 60, 0, "passes"):
        want = reference_metric(ap.roots.cartan, p, q)
        assert ap.pass_metric(passes[p], passes[q]).parts == want == ap.metric(p, q).parts, (atlas.label, p, q)
        signs = ap.pass_signs(passes[p], passes[q])
        assert signs == deleted_signs(ap._metric_rows, p, q), (atlas.label, p, q)
        counts["zero signs"] += 0 in signs
    counts[(ap.roots.label, ap.lex_rank)] += 1


@pytest.mark.parametrize("group", ["digest", "moved"])
def test_pass_readers_agree_with_the_scalar_references(group):
    counts = Counter()
    for atlas in atlases(group):
        check_readers(atlas, counts)
    assert all(counts[(roots, lex_rank)] for roots in ("A1", "A2", "B2", "G2") for lex_rank in (1, 2)), counts
    assert counts["shifted"] > 100 and counts["reflected"] > 100 and counts["zero signs"] > 0, counts


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_sign_is_the_sign_of_the_pairing_less_the_bound(name, lam):
    """For every positive root beta_k, ``sign`` of p's pass at (k, bound.ints) is the sign of (beta_k, p) - bound,
    with the bound on p's wall, a rational off it, at 0|1 and 0|-1 off it (lex rank 2), and at another point's
    pairing.  ``pass_signs`` of two passes is the tuple of ``sign`` of the first against the second's dots over
    its d, also for a point against itself and against itself moved along a coordinate (by 0|-1 at lex rank 2).
    A one-half row holds p, or the germ of w at p, exactly when ``admits`` takes its sign: sense * sign is 1, or
    sign is 0 and, for a germ, the half caps no generator w.u_k of the cone."""
    ap = Apartment(build_root_system(name), lam)
    rng = random.Random(f"sign:{name}:{lam}")
    offsets = [ap.zero(), ap.scalar(Fraction(1, 3)), ap.scalar(Fraction(-1, 2))]
    offsets += [LambdaScalar([0, e]) for e in (1, -1)] if lam == 2 else []
    directions = ap.directions()
    seen = Counter()
    for _ in range(12):
        p = seeded_base(ap, rng)
        nudged = (p[0] + offsets[-1], *p[1:])
        pp = ap.root_dots(p)
        for q in (seeded_base(ap, rng), p, nudged):
            pq = ap.root_dots(q)
            for k, root in enumerate(ap.roots.positive_roots):
                value = ap.pairing(root, p)
                for bound in [value + off for off in offsets] + [ap.pairing(root, q)]:
                    side = ap.sign(pp, k, *bound.ints)
                    assert side == (value - bound).sign(), (p, root, bound)
                    seen[side] += 1
                    for sense in (1, -1):
                        region, w = ap.region([ap.half(root, sense, bound)]), rng.choice(directions)
                        caps = any(sense * sum(a * x for a, x in zip(ap.pairing_row(root), u)) < 0 for u in ap.sector_cone(w))
                        germ = sense * side > 0 or side == 0 and not caps
                        assert ap.holds(ap.rows(region), pp, w) == ap.admits(k, sense, side, w) == germ, (p, root, bound, w)
                        assert ap.region_contains_point(region, p) == ap.admits(k, sense, side) == (sense * side >= 0)
            dq, dots = pq
            want = tuple((ap.pairing(r, p) - ap.pairing(r, q)).sign() for r in ap.roots.positive_roots)
            assert ap.pass_signs(pp, pq) == tuple(ap.sign(pp, k, nums, dq) for k, nums in enumerate(dots)) == want, (p, q)
    assert min(seen[s] for s in (-1, 0, 1)) > 0, seen
