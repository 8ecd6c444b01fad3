"""validate, A6 and EC walk the gluing and agree with the chart scans they replace.

``validate`` derives one reverse per distinct transition value, decides each
distinct value pair and triple once, and checks the cocycle as two routes
that agree, walking the charts k that ``Atlas.glued`` masks share for i and
j; A6 and EC walk the
glued charts of each chart.  The references below are the loops they
replaced: every chart pair and triple probed, the inverse recomputed per
triple, and the cocycle as "t_ik^-1 t_jk t_ij fixes the domain".  They run
over the 40 digest members, ``fm_fallback``, the faulty atlases of
``test_atlas`` and seeded corruptions of a few members, which break symmetry
and the cocycle with reflections and translations, or give one transition
the value of another so that a check decided per distinct value must tell
the two values apart.
"""
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from lbk import atlas as atlas_module
from lbk import fixtures
from lbk.apartment import AffineIsometry
from lbk.atlas import Atlas, Transition, ValidationReport, charts_of, validate
from lbk.axioms import check_a6, check_ec
from lbk.lexq import LambdaScalar
from lbk.linarith import GE, LinearConstraint
from report_digest import members
from test_atlas import FAULTY_ATLASES
from test_golden import fm_fallback


def corrupted(atlas, seed):
    """The atlas with two seeded transitions changed: one iso composed with a
    random isometry, and one pair left without its reverse."""
    ap = atlas.apartment
    rng = random.Random(f"gluing:{atlas.label}:{seed}")
    transitions = dict(atlas.transitions)
    pairs = sorted(transitions)
    pair = rng.choice(pairs)
    shift = tuple(LambdaScalar([Fraction(rng.randint(-2, 2)) for _ in range(ap.lex_rank)]) for _ in range(ap.rank))
    twist = ap.isometry(rng.choice(ap.directions()), shift)
    transitions[pair] = Transition(transitions[pair].region, twist.compose(transitions[pair].iso))
    del transitions[rng.choice(pairs)]
    return Atlas(ap, atlas.chart_names, transitions, label=f"{atlas.label}~{seed}")


def borrowed(atlas, seed):
    """The atlas with one seeded transition given the value of a different
    existing transition, and its reverse left as it was."""
    rng = random.Random(f"borrowed:{atlas.label}:{seed}")
    transitions = dict(atlas.transitions)
    pairs = sorted(transitions)
    pair = rng.choice(pairs)
    transitions[pair] = transitions[rng.choice([p for p in pairs if transitions[p] != transitions[pair]])]
    return Atlas(atlas.apartment, atlas.chart_names, transitions, label=f"{atlas.label}^{seed}")


def atlases():
    out = dict(members())
    out["fm_fallback"] = fm_fallback()
    out.update((build.__name__, build()) for build in FAULTY_ATLASES)
    for name in ("tree(4,1)", "tree(3,2)", "fan(3,A2)", "fan(3,B2)", "fan(4,A2)"):
        for seed in range(3):
            out[f"{name}~{seed}"] = corrupted(out[name], seed)
    for name in ("tree(4,1)", "fan(3,B2)", "fan(4,A2)"):
        for seed in range(3):
            out[f"{name}^{seed}"] = borrowed(out[name], seed)
    return out


ATLASES = atlases()


def fixes_region_reference(ap, g, region):
    """Is g the identity on every point of the region?  Each row of
    (M - I) x = -shift is checked as its two inequalities."""
    n = ap.rank
    rows = [(tuple(g.linear.matrix[r][c] - (r == c) for c in range(n)), -g.shift[r]) for r in range(n)]
    return all(
        ap.region_satisfies(region, LinearConstraint(tuple(a * sign for a in coeffs), GE, target * sign))
        for coeffs, target in rows
        for sign in (-1, 1)
    )


def validate_by_probing(atlas):
    """validate as it was: a reverse per symmetric pair, every chart k probed
    per pair (i, j), and two inverses per non-identity triple."""
    ap = atlas.apartment
    issues, notes = [], []
    pairs = sorted(atlas.transitions)
    for (i, j) in pairs:
        t = atlas.transitions[(i, j)]
        back = atlas.transition(j, i)
        label = f"({atlas.name(i)},{atlas.name(j)})"
        if back is None:
            issues.append(f"symmetry: transition {label} has no reverse")
            continue
        derived = t.reverse(ap)
        if back.iso != derived.iso:
            issues.append(f"symmetry: reverse isometry of {label} is not the inverse")
        if not ap.region_equal(back.region, derived.region):
            issues.append(f"symmetry: reverse region of {label} is not the image region")
    notes.append(f"symmetry pairs={len(pairs)}")
    for (i, j) in pairs:
        if i < j and atlas.transition(j, i) is not None:
            if not ap.region_feasible(atlas.transitions[(i, j)].region).sat:
                issues.append(f"nonempty: overlap ({atlas.name(i)},{atlas.name(j)}) is empty")
    notes.append("overlaps closed convex by construction (half-apartment constraints)")
    cocycle_checked = 0
    for (i, j) in pairs:
        tij = atlas.transitions[(i, j)]
        for k in atlas.charts():
            tjk = atlas.transition(j, k)
            tik = atlas.transition(i, k)
            if tjk is None or tik is None:
                continue
            cocycle_checked += 1
            through_j = tjk.iso.compose(tij.iso)
            if through_j == tik.iso:
                continue
            domain = ap.intersect(tij.region, ap.transform_region(tjk.region, tij.iso.inverse()), tik.region)
            if not fixes_region_reference(ap, tik.iso.inverse().compose(through_j), domain):
                issues.append(
                    "cocycle: composite through "
                    f"({atlas.name(i)},{atlas.name(j)},{atlas.name(k)}) moves overlap points"
                )
    notes.append(f"cocycle triples={cocycle_checked}")
    notes.append("chart family is reflection-saturated by representation (precomposition reindexes)")
    return ValidationReport(not issues, issues, notes)


def a6_by_scan(atlas):
    """The A6 configurations of every chart triple whose three overlaps are halves."""
    return [
        f"({atlas.name(i)},{atlas.name(j)},{atlas.name(k)})"
        for i, j, k in combinations(atlas.charts(), 3)
        if all(atlas.overlap_half(a, b) is not None for a, b in ((i, j), (i, k), (j, k)))
    ] or ["(no-triples)"]


def ec_by_scan(atlas):
    """The EC configurations of every chart pair whose two overlaps are halves."""
    return [
        f"({atlas.name(i)},{atlas.name(j)})"
        for i, j in combinations(atlas.charts(), 2)
        if None not in (atlas.overlap_half(i, j), atlas.overlap_half(j, i))
    ] or ["(no-half-apartment-pairs)"]


def test_corruptions_break_symmetry_and_the_cocycle():
    reports = [validate(atlas) for name, atlas in ATLASES.items() if "~" in name]
    issues = [issue.split(":")[0] for report in reports for issue in report.issues]
    assert not any(report.ok for report in reports)
    assert {"symmetry", "cocycle"} <= set(issues)
    assert any("reverse isometry" in issue for report in reports for issue in report.issues)


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_validate_agrees_with_the_probing_loop(name):
    atlas = ATLASES[name]
    assert validate(atlas).lines() == validate_by_probing(atlas).lines()


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_a6_and_ec_configs_agree_with_the_chart_scans(name):
    atlas = ATLASES[name]
    assert [line.config for line in check_a6(atlas).lines] == a6_by_scan(atlas)
    assert [line.config for line in check_ec(atlas).lines] == ec_by_scan(atlas)


def test_glued_lists_the_charts_with_a_transition_in_chart_order():
    for atlas in ATLASES.values():
        for i in atlas.charts():
            assert charts_of(atlas.glued(i)) == [j for j in atlas.charts() if atlas.transition(i, j) is not None]


def test_validate_inverts_each_transition_once(monkeypatch):
    atlas = fixtures.lambda_tree(8, 1)
    calls = []
    inverse = AffineIsometry.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(AffineIsometry, "inverse", counted)
    assert validate(atlas).ok
    assert len(calls) == len(set(atlas.transitions.values())) == 4


def test_validate_decides_each_distinct_value_triple_once(monkeypatch):
    """tree(16,1) has 3,360 transitions and 47,040 cocycle triples over 4 distinct
    transition values: validate inverts each value once, composes each distinct
    (t_ij, t_jk, t_ik) value triple once and checks a domain only for the triples
    whose composite is not t_ik."""
    atlas = fixtures.lambda_tree(16, 1)
    t = atlas.transitions
    ids = {}
    tid = {pair: ids.setdefault(value, len(ids)) for pair, value in t.items()}
    values = list(ids)
    triples = {
        (tid[(i, j)], tid[(j, k)], tid[(i, k)]) for (i, j) in t for k in charts_of(atlas.glued(j)) if (i, k) in t
    }
    moving = [(a, b, c) for a, b, c in triples if values[b].iso.compose(values[a].iso) != values[c].iso]
    calls = {"inverse": 0, "compose": 0, "agree": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(AffineIsometry, "inverse", counting("inverse", AffineIsometry.inverse))
    monkeypatch.setattr(AffineIsometry, "compose", counting("compose", AffineIsometry.compose))
    monkeypatch.setattr(atlas_module, "_agree_on", counting("agree", atlas_module._agree_on))
    report = validate(atlas)
    assert report.ok and "cocycle triples=47040" in report.notes
    assert calls["inverse"] == len(values) == 4
    assert calls["compose"] <= len(triples)
    assert calls["agree"] <= len(moving)


def test_a6_reads_each_glued_pair_not_every_triple(monkeypatch):
    atlas = fixtures.lambda_tree(16, 1)
    calls = []
    overlap_half = Atlas.overlap_half

    def counted(self, i, j):
        calls.append((i, j))
        return overlap_half(self, i, j)

    monkeypatch.setattr(Atlas, "overlap_half", counted)
    report = check_a6(atlas)
    assert report.verdict == "pass" and len(report.lines) == 7840
    assert len(calls) <= 16000


def test_validate_walks_no_triple_of_a_valid_atlas(monkeypatch):
    """On tree(16,1), which is valid, validate decides the cocycle from per-value chart masks: it visits
    no triple's chart k (no charts_of call), and it reads the cocycle table once per (pair, b, c) value
    combination that the pair meets (9,600), far fewer times than the 47,040 triples a walk reads."""
    atlas = fixtures.lambda_tree(16, 1)
    t = atlas.transitions
    ids = {}
    tid = {pair: ids.setdefault(value, len(ids)) for pair, value in sorted(t.items())}
    combinations_met = {((i, j), tid[(j, k)], tid[(i, k)]) for (i, j) in t for k in charts_of(atlas.glued(i) & atlas.glued(j))}
    reads, visits = Counter(), []

    def counting_cache(fn):
        memo = cache(fn)

        def read(*args):
            reads[fn.__name__] += 1
            return memo(*args)

        return read

    monkeypatch.setattr(atlas_module, "cache", counting_cache)
    monkeypatch.setattr(atlas_module, "charts_of", lambda mask: visits.append(mask) or charts_of(mask))
    report = validate(atlas)
    assert report.ok and "cocycle triples=47040" in report.notes
    assert not visits
    assert reads["cocycle"] == len(combinations_met) < 47040 // 4, (reads, len(combinations_met))
