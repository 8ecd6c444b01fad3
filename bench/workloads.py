"""The benchmark's three workloads: their ops, their seeded inputs and the
checks on every output.

``ladder`` decides every member of the fixture ladder (trees with 3-8 ends at
lex rank 1 and 2, fans of 3-5 leaves over A2 and B2, single A2 and G2
charts); every verdict passes.  ``pruned`` decides the same members with
their last chart removed, plus the two broken fixtures; verdicts fail and the
chart scans run to the end.  ``queries`` answers, in equal numbers, the
library calls behind ``lbk distance``, ``lbk retract`` and ``lbk gallery``,
and ``germ_coapartment``, on a few prebuilt members; its cost is scalar
arithmetic plus the FM solves of the coapartment queries.

Each workload's ``set_up(lbk, seed)`` builds its inputs from the seed and
returns the list of ops of one pass.  An op's ``check`` returns whether the op
failed through the known fault, and a list of problems with its output.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle

# Sample size handed to equivalence_suite: A3 checks min(80, 60) pairs, A4
# 80, A5 80 per retraction target.
SAMPLES = 80

# The checker seed of ``pruned``.  Its A1-A4 gate is decided on a sample, and
# which pruned members slip through it depends on the seed (three at seed 0,
# none at seed 1).  Those members are counted as failed ops; a fixed checker
# seed keeps their number the same in every run.
PRUNED_CHECKER_SEED = 0

ALARM = "exchange-equivalence-broken A6=pass EC=fail SE=fail"

# (name, family, size, roots, lex rank)
LADDER = (
    [(f"tree({n},{lam})", "tree", n, "A1", lam) for lam in (1, 2) for n in range(3, 9)]
    + [(f"fan({m},{r})", "fan", m, r, 1) for r in ("A2", "B2") for m in (3, 4, 5)]
    + [("single(A2)", "single", 1, "A2", 1), ("single(G2)", "single", 1, "G2", 1)]
)

# Members the queries run against, and per member and pass the number of
# queries of each kind.  Nothing records how often each kind is asked in real
# use, so every kind has an equal share.
QUERY_MEMBERS = ("tree(5,1)", "tree(4,2)", "fan(4,A2)", "fan(3,B2)", "single(G2)")
QUERY_KINDS = ("distance", "retract", "coapartment", "gallery")
QUERIES_PER_KIND = 100


@dataclass
class Op:
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, list[str]]]


def build(lbk, family: str, size: int, roots: str, lam: int):
    fx = lbk.fixtures
    if family == "tree":
        atlas = fx.lambda_tree(size, lam)
    elif family == "fan":
        atlas = fx.fan(size, roots, lam)
    else:
        atlas = fx.single_apartment(roots, lam)
    atlas.apartment.directions()  # the Weyl group is enumerated lazily; do it in set-up
    return atlas


def decide(lbk, atlas, seed: int):
    """One op of ``ladder`` and ``pruned``: the exchange suite, then the complex at infinity."""
    return lbk.equivalence_suite(atlas, samples=SAMPLES, seed=seed), lbk.infinity_complex(atlas)


def _lex(point) -> tuple:
    return tuple(c.parts for c in point)


def _a6_witness_problems(atlas, report) -> list[str]:
    """Every A6 witness must lie in both overlaps, checked by substitution."""
    pairing = oracle.pairing(atlas.apartment.roots.cartan)
    problems = []
    for line in report.lines:
        if line.verdict != "pass" or not line.detail.startswith("witness="):
            continue
        i, j, k = (atlas.index(name) for name in line.config.strip("()").split(","))
        point = oracle.parse_point(line.detail[len("witness="):])
        halves = atlas.overlap_region(i, j).halves + atlas.overlap_region(i, k).halves
        if not all(pairing.holds(h.root, h.sense, h.bound.parts, point) for h in halves):
            problems.append(f"A6 witness {line.detail} misses the overlap {line.config}")
    return problems


def _count_problems(cx, expected) -> list[str]:
    got = (cx.chamber_count, cx.apartment_count)
    return [] if got == expected else [f"chambers/apartments {got}, expected {expected}"]


# -- ladder ---------------------------------------------------------------------


def ladder_set_up(lbk, seed: int) -> list[Op]:
    ops = []
    for name, family, size, roots, lam in LADDER:
        atlas = build(lbk, family, size, roots, lam)
        expected = oracle.expected_counts(family, size, roots, pruned=False)
        ops.append(_ladder_op(lbk, name, atlas, seed, expected))
    return ops


def _ladder_op(lbk, name, atlas, seed, expected) -> Op:
    def check(result):
        report, cx = result
        problems = [f"{a}={r.verdict}" for a, r in report.reports.items() if r.verdict != "pass"]
        if not report.precondition_ok:
            problems.append("precondition unmet")
        problems += [f"ALARM {a}" for a in report.alarms]
        problems += _a6_witness_problems(atlas, report.reports["A6"])
        problems += _count_problems(cx, expected)
        problems += [f"infinity: {issue}" for issue in cx.issues]
        return False, problems

    return Op(name, lambda: decide(lbk, atlas, seed), check)


# -- pruned ---------------------------------------------------------------------


def pruned_set_up(lbk, seed: int) -> list[Op]:
    ops = []
    for name, family, size, roots, lam in LADDER:
        whole = build(lbk, family, size, roots, lam)
        if whole.size < 3:
            continue
        atlas = lbk.fixtures.drop_chart(whole, whole.size - 1)
        label = f"{name}-{whole.name(whole.size - 1)}"
        expected = oracle.expected_counts(family, size, roots, pruned=True)
        ops.append(_pruned_op(lbk, label, atlas, {"A6": "pass", "EC": "fail", "SE": "fail"}, expected))
    broken = {
        "broken_pair": (lbk.fixtures.broken_pair(), {"EC": "fail", "SE": "fail"}),
        "shifted_rays": (lbk.fixtures.shifted_rays(), {"A6": "fail"}),
    }
    for label, (atlas, verdicts) in broken.items():
        atlas.apartment.directions()
        ops.append(_pruned_op(lbk, label, atlas, verdicts, None))
    random.Random(f"bench:pruned:{seed}").shuffle(ops)
    return ops


def _pruned_op(lbk, name, atlas, verdicts, expected) -> Op:
    def check(result):
        report, cx = result
        problems = [
            f"{a}={report.reports[a].verdict}, expected {v}"
            for a, v in verdicts.items()
            if report.reports[a].verdict != v
        ]
        # The removed chart was the only one through both of its ends, so A3
        # is false and the gate must stay shut.  A gate that passes anyway is
        # the sampled-gate fault: the op fails, with the ALARM it causes.
        failed = report.precondition_ok
        if failed and report.alarms != [ALARM]:
            problems.append(f"gate passed with alarms {report.alarms}")
        if not failed and report.alarms:
            problems.append(f"alarms behind a shut gate: {report.alarms}")
        if expected is not None:
            problems += _count_problems(cx, expected)
        return failed, problems

    return Op(name, lambda: decide(lbk, atlas, PRUNED_CHECKER_SEED), check)


# -- queries --------------------------------------------------------------------


def queries_set_up(lbk, seed: int) -> list[Op]:
    rng = random.Random(f"bench:queries:{seed}")
    specs = {name: rest for name, *rest in LADDER}
    ops = []
    for member in QUERY_MEMBERS:
        atlas = build(lbk, *specs[member])
        maker = _QueryMaker(lbk, atlas, rng)
        for kind in QUERY_KINDS:
            ops += [getattr(maker, kind)() for _ in range(QUERIES_PER_KIND)]
    rng.shuffle(ops)
    return ops


class _QueryMaker:
    """Seeded inputs for one member, and the op and checks of each query kind."""

    def __init__(self, lbk, atlas, rng: random.Random):
        self.lbk = lbk
        self.atlas = atlas
        self.ap = atlas.apartment
        self.rng = rng
        dirs = self.ap.directions()
        last = atlas.size - 1
        self.retractions = [
            lbk.build_retraction(atlas, self._germ(0, dirs[0], self.ap.origin()), 0),
            lbk.build_retraction(atlas, self._germ(last, dirs[-1], self.ap.origin()), last),
        ]

    def _germ(self, chart, w, base):
        return self.lbk.BuildingGerm(chart, self.ap.sector(base, w))

    def _point(self, chart=None):
        if chart is None:
            chart = self.rng.randrange(self.atlas.size)
        coords = tuple(
            self.lbk.LambdaScalar(
                Fraction(self.rng.randint(-12, 12), self.rng.randint(1, 12))
                for _ in range(self.ap.lex_rank)
            )
            for _ in range(self.ap.rank)
        )
        return self.lbk.BuildingPoint(chart, coords)

    def _random_germ(self):
        bp = self._point()
        return self._germ(bp.chart, self.rng.choice(self.ap.directions()), bp.point)

    def distance(self) -> Op:
        lbk, atlas = self.lbk, self.atlas
        bp = self._point()
        # Half of the pairs share their chart, so the reference metric applies.
        bq = self._point(bp.chart if self.rng.random() < 0.5 else None)

        def check(d):
            problems = []
            reference = oracle.pairing(self.ap.roots.cartan)
            if bp.chart == bq.chart and d.parts != reference.distance(_lex(bp.point), _lex(bq.point)):
                problems.append(f"distance {d} differs from the reference")
            if lbk.global_distance(atlas, bq, bp) != d:
                problems.append("distance is not symmetric")
            if not lbk.global_distance(atlas, bp, bp).is_zero():
                problems.append("distance to itself is not zero")
            return False, problems

        return Op("distance", lambda: lbk.global_distance(atlas, bp, bq), check)

    def retract(self) -> Op:
        lbk, atlas = self.lbk, self.atlas
        rho = self.rng.choice(self.retractions)
        # One point in three lies in the target chart, where rho is the identity.
        points = [
            self._point(rho.chart if self.rng.random() < 1 / 3 else None) for _ in range(2)
        ]

        def check(images):
            problems = []
            for bp, img in zip(points, images):
                if img.chart != rho.chart:
                    problems.append("image outside the target chart")
                elif bp.chart == rho.chart and img.point != bp.point:
                    problems.append("retraction moves a point of the target chart")
            before = lbk.global_distance(atlas, *points).parts
            reference = oracle.pairing(self.ap.roots.cartan)
            after = reference.distance(_lex(images[0].point), _lex(images[1].point))
            if after > before:
                problems.append("retraction increases a distance")
            return False, problems

        return Op("retract", lambda: [rho.evaluate(bp) for bp in points], check)

    def coapartment(self) -> Op:
        lbk, atlas = self.lbk, self.atlas
        g1, g2 = self._random_germ(), self._random_germ()

        def check(result):
            if result.chart is None or result.verdict != "pass":
                return False, [f"no coapartment: {result.stages}"]
            if atlas.transport_germ(g1, result.chart) is None or atlas.transport_germ(g2, result.chart) is None:
                return False, ["coapartment chart misses a germ"]
            return False, []

        return Op("coapartment", lambda: lbk.germ_coapartment(atlas, g1, g2), check)

    def gallery(self) -> Op:
        atlas, ap = self.atlas, self.ap
        g1 = self._random_germ()
        g2 = self._germ(g1.chart, self.rng.choice(ap.directions()), g1.base)

        def run():
            # The lookup behind ``lbk gallery``: the first chart holding both germs.
            for c in atlas.charts():
                s1 = atlas.transport_germ(g1, c)
                s2 = atlas.transport_germ(g2, c)
                if s1 is not None and s2 is not None:
                    return c, ap.germ_distance(s1.germ(), s2.germ()), ap.gallery(s1.germ(), s2.germ())
            return None

        def check(result):
            if result is None:
                return False, ["germs share no chart"]
            _, delta, types = result
            if len(types) != delta.length:
                return False, [f"gallery {types} has not the length of {delta!r}"]
            return False, []

        return Op("gallery", run, check)


WORKLOADS = {"ladder": ladder_set_up, "pruned": pruned_set_up, "queries": queries_set_up}
