"""Reports pinned byte for byte.

``data/golden_reports.json`` holds, per member, the rendered
``equivalence_suite(..., samples=20, seed=0)`` lines, the chamber and
apartment counts of ``infinity_complex``, the ``validate`` lines and the full
``infinity_complex`` lines.  It was written by this module's
``golden_reports`` before the scalar kernel moved to int numerators, so a
change in any layer's arithmetic that alters a single report byte fails here.

The last five members take the failing path: three members with their last
chart removed by ``drop_chart``, and the two broken fixtures.  Their entries
were generated before the SE, EC and A5 checkers and sector transport stopped
comparing regions by Fourier-Motzkin equality scans, so those rewrites are
pinned on verdicts that fail as well as on verdicts that pass.

The ``validate`` and ``infinity`` entries, and the ``fm_fallback`` member,
were generated before fits, containment and cocycles were first answered
from the regions' own halves.  ``fm_fallback`` is a rank-2 atlas on which
those shortcuts cannot decide everything: a reverse region that is not the
image region, a reverse region equal to the image only through a half that
no single half implies, a reflection cocycle whose triple domain its halves
do not pin, so elimination must find a moving point, a translation cocycle
with the right linear part, and an empty overlap.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a
report change is intended.
"""
import json
import pathlib

from lbk import equivalence_suite, fixtures, infinity_complex
from lbk.apartment import Apartment
from lbk.atlas import Atlas, Transition, validate
from lbk.rootsystem import build_root_system

DATA = pathlib.Path(__file__).parent / "data" / "golden_reports.json"


def fm_fallback() -> Atlas:
    """Five A2 charts glued so that each shortcut has to fall back to FM.

    * (a,b) and (b,a) are the identity on different halves: the reverse
      region is not the image region.
    * (c,a) is the image of (a,c) plus the half alpha_2 >= 0, which only the
      two image halves together imply.
    * (a,c) is the reflection r_1 on the quadrant {alpha_1 >= 0, alpha_2 >= 0};
      through b its cocycle is r_1 on a domain that does not pin alpha_1, so
      it moves points.  Through d the domain lies in the wall of r_1.
    * (d,e) is a translation and (b,d), (b,e) the identity, so the cocycle
      through d has the right linear part and moves every point.
    * (c,d) is empty.
    """
    ap = Apartment(build_root_system("A2"), 1)
    identity = ap.isometry(ap.roots.identity())
    r1 = ap.isometry(ap.roots.simple(1))
    a1, a2, a12 = (1, 0), (0, 1), (1, 1)
    quadrant = ap.region([ap.half(a1, 1, 0), ap.half(a2, 1, 0)])
    image = ap.intersect(
        ap.transform_region(quadrant, r1),
        ap.transform_region(ap.half_region(a12, 1, 0), r1),
    )
    upper = ap.half_region(a2, 1, 0)
    empty = ap.region([ap.half(a2, 1, 1), ap.half(a2, -1, 0)])
    shift = ap.isometry(ap.roots.identity(), ap.simple_point(0, 1))
    transitions = {
        (0, 1): Transition(ap.half_region(a1, 1, 0), identity),
        (1, 0): Transition(ap.half_region(a1, 1, 1), identity),
        (0, 2): Transition(quadrant, r1),
        (2, 0): Transition(image, r1),
        (1, 2): Transition(ap.half_region(a12, -1, 3), identity),
        (2, 1): Transition(ap.half_region(a12, -1, 3), identity),
        (0, 3): Transition(ap.wall_region(a1, 0), r1),
        (3, 0): Transition(ap.wall_region(a1, 0), r1),
        (1, 3): Transition(upper, identity),
        (3, 1): Transition(upper, identity),
        (2, 3): Transition(empty, identity),
        (3, 2): Transition(empty, identity),
        (1, 4): Transition(upper, identity),
        (4, 1): Transition(upper, identity),
        (3, 4): Transition(upper, shift),
        (4, 3): Transition(ap.transform_region(upper, shift), shift.inverse()),
    }
    return Atlas(ap, ["a", "b", "c", "d", "e"], transitions, label="fm-fallback")


MEMBERS = {
    "tree(4,1)": lambda: fixtures.lambda_tree(4, 1),
    "tree(4,2)": lambda: fixtures.lambda_tree(4, 2),
    "fan(3,A2)": lambda: fixtures.fan(3, "A2"),
    "fan(3,B2)": lambda: fixtures.fan(3, "B2"),
    "single(G2)": lambda: fixtures.single_apartment("G2"),
    "tree(4,1)-34": lambda: fixtures.drop_chart(fixtures.lambda_tree(4, 1), "34"),
    "fan(3,A2)-23": lambda: fixtures.drop_chart(fixtures.fan(3, "A2"), "23"),
    "fan(3,B2)-23": lambda: fixtures.drop_chart(fixtures.fan(3, "B2"), "23"),
    "broken_pair": fixtures.broken_pair,
    "shifted_rays": fixtures.shifted_rays,
}


def golden_reports() -> dict:
    out = {}
    for name, build in MEMBERS.items():
        atlas = build()
        cx = infinity_complex(atlas)
        out[name] = {
            "lines": equivalence_suite(atlas, samples=20, seed=0).rendered(),
            "chambers": cx.chamber_count,
            "apartments": cx.apartment_count,
            "validate": validate(atlas).lines(),
            "infinity": cx.lines(),
        }
    # fm_fallback fails validate, which the exchange suite does not expect.
    atlas = fm_fallback()
    out["fm_fallback"] = {
        "validate": validate(atlas).lines(),
        "infinity": infinity_complex(atlas).lines(),
    }
    return out


def test_reports_match_golden():
    expected = json.loads(DATA.read_text())
    got = golden_reports()
    assert list(got) == list(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(golden_reports(), indent=1) + "\n")
