"""Reports pinned byte for byte.

``data/golden_reports.json`` holds, per member, the rendered
``equivalence_suite(..., samples=20, seed=0)`` lines and the chamber and
apartment counts of ``infinity_complex``.  It was written by this module's
``golden_reports`` before the scalar kernel moved to int numerators, so a
change in any layer's arithmetic that alters a single report byte fails here.

The last five members take the failing path: three members with their last
chart removed by ``drop_chart``, and the two broken fixtures.  Their entries
were generated before the SE, EC and A5 checkers and sector transport stopped
comparing regions by Fourier-Motzkin equality scans, so those rewrites are
pinned on verdicts that fail as well as on verdicts that pass.
Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a
report change is intended.
"""
import json
import pathlib

from lbk import equivalence_suite, fixtures, infinity_complex

DATA = pathlib.Path(__file__).parent / "data" / "golden_reports.json"

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
