"""Two sha256 digests over the reports of 40 fixture members.

The members are the 20 ladder members (in the order of ``bench/workloads.py``),
their 18 variants of at least 3 charts minus the last chart, named
``<member>-<last chart>``, then ``broken_pair`` and ``shifted_rays``.

* report digest: per member its name, the lines of
  ``equivalence_suite(atlas, samples=80, seed=0).rendered()`` and of
  ``infinity_complex(atlas).lines()``;
* validate digest: per member its name and ``validate(atlas).lines()``.

Every line ends in ``\\n``.  Run ``PYTHONPATH=src python tests/report_digest.py``
to print both; ``--check`` exits 1 when either differs from the pinned value.
"""
from __future__ import annotations

import hashlib
import sys

from lbk import equivalence_suite, fixtures, infinity_complex, validate

REPORT = "d7c833cb94c48ab20d143f835ce8069c6044a92abe3024956e7fa298bc5e3dfd"
VALIDATE = "b6ad7a9da02f461133c8682e21f37cdf4a75562815c5f9903f7fa49c1313a4f3"

# (name, family, size, roots, lex rank), as in bench/workloads.py.
LADDER = (
    [(f"tree({n},{lam})", "tree", n, "A1", lam) for lam in (1, 2) for n in range(3, 9)]
    + [(f"fan({m},{r})", "fan", m, r, 1) for r in ("A2", "B2") for m in (3, 4, 5)]
    + [("single(A2)", "single", 1, "A2", 1), ("single(G2)", "single", 1, "G2", 1)]
)


def build(family, size, roots, lam):
    if family == "tree":
        return fixtures.lambda_tree(size, lam)
    if family == "fan":
        return fixtures.fan(size, roots, lam)
    return fixtures.single_apartment(roots, lam)


def members():
    whole = [(name, build(*spec)) for name, *spec in LADDER]
    yield from whole
    for name, atlas in whole:
        if atlas.size >= 3:
            last = atlas.size - 1
            yield f"{name}-{atlas.name(last)}", fixtures.drop_chart(atlas, last)
    yield "broken_pair", fixtures.broken_pair()
    yield "shifted_rays", fixtures.shifted_rays()


def digests() -> tuple[str, str]:
    report = hashlib.sha256()
    checks = hashlib.sha256()
    for name, atlas in members():
        lines = [name, *equivalence_suite(atlas, samples=80, seed=0).rendered()]
        lines += infinity_complex(atlas).lines()
        report.update("".join(f"{line}\n" for line in lines).encode())
        checks.update("".join(f"{line}\n" for line in [name, *validate(atlas).lines()]).encode())
    return report.hexdigest(), checks.hexdigest()


def main(argv: list[str]) -> int:
    report, checks = digests()
    print(f"report {report}")
    print(f"validate {checks}")
    if "--check" in argv and (report, checks) != (REPORT, VALIDATE):
        print(f"expected report {REPORT} and validate {VALIDATE}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
