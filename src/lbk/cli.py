"""Command line frontend: parse model files, run checkers, emit reports.

Exit codes: 0 all pass, 1 any failure, 2 malformed input.  3 (inconclusive)
is reserved for the budgeted exact searches of ROADMAP items 1 and 5.
Reports are deterministic for a fixed seed.
"""
from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import axioms as ax
from . import fixtures
from .atlas import Atlas, DistanceDisagreementError, NoCommonChartError, global_distance, validate
from .infinity import infinity_complex
from .modelfile import (
    ModelFormatError,
    format_point,
    format_scalar,
    format_word,
    parse_germ_arg,
    parse_model,
    parse_point_arg,
    serialize_model,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_INCONCLUSIVE = 3

def _load(path: str) -> Atlas:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_model(fh.read())
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc.strerror}") from None


def _emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ModelFormatError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(chunks)


def _cmd_validate(args) -> int:
    atlas = _load(args.model)
    report = validate(atlas)
    print("\n".join(report.lines()))
    return EXIT_PASS if report.ok else EXIT_FAIL


def _cmd_axioms(args) -> int:
    atlas = _load(args.model)
    order = ax.AXIOM_ORDER
    wanted = order if not args.only else [w.strip().upper() for w in args.only.split(",")]
    for w in wanted:
        if w not in order:
            raise ModelFormatError(f"unknown axiom {w!r} (choose from {','.join(order)})")
    if set(ax.SUITE) <= set(wanted):
        suite = ax.equivalence_suite(atlas, args.samples, args.seed)
        reports = suite.reports
        lines = chain(*(reports[name].render() for name in ("A1", "A2") if name in wanted), suite.render())
    else:
        reports = ax.run_axioms(atlas, wanted, args.samples, args.seed)
        lines = chain.from_iterable(report.render() for report in reports.values())
    _emit((line + "\n" for line in lines), args.output)  # each line written as it is rendered
    verdicts = {reports[name].verdict for name in wanted}
    if ax.FAIL in verdicts:
        return EXIT_FAIL
    if ax.INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _cmd_distance(args) -> int:
    atlas = _load(args.model)
    p = parse_point_arg(args.point1, atlas)
    q = parse_point_arg(args.point2, atlas)
    try:
        value = global_distance(atlas, p, q)
    except (NoCommonChartError, DistanceDisagreementError) as exc:
        print(f"fail: {exc}")
        return EXIT_FAIL
    print(format_scalar(value))
    return EXIT_PASS


def _cmd_retract(args) -> int:
    atlas = _load(args.model)
    chart = atlas.index(args.chart)
    germ = parse_germ_arg(args.germ, atlas)
    try:
        rho = ax.build_retraction(atlas, germ, chart)
    except ax.TheoremViolation as exc:
        print(f"fail: {exc}")
        return EXIT_FAIL
    code = EXIT_PASS
    for literal in args.points:
        bp = parse_point_arg(literal, atlas)
        try:
            image = rho.evaluate(bp)
        except ax.TheoremViolation as exc:
            print(f"fail: {exc}")
            code = EXIT_FAIL
            continue
        print(f"chart:{atlas.name(image.chart)} {format_point(image.point)}")
    return code


def _cmd_infinity(args) -> int:
    atlas = _load(args.model)
    complex_ = infinity_complex(atlas)
    print("\n".join(complex_.lines()))
    return EXIT_PASS if not complex_.issues else EXIT_FAIL


def _cmd_gallery(args) -> int:
    atlas = _load(args.model)
    g1 = parse_germ_arg(args.germ1, atlas)
    g2 = parse_germ_arg(args.germ2, atlas)
    found = atlas.first_held(g1, g2)
    if found is None:
        print("fail: germs share no chart")
        return EXIT_FAIL
    _, (s1, s2) = found
    ap = atlas.apartment
    delta = ap.germ_distance(s1.germ(), s2.germ())  # ValueError at distinct bases: malformed input
    types = ap.gallery(s1.germ(), s2.germ())
    print(f"types {format_word(types) if types else '-'}")
    print(f"delta {delta!r}")
    print(f"length {delta.length}")
    return EXIT_PASS


def _cmd_fixture(args) -> int:
    kind = args.kind
    if kind == "tree":
        atlas = fixtures.lambda_tree(args.ends, args.lam)
    elif kind == "fan":
        atlas = fixtures.fan(args.leaves, args.roots, args.lam)
    elif kind == "single":
        atlas = fixtures.single_apartment(args.roots, args.lam)
    elif kind == "broken-pair":
        atlas = fixtures.broken_pair(args.lam)
    else:  # shifted-rays: argparse restricts the kind to the choices
        atlas = fixtures.shifted_rays(args.lam)
    _emit([serialize_model(atlas)], args.output)
    return EXIT_PASS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbk",
        description="Geometry and axiom checks for atlas-presented affine models.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="structural checks on a model file")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("axioms", help="run axiom checkers")
    p.add_argument("model")
    p.add_argument("--only", default="", help="comma-separated subset, e.g. A6,EC,SE")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("distance", help="global distance between two points")
    p.add_argument("model")
    p.add_argument("point1")
    p.add_argument("point2")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("retract", help="evaluate a germ retraction at points")
    p.add_argument("model")
    p.add_argument("--chart", required=True, help="target chart label")
    p.add_argument("--germ", required=True, help="chart:<label> (<point>) ; <word>")
    p.add_argument("points", nargs="+")
    p.set_defaults(func=_cmd_retract)

    p = sub.add_parser("infinity", help="chamber system at infinity")
    p.add_argument("model")
    p.set_defaults(func=_cmd_infinity)

    p = sub.add_parser("gallery", help="minimal sector gallery between two germs")
    p.add_argument("model")
    p.add_argument("germ1")
    p.add_argument("germ2")
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("fixture", help="emit a deterministic model file")
    p.add_argument("kind", choices=["tree", "fan", "single", "broken-pair", "shifted-rays"])
    p.add_argument("--ends", type=int, default=3)
    p.add_argument("--leaves", type=int, default=3)
    p.add_argument("--roots", default="A1")
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ModelFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
