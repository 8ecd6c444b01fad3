"""Text model format, literals, and their parsers.

A model file is line oriented::

    # tripod
    lambda 2
    roots A1                 (or: cartan [[2,-1],[-1,2]])
    charts 3
    name 1 12                (optional labels; default labels are 1..m)
    glue 12 2 : ge a1 0 ; word ; t (0|0)

A glue line names its two charts by label or by 1-based index (labels are
resolved first and contain no whitespace, ``:`` or ``#``).  It then lists the
overlap region of the first chart (comma-separated constraints
``ge|le|eq <root-expr> <scalar>``, empty for the whole apartment), then the
gluing isometry as a generator word and a translation point.  Reverse
transitions are derived automatically unless spelled out.

Scalar literals are rationals joined by ``|`` across lex components
(parentheses optional); a bare rational embeds as its first component.  A
component reads ``[+-]<digits>[/<digits>]`` with at most MAX_LITERAL_DIGITS
digits per part: decimal and exponent forms are malformed input.
Point literals wrap one scalar per coordinate: ``(1|0,0|0)``.
"""
from __future__ import annotations

import ast
import re
from fractions import Fraction
from functools import cache
from typing import Optional

from .apartment import MAX_LEX_RANK, AffineIsometry, Apartment, HalfApartment, Point, format_point
from .atlas import Atlas, BuildingGerm, BuildingPoint, Transition, is_chart_name
from .lexq import LambdaScalar
from .rootsystem import build_root_system

MAX_CHARTS = 10_000  # parse_model builds one label per declared chart
MAX_LITERAL_DIGITS = 64  # a literal rational reads [+-]digits[/digits], the denominator not zero
_RATIONAL = re.compile(rf"[+-]?\d{{1,{MAX_LITERAL_DIGITS}}}(/(?=0*[1-9])\d{{1,{MAX_LITERAL_DIGITS}}})?")


class ModelFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# -- literals -----------------------------------------------------------------


def format_scalar(s: LambdaScalar) -> str:
    if all(p == 0 for p in s.parts[1:]):
        return str(s.parts[0])
    return "(" + str(s) + ")"


def parse_scalar(text: str, lex_rank: int) -> LambdaScalar:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if not body:
        raise ModelFormatError("empty scalar literal")
    parts = [p.strip() for p in body.split("|")]
    if not all(_RATIONAL.fullmatch(p) for p in parts):
        raise ModelFormatError(
            f"bad scalar literal {text[:80]!r}: want [+-]digits[/digits], at most {MAX_LITERAL_DIGITS} digits a part"
        )
    values = [Fraction(p) for p in parts]
    if len(values) == 1 and lex_rank > 1:
        values = values + [Fraction(0)] * (lex_rank - 1)
    if len(values) != lex_rank:
        raise ModelFormatError(
            f"scalar {text!r} has {len(values)} components, lex rank is {lex_rank}"
        )
    return LambdaScalar(values)


def parse_point(text: str, ap: Apartment) -> Point:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ModelFormatError(f"point literal must be parenthesized: {text!r}")
    coords = [c.strip() for c in body[1:-1].split(",")]
    if coords == [""]:
        raise ModelFormatError("empty point literal")
    if len(coords) != ap.rank:
        raise ModelFormatError(
            f"point {text!r} has {len(coords)} coordinates, rank is {ap.rank}"
        )
    return tuple(parse_scalar(c, ap.lex_rank) for c in coords)


_TERM = re.compile(r"^(\d*)a(\d+)$")


def format_root(root) -> str:
    terms = []
    for idx, c in enumerate(root, start=1):
        if c == 0:
            continue
        prefix = "" if c == 1 else str(c)
        terms.append(f"{prefix}a{idx}")
    return "+".join(terms) if terms else "0"


def parse_root_expr(text: str, ap: Apartment):
    body = text.strip().replace(" ", "")
    if not body:
        raise ModelFormatError("empty root expression")
    coeffs = [0] * ap.rank
    for term in body.split("+"):
        m = _TERM.match(term)
        if not m:
            raise ModelFormatError(f"bad root term {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        idx = int(m.group(2))
        if not 1 <= idx <= ap.rank:
            raise ModelFormatError(f"root index out of range in {term!r}")
        coeffs[idx - 1] += count
    root = tuple(coeffs)
    if not ap.roots.is_root(root):
        raise ModelFormatError(f"{text.strip()!r} is not a root of the system")
    return root


def format_word(word) -> str:
    return " ".join(str(i) for i in word)


# -- model files -----------------------------------------------------------------


def parse_model(text: str) -> Atlas:
    lam: Optional[int] = None
    roots_spec: Optional[object] = None
    roots_line: Optional[int] = None  # the roots or cartan line, named by root-system errors
    chart_count: Optional[int] = None
    names: dict[int, tuple[str, int]] = {}  # index -> (label, line)
    glue_lines: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if {"lambda": lam, "roots": roots_spec, "cartan": roots_spec, "charts": chart_count}.get(head) is not None:
            raise ModelFormatError(f"a second {head!r} line: lambda, roots or cartan, and charts come once", lineno)
        if head == "lambda":
            try:
                lam = int(rest)
            except ValueError:
                raise ModelFormatError(f"bad lambda rank {rest!r}", lineno)
            if not 1 <= lam <= MAX_LEX_RANK:
                raise ModelFormatError(f"lambda rank must be in 1..{MAX_LEX_RANK}", lineno)
        elif head == "roots":
            roots_spec, roots_line = rest, lineno
        elif head == "cartan":
            try:
                rows = ast.literal_eval(rest)  # matrix literal like [[2,-1],[-1,2]]
            except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):  # the last two: too deep
                rows = None
            # Entries are plain ints: no float to truncate, no bool, no infinity to convert.
            if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in rows
            ):
                raise ModelFormatError(f"bad cartan literal {rest!r}", lineno)
            roots_spec, roots_line = [list(row) for row in rows], lineno
        elif head == "charts":
            try:
                chart_count = int(rest)
            except ValueError:
                raise ModelFormatError(f"bad chart count {rest!r}", lineno)
            if not 1 <= chart_count <= MAX_CHARTS:
                raise ModelFormatError(f"chart count must be in 1..{MAX_CHARTS}", lineno)
        elif head == "name":
            parts = rest.split()
            if len(parts) != 2:
                raise ModelFormatError("name lines read: name <index> <label>", lineno)
            try:
                idx = int(parts[0])
            except ValueError:
                raise ModelFormatError(f"bad chart index {parts[0]!r}", lineno)
            if not is_chart_name(parts[1]):
                raise ModelFormatError(f"chart label {parts[1]!r} contains ':'", lineno)
            if idx - 1 in names:
                raise ModelFormatError(f"chart {idx} is named twice", lineno)
            names[idx - 1] = (parts[1], lineno)
        elif head == "glue":
            glue_lines.append((lineno, rest))
        else:
            raise ModelFormatError(f"unknown directive {head!r}", lineno)

    if lam is None:
        raise ModelFormatError("missing 'lambda <rank>' line")
    if roots_spec is None:
        raise ModelFormatError("missing 'roots <type>' or 'cartan' line")
    if chart_count is None:
        raise ModelFormatError("missing 'charts <count>' line")

    try:
        rs = build_root_system(roots_spec)
    except ValueError as exc:
        raise ModelFormatError(str(exc), roots_line) from None
    ap = Apartment(rs, lam)
    for idx, (_, lineno) in names.items():
        if not 0 <= idx < chart_count:
            raise ModelFormatError(f"chart index {idx + 1} outside 1..{chart_count}", lineno)
    chart_names = [names[i][0] if i in names else str(i + 1) for i in range(chart_count)]
    if len(set(chart_names)) != chart_count:
        raise ModelFormatError("chart labels must be unique")
    index_of = {name: i for i, name in enumerate(chart_names)}

    def resolve(token: str) -> int:
        if token in index_of:
            return index_of[token]
        try:
            idx = int(token)
        except ValueError:
            raise ModelFormatError(f"unknown chart {token!r}")
        if not 1 <= idx <= chart_count:
            raise ModelFormatError(f"chart index {idx} out of range")
        return idx - 1

    @cache  # each distinct body text is parsed once
    def glue_body(body: str) -> Transition:
        sections = [s.strip() for s in body.split(";")]
        if len(sections) != 3:
            raise ModelFormatError("glue body reads: <constraints> ; word <gens> ; t <point>")
        constraint_text, word_text, shift_text = sections
        halves: list[HalfApartment] = []
        if constraint_text:
            for chunk in constraint_text.split(","):
                fields = chunk.split()
                if len(fields) != 3 or fields[0] not in ("ge", "le", "eq"):
                    raise ModelFormatError(f"bad constraint {chunk.strip()!r}")
                root = parse_root_expr(fields[1], ap)
                bound = parse_scalar(fields[2], lam)
                if fields[0] in ("ge", "eq"):
                    halves.append(ap.half(root, 1, bound))
                if fields[0] in ("le", "eq"):
                    halves.append(ap.half(root, -1, bound))
        if not word_text.startswith("word"):
            raise ModelFormatError("expected 'word ...' section")
        word = word_text[4:].split()
        try:
            linear = rs.from_word([int(w) for w in word])
        except ValueError as exc:
            raise ModelFormatError(f"bad word: {exc}")
        if not shift_text.startswith("t"):
            raise ModelFormatError("expected 't <point>' section")
        return Transition(ap.region(halves), AffineIsometry(linear, parse_point(shift_text[1:].strip(), ap)))

    transitions: dict[tuple[int, int], Transition] = {}
    for lineno, rest in glue_lines:
        try:
            head, _, body = rest.partition(":")
            pair = head.split()
            if len(pair) != 2:
                raise ModelFormatError("glue lines read: glue <i> <j> : ...")
            i = resolve(pair[0])
            j = resolve(pair[1])
            if i == j:
                raise ModelFormatError("cannot glue a chart to itself")
            if (i, j) in transitions:
                raise ModelFormatError(f"charts {pair[0]} and {pair[1]} are glued in this order twice")
            transitions[(i, j)] = glue_body(body)
        except ModelFormatError as exc:  # every error of a glue line names it
            raise ModelFormatError(str(exc), lineno) from None

    reverse = cache(lambda t: t.reverse(ap))  # one reverse per distinct value
    transitions |= {(j, i): reverse(t) for (i, j), t in transitions.items() if (j, i) not in transitions}

    label = roots_spec if isinstance(roots_spec, str) else "cartan"
    return Atlas(ap, chart_names, transitions, label=f"model {label} lambda={lam}")


def serialize_model(atlas: Atlas) -> str:
    ap = atlas.apartment
    lines = [f"lambda {ap.lex_rank}"]
    if ap.roots.label:
        lines.append(f"roots {ap.roots.label}")
    else:
        lines.append(f"cartan {[list(r) for r in ap.roots.cartan]}")
    lines.append(f"charts {atlas.size}")
    for i in atlas.charts():
        if atlas.name(i) != str(i + 1):
            lines.append(f"name {i + 1} {atlas.name(i)}")

    def glue_line(i: int, j: int, t: Transition) -> str:
        constraints = ", ".join(
            f"{'ge' if h.sense == 1 else 'le'} {format_root(h.root)} {format_scalar(h.bound)}"
            for h in t.region.halves
        )
        word = format_word(t.iso.linear.word)
        return (
            f"glue {atlas.name(i)} {atlas.name(j)} : {constraints} ; word{(' ' + word) if word else ''}"
            f" ; t {format_point(t.iso.shift)}"
        )

    # Is back the reverse parse_model derives from t?  Once per distinct value pair.
    derived_back = cache(lambda t, back: all(back.same_as(ap, t.reverse(ap))))

    emitted = set()
    for (i, j) in sorted(atlas.transitions):
        if (j, i) in emitted:
            continue
        t = atlas.transitions[(i, j)]
        lines.append(glue_line(i, j, t))
        emitted.add((i, j))
        back = atlas.transitions.get((j, i))
        if back is not None and not derived_back(t, back):
            lines.append(glue_line(j, i, back))
            emitted.add((j, i))
    return "\n".join(lines) + "\n"


# -- CLI argument literals ---------------------------------------------------------


def parse_point_arg(text: str, atlas: Atlas) -> BuildingPoint:
    """``chart:<label> (<point>)``"""
    body = text.strip()
    if not body.startswith("chart:"):
        raise ModelFormatError(f"point argument must start with 'chart:': {text!r}")
    rest = body[len("chart:"):]
    name, _, literal = rest.partition(" ")
    if not literal.strip():
        raise ModelFormatError(f"missing point literal in {text!r}")
    chart = atlas.index(name.strip())
    return BuildingPoint(chart, parse_point(literal, atlas.apartment))


def parse_germ_arg(text: str, atlas: Atlas) -> BuildingGerm:
    """``chart:<label> (<point>) ; <generator word>`` (word optional)."""
    body, _, word_text = text.partition(";")
    bp = parse_point_arg(body, atlas)
    word = [int(w) for w in word_text.split()]
    direction = atlas.apartment.roots.from_word(word)
    return BuildingGerm(bp.chart, atlas.apartment.sector(bp.point, direction))
