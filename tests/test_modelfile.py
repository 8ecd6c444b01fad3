from fractions import Fraction as Q

import pytest

from lbk.apartment import MAX_LEX_RANK
from lbk.atlas import Atlas, Transition, validate
from lbk.cli import main
from lbk.fixtures import fan, lambda_tree, shifted_rays
from lbk.lexq import LambdaScalar
from lbk.modelfile import (
    MAX_CHARTS,
    ModelFormatError,
    format_root,
    format_scalar,
    parse_germ_arg,
    parse_model,
    parse_point,
    parse_point_arg,
    parse_root_expr,
    parse_scalar,
    serialize_model,
)
from lbk.rootsystem import MAX_RANK

TRIPOD = """\
# three ends glued at the origin
lambda 1
roots A1
charts 3
name 1 12
name 2 13
name 3 23
glue 12 13 : ge a1 0 ; word ; t (0)
glue 12 23 : le a1 0 ; word 1 ; t (0)
glue 13 23 : le a1 0 ; word 1 ; t (0)
"""


def test_parse_minimal_model():
    atlas = parse_model(TRIPOD)
    assert atlas.size == 3
    assert atlas.chart_names == ["12", "13", "23"]
    assert validate(atlas).ok
    assert len(atlas.transitions) == 6  # reverses derived


def test_roundtrip_fixtures():
    # tree(6, 1) and tree(8, 2) have 15 and 28 charts with numeric labels,
    # some of which are also chart indices; glue lines name charts by label.
    builds = (
        lambda: lambda_tree(3),
        lambda: lambda_tree(4, 2),
        lambda: lambda_tree(6, 1),
        lambda: lambda_tree(8, 2),
        lambda: fan(3),
        lambda: shifted_rays(),
    )
    for build in builds:
        atlas = build()
        text = serialize_model(atlas)
        again = parse_model(text)
        assert serialize_model(again) == text
        assert again.chart_names == atlas.chart_names
        assert validate(again).ok == validate(atlas).ok


def test_scalar_literals():
    assert parse_scalar("3/2", 1) == LambdaScalar([Q(3, 2)])
    assert parse_scalar("(1|0)", 2) == LambdaScalar([1, 0])
    assert parse_scalar("-1/4|2", 2) == LambdaScalar([Q(-1, 4), 2])
    # a bare rational embeds at higher rank
    assert parse_scalar("0", 2) == LambdaScalar.zero(2)
    assert format_scalar(LambdaScalar([Q(3, 2), 0])) == "3/2"
    assert format_scalar(LambdaScalar([1, Q(-2, 3)])) == "(1|-2/3)"
    with pytest.raises(ModelFormatError):
        parse_scalar("1|2|3", 2)
    with pytest.raises(ModelFormatError):
        parse_scalar("x", 1)


@pytest.mark.parametrize(
    "literal",
    ["1.5", ".5", "1e3", "1E3", "1e100000000", "inf", "nan", "1_000", "1 / 2", "1/0", "1/-2", "--1",
     "1" * 65, "1/" + "1" * 65, "(0|" + "9" * 5000 + ")"],
)
def test_scalar_literals_outside_the_grammar_are_rejected(literal):
    with pytest.raises(ModelFormatError, match="bad scalar literal"):
        parse_scalar(literal, 2)


def test_scalar_literals_at_the_digit_cap_parse():
    assert parse_scalar("-" + "9" * 64 + "/" + "7" * 64, 1) == LambdaScalar([Q(-int("9" * 64), int("7" * 64))])
    assert parse_scalar("+3/2", 1) == LambdaScalar([Q(3, 2)])


@pytest.mark.parametrize("bound", ["1e100000000", "0.5"])
def test_bad_literal_in_a_glue_line_names_the_line(bound):
    with pytest.raises(ModelFormatError, match="line 8: bad scalar literal"):
        parse_model(TRIPOD.replace("ge a1 0", f"ge a1 {bound}"))


def test_point_literals():
    from lbk.apartment import Apartment
    from lbk.rootsystem import build_root_system

    ap = Apartment(build_root_system("A2"), 2)
    p = parse_point("(1|0, 0|1/2)", ap)
    assert p == (LambdaScalar([1, 0]), LambdaScalar([0, Q(1, 2)]))
    with pytest.raises(ModelFormatError):
        parse_point("(1|0)", ap)  # wrong arity
    with pytest.raises(ModelFormatError):
        parse_point("1|0, 0|0", ap)  # missing parens


def test_root_expressions():
    from lbk.apartment import Apartment
    from lbk.rootsystem import build_root_system

    ap = Apartment(build_root_system("G2"), 1)
    assert parse_root_expr("a1", ap) == (1, 0)
    assert parse_root_expr("3a1+2a2", ap) == (3, 2)
    assert format_root((3, 2)) == "3a1+2a2"
    assert format_root((1, 1)) == "a1+a2"
    assert parse_root_expr("2a1+a2", ap) == (2, 1)
    with pytest.raises(ModelFormatError):
        parse_root_expr("a1+a3", ap)
    with pytest.raises(ModelFormatError):
        parse_root_expr("5a1+a2", ap)  # not a root of G2


def test_chart_labels_are_glue_line_tokens():
    # A label with ':' or whitespace could not be written on a glue line.
    with pytest.raises(ModelFormatError) as err:
        parse_model("lambda 1\nroots A1\ncharts 2\nname 1 a:b\nglue 1 2 : ; word ; t (0)\n")
    assert "line 4" in str(err.value)
    ap = lambda_tree(3).apartment
    for bad in ("a:b", "a b", "a#b", ""):
        with pytest.raises(ValueError):
            Atlas(ap, [bad, "2"], {})


@pytest.mark.parametrize("line", ["name 0 zero", "name 7 seven", "name -1 neg"])
def test_name_index_outside_the_charts(line):
    # The name line comes before the charts line: the range is checked once
    # the count is known, and still reported at the name line.
    with pytest.raises(ModelFormatError) as err:
        parse_model(f"lambda 1\nroots A1\n{line}\ncharts 2\n")
    assert "line 3" in str(err.value) and "outside 1..2" in str(err.value)


def test_chart_named_twice():
    with pytest.raises(ModelFormatError) as err:
        parse_model("lambda 1\nroots A1\ncharts 2\nname 1 a\nname 2 b\nname 1 c\n")
    assert "line 6" in str(err.value)
    assert parse_model("lambda 1\nroots A1\ncharts 2\nname 1 a\nname 2 b\n").chart_names == ["a", "b"]


GLUE_0 = "glue 1 2 : ge a1 0 ; word ; t (0)\n"
GLUE_1 = "glue 1 2 : ge a1 1 ; word ; t (0)\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("lambda 1\nroots A1\ncharts 2\nlambda 2\n", 4),
        ("lambda 1\nroots A1\nroots A2\ncharts 1\n", 3),
        ("lambda 1\nroots A1\ncartan [[2]]\ncharts 1\n", 3),
        ("lambda 1\ncartan [[2]]\nroots A1\ncharts 1\n", 3),
        ("lambda 1\nroots A1\ncharts 2\ncharts 3\n", 4),
        ("lambda 1\nroots A1\ncharts 2\n" + GLUE_0 + GLUE_1, 5),
        ("lambda 1\nroots A1\ncharts 2\nname 1 a\nname 2 b\nglue a b : ; word ; t (0)\n" + GLUE_1, 7),
    ],
    ids=["lambda", "roots", "roots-cartan", "cartan-roots", "charts", "glue", "glue-by-label-and-index"],
)
def test_a_repeated_directive_is_malformed(text, line, tmp_path, capsys):
    """A second lambda, root system or charts line, or a second glue line for
    one ordered pair, would silently override the first."""
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert f"line {line}:" in str(err.value)
    path = tmp_path / "model.lbm"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_glue_and_its_explicit_reverse_parse():
    atlas = parse_model("lambda 1\nroots A1\ncharts 2\n" + GLUE_0 + "glue 2 1 : ge a1 0 ; word ; t (0)\n")
    assert sorted(atlas.transitions) == [(0, 1), (1, 0)]


def test_a_malformed_body_on_two_glue_lines_names_the_first():
    """Each distinct glue body is parsed once, so the error of a body repeated
    on two glue lines is found, and named, at the first of them."""
    bad = "ge a1 0 ; word 9 ; t (0)"
    with pytest.raises(ModelFormatError) as err:
        parse_model(f"lambda 1\nroots A1\ncharts 3\nglue 1 2 : {bad}\nglue 1 3 : {bad}\n")
    assert str(err.value).startswith("line 4: bad word")
    with pytest.raises(ModelFormatError) as err:  # the pair is checked before the body, line by line
        parse_model(f"lambda 1\nroots A1\ncharts 3\nglue 1 1 : {bad}\nglue 1 3 : {bad}\n")
    assert str(err.value) == "line 4: cannot glue a chart to itself"


def test_parse_model_derives_one_reverse_per_distinct_value(monkeypatch):
    """tree(8,1)'s model file has 168 glue lines, spells out none of their
    reverses, and has three distinct glue bodies."""
    text = serialize_model(lambda_tree(8, 1))
    calls = []
    reverse = Transition.reverse

    def counted(self, ap):
        calls.append(self)
        return reverse(self, ap)

    monkeypatch.setattr(Transition, "reverse", counted)
    again = parse_model(text)
    assert len(calls) == len(set(calls)) == 3
    assert len(again.transitions) == 336


def test_serialize_model_derives_one_reverse_per_distinct_pair(monkeypatch):
    """tree(8,1) has 168 glue pairs, each written as one line, and at most
    three distinct (transition, reverse) value pairs: serialize_model derives
    one reverse per distinct pair to see that no reverse needs a line."""
    atlas = lambda_tree(8, 1)
    expected = serialize_model(atlas)
    calls = []
    reverse = Transition.reverse

    def counted(self, ap):
        calls.append(self)
        return reverse(self, ap)

    monkeypatch.setattr(Transition, "reverse", counted)
    text = serialize_model(atlas)
    assert text == expected
    assert text.count("\nglue ") == 168
    assert 0 < len(calls) == len(set(calls)) <= 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ModelFormatError) as err:
        parse_model("lambda 1\nroots A1\ncharts 2\nglue 1 2 : bogus a1 0 ; word ; t (0)\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ModelFormatError):
        parse_model("roots A1\ncharts 1\n")  # missing lambda
    with pytest.raises(ModelFormatError):
        parse_model("lambda 1\ncharts 1\n")  # missing roots
    with pytest.raises(ModelFormatError):
        parse_model("lambda 1\nroots A1\n")  # missing charts
    with pytest.raises(ModelFormatError):
        parse_model("lambda 1\nroots A1\ncharts 2\nglue 1 1 : ; word ; t (0)\n")


OVERFLOW = "10000000000000000000000"  # too large for an index-sized int


@pytest.mark.parametrize("value", [OVERFLOW, str(MAX_LEX_RANK + 1)])
def test_lex_rank_is_capped(value):
    # The cap is checked on the lambda line itself, before any scalar is parsed.
    with pytest.raises(ModelFormatError, match=f"line 2: lambda rank must be in 1..{MAX_LEX_RANK}"):
        parse_model(TRIPOD.replace("lambda 1", f"lambda {value}"))


@pytest.mark.parametrize("family", ["A", "B", "C"])
@pytest.mark.parametrize("value", [OVERFLOW, str(MAX_RANK + 1)])
def test_named_root_system_rank_is_capped(family, value):
    # named_cartan rejects the rank before it builds the matrix.
    with pytest.raises(ModelFormatError, match=f"rank must be in 1..{MAX_RANK}"):
        parse_model(f"lambda 1\nroots {family}{value}\ncharts 1\n")


def test_cartan_rank_is_capped():
    n = MAX_RANK + 1
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(ModelFormatError, match=f"Cartan rank {n} exceeds {MAX_RANK}"):
        parse_model(f"lambda 1\ncartan {rows}\ncharts 1\n")


@pytest.mark.parametrize(
    "spec,message",
    [("cartan []", "Cartan matrix is empty"), ("roots A0", f"rank must be in 1..{MAX_RANK} in 'A0'")],
    ids=["empty-cartan", "rank-zero"],
)
def test_root_system_errors_name_their_line(spec, message):
    # build_root_system runs after every line is read; its error still names the roots or cartan line.
    with pytest.raises(ModelFormatError) as err:
        parse_model(f"lambda 1\n{spec}\ncharts 1\n")
    assert str(err.value) == f"line 2: {message}"


@pytest.mark.parametrize("value", [OVERFLOW, str(MAX_CHARTS + 1), "0"])
def test_chart_count_is_capped(value):
    # Rejected on the charts line itself, before any per-chart list is built.
    with pytest.raises(ModelFormatError, match=f"line 3: chart count must be in 1..{MAX_CHARTS}"):
        parse_model(f"lambda 1\nroots A1\ncharts {value}\nname 1 a\n")


def test_chart_cap_itself_parses():
    assert len(parse_model(f"lambda 1\nroots A1\ncharts {MAX_CHARTS}\n").chart_names) == MAX_CHARTS


def test_largest_ranks_still_parse():
    atlas = parse_model(f"lambda {MAX_LEX_RANK}\nroots A2\ncharts 1\n")
    assert atlas.apartment.lex_rank == MAX_LEX_RANK
    n = MAX_RANK
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    assert parse_model(f"lambda 1\ncartan {rows}\ncharts 1\n").apartment.rank == MAX_RANK


def test_cartan_directive():
    atlas = parse_model("lambda 1\ncartan [[2,-1],[-1,2]]\ncharts 1\n")
    assert atlas.apartment.rank == 2
    assert len(atlas.apartment.roots.positive_roots) == 3


@pytest.mark.parametrize(
    "literal",
    ["[[1e400]]", "[[2.5,-1],[-1,2]]", "[[2,-1.9],[-1,2]]", "[[2,False],[False,2]]", "[['2']]", "2", "-" * 100000 + "2"],
    ids=["overflow", "float", "float-off-diagonal", "bool", "string", "scalar", "too-deep"],
)
def test_cartan_entries_must_be_integers(literal):
    # A float was truncated by int() and an infinite one raised OverflowError.
    with pytest.raises(ModelFormatError, match="line 2: bad cartan literal"):
        parse_model(f"lambda 1\ncartan {literal}\ncharts 1\n")


def test_point_and_germ_args():
    atlas = lambda_tree(3)
    bp = parse_point_arg("chart:23 (-2)", atlas)
    assert atlas.name(bp.chart) == "23"
    assert bp.point == (LambdaScalar.rational(-2),)
    germ = parse_germ_arg("chart:12 (0) ; 1", atlas)
    assert germ.sector.direction.word == (1,)
    germ2 = parse_germ_arg("chart:12 (0)", atlas)
    assert germ2.sector.direction.is_identity()
    with pytest.raises(ModelFormatError):
        parse_point_arg("(0)", atlas)
    with pytest.raises(ValueError):
        parse_point_arg("chart:99 (0)", atlas)


def test_explicit_asymmetric_glue_is_kept():
    text = (
        "lambda 1\nroots A1\ncharts 2\n"
        "glue 1 2 : ge a1 0 ; word ; t (0)\n"
        "glue 2 1 : ge a1 1 ; word ; t (0)\n"  # deliberately not the inverse image
    )
    atlas = parse_model(text)
    report = validate(atlas)
    assert not report.ok
    assert any("symmetry" in issue for issue in report.issues)
    # the broken reverse survives a serialization round trip
    again = parse_model(serialize_model(atlas))
    assert not validate(again).ok
