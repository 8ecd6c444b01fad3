"""Seeded mutants of the fixture model files never make the CLI raise.

Each mutant changes one number, generator word, root expression or
directive of a serialized fixture, and a few fixed mutants ask for ranks
past the caps.  ``validate``, ``axioms --samples 3`` and ``infinity`` run in
process through ``cli.main``; every run must end with an exit code in 0-3.
Numbers are only replaced by small values, so no mutant asks for a large
allocation.
"""
import functools
import random
import re
import time

import pytest

from lbk import fixtures
from lbk.cli import main
from lbk.modelfile import serialize_model
from test_golden import fm_fallback

OVERFLOW = "10000000000000000000000"
MODELS = {
    "tree(3,1)": lambda: fixtures.lambda_tree(3, 1),
    "tree(4,2)": lambda: fixtures.lambda_tree(4, 2),
    "fan(3,A2)": lambda: fixtures.fan(3, "A2", 1),
    "single(G2)": lambda: fixtures.single_apartment("G2", 1),
    "broken_pair": fixtures.broken_pair,
    "shifted_rays": fixtures.shifted_rays,
    "fm_fallback": fm_fallback,
}
NUMBERS = ("0", "-1", "1", "2", "3", "17", "1/2", "-3/2", "2|1")
WORDS = ("", "1", "2", "1 2", "2 1 2", "3", "0")
ROOTS = ("a1", "a2", "a1+a2", "2a1", "a1+2a2", "a3", "0a1", "a")
DIRECTIVES = ("lambda", "roots", "cartan", "charts", "name", "glue", "glu")
FIXED = [
    ("tree(3,1)", r"^lambda 1$", f"lambda {OVERFLOW}"),
    ("tree(4,2)", r"^lambda 2$", "lambda 17"),
    ("tree(3,1)", r"^roots A1$", f"roots A{OVERFLOW}"),
    ("fan(3,A2)", r"^roots A2$", "roots B17"),
    ("tree(3,1)", r"; word 1 ;", f"; word {OVERFLOW} ;"),
    ("tree(3,1)", r"\(0\)", f"({OVERFLOW})"),
    ("tree(3,1)", r"^roots A1$", "cartan [[1e400]]"),
    ("fan(3,A2)", r"^roots A2$", "cartan [[2.5,-1],[-1,2]]"),
]
SEEDED = 34


def mutate(text: str, rng: random.Random) -> str:
    """Change one number, word, root or directive of a model file."""
    lines = text.splitlines()
    kind = rng.choice(("number", "word", "root", "directive"))
    if kind == "directive":
        i = rng.randrange(len(lines))
        rest = lines[i].partition(" ")[2]
        action = rng.choice(("rename", "drop", "repeat"))
        if action == "rename":
            lines[i] = f"{rng.choice(DIRECTIVES)} {rest}"
        elif action == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        return "\n".join(lines) + "\n"
    pattern, choices = {
        "number": (r"-?\d+(?:/\d+)?", NUMBERS),
        "word": (r"word(?: \d+)*", tuple(f"word {w}".rstrip() for w in WORDS)),
        "root": (r"\d*a\d+(?:\+\d*a\d+)*", ROOTS),
    }[kind]
    spots = list(re.finditer(pattern, text))
    if not spots:
        return text
    m = rng.choice(spots)
    return text[: m.start()] + rng.choice(choices) + text[m.end() :]


@functools.cache
def mutants() -> tuple[str, ...]:
    texts = {name: serialize_model(build()) for name, build in MODELS.items()}
    out = []
    for name, pattern, replacement in FIXED:
        mutated, count = re.subn(pattern, replacement, texts[name], count=1, flags=re.M)
        assert count == 1, (name, pattern)
        out.append(mutated)
    rng = random.Random("cli-fuzz:0")
    names = sorted(texts)
    while len(out) < len(FIXED) + SEEDED:
        out.append(mutate(texts[rng.choice(names)], rng))
    return tuple(out)


@pytest.mark.parametrize("index", range(len(FIXED) + SEEDED))
def test_mutant_model_ends_with_an_exit_code(index, tmp_path, capsys):
    path = tmp_path / "mutant.lbm"
    path.write_text(mutants()[index])
    for argv in (["validate"], ["axioms", "--samples", "3"], ["infinity"]):
        code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2, 3), (argv, code)
    capsys.readouterr()


def test_mutants_are_distinct_and_mixed(tmp_path, capsys):
    texts = mutants()
    assert len(set(texts)) >= 35
    codes = []
    for text in texts:
        path = tmp_path / "mutant.lbm"
        path.write_text(text)
        codes.append(main(["validate", str(path)]))
    capsys.readouterr()
    # Both kinds occur: models that still parse and models rejected with exit 2.
    assert codes.count(2) >= 10 and codes.count(2) <= 35, codes


def test_fixture_lex_rank_past_the_cap_is_a_usage_error(capsys):
    for value in ("17", OVERFLOW):
        assert main(["fixture", "tree", "--ends", "3", "--lambda", value]) == 2
    assert "lex rank must be in 1..16" in capsys.readouterr().err


def test_fixture_end_count_past_the_cap_is_a_usage_error(capsys):
    for value in ("33", OVERFLOW):
        assert main(["fixture", "tree", "--ends", value]) == 2
        assert main(["fixture", "fan", "--leaves", value]) == 2
    assert "end count must be in 2..32" in capsys.readouterr().err


def test_exponent_literal_argument_is_malformed_input(tmp_path, capsys):
    """Exponent forms are outside the literal grammar, so the CLI rejects
    1e100000000 at once instead of expanding it to a 100-million-digit integer."""
    path = tmp_path / "t3.lbm"
    path.write_text(serialize_model(fixtures.lambda_tree(3, 1)))
    start = time.perf_counter()
    code = main(["distance", str(path), "chart:12 (1e100000000)", "chart:12 (0)"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "bad scalar literal" in capsys.readouterr().err
