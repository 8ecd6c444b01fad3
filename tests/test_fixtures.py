import hashlib

import pytest

from lbk.atlas import validate
from lbk.fixtures import broken_pair, drop_chart, fan, lambda_tree, shifted_rays, single_apartment
from lbk.modelfile import serialize_model
from report_digest import LADDER, build


def test_single_apartment_shapes():
    atlas = single_apartment("G2", 1)
    assert atlas.size == 1
    assert not atlas.transitions
    assert validate(atlas).ok


@pytest.mark.parametrize("ends,charts", [(2, 1), (3, 3), (4, 6), (5, 10)])
def test_tree_chart_counts(ends, charts):
    atlas = lambda_tree(ends)
    assert atlas.size == charts
    assert validate(atlas).ok


def test_tree_chart_names_are_end_pairs():
    atlas = lambda_tree(3)
    assert atlas.chart_names == ["12", "13", "23"]


def test_tree_needs_two_ends():
    with pytest.raises(ValueError):
        lambda_tree(1)


@pytest.mark.parametrize("leaves,charts", [(2, 1), (3, 3), (4, 6)])
def test_fan_chart_counts(leaves, charts):
    atlas = fan(leaves)
    assert atlas.size == charts
    assert validate(atlas).ok


def test_fan_needs_rank_two():
    with pytest.raises(ValueError):
        fan(3, roots="A1")
    with pytest.raises(ValueError):
        fan(1)


def test_generators_are_deterministic():
    for build in (lambda: lambda_tree(4, 2), lambda: fan(3), lambda: broken_pair(), lambda: shifted_rays()):
        first = serialize_model(build())
        second = serialize_model(build())
        assert first == second


def test_negative_fixtures_validate():
    assert validate(broken_pair()).ok
    assert validate(shifted_rays()).ok


def test_lambda_rank_carries_through():
    atlas = lambda_tree(3, 2)
    assert atlas.apartment.lex_rank == 2
    assert "lambda 2" in serialize_model(atlas)


def test_drop_chart():
    pruned = drop_chart(fan(3), "23")
    assert pruned.size == 2
    assert validate(pruned).ok
    assert "23" not in pruned.chart_names


def test_fan_other_rank_two_types():
    from lbk.axioms import PASS, check_ec

    for roots in ("B2", "G2"):
        atlas = fan(3, roots=roots, lam=2)
        assert validate(atlas).ok
        assert check_ec(atlas).verdict == PASS


# sha256 over serialize_model of every fixture below, in this order.
FIXTURES_SHA256 = "5b6e94e99a82d676ac77cb382fd4c713a3f0ee8cf313ce60f3def161ea4daf37"


def pinned_fixtures():
    """Trees of 2-12 ends at lex rank 1-3, fans of 2-7 leaves over every
    rank-2 type, and the two negative fixtures at lex rank 1-2: 61 atlases."""
    for ends in range(2, 13):
        for lam in (1, 2, 3):
            yield lambda_tree(ends, lam)
    for leaves in range(2, 8):
        for roots in ("A2", "B2", "C2", "G2"):
            yield fan(leaves, roots)
    for lam in (1, 2):
        yield broken_pair(lam)
        yield shifted_rays(lam)


def test_fixture_model_files_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for atlas in pinned_fixtures():
        digest.update(serialize_model(atlas).encode())
        count += 1
    assert count == 61
    assert digest.hexdigest() == FIXTURES_SHA256


@pytest.mark.parametrize("make, most", [(lambda: lambda_tree(8, 1), 4), (lambda: fan(5, "B2"), 5)])
def test_end_pairs_build_one_transition_per_gluing_value(make, most):
    """Four side pairs (end a's side in chart i, in chart j) and, in a fan, the wall where disjoint pairs meet:
    every chart pair glued by one of these values holds the same transition object."""
    atlas = make()
    assert len({id(t) for t in atlas.transitions.values()}) <= most < len(atlas.transitions)


@pytest.mark.parametrize("name,family,size,roots,lam", LADDER)
def test_ladder_transitions_are_reverses_of_their_opposites(name, family, size, roots, lam):
    atlas = build(family, size, roots, lam)
    ap = atlas.apartment
    for (i, j), t in atlas.transitions.items():
        assert atlas.transition(j, i) == t.reverse(ap), (name, i, j)
