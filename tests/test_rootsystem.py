import itertools

import pytest

from lbk import rootsystem
from lbk.rootsystem import build_root_system, named_cartan

COUNTS = {"A1": (2, 1, 1), "A2": (6, 3, 3), "B2": (8, 4, 4), "G2": (12, 6, 6)}


def test_positive_root_sets():
    assert build_root_system("A1").positive_roots == ((1,),)
    a2 = build_root_system("A2")
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert len(build_root_system("G2").positive_roots) == 6
    assert len(build_root_system("B2").positive_roots) == 4
    assert len(build_root_system("C3").positive_roots) == 9


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_weyl_counts_and_longest(name):
    order, longest, positives = COUNTS[name]
    rs = build_root_system(name)
    elements = rs.weyl_elements()
    assert len(elements) == order
    w0 = rs.longest_element()
    assert w0.length == longest
    assert len(rs.positive_roots) == positives == w0.length


def test_non_finite_type_rejected():
    with pytest.raises(ValueError):
        build_root_system([[2, -2], [-2, 2]])
    with pytest.raises(ValueError):
        build_root_system([[2, -1], [-5, 2]])


def test_cartan_validation():
    with pytest.raises(ValueError):
        build_root_system([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        build_root_system([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        build_root_system([[2, -1], [0, 2]])


def test_symmetrizer_makes_pairing_symmetric():
    for name in ("A2", "B2", "C2", "G2"):
        rs = build_root_system(name)
        n = rs.rank
        assert min(rs.sym) == 1
        for i, j in itertools.product(range(n), repeat=2):
            assert rs.sym[i] * rs.cartan[i][j] == rs.sym[j] * rs.cartan[j][i]


def test_simple_reflection_action():
    rs = build_root_system("A2")
    r1 = rs.simple(1)
    assert r1.act_root((1, 0)) == (-1, 0)
    assert r1.act_root((0, 1)) == (1, 1)
    for i in (1, 2):
        ri = rs.simple(i)
        assert (ri * ri).is_identity()


def test_group_laws_and_braid():
    rs = build_root_system("A2")
    e = rs.identity()
    r1, r2 = rs.simple(1), rs.simple(2)
    w = r1 * r2
    assert e * w == w and w * e == w
    assert r1 * r2 * r1 == r2 * r1 * r2
    for elem in rs.weyl_elements():
        assert (elem * elem.inverse()).is_identity()


def test_mixed_root_systems_rejected():
    a = build_root_system("A2").simple(1)
    b = build_root_system("B2").simple(1)
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_weyl_table_gives_the_matrix_products_and_word_inverses(name):
    """Products and inverses are looked up per root system; every ordered pair
    matches the matrix product, every inverse the reversed word, and a second
    call returns the same element.  The table is keyed by the elements, and a
    product across systems, even of one type, raises."""
    rs = build_root_system(name)
    elements = rs.weyl_elements()
    identity = rs.identity()
    for a, b in itertools.product(elements, repeat=2):
        product = a * b
        assert product is rs.element(rootsystem._mat_mul(a.matrix, b.matrix))
        assert a * b is product
    for w in elements:
        inverse = w.inverse()
        assert inverse == rs.from_word(reversed(w.word))
        assert w * inverse is identity and inverse * w is identity
        assert w.inverse() is inverse
    twin = build_root_system(name)
    for a, b in ((elements[-1], twin.weyl_elements()[-1]), (twin.identity(), identity)):
        with pytest.raises(ValueError):
            a * b


@pytest.mark.parametrize(
    "spec", ["A1", "A2", "B2", "G2", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]], ids=["A1", "A2", "B2", "G2", "cartan-B3"]
)
def test_every_route_to_an_element_returns_its_one_instance(spec):
    """A group element is one object, so it is its own dict key and equal only
    to itself; a second system of the same type has equal matrices and words
    but elements that neither compare equal nor multiply with these."""
    rs = build_root_system(spec)
    elements = rs.weyl_elements()
    identity = rs.identity()
    assert all(a is b for a, b in zip(elements, rs.weyl_elements()))
    assert identity is elements[0] is rs.from_word(())
    for w in elements:
        assert rs.element(w.matrix) is w and rs.from_word(w.word) is w
        assert w.inverse() is rs.from_word(reversed(w.word)) and w.inverse().inverse() is w
        assert w * identity is w and identity * w is w
        assert w.is_identity() == (w is identity)
    for i in range(1, rs.rank + 1):
        assert rs.simple(i) is rs.from_word((i,)) is rs.element(rs.reflection_matrix(i))
    for a, b in itertools.product(elements, repeat=2):
        assert a * b is rs.from_word(a.word + b.word)
        assert (a == b) == (a is b)
    assert len({w: w.word for w in elements}) == len(elements) == len({w.matrix for w in elements})
    twin = build_root_system(spec)
    for a, b in zip(elements, twin.weyl_elements()):
        assert (a.matrix, a.word) == (b.matrix, b.word) and a != b
        with pytest.raises(ValueError):
            a * b


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_length_changes_by_one(name):
    rs = build_root_system(name)
    for w in rs.weyl_elements():
        for i in range(1, rs.rank + 1):
            assert abs((w * rs.simple(i)).length - w.length) == 1


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_longest_element_properties(name):
    rs = build_root_system(name)
    w0 = rs.longest_element()
    assert (w0 * w0).is_identity()
    for w in rs.weyl_elements():
        assert (w0 * w).length == w0.length - w.length


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_simple_reflection_permutes_other_positive_roots(name):
    rs = build_root_system(name)
    for i in range(1, rs.rank + 1):
        ri = rs.simple(i)
        others = set(rs.positive_roots) - {rs.simple_root(i)}
        assert {ri.act_root(r) for r in others} == others


def test_canonical_words_are_reduced_and_least():
    rs = build_root_system("B2")
    for w in rs.weyl_elements():
        # every generator sequence reproducing the matrix is at least as long
        # and lexicographically no smaller among equal-length ones
        assert rs.from_word(w.word) == w
        for word in itertools.product((1, 2), repeat=w.length):
            if rs.from_word(word) == w:
                assert word >= w.word


def test_weyl_cap(monkeypatch):
    monkeypatch.setattr(rootsystem, "WEYL_CAP", 3)
    with pytest.raises(ValueError):
        build_root_system("A2").weyl_elements()


def test_named_cartan_errors():
    with pytest.raises(ValueError):
        named_cartan("G3")
    with pytest.raises(ValueError):
        named_cartan("Z2")
    with pytest.raises(ValueError):
        named_cartan("B1")
