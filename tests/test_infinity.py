import pytest

from lbk.fixtures import fan, lambda_tree, single_apartment
from lbk.infinity import infinity_complex
from lbk.modelfile import parse_model


@pytest.mark.parametrize("name,count", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12)])
def test_single_chart_chamber_counts(name, count):
    complex_ = infinity_complex(single_apartment(name, 1))
    assert complex_.chamber_count == count
    assert complex_.apartment_count == 1
    assert not complex_.issues


def test_tripod_counts():
    complex_ = infinity_complex(lambda_tree(3))
    assert complex_.chamber_count == 3
    assert complex_.apartment_count == 3
    assert not complex_.issues


@pytest.mark.parametrize("ends", [2, 3, 4, 5])
def test_tree_counts(ends):
    complex_ = infinity_complex(lambda_tree(ends))
    assert complex_.chamber_count == ends
    assert complex_.apartment_count == ends * (ends - 1) // 2
    assert not complex_.issues


def test_tree_adjacency_is_complete_graph_on_ends():
    complex_ = infinity_complex(lambda_tree(4))
    pairs = complex_.adjacency[1]
    assert len(pairs) == 6  # every pair of ends shares the rank-1 panel class


def test_fan_thinness_and_distinct_apartments():
    for leaves in (2, 3, 4):
        complex_ = infinity_complex(fan(leaves))
        assert not complex_.issues
        # each apartment keeps the full chamber count of the model
        for chart, chambers in complex_.apartments.items():
            assert len(set(chambers)) == 6


def test_each_chart_direction_has_a_chamber():
    atlas = lambda_tree(3)
    complex_ = infinity_complex(atlas)
    for chart in atlas.charts():
        for w in atlas.apartment.directions():
            assert complex_.chamber(chart, w) in range(complex_.chamber_count)


def test_lines_render():
    lines = infinity_complex(lambda_tree(3)).lines()
    assert lines[0] == "chambers 3"
    assert lines[1] == "apartments 3"
    assert lines[-1] == "RESULT thin"


# Three A2 charts glued on the whole plane, one glue by the reflection r1:
# every chart sees the same three chambers, so chamber counts, distinct
# apartments and thinness all fail.
DEGENERATE = """\
lambda 1
roots A2
charts 3
glue 1 2 : ; word ; t (0,0)
glue 2 3 : ; word ; t (0,0)
glue 1 3 : ; word 1 ; t (0,0)
"""


def test_degenerate_atlas_lines_are_pinned():
    lines = infinity_complex(parse_model(DEGENERATE)).lines()
    thinness = [
        f"VIOLATION thinness fails in apartment {chart} at direction {w} type {t}"
        for chart in (1, 2, 3)
        for w, t in (("e", 1), ("r1", 1), ("r1*r2*r1", 2), ("r2*r1", 2))
    ]
    assert lines == [
        "chambers 3",
        "apartments 1",
        "apartment 1 : 0 1 2",
        "apartment 2 : 0 1 2",
        "apartment 3 : 0 1 2",
        "adjacency 1 : 1~2",
        "adjacency 2 : 0~1",
        "VIOLATION apartment 1 has 3 chambers, expected 6",
        "VIOLATION apartment 2 has 3 chambers, expected 6",
        "VIOLATION apartment 3 has 3 chambers, expected 6",
        "VIOLATION charts 1 and 2 give the same apartment at infinity",
        "VIOLATION charts 1 and 3 give the same apartment at infinity",
        *thinness,
        "RESULT degenerate",
    ]
