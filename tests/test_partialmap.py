from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qendo.partialmap import EMPTY_MAP, FinitePartialMap, MergeConflictError

from util import fractions_anywhere


def pm(*pairs):
    return FinitePartialMap.from_pairs([(F(a), F(b)) for a, b in pairs])


def test_sorting_and_text():
    m = pm((3, 5), (0, 1), (1, 2))
    assert m.pairs == ((F(0), F(1)), (F(1), F(2)), (F(3), F(5)))
    assert str(m) == "0 -> 1, 1 -> 2, 3 -> 5"


def test_partial_automorphism_check():
    assert pm((0, 0), (1, 5)).is_partial_automorphism()
    assert not pm((0, 5), (1, 5)).is_partial_automorphism()  # not injective
    assert not pm((0, 5), (1, 0)).is_partial_automorphism()  # order flipped
    assert EMPTY_MAP.is_partial_automorphism()


@given(st.lists(st.tuples(fractions_anywhere(10),
                          fractions_anywhere(10)), max_size=8))
@example([(F(1), F(2)), (F(0), F(5)), (F(1), F(3))])  # 1 given two images
@example([(F(1), F(2)), (F(0), F(5)), (F(1), F(2))])  # 1 given one image twice
def test_from_pairs_agrees_with_graph(pairs):
    graph = {}
    for x, y in pairs:
        graph.setdefault(x, set()).add(y)
    if any(len(ys) > 1 for ys in graph.values()):
        with pytest.raises(MergeConflictError):
            FinitePartialMap.from_pairs(pairs)
        return
    m = FinitePartialMap.from_pairs(pairs)
    assert tuple(x for x, _ in m.pairs) == tuple(sorted(graph))
    for x, y in m.pairs:
        assert graph[x] == {y}


@given(st.lists(fractions_anywhere(10), min_size=1, max_size=8,
                unique=True),
       st.lists(fractions_anywhere(10), min_size=1, max_size=8,
                unique=True))
@example([F(0), F(1, 2)], [F(0), F(1, 2)])  # xs == ys: the identity
def test_sorted_zip_is_automorphism(xs, ys):
    n = min(len(xs), len(ys))
    m = FinitePartialMap.from_pairs(zip(sorted(xs)[:n], sorted(ys)[:n]))
    assert m.is_partial_automorphism()
