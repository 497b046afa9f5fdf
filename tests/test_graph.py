import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barygap.errors import InputError, ResourceCapError
from barygap.graph import (
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    even_k_doubling,
    has_k_clique,
    induced_edge_count,
    max_multiset_edges,
    petersen_graph,
    random_regular_graph,
)

K4 = complete_graph(4)
C4 = cycle_graph(4)
C5 = cycle_graph(5)


def test_induced_edge_count_examples():
    assert induced_edge_count(K4, (0, 1, 2, 3)) == 6
    assert induced_edge_count(K4, (0, 0, 1)) == 2
    assert induced_edge_count(C5, (0, 1, 2)) == 2


def test_induced_edge_count_rejects_bad_vertex():
    with pytest.raises(InputError):
        induced_edge_count(K4, (0, 4))
    with pytest.raises(InputError):
        induced_edge_count(K4, (-1, 1))


def test_max_multiset_edges_examples():
    assert max_multiset_edges(K4, 3) == 3
    assert max_multiset_edges(C5, 3) == 2
    assert max_multiset_edges(C4, 3) == 2


def test_max_multiset_edges_cap():
    with pytest.raises(ResourceCapError):
        max_multiset_edges(K4, 12)


def test_has_k_clique_examples():
    assert has_k_clique(K4, 4)
    assert not has_k_clique(C5, 3)
    assert not has_k_clique(petersen_graph(), 3)  # triangle-free


def test_even_k_doubling_examples():
    g2, k2 = even_k_doubling(K4, 3)
    assert g2.n == 8 and g2.regular_degree() == 7 and k2 == 6
    assert has_k_clique(g2, 6)
    g2, k2 = even_k_doubling(C5, 3)
    assert g2.n == 10 and g2.regular_degree() == 7 and k2 == 6
    assert not has_k_clique(g2, 6)
    g2, k2 = even_k_doubling(complete_graph(2), 1)
    assert g2.n == 4 and g2.regular_degree() == 3 and k2 == 2
    assert has_k_clique(g2, 2)


def test_even_k_doubling_requires_regular():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InputError):
        even_k_doubling(star, 2)


def test_doubling_matches_oracle_on_random_graphs():
    pool = [(4, 2), (5, 2), (6, 3), (6, 2), (7, 2), (5, 4), (6, 5), (4, 3),
            (7, 4), (8, 3), (6, 4), (8, 5), (7, 6), (8, 4), (5, 2), (6, 3),
            (7, 2), (8, 3), (6, 4), (4, 3)]
    for i, (n, d) in enumerate(pool):
        g = random_regular_graph(n, d, seed=100 + i)
        for k in (2, 3):
            g2, k2 = even_k_doubling(g, k)
            assert g2.is_regular()
            assert g2.regular_degree() == d + n
            assert has_k_clique(g2, k2) == has_k_clique(g, k)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tuple_permutation_invariance(data):
    n = data.draw(st.integers(3, 7))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    g = Graph.from_edges(n, edges)
    t = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4))
    perm = data.draw(st.permutations(t))
    assert induced_edge_count(g, t) == induced_edge_count(g, perm)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_max_edges_bound_and_clique_equivalence(data):
    n = data.draw(st.integers(3, 6))
    k = data.draw(st.integers(2, min(4, n)))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    g = Graph.from_edges(n, edges)
    best = max_multiset_edges(g, k)
    top = math.comb(k, 2)
    assert best <= top
    assert (best == top) == has_k_clique(g, k)


def test_generators():
    assert petersen_graph().is_regular()
    assert petersen_graph().regular_degree() == 3
    assert len(petersen_graph().edges) == 15
    c = circulant_graph(7, [1, 2])
    assert c.is_regular() and c.regular_degree() == 4
    with pytest.raises(InputError):
        circulant_graph(5, [0])
    g = random_regular_graph(8, 3, seed=7)
    assert g.is_regular() and g.regular_degree() == 3
    # determinism
    assert random_regular_graph(8, 3, seed=7).edges == g.edges
    with pytest.raises(InputError):
        random_regular_graph(5, 3, seed=0)  # odd n*D


def test_graph_json_roundtrip(tmp_path):
    g = random_regular_graph(6, 3, seed=2)
    path = tmp_path / "g.json"
    g.save(path)
    back = Graph.load(path)
    assert back.edges == g.edges and back.n == g.n
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "edges"}
    assert all(u < v for u, v in raw["edges"])


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])
    g = Graph.from_edges(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1
