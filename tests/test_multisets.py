import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multires.errors import GraphValidationError
from multires.generators import gen_cycle, gen_path, gen_star
from multires.graph import all_pairs_distances
from multires.multisets import (
    Variant,
    is_resolving,
    scope_pairs,
    vertex_keys,
    violating_pairs,
)

from strategies import connected_graphs


def test_variant_finiteness():
    # the README's table: (kind, only edges compared, pairs with an end in W
    # dropped, never infinite)
    table = {
        Variant.DIM: ("vector", False, False, True),
        Variant.LDIM: ("vector", True, False, True),
        Variant.MD: ("multiset", False, False, False),
        Variant.DIM_MS: ("multiset", False, True, True),
        Variant.LMD: ("multiset", True, False, False),
        Variant.LDIM_MS: ("multiset", True, True, True),
    }
    assert list(table) == list(Variant)
    for v, facts in table.items():
        assert (v.kind, v.adjacent, v.outer, v.always_finite) == facts


@settings(max_examples=100, deadline=None)
@given(connected_graphs(n_max=6), st.data())
def test_multiset_is_order_insensitive_and_idempotent(g, data):
    d = all_pairs_distances(g)
    W = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=g.n - 1),
            min_size=1,
            max_size=g.n,
            unique=True,
        )
    )
    rows = [d[w] for w in W]
    bags = vertex_keys(rows, "multiset")
    assert bags == vertex_keys(rows[::-1], "multiset")
    for u, bag in enumerate(bags):
        assert bag == tuple(sorted(bag))
        assert bag == tuple(sorted(d[u][w] for w in W))


def test_vertex_keys_vector_follows_row_order():
    d = all_pairs_distances(gen_path(4))
    assert vertex_keys([d[3], d[1]], "vector")[0] == (3, 1)
    assert vertex_keys([d[3], d[1]], "multiset")[0] == (1, 3)


def test_scope_pairs():
    g = gen_star(3)  # center 0, leaves 1..3
    every = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = [(0, 1), (0, 2), (0, 3)]
    want = {
        Variant.DIM: every,
        Variant.MD: every,
        Variant.LDIM: edges,
        Variant.LMD: edges,
        Variant.DIM_MS: [(0, 2), (0, 3), (2, 3)],
        Variant.LDIM_MS: [(0, 2), (0, 3)],
    }
    for variant in Variant:
        assert list(scope_pairs(g, (1,), variant)) == want[variant]
    # a landmark at the centre leaves no edge outside W
    assert list(scope_pairs(g, (0,), Variant.LDIM_MS)) == []


def test_is_resolving_c4():
    g = gen_cycle(4)
    # a single landmark separates the two colour classes locally
    assert is_resolving(g, (0,), Variant.LMD)
    assert not is_resolving(g, (0,), Variant.DIM)
    assert is_resolving(g, (0, 1), Variant.DIM)
    # opposite vertices both see {1, 1}: not a multiset resolving set
    assert not is_resolving(g, (0, 1), Variant.MD)


def test_violating_pairs_reports_colliding_edge():
    g = gen_cycle(3)
    assert violating_pairs(g, (0,), Variant.LMD) == [(1, 2)]
    assert violating_pairs(g, (0,), Variant.LDIM_MS) == [(1, 2)]


def test_candidate_validation():
    g = gen_path(3)
    with pytest.raises(GraphValidationError):
        is_resolving(g, (), Variant.DIM)
    with pytest.raises(GraphValidationError):
        is_resolving(g, (7,), Variant.DIM)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(n_max=6))
def test_vector_resolving_implies_multiset_scope_containment(g):
    """On a fixed W, the all-pairs scopes dominate the adjacent ones."""
    W = tuple(range(g.n - 1)) or (0,)
    if is_resolving(g, W, Variant.MD):
        assert is_resolving(g, W, Variant.LMD)
        assert is_resolving(g, W, Variant.DIM)
    if is_resolving(g, W, Variant.DIM):
        assert is_resolving(g, W, Variant.LDIM)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(n_max=8), st.data())
def test_violating_pairs_match_the_definition(g, data):
    """The same pairs, in the same order, as a scan of scope_pairs."""
    d = all_pairs_distances(g)
    W = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=g.n - 1),
                min_size=1,
                max_size=g.n,
                unique=True,
            )
        )
    )
    for variant in Variant:
        if variant.kind == "vector":
            keys = [tuple(d[u][w] for w in sorted(W)) for u in range(g.n)]
        else:
            keys = [tuple(sorted(d[u][w] for w in W)) for u in range(g.n)]
        want = [
            (u, v) for u, v in scope_pairs(g, W, variant) if keys[u] == keys[v]
        ]
        got = violating_pairs(g, W, variant)
        assert got == want
        assert is_resolving(g, W, variant) == (not got)
