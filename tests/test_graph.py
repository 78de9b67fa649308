from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from multires import graph
from multires.bounds import infinite_certificates, lower_bounds
from multires.errors import (
    CapExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GraphValidationError,
    NoLeaflessSubgraphError,
)
from multires.generators import (
    gen,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_star,
    gen_wheel,
    parse_family_spec,
)
from multires.graph import (
    Graph,
    _maximal_cliques,
    all_pairs_distances,
    bipartition,
    chromatic_number,
    clique_number,
    distance_row,
    k_end_groups,
    maximal_cliques,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
    twin_classes,
    two_core,
    within_two_hops,
)
from multires.multisets import Variant, is_resolving
from multires.solver import certify, solve_all

from strategies import connected_graphs


def test_graph_dedupes_and_sorts_edges():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.degree(1) == 2


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(GraphValidationError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphValidationError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphValidationError):
        Graph(0, [])


def test_parse_edge_list_with_comments():
    g = parse_edge_list("# a triangle\n0 1\n1 2  # closing\n0 2\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_edge_list_errors():
    with pytest.raises(GraphParseError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("0 x\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("# nothing\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("0 -1\n")
    with pytest.raises(GraphValidationError):
        parse_edge_list("1 1\n")  # a loop
    with pytest.raises(DisconnectedGraphError):
        parse_edge_list("0 1\n2 3\n")


def test_edge_list_round_trip():
    g = gen_wheel(5)
    assert parse_edge_list(to_edge_list(g)) == g


def test_graph6_known_values():
    # petersen graph in its standard graph6 form
    petersen = parse_graph6("IheA@GUAo")
    assert petersen.n == 10
    assert all(petersen.degree(u) == 3 for u in range(10))
    assert all_pairs_distances(petersen).diameter == 2


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A_").n == 2
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("A")  # truncated bit vector
    for text in ("A!", "~??", "?"):  # bad character, size header, no vertex
        with pytest.raises(GraphParseError):
            parse_graph6(text)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(n_max=7))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_above_62_vertices_matches_networkx():
    nx = pytest.importorskip("networkx")
    g = gen_wheel(100)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    line = to_graph6(g)
    assert line.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)
    assert parse_graph6(line) == g


def test_graph6_encoder_rejects_n_above_the_four_byte_header():
    with pytest.raises(GraphValidationError, match="n <= 258047"):
        to_graph6(SimpleNamespace(n=258048))


def test_distances_path():
    dm = all_pairs_distances(gen_path(5))
    assert dm.d[0][4] == 4
    assert dm.diameter == 4


@pytest.mark.parametrize(
    "g",
    [gen_path(7), gen_cycle(9), gen_wheel(6), gen_star(5), gen_complete(1)],
    ids=["path", "cycle", "wheel", "star", "k1"],
)
def test_diameter_is_the_largest_distance(g):
    dm = all_pairs_distances(g)
    assert dm.diameter == max(map(max, dm.d))
    assert repr(dm) == f"DistMatrix(n={g.n}, diameter={dm.diameter})"


@settings(max_examples=100, deadline=None)
@given(connected_graphs(n_max=7))
def test_distance_matrix_axioms(g):
    dm = all_pairs_distances(g)
    for u in range(g.n):
        assert dm.d[u][u] == 0
        for v in range(g.n):
            assert dm.d[u][v] == dm.d[v][u]
            assert (dm.d[u][v] == 1) == (v in g.adj[u])


def test_bipartition():
    assert bipartition(gen_cycle(6)) is not None
    assert bipartition(gen_cycle(5)) is None
    colors = bipartition(gen_star(4))
    assert colors[0] == 0 and set(colors[1:]) == {1}


def test_maximal_cliques_wheel():
    cliques = maximal_cliques(gen_wheel(5))
    assert all(len(c) == 3 for c in cliques)
    assert len(cliques) == 5
    assert clique_number(gen_wheel(5)) == 3


def test_clique_cap():
    with pytest.raises(CapExceededError):
        maximal_cliques(gen_path(25), cap=20)
    with pytest.raises(CapExceededError):
        chromatic_number(gen_wheel(16))  # n = 17 > CHI_CAP


@pytest.mark.parametrize(
    "g,chi",
    [
        (gen_path(4), 2),
        (gen_cycle(5), 3),
        (gen_cycle(6), 2),
        (gen_complete(6), 6),
        (gen_wheel(5), 4),
        (gen_wheel(6), 3),
        (Graph(1, []), 1),
    ],
)
def test_chromatic_number(g, chi):
    assert chromatic_number(g) == chi


def test_two_core_strips_pendants():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    core, kept = two_core(g)
    assert kept == (0, 1, 2)
    assert core == gen_cycle(3)
    with pytest.raises(NoLeaflessSubgraphError):
        two_core(gen_path(4))


# --- twin classes, and the K-end groups read off them -----------------------

# K_4 with one pendant vertex: three clique vertices keep degree 3
K4_PENDANT = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


def test_twin_classes():
    assert twin_classes(gen_star(3)) == {frozenset({0}): (1, 2, 3)}
    assert twin_classes(gen_cycle(5)) == {}
    assert twin_classes(gen_star(3), closed=True) == {}
    assert twin_classes(K4_PENDANT, closed=True) == {frozenset(range(4)): (0, 1, 2)}
    assert k_end_groups(K4_PENDANT) == (((0, 1, 2, 3), (0, 1, 2)),)
    # memoized, so callers share one mapping and cannot change it
    with pytest.raises(TypeError):
        twin_classes(gen_star(3))[frozenset()] = ()


def _k_end_reference(g):
    """The K-end groups by their definition: for each maximal clique of
    order r >= 3, the vertices of degree r - 1, if there are two or more."""
    groups = []
    for clique in maximal_cliques(g):
        r = len(clique)
        ends = tuple(sorted(u for u in clique if g.degree(u) == r - 1))
        if r >= 3 and len(ends) >= 2:
            groups.append((tuple(sorted(clique)), ends))
    return tuple(sorted(groups))


@pytest.mark.parametrize(
    "g",
    [pytest.param(K4_PENDANT, id="k4_pendant"), pytest.param(gen_cycle(6), id="cycle:6")]
    + [
        pytest.param(gen(parse_family_spec(spec)), id=spec)
        for spec in (
            "path:2",
            "wheel:14",
            "wheel:15",
            "corona:path:5/2,2,2,2,2",
            "gadget:8",
            "cycle:16",
            "amal:4,4,3",
            "complete:20",
        )
    ],
)
def test_k_end_groups_match_the_definition(g):
    assert k_end_groups(g) == _k_end_reference(g)


def test_k_end_groups_match_the_definition_on_every_class_up_to_7(classes7):
    mismatched = [g.edges for g, _ in classes7 if k_end_groups(g) != _k_end_reference(g)]
    assert mismatched == []


# --- the per-graph memo: distances and cliques are built once per graph -----


def _clear_memos():
    all_pairs_distances.cache_clear()
    graph._rows.cache_clear()
    _maximal_cliques.cache_clear()


def test_solve_all_builds_distances_and_cliques_once():
    _clear_memos()
    g = gen_wheel(8)
    solve_all(g)
    assert all_pairs_distances.cache_info().misses == 1
    assert _maximal_cliques.cache_info().misses == 0  # the solver needs none
    lower_bounds(g)
    assert _maximal_cliques.cache_info().misses == 1


def test_solve_all_builds_the_closed_twin_classes_once(monkeypatch):
    # the certificates and the LMD and LDIM_MS K-end rules share one memoized
    # k_end_groups call, and the twin rules read the memoized classes
    infinite_certificates.cache_clear()
    k_end_groups.cache_clear()
    graph._twins.cache_clear()
    calls = []
    twins = graph.twin_classes

    def counting(g, closed=False):
        calls.append(closed)
        return twins(g, closed)

    monkeypatch.setattr(graph, "twin_classes", counting)
    solve_all(gen_wheel(8))
    assert calls.count(True) == 1
    assert graph._twins.cache_info().misses == 1
    assert set(graph._twins(gen_wheel(8))) == {False, True}  # one memo, both kinds


@pytest.fixture
def bfs_sources(monkeypatch):
    """Clear the memos; the returned list collects the source of every BFS."""
    _clear_memos()
    sources = []
    bfs = graph._bfs

    def counting_bfs(g, s):
        sources.append(s)
        return bfs(g, s)

    monkeypatch.setattr(graph, "_bfs", counting_bfs)
    return sources


def test_lower_bounds_then_certify_build_no_matrix(bfs_sources):
    g = gen_wheel(30)
    lower_bounds(g)
    assert bfs_sources == [0]  # connectivity and bipartition share row 0
    for variant in Variant:
        certify(g, (0, 1, 2), variant)
    assert all_pairs_distances.cache_info().misses == 0
    assert sorted(bfs_sources) == [0, 1, 2]


def test_distance_rows_are_shared_with_the_matrix(bfs_sources):
    g = gen_cycle(7)
    assert distance_row(g, 3) == (3, 2, 1, 0, 1, 2, 3)
    dm = all_pairs_distances(g)
    assert dm.d[3] is distance_row(g, 3)
    assert sorted(bfs_sources) == list(range(7))


def test_a_parsed_graph_runs_each_bfs_once(bfs_sources):
    # the parser's connectivity check is the memoized row of vertex 0
    g = parse_graph6("IheA@GUAo")  # Petersen, n = 10
    assert bfs_sources == [0]
    all_pairs_distances(g)
    assert sorted(bfs_sources) == list(range(10))


def test_clique_cap_is_checked_on_a_memo_hit():
    maximal_cliques(gen_complete(5))
    with pytest.raises(CapExceededError):
        maximal_cliques(gen_complete(5), cap=4)


def test_disconnected_graph_raises_every_time():
    g = Graph(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError):
            all_pairs_distances(g)


def test_equal_graphs_get_equal_distances():
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(2, 3), (1, 2), (0, 1)])
    assert a is not b and a == b
    assert all_pairs_distances(a).d == all_pairs_distances(b).d


DISCONNECTED = Graph(5, [(0, 1), (2, 3), (3, 4)])


@pytest.mark.parametrize(
    "call",
    [
        lambda g: distance_row(g, 3),
        lower_bounds,
        infinite_certificates,
        lambda g: certify(g, (3,), Variant.MD),
        lambda g: is_resolving(g, (3,), Variant.LDIM),
        bipartition,
        chromatic_number,
    ],
    ids=[
        "row", "lower_bounds", "certificates", "certify", "is_resolving",
        "bipartition", "chromatic_number",
    ],
)
def test_disconnected_graph_names_the_first_vertex_unreachable_from_0(call):
    _clear_memos()
    message = "no path between vertices 0 and 2"
    with pytest.raises(DisconnectedGraphError, match=message):
        call(DISCONNECTED)


# --- the two-hop test: diameter <= 2 without distances ------------------------


@pytest.mark.parametrize(
    "g,expected",
    [
        (gen_complete(1), True),
        (gen_complete(2), True),
        (gen_path(3), True),
        (gen_cycle(5), True),
        (gen_wheel(7), True),
        (parse_graph6("IheA@GUAo"), True),  # Petersen
        (gen_path(4), False),
        (gen_cycle(6), False),
        (gen_wheel(300), True),  # the hub's ball is every vertex
        (gen_cycle(400), False),  # n - 1 > Delta**2: no ball is built
        (gen_star(40), True),
    ],
    ids=[
        "k1", "k2", "p3", "c5", "wheel", "petersen", "p4", "c6",
        "wheel300", "c400", "star40",
    ],
)
def test_within_two_hops_named_graphs(g, expected):
    assert within_two_hops(g) == expected
    assert within_two_hops(g) == (all_pairs_distances(g).diameter <= 2)


def test_within_two_hops_on_every_class_up_to_7(classes7):
    for g, _ in classes7:
        assert within_two_hops(g) == (all_pairs_distances(g).diameter <= 2), g.edges


@settings(max_examples=200, deadline=None)
@given(connected_graphs(n_max=8))
def test_within_two_hops_is_diameter_at_most_two(g):
    assert within_two_hops(g) == (all_pairs_distances(g).diameter <= 2)
