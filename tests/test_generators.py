import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multires import generators
from multires.errors import CapExceededError, GraphValidationError
from multires.generators import (
    ALL_CONNECTED_CAP,
    CORPUS_CAP,
    FamilySpec,
    all_connected,
    canonical_form,
    connected_classes,
    gen,
    gen_amal,
    gen_clique_gadget,
    gen_corona,
    gen_edge_amal,
    gen_join,
    gen_path,
    gen_unicyclic,
    gen_wheel,
    graph_from_mask,
    parse_family_spec,
)
from multires.graph import (
    Graph,
    all_pairs_distances,
    clique_number,
    distance_row,
    to_graph6,
)
from multires.multisets import Variant
from multires.solver import certify
from strategies import connected_graphs


# each spec's labelled graph, in graph6, as the labelling contract fixes it;
# the last six glue cliques of order 1 or 2, or none at all
SPEC_GRAPH6 = {
    "path:5": "DhC",
    "cycle:8": "GhCGKC",
    "complete:4": "C~",
    "star:3": "Cs",
    "wheel:8": "HhCGKF~",
    "amal:3,3,4": "G{eCKK",
    "edge_amal:4,4": "E~rG",
    "corona:path:3/2,2,2": "HkdAH?`",
    "join:cycle:5+path:2": "Fhf~w",
    "unicyclic:5/1,5": "Fhd?G",
    "gadget:8": "S~~~~}[?Is?@?@??eo??@??C??G??G??C",
    "amal:1,3": "Bw",
    "edge_amal:2,2": "A_",
    "corona:path:1/1": "A_",
    "unicyclic:3": "Bw",
    "unicyclic:4/0,4,5": "Fl_GG",
    "star:1": "A_",
}


@pytest.mark.parametrize("text", SPEC_GRAPH6)
def test_spec_string_round_trip(text):
    spec = parse_family_spec(text)
    assert str(spec) == text
    assert parse_family_spec(str(spec)) == spec
    g = gen(spec)
    distance_row(g, 0)  # raises if disconnected
    assert to_graph6(g) == SPEC_GRAPH6[text]


def test_spec_parse_accepts_edgeamal_alias():
    assert parse_family_spec("edgeamal:3,3").tag == "edge_amal"


@pytest.mark.parametrize(
    "text",
    ["housing:3", "wheel", "wheel:x", "corona:path:3", "join:cycle:5", "amal:"],
)
def test_spec_parse_errors(text):
    with pytest.raises(GraphValidationError):
        parse_family_spec(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("amal:3", "amal needs m >= 2 cliques"),
        ("amal:0,2", "amal needs n_i >= 1"),
        ("edge_amal:1,3", "edge_amal needs n_i >= 2"),
        ("corona:path:3/2,2", r"corona needs one clique order per base vertex \(3\), got 2"),
        ("corona:path:2/0,1", "corona needs m_i >= 1"),
        ("unicyclic:2", "unicyclic needs cycle length >= 3"),
        ("unicyclic:4/7", "unicyclic parent 7 must reference an existing vertex < 4"),
        ("star:0", "star needs m >= 1 leaves"),
    ],
)
def test_construction_rejects_bad_parameters(text, message):
    # each spec parses; the family's constructor rejects it
    spec = parse_family_spec(text)
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        gen(spec)


def test_gen_rejects_unknown_tag():
    # a FamilySpec built directly never passes through parse_family_spec
    with pytest.raises(GraphValidationError):
        gen(FamilySpec("housing", (3,)))


def test_wheel_layout():
    g = gen_wheel(6)
    assert g.n == 7
    assert g.degree(6) == 6  # hub is the last vertex
    assert all(g.degree(i) == 3 for i in range(6))


def test_amal_counts():
    g = gen_amal((3, 3, 4))
    assert g.n == 1 + 2 + 2 + 3
    assert g.degree(0) == 7  # identified vertex belongs to every clique
    assert clique_number(g) == 4


def test_edge_amal_counts():
    g = gen_edge_amal((4, 4))
    assert g.n == 2 + 2 + 2
    assert (0, 1) in g.edges
    assert g.degree(0) == g.degree(1) == 5


def test_corona_layout():
    base = gen_path(3)
    g = gen_corona(base, (2, 2, 2))
    assert g.n == 9
    # each base vertex forms a triangle with its pendant pair
    assert clique_number(g) == 3
    with pytest.raises(GraphValidationError):
        gen_corona(base, (2, 2))


def test_join_is_complete_between_parts():
    g = gen_join(gen_path(2), gen_path(3))
    assert g.n == 5
    assert all((u, v + 2) in g.edges for u in range(2) for v in range(3))


def test_unicyclic_parent_validation():
    g = gen_unicyclic(5, (1, 5))
    assert g.n == 7
    assert (5, 6) in g.edges  # second tree vertex hangs off the first
    with pytest.raises(GraphValidationError):
        gen_unicyclic(4, (7,))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_clique_gadget_structure(n):
    gadget = gen_clique_gadget(n)
    g = gadget.graph
    assert clique_number(g) == max(n, 2)
    assert len(gadget.clique) == n
    k = max(1, (n - 1).bit_length())
    assert len(gadget.landmarks) == k
    for variant in (Variant.LMD, Variant.LDIM_MS):
        assert certify(g, gadget.landmarks, variant).valid


def test_clique_gadget_labels_match_distances():
    # n = 3 and 5..7, 9..15, 17..31 leave clique vertices out; 4, 8, 16, 32 do not
    for n in range(3, 33):
        gadget = gen_clique_gadget(n)
        d = all_pairs_distances(gadget.graph)
        assert sorted(gadget.labels) == list(gadget.clique)
        for v, vec in gadget.labels.items():
            assert tuple(d[v][w] for w in gadget.landmarks) == vec


@pytest.mark.parametrize(
    "n,graph6,landmarks",
    [
        # n = 3 leaves out the all-odd vertex; 5..7 leave out mixed ones
        (3, "H|D_GC@", (4, 8)),
        (5, "P~}OI_@?G?e??@??_?G?@??C", (6, 10, 16)),
        (6, "Q~~{_DW?G?_@M???_?G?@??C??G", (7, 11, 17)),
        (7, "R~~~{o@T??_@?@N???G?@??C??G??G", (8, 12, 18)),
        # n = 2 is K_2 itself, with no pendant paths and no labels
        (2, "A_", (0,)),
    ],
)
def test_clique_gadget_labelling_is_pinned(n, graph6, landmarks):
    # the labelling fixes the solver's witnesses on gadget graphs
    gadget = gen_clique_gadget(n)
    assert to_graph6(gadget.graph) == graph6
    assert gadget.landmarks == landmarks


def test_graph_from_mask():
    assert graph_from_mask(3, 0b111).edges == ((0, 1), (0, 2), (1, 2))
    assert graph_from_mask(3, 0).edges == ()


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)])
def test_all_connected_counts(n, count):
    assert sum(1 for _ in all_connected(n)) == count


def test_all_connected_cap():
    with pytest.raises(CapExceededError):
        next(all_connected(ALL_CONNECTED_CAP + 1))
    with pytest.raises(GraphValidationError):
        next(all_connected(0))


def test_connected_class_counts(classes7):
    # OEIS A001349 classes; A001187 labeled graphs, as sum n!/|Aut|
    classes = [0] * 8
    labeled = [0] * 8
    for g, automorphisms in classes7:
        distance_row(g, 0)  # raises if disconnected
        classes[g.n] += 1
        labeled[g.n] += math.factorial(g.n) // automorphisms
    assert classes[1:] == [1, 1, 2, 6, 21, 112, 853]
    assert labeled[1:] == [1, 1, 4, 38, 728, 26704, 1866256]


def test_connected_classes_rejects_empty_range():
    with pytest.raises(GraphValidationError):
        next(connected_classes(0))


def test_connected_classes_are_capped_before_any_class_is_built(monkeypatch):
    monkeypatch.setattr(generators, "Graph", None)  # building one would raise TypeError
    with pytest.raises(CapExceededError, match="n=9 > cap=8"):
        next(connected_classes(CORPUS_CAP + 1))


def _order(text):
    """|Aut| of a family member, after checking each generator it comes with."""
    g = gen(parse_family_spec(text))
    _, generators, order = canonical_form(g)
    for p in generators:
        assert Graph(g.n, [(p[u], p[v]) for u, v in g.edges]) == g
    return order


def test_automorphisms_of_small_families():
    assert canonical_form(gen_path(1)) == (0, [], 1)
    assert canonical_form(gen_path(4))[1:] == ([(3, 2, 1, 0)], 2)
    assert _order("wheel:6") == 12  # dihedral group of the rim
    assert _order("star:3") == 6
    assert _order("complete:6") == 720


@pytest.mark.parametrize(
    "text,order",
    [("complete:8", 40320), ("wheel:27", 54), ("join:cycle:15+cycle:15", 1800)],
)
def test_automorphism_group_orders_of_larger_families(text, order):
    # a search that visits one leaf per automorphism walks 40 320 leaves on
    # K8; pruned by its generators each search here refines under 20 nodes
    assert _order(text) == order


def _closure(generators, n):
    """Every product of the generators, the identity included."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        frontier = [
            q
            for q in {tuple(p[v] for v in r) for r in frontier for p in generators}
            if q not in group
        ]
        group.update(frontier)
    return group


@settings(max_examples=60, deadline=None)
@given(connected_graphs(n_max=7), st.randoms(use_true_random=False))
def test_canonical_form_is_label_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    code, generators, order = canonical_form(g)
    assert canonical_form(relabeled)[0] == code
    for p in generators:
        assert sorted(p) == list(range(g.n))
        assert Graph(g.n, [(p[u], p[v]) for u, v in g.edges]) == g
    assert len(_closure(generators, g.n)) == order


def _to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_connected_classes_match_graph_atlas(classes7):
    """One class per connected graph of the atlas (n <= 7), one to one."""
    nx = pytest.importorskip("networkx")
    atlas = [
        a for a in nx.graph_atlas_g()[1:] if nx.is_connected(a)
    ]  # entry 0 is the empty graph

    def invariant(h):  # each vertex's degree and its neighbours' degrees
        return str(sorted((h.degree(v), sorted(h.degree(u) for u in h[v])) for v in h))

    unmatched = {}
    for g, _ in classes7:
        h = _to_networkx(nx, g)
        unmatched.setdefault(invariant(h), []).append(h)
    assert len(atlas) == len(classes7)
    for a in atlas:
        bucket = unmatched.get(invariant(a), [])
        hits = [h for h in bucket if nx.is_isomorphic(a, h)]
        assert len(hits) == 1, nx.to_graph6_bytes(a, header=False)
        bucket.remove(hits[0])


def test_automorphism_counts_match_graph_matcher(classes7):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for g, automorphisms in classes7:
        if g.n > 6:
            break
        h = _to_networkx(nx, g)
        assert automorphisms == sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["path", "cycle", "star", "wheel"]), st.integers(3, 9))
def test_generated_families_are_connected(tag, n):
    g = gen(FamilySpec(tag, (n,)))
    distance_row(g, 0)  # raises if disconnected
