import multiprocessing.process
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multires import solver
from multires.errors import (
    BudgetExhaustedError,
    CapExceededError,
    GraphValidationError,
)
from multires.generators import (
    gen_complete,
    gen_cycle,
    gen_path,
    gen_star,
    gen_wheel,
)
from multires.graph import Graph, all_pairs_distances
from multires.multisets import Variant, is_resolving
from multires.solver import (
    INFINITE,
    Constraint,
    Contradiction,
    SolverOptions,
    certify,
    dimension,
    naive_all_dimensions,
    required_vertices,
    solve_all,
)

from strategies import connected_graphs, random_connected_graph


def values(g, opts=None):
    return {v: dimension(g, v, opts=opts).value for v in Variant}


def test_path_all_variants_are_one():
    assert values(gen_path(6)) == {v: 1 for v in Variant}


def test_even_cycle():
    got = values(gen_cycle(6))
    assert got[Variant.LMD] == 1
    assert got[Variant.LDIM_MS] == 1
    assert got[Variant.DIM] == 2
    assert got[Variant.MD] == 3


def test_complete_graph_values():
    got = values(gen_complete(4))
    assert got[Variant.DIM] == 3
    assert got[Variant.LDIM] == 3
    assert got[Variant.MD] == INFINITE
    assert got[Variant.LMD] == INFINITE
    assert got[Variant.DIM_MS] == 3
    assert got[Variant.LDIM_MS] == 3


def test_witness_is_lexicographically_first():
    g = gen_cycle(6)
    r = dimension(g, Variant.DIM)
    assert r.witness == (0, 1)
    assert r.subsets_checked > 0
    assert r.certificate is None


def test_infinite_results_carry_certificates():
    r = dimension(gen_complete(5), Variant.LMD)
    assert r.is_infinite
    assert r.witness is None
    assert "triple_k_end" in r.certificate
    r = dimension(gen_star(3), Variant.MD)
    assert r.is_infinite
    assert "triple_open_neighborhood" in r.certificate or "diam_le_2" in r.certificate


def test_exhaustion_without_shortcuts():
    # C_5 has no LMD certificate and no K-end constraint: only the full scan
    # settles that lmd(C_5) is infinite
    r = dimension(gen_cycle(5), Variant.LMD)
    assert r.is_infinite
    assert r.certificate == "exhausted all 2^5 - 1 subsets"
    assert r.subsets_checked == 31


def test_always_finite_variant_never_exhausts_silently(monkeypatch):
    monkeypatch.setattr(solver, "_subset_resolves", lambda *args: False)
    with pytest.raises(RuntimeError, match="internal error"):
        dimension(gen_cycle(5), Variant.DIM)


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        dimension(gen_path(6), Variant.DIM, opts=SolverOptions(cap=5))


def test_budget_is_conclusive_or_raises():
    g = gen_cycle(7)
    full = dimension(g, Variant.LMD)
    with pytest.raises(BudgetExhaustedError):
        dimension(g, Variant.LMD, opts=SolverOptions(subset_budget=5))
    generous = dimension(g, Variant.LMD, opts=SolverOptions(subset_budget=10**6))
    assert generous.value == full.value
    assert generous.witness == full.witness


@pytest.mark.parametrize(
    "g, variant",
    [(gen_wheel(8), Variant.LDIM_MS), (gen_cycle(5), Variant.LMD)],
    ids=["finite", "exhausted"],
)
def test_budget_boundary(g, variant):
    full = dimension(g, variant)
    exact = dimension(g, variant, opts=SolverOptions(subset_budget=full.subsets_checked))
    assert exact.value == full.value
    assert exact.witness == full.witness
    assert exact.subsets_checked == full.subsets_checked
    assert exact.certificate == full.certificate
    short = full.subsets_checked - 1
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, variant, opts=SolverOptions(subset_budget=short))
    assert (info.value.examined, info.value.budget) == (short, short)


@pytest.mark.parametrize(
    "opts",
    [
        SolverOptions(parallel_shards=0),
        SolverOptions(subset_budget=-1),
        SolverOptions(cap=0),
    ],
)
def test_out_of_range_options_rejected(opts):
    with pytest.raises(GraphValidationError):
        dimension(gen_cycle(5), Variant.LMD, opts=opts)


def test_parallel_shards_start_no_process(monkeypatch):
    def start(self):
        raise AssertionError("dimension() started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    r = dimension(gen_wheel(8), Variant.LMD, opts=SolverOptions(parallel_shards=3))
    assert (r.value, r.witness) == (2, (0, 4))


def test_required_vertices_lmd_pair_constraint():
    # two triangles sharing vertex 0: each has a K-end pair
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    entries = required_vertices(g, Variant.LMD)
    assert all(isinstance(e, Constraint) for e in entries)
    assert sorted(e.vertices for e in entries) == [(1, 2), (3, 4)]
    assert all((e.at_least, e.at_most) == (1, 1) for e in entries)


def test_required_vertices_lmd_contradiction():
    entries = required_vertices(gen_complete(4), Variant.LMD)
    assert any(isinstance(e, Contradiction) for e in entries)


def test_required_vertices_ldim_ms_flags_derived_case():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    entries = required_vertices(g, Variant.LDIM_MS)
    assert all(e.at_least == 1 and e.at_most is None for e in entries)
    assert all(e.derived_from_proof for e in entries)
    big = required_vertices(gen_complete(5), Variant.LDIM_MS)
    assert big[0].at_least == 4
    assert not big[0].derived_from_proof


def test_parallel_shards_match_sequential():
    g = gen_wheel(8)
    for variant in (Variant.LMD, Variant.LDIM_MS, Variant.DIM):
        seq = dimension(g, variant)
        par = dimension(g, variant, opts=SolverOptions(parallel_shards=3))
        assert (seq.value, seq.witness) == (par.value, par.witness)


def test_certify():
    g = gen_cycle(5)
    good = certify(g, (0, 1), Variant.LDIM_MS)
    assert good.valid and good.violating == ()
    bad = certify(g, (0,), Variant.LMD)
    assert not bad.valid
    assert bad.violating != ()


def test_solve_all_consistent_with_dimension():
    g = gen_wheel(5)
    combined = solve_all(g)
    for variant, result in combined.items():
        assert result.value == dimension(g, variant).value


def test_naive_oracle_does_not_use_the_solver_kernel(monkeypatch):
    def kernel(*args):
        raise AssertionError("the oracle called the solver's kernel")

    monkeypatch.setattr(solver, "_subset_resolves", kernel)
    got = naive_all_dimensions(gen_cycle(6))
    assert {v: (r.value, r.witness) for v, r in got.items()} == {
        Variant.DIM: (2, (0, 1)),
        Variant.LDIM: (1, (0,)),
        Variant.MD: (3, (0, 1, 3)),
        Variant.DIM_MS: (3, (0, 1, 3)),
        Variant.LMD: (1, (0,)),
        Variant.LDIM_MS: (1, (0,)),
    }
    got = naive_all_dimensions(gen_complete(4))
    assert {v: r.value for v, r in got.items()} == {
        Variant.DIM: 3,
        Variant.LDIM: 3,
        Variant.MD: INFINITE,
        Variant.DIM_MS: 3,
        Variant.LMD: INFINITE,
        Variant.LDIM_MS: 3,
    }
    assert got[Variant.LMD].certificate == "exhausted all 2^4 - 1 subsets"


def test_pruned_solver_matches_naive_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(60):
        g = random_connected_graph(rng, n_max=7)
        naive = naive_all_dimensions(g)
        for variant in Variant:
            assert dimension(g, variant).value == naive[variant].value, g.edges


@settings(max_examples=120, deadline=None)
@given(connected_graphs(n_max=6), st.data())
def test_all_but_one_vertex_resolves_outer_variants(g, data):
    """W = V minus one vertex leaves nothing to distinguish pairwise."""
    x = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    W = tuple(v for v in range(g.n) if v != x) or (0,)
    dm = all_pairs_distances(g)
    assert is_resolving(dm, g, W, Variant.LDIM_MS)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(n_max=5))
def test_observation_chain_on_random_graphs(g):
    got = {v: r.value for v, r in naive_all_dimensions(g).items()}
    assert 1 <= got[Variant.LDIM] <= got[Variant.DIM] <= got[Variant.DIM_MS]
    assert got[Variant.DIM_MS] <= got[Variant.MD]
    assert got[Variant.LDIM] <= got[Variant.LDIM_MS] <= got[Variant.LMD]
    assert got[Variant.LMD] <= got[Variant.MD]
    if g.n >= 2:
        assert got[Variant.DIM_MS] <= g.n - 1


def test_result_serialization():
    d = dimension(gen_complete(3), Variant.LMD).to_json_dict()
    assert d["value"] == "infinity"
    d = dimension(gen_path(3), Variant.DIM).to_json_dict()
    assert d["value"] == 1 and d["witness"] == [0]
