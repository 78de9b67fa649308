import gc
import inspect
import math
import multiprocessing.process
import random
import sys
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from itertools import combinations
from operator import add, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multires import multisets, solver, verify
from multires.bounds import infinite_certificates, level_lower_bound, lower_bounds
from multires.errors import (
    BudgetExhaustedError,
    CapExceededError,
    GraphValidationError,
)
from multires.generators import (
    connected_classes,
    gen,
    gen_clique_gadget,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_star,
    gen_wheel,
    parse_family_spec,
)
from multires.graph import (
    Graph,
    all_pairs_distances,
    bipartition,
    diameter,
    parse_graph6,
    twin_classes,
)
from multires.multisets import Variant, is_resolving
from multires.solver import (
    INFINITE,
    SolverOptions,
    certify,
    dimension,
    naive_all_dimensions,
    resolving_sets,
    solve_all,
)
from multires.verify import corpus_scan, run_theorem

from strategies import connected_graphs, plain_count, random_connected_graph


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
    # C_5 has no LMD certificate and no K-end rule: only a search
    # settles that lmd(C_5) is infinite, and it counts every subset
    r = dimension(gen_cycle(5), Variant.LMD)
    assert r.is_infinite
    assert r.certificate == "exhausted all 2^5 - 1 subsets"
    assert r.subsets_checked == 31


def test_always_finite_variant_never_exhausts_silently(monkeypatch):
    monkeypatch.setattr(solver, "_first_resolving", lambda *args: (None, 0))
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
    [
        (gen_wheel(8), Variant.LDIM_MS),
        (gen_cycle(5), Variant.LMD),
        (gen_wheel(8), Variant.DIM_MS),
        # md is infinite; the open twins 1, 2 cut the last subset, V
        (parse_graph6("EsXo"), Variant.MD),
        # the bipartite shortcut counts {0}, so a budget of 0 raises (0, 0)
        (gen_cycle(6), Variant.LDIM),
        (gen_cycle(6), Variant.LMD),
        (gen_cycle(6), Variant.LDIM_MS),
        # both cut loop tails before they reach the witness, whose rank
        # counts their subsets by arithmetic: 7 452 and 1 164 subsets
        (gen_wheel(15), Variant.DIM),
        (gen(parse_family_spec("gadget:8")), Variant.MD),
    ],
    ids=[
        "finite", "exhausted", "outer", "exhausted_in_a_twin_cut",
        "bipartite_ldim", "bipartite_lmd", "bipartite_ldim_ms",
        "loop_tails_dim", "loop_tails_md",
    ],
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
    assert info.value.budget == short


# wheel:14 (n = 15) DIM_MS starts its search at level 10; the plain loop
# would first count the C(15, 1) + ... + C(15, 9) = 27 823 smaller subsets
SKIPPED_W14 = sum(math.comb(15, k) for k in range(1, 10))


@pytest.mark.parametrize(
    "budget",
    [100, SKIPPED_W14, SKIPPED_W14 + 1],
    ids=["inside_skipped", "equals_skipped", "inside_first_searched"],
)
def test_budget_boundary_in_skipped_levels(budget):
    assert SKIPPED_W14 == 27823
    g = gen_wheel(14)
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, Variant.DIM_MS, opts=SolverOptions(subset_budget=budget))
    assert info.value.budget == budget


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


def test_a_solve_leaves_no_garbage(monkeypatch):
    # search and walk call themselves through their closure cells, and each
    # search deletes its own, so no reference cycle outlives a solve; a
    # value memoized on a graph that held the graph would be one too
    monkeypatch.setattr(verify, "_CORPUS_CACHE", {})  # examine the classes anew
    gc.collect()
    gc.disable()
    try:
        solve_all(gen_wheel(8))
        dimension(gen_wheel(15), Variant.LMD)  # the membership walk
        with pytest.raises(BudgetExhaustedError):
            dimension(gen_wheel(15), Variant.LMD, SolverOptions(subset_budget=10))
        g = gen_wheel(8)
        resolving_sets(g, Variant.LMD, dimension(g, Variant.LMD).value)
        lower_bounds(g)
        certify(g, (0, 4), Variant.LMD)
        del g
        corpus_scan(4)
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_bipartite_graphs_need_no_search(classes7, monkeypatch):
    # no edge of a bipartite graph joins two vertices equally far from 0, so
    # {0} resolves the adjacent scopes, as the plain loop's first subset
    local = (Variant.LDIM, Variant.LMD, Variant.LDIM_MS)
    bipartite = [g for g, _ in classes7 if bipartition(g) is not None]
    searched = {
        (g, variant): solver._first_resolving(g, variant, None)
        for g in bipartite
        for variant in local
    }

    def unreachable(*args, **kwargs):
        raise AssertionError("the bipartite shortcut built a certificate or columns")

    monkeypatch.setattr(solver, "_columns", unreachable)
    monkeypatch.setattr(solver, "infinite_certificates", unreachable)
    for (g, variant), found in searched.items():
        r = dimension(g, variant)
        got = (r.value, r.witness, r.subsets_checked, r.certificate)
        assert got == (1, (0,), 1, None), (variant, g.edges)
        assert found == ((0,), 1), (variant, g.edges)
    assert len(bipartite) == 72  # 1 + 1 + 1 + 3 + 5 + 17 + 44 for n = 1..7


def test_k_end_rules_lmd_pair_rule():
    # two triangles sharing vertex 0: each has a K-end pair
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    rules = solver._rules(g, Variant.LMD)[0]
    assert sorted(rules) == [(0b00110, 1, 1), (0b11000, 1, 1)]
    # the four variants other than LMD and LDIM_MS get no K-end rule
    others = set(Variant) - {Variant.LMD, Variant.LDIM_MS}
    assert all(solver._rules(g, variant)[0] == [] for variant in others)


def test_k_end_rules_ldim_ms_all_but_one():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    rules = solver._rules(g, Variant.LDIM_MS)[0]
    assert sorted(rules) == [(0b00110, 1, 5), (0b11000, 1, 5)]
    big = solver._rules(gen_complete(5), Variant.LDIM_MS)[0]
    assert big == [(0b11111, 4, 5)]


def test_k_end_rules_need_no_cap_above_20():
    # n = 22: seven K_4 share vertex 0, and each keeps three K-end vertices
    g = gen(parse_family_spec("amal:4,4,4,4,4,4,4"))
    rules = solver._rules(g, Variant.LDIM_MS)[0]
    assert len(rules) == 7
    assert all((mask.bit_count(), lo, hi) == (3, 2, 22) for mask, lo, hi in rules)
    assert sum(mask for mask, _, _ in rules) == (1 << 22) - 2  # all but vertex 0


def test_triple_k_end_certificate_above_20():
    g = gen(parse_family_spec("amal:4,4,4,4,4,4,4"))
    r = dimension(g, Variant.LMD, SolverOptions(cap=25))
    assert r.certificate.startswith("triple_k_end")
    assert (r.value, r.subsets_checked) == (INFINITE, 0)


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

    monkeypatch.setattr(solver, "_first_resolving", kernel)
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


def test_kernel_matches_naive_witnesses_and_counts(oracle_sweep):
    mismatches, counted = oracle_sweep
    assert mismatches == []
    assert counted == 2697  # 139 of them under K-end rules


def test_kernel_matches_naive_on_every_class_up_to_6(classes7):
    constrained = 0
    for g, _ in classes7:
        if g.n > 6:
            break
        naive = naive_all_dimensions(g)
        for variant in Variant:
            got, want = dimension(g, variant), naive[variant]
            where = (variant, g.edges)
            assert (got.value, got.witness) == (want.value, want.witness), where
            if not got.subsets_checked:  # a structural certificate answered
                assert got.is_infinite and got.certificate, where
                continue
            rules = solver._rules(g, variant)[0]
            if rules:
                want_count = plain_count(g, rules, got.witness)
                constrained += 1
            else:
                want_count = want.subsets_checked
            assert got.subsets_checked == want_count, where
    assert constrained == 56


def test_widest_lanes_at_the_cap_match_naive():
    # gadget:8 has n = 20 at the solver cap, diameter 10 and maximum degree
    # 10, so the key's radix bound is loose; DIM_MS packs C(20, 2) = 190
    # pair lanes of 46 bits (B = 21 * F, F = 2 * 11 * 20**8), the widest
    # lanes of the graphs the tests solve
    g = gen_clique_gadget(8).graph
    assert (g.n, diameter(g)) == (20, 10)
    variants = [Variant.MD, Variant.DIM_MS, Variant.LMD, Variant.LDIM_MS]
    naive = naive_all_dimensions(g, variants)
    for variant, want in naive.items():
        got = dimension(g, variant)
        assert (got.value, got.witness) == (want.value, want.witness), variant
    # MD and DIM_MS have no K-end rules, so the counts match the oracle's
    for variant in (Variant.MD, Variant.DIM_MS):
        got = dimension(g, variant).subsets_checked
        assert got == naive[variant].subsets_checked == 1164, variant


def check_lane_format(g, variant, subsets):
    """The zero-lane test on base plus (OR for vector kinds) the columns of W
    against the definition, every bit of a vector column against the pairs
    its landmark separates, and final[w] against the pairs that no landmark
    after w separates."""
    cols, base, target, low, full = solver._columns(g, variant)
    extend = or_ if variant.kind == "vector" else add
    for W in subsets:
        acc = reduce(extend, (cols[w] for w in W), base)
        resolves = ((acc ^ target) - low) & full == full
        assert resolves == is_resolving(g, W, variant), (variant, g.edges, W)
        if variant.kind == "multiset":
            # no lane carried into its top bit or borrowed from the next
            assert acc & full == 0, (variant, g.edges, W)
    # the bit of full that each pair's lane or bit keeps, in pair order
    d = all_pairs_distances(g)
    pairs = g.edges if variant.adjacent else list(combinations(range(g.n), 2))
    bits = [b for b in range(full.bit_length()) if full >> b & 1]
    assert len(bits) == len(pairs), (variant, g.edges)
    if variant.kind == "vector":
        # bit i of column w is set iff w separates pair i, in every column
        assert full == (1 << len(pairs)) - 1, (variant, g.edges)
        for w, col in enumerate(cols):
            want = sum(1 << i for i, (u, v) in enumerate(pairs) if d[w][u] != d[w][v])
            assert col == want, (variant, g.edges, w)
    final = solver._final_lanes(cols, base, target, low, full)
    for w in range(g.n):
        later = range(w + 1, g.n)
        want = sum(
            1 << bit
            for bit, (u, v) in zip(bits, pairs)
            if all(d[x][u] == d[x][v] for x in later)
        )
        assert final[w] == want, (variant, g.edges, w)


def every_subset(g):
    return [W for k in range(1, g.n + 1) for W in combinations(range(g.n), k)]


def test_lane_format_matches_the_definitions():
    # every nonempty W on the classes with n <= 5 and on the edge cases of
    # the key's radix bound: K_1 (diameter 0, no digit), K_5 (diameter 1,
    # only the 0 digit), P_7 (maximum degree 2, where the bound is exact),
    # a star (diameter 2, maximum degree n - 1) and a tree of maximum
    # degree 3 whose vertex 2 has 5 vertices at distance 2, near the Moore
    # bound 3 * 2 (a smaller radix makes keys collide); five seeded subsets
    # of each size on C_16 (exact again), gadget:8 (a loose bound) and
    # wheel:19, the last two at the solver cap
    cases = [(g, every_subset(g)) for g, _ in connected_classes(5)]
    edge_cases = [
        gen(parse_family_spec(spec))
        for spec in ("complete:1", "complete:5", "path:7", "star:6")
    ]
    tree = [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 7), (4, 8), (5, 9)]
    edge_cases.append(Graph(11, tree + [(5, 10)]))
    cases += [(g, every_subset(g)) for g in edge_cases]
    rng = random.Random(19)
    for spec in ("cycle:16", "gadget:8", "wheel:19"):
        g = gen(parse_family_spec(spec))
        subsets = [
            tuple(sorted(rng.sample(range(g.n), k)))
            for k in range(1, g.n + 1)
            for _ in range(5)
        ]
        cases.append((g, subsets))
    for g, subsets in cases:
        for variant in Variant:
            check_lane_format(g, variant, subsets)


def test_pair_incidence_matches_the_per_pair_loop():
    # E[u] has +1 in the lane of each pair (u, v) and -1 in each (v, u)
    for n in range(1, 21):
        for L in (3, 8, 15, 46):
            E = [0] * n
            for i, (u, v) in enumerate(combinations(range(n), 2)):
                E[u] += 1 << L * i
                E[v] -= 1 << L * i
            assert solver._pair_incidence(n, L) == E, (n, L)


def test_resolving_sets_match_the_definitions():
    # every k on the classes with n <= 5, and the minimum bases of the local
    # multiset variants on wheel:4-12, which the wheel lemma reads
    cases = [
        (g, variant, k)
        for g, _ in connected_classes(5)
        for variant in Variant
        for k in range(1, g.n + 1)
    ]
    for n in range(4, 13):
        g = gen_wheel(n)
        for variant in (Variant.LMD, Variant.LDIM_MS):
            value = dimension(g, variant).value
            if value != INFINITE:
                cases.append((g, variant, value))
    for g, variant, k in cases:
        want = [W for W in combinations(range(g.n), k) if is_resolving(g, W, variant)]
        assert resolving_sets(g, variant, k) == want, (variant, g.edges, k)
    # like is_resolving, it rejects the empty set
    with pytest.raises(GraphValidationError):
        resolving_sets(gen_cycle(5), Variant.LMD, 0)


def test_resolving_sets_reuse_the_columns_of_dimension(monkeypatch):
    # _columns is memoized on the graph, and each build reads the distance
    # rows once: one build per (graph, variant)
    builds = []
    matrix = solver.all_pairs_distances

    def counting(g):
        builds.append(g.n)
        return matrix(g)

    monkeypatch.setattr(solver, "all_pairs_distances", counting)
    g = gen_wheel(8)
    r = dimension(g, Variant.LMD)
    assert r.witness in resolving_sets(g, Variant.LMD, r.value)
    assert builds == [9]
    builds.clear()
    run_theorem("wheel_lemma_1or3")
    assert len(builds) == 18  # wheel:4-12, LMD and LDIM_MS


LANE_BITS = [
    ("wheel:19", 8, 12),
    ("cycle:16", 15, 19),
    ("gadget:8", 42, 46),
    ("corona:path:5/2,2,2,2,2", 21, 25),
]


@pytest.mark.parametrize(
    "spec, bits, outer_bits", LANE_BITS, ids=[spec for spec, *_ in LANE_BITS]
)
def test_lanes_are_as_wide_as_the_keys_need(spec, bits, outer_bits):
    # L = (2*B).bit_length() + 1 with B = F for MD and LMD and B = (n+1)*F
    # for DIM_MS and LDIM_MS, F the bound of the mixed-radix keys
    g = gen(parse_family_spec(spec))
    for variant in (Variant.MD, Variant.LMD, Variant.DIM_MS, Variant.LDIM_MS):
        full = solver._columns(g, variant)[4]
        lane = (full & -full).bit_length()  # full holds each lane's top bit
        assert lane == (outer_bits if variant.outer else bits), variant


JOIN = "join:cycle:9+cycle:9"  # n = 18
DIAM_2 = "diam_le_2: diameter 2 <= 2 and graph is not a path"


AT_THE_CAP = [
    (JOIN, Variant.DIM, 8, (0, 1, 3, 5, 9, 10, 12, 14), 67098, None),
    (JOIN, Variant.LDIM, 6, (0, 1, 5, 9, 10, 14), 13860, None),
    (JOIN, Variant.MD, INFINITE, None, 0, DIAM_2),
    (JOIN, Variant.DIM_MS, 17, tuple(range(17)), 262125, None),
    (JOIN, Variant.LMD, INFINITE, None, 262143, "exhausted all 2^18 - 1 subsets"),
    (JOIN, Variant.LDIM_MS, 9, (0, 1, 2, 3, 4, 5, 9, 10, 14), 106901, None),
    ("wheel:19", Variant.DIM, 8, (0, 1, 3, 5, 8, 10, 13, 15), 146100, None),
    ("wheel:19", Variant.LDIM, 5, (0, 3, 7, 11, 15), 7999, None),
    ("wheel:19", Variant.MD, INFINITE, None, 0, DIAM_2),
    ("wheel:19", Variant.DIM_MS, 18, tuple(range(18)), 1048365, None),
    ("wheel:19", Variant.LDIM_MS, 6, (0, 1, 3, 7, 11, 15), 22687, None),
]


@pytest.mark.parametrize(
    "spec, variant, value, witness, count, certificate",
    AT_THE_CAP,
    ids=[f"{spec}-{variant.name.lower()}" for spec, variant, *_ in AT_THE_CAP],
)
def test_answers_at_the_cap_are_pinned(
    spec, variant, value, witness, count, certificate
):
    # DIM_MS answers at level 17 (n = 18) and 18 (n = 20), the deepest levels
    # a test reaches, where a lane adds up the most key differences
    r = dimension(gen(parse_family_spec(spec)), variant)
    assert (r.value, r.witness, r.subsets_checked) == (value, witness, count)
    assert r.certificate == certificate


def lmd_walk(g, rules):
    """The LMD membership walk over the level kernel's own columns, base,
    target and final lanes, as `_first_resolving` builds them: W as a sorted
    tuple, or None when no landmark set that passes the rules resolves."""
    cols, base, target, low, full = solver._columns(g, Variant.LMD)
    final = solver._final_lanes(cols, base, target, low, full)
    W = solver._membership_search(rules, cols, final, base, target, low)
    return None if W is None else tuple(w for w in range(g.n) if W >> w & 1)


def test_longest_exhaustion_matches_naive(classes7, monkeypatch):
    # the infinite-LMD class that only a search proves, of largest diameter
    exhausted = []
    for g, _ in classes7:
        r = dimension(g, Variant.LMD)
        if r.is_infinite and r.subsets_checked:
            exhausted.append((diameter(g), g))
    assert len(exhausted) == 96
    longest, g = max(exhausted, key=lambda entry: entry[0])
    assert (g.n, longest) == (7, 4)
    want = naive_all_dimensions(g, [Variant.LMD])[Variant.LMD]
    assert want.subsets_checked == 2**g.n - 1
    want = (want.value, want.witness, want.subsets_checked, want.certificate)
    got = dimension(g, Variant.LMD)  # the membership walk answers
    assert (got.value, got.witness, got.subsets_checked, got.certificate) == want
    # made to find a W, the walk leaves the level search, with its final-lane
    # cuts, to run alone to k = n
    monkeypatch.setattr(solver, "_membership_search", lambda *args: 1)
    got = dimension(g, Variant.LMD)
    assert (got.value, got.witness, got.subsets_checked, got.certificate) == want


def test_membership_search_decides_every_class_up_to_7(classes7):
    # every class whose LMD no certificate settles: a W found must pass
    # certify(), and none found must be an infinite LMD by the oracle, which
    # dimension() counts as a plain loop over the subsets that pass the K-end
    # rules would; on every class that count is the sum of _completions that
    # the walk's unsat answer adds (2^n - 1 when there are no rules)
    unsat, sat = Counter(), 0
    for g, _ in classes7:
        if infinite_certificates(g, Variant.LMD):
            continue
        rules = solver._rules(g, Variant.LMD)[0]
        count = sum(solver._completions(g.n, rules, 0, 0, k) for k in range(1, g.n + 1))
        assert count == plain_count(g, rules, None), g.edges
        if not rules:
            assert count == 2**g.n - 1, g.edges
        W = lmd_walk(g, rules)
        if W is None:
            unsat[g.n] += 1
            naive = naive_all_dimensions(g, [Variant.LMD])[Variant.LMD]
            assert naive.is_infinite, g.edges
            assert dimension(g, Variant.LMD).subsets_checked == count, g.edges
        else:
            sat += 1
            assert certify(g, W, Variant.LMD).valid, (g.edges, W)
    assert dict(unsat) == {5: 2, 6: 11, 7: 83}
    assert sat == 865


def test_membership_search_takes_every_vertex_when_they_resolve():
    # take-before-skip reaches V first, and tests every lane there. A path
    # on 0..8 with a leaf 9 at its centre: n = 10, diameter 8 and maximum
    # degree 3, so the radices are 2, 4, 7 and then 10 (n - 1 caps the
    # Moore bound), F = 2 * 4 * 7 * 10**5 = 5 600 000 and L = 25
    g = Graph(10, [(i, i + 1) for i in range(8)] + [(4, 9)])
    assert diameter(g) == 8
    assert is_resolving(g, tuple(range(10)), Variant.LMD)
    assert lmd_walk(g, []) == tuple(range(10))


def test_membership_search_does_not_use_the_oracle_or_the_predicates(
    membership_calls, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("the membership walk called the oracle or a predicate")

    monkeypatch.setattr(solver, "naive_all_dimensions", forbidden)
    for module in (multisets, solver):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == multisets.__name__:
                monkeypatch.setattr(module, name, forbidden)
    got = dimension(gen_wheel(15), Variant.LMD)
    assert (got.value, got.subsets_checked) == (INFINITE, 2**16 - 1)
    assert membership_calls == [None]
    W = lmd_walk(gen_wheel(8), [])
    assert W is not None
    monkeypatch.undo()
    assert certify(gen_wheel(8), W, Variant.LMD).valid


@pytest.fixture
def membership_calls(monkeypatch):
    """The results of every membership walk that dimension() runs."""
    calls = []
    search = solver._membership_search

    def counted(*args):
        calls.append(search(*args))
        return calls[-1]

    monkeypatch.setattr(solver, "_membership_search", counted)
    return calls


def test_budget_at_the_unsat_boundary_of_the_membership_search(membership_calls):
    g = gen_wheel(15)  # n = 16: lmd is infinite, and no certificate says so
    exact = dimension(g, Variant.LMD, opts=SolverOptions(subset_budget=65535))
    assert (exact.value, exact.subsets_checked) == (INFINITE, 65535)
    assert exact.certificate == "exhausted all 2^16 - 1 subsets"
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, Variant.LMD, opts=SolverOptions(subset_budget=65534))
    assert info.value.budget == 65534
    # the walk decided both, and the count of the levels it skipped passed
    # the smaller budget
    assert membership_calls == [None, None]


def test_budget_at_the_unsat_boundary_under_a_k_end_pair(membership_calls):
    # one K-end pair (2, 4): of the 2^6 - 1 subsets, the 2^4 * 2 that hold
    # exactly one of 2 and 4 are counted
    g = parse_graph6("Eqiw")
    assert solver._rules(g, Variant.LMD)[0] == [(0b10100, 1, 1)]
    full = dimension(g, Variant.LMD)
    assert (full.value, full.subsets_checked) == (INFINITE, 32)
    exact = dimension(g, Variant.LMD, opts=SolverOptions(subset_budget=32))
    assert (exact.value, exact.subsets_checked, exact.certificate) == (
        INFINITE,
        32,
        full.certificate,
    )
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, Variant.LMD, opts=SolverOptions(subset_budget=31))
    assert info.value.budget == 31
    # n * |E| = 54 exceeds the 32 subsets counted, so the level search
    # decides it before the walk would run
    assert membership_calls == []


# --- twin rules: every resolving set obeys them, and what they cut is counted


def test_twin_rules_hold_for_every_resolving_set_up_to_6(classes7):
    # resolving by the definitions in multisets, not by the kernel; a rule
    # is read as a vertex set with bounds on its count in W
    checked, unsatisfiable = Counter(), Counter()
    for g, _ in classes7:
        if g.n > 6:
            break
        rules = {variant: sum(solver._rules(g, variant), []) for variant in Variant}
        for variant, variant_rules in rules.items():
            unsatisfiable[variant.name] += any(lo > hi for _, lo, hi in variant_rules)
        for k in range(1, g.n + 1):
            for W in combinations(range(g.n), k):
                for variant, variant_rules in rules.items():
                    if not variant_rules or not is_resolving(g, W, variant):
                        continue
                    for mask, lo, hi in variant_rules:
                        hit = sum(mask >> w & 1 for w in W)
                        assert lo <= hit <= hi, (variant, g.edges, W, mask)
                    checked[variant.name] += 1
    # resolving sets checked against at least one rule; MD and LMD have
    # classes that no set obeys, and none of their subsets resolves
    assert dict(checked) == {
        "DIM": 2826,
        "LDIM": 2002,
        "MD": 134,
        "DIM_MS": 2243,
        "LMD": 492,
        "LDIM_MS": 1775,
    }
    assert dict(unsatisfiable) == {
        "DIM": 0,
        "LDIM": 0,
        "MD": 30,
        "DIM_MS": 0,
        "LMD": 16,
        "LDIM_MS": 0,
    }


def test_rules_give_each_compared_twin_class_one_rule(classes7):
    # every closed twin class, and every open one for the variants that
    # compare non-adjacent pairs, gives one rule in exactly one of the two
    # lists; _feasible's slot argument and _completions' product need the
    # classes of the two lists together to be disjoint
    k_end = Counter()
    for g, _ in classes7:
        for variant in Variant:
            rules, twins = solver._rules(g, variant)
            at_most = g.n if variant.always_finite else 1
            kinds = (True,) if variant.adjacent else (True, False)
            classes = [vs for closed in kinds for vs in twin_classes(g, closed).values()]
            want = sorted((sum(1 << v for v in vs), len(vs) - 1, at_most) for vs in classes)
            assert sorted(rules + twins) == want, (variant, g.edges)
            union = 0
            for mask, _, _ in rules + twins:
                assert not union & mask, (variant, g.edges)
                union |= mask
            k_end[variant.name] += len(rules)
    # K-end rules checked; the other four variants have none
    assert dict(k_end) == {
        "DIM": 0,
        "LDIM": 0,
        "MD": 0,
        "DIM_MS": 0,
        "LMD": 153,
        "LDIM_MS": 189,
    }


CORONA = "corona:path:5/2,2,2,2,2"


@pytest.mark.parametrize("variant", [Variant.MD, Variant.DIM_MS])
def test_budget_around_a_twin_cut(variant, monkeypatch):
    g = gen(parse_family_spec(CORONA))
    exact = dimension(g, variant, opts=SolverOptions(subset_budget=6770))
    assert (exact.value, exact.witness, exact.subsets_checked) == (
        6,
        (0, 5, 7, 9, 11, 13),
        6770,
    )
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, variant, opts=SolverOptions(subset_budget=6769))
    assert info.value.budget == 6769
    # the five closed-twin pairs (5, 6), ..., (13, 14) each need a vertex,
    # so levels 1-4 are skipped and counted (1 940 subsets). At level 5 the
    # twin rules cut the root's child (0,) at once; its 1 001 subsets use up
    # a budget of 2 941, so the root raises before its child (1,), whose
    # first subset is the plain loop's 2 942nd
    calls = []
    completions = solver._completions

    def recording(*args):
        calls.append((args[2:], completions(*args)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "_completions", recording)
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, variant, opts=SolverOptions(subset_budget=2941))
    assert info.value.budget == 2941
    skipped = [((0, 0, k), math.comb(15, k)) for k in range(1, 5)]
    assert calls == skipped + [((1, 1, 4), 1001), ((2, 2, 4), 715)]


@contextmanager
def nested_calls(name):
    """The arguments of every call, while the block runs, of the functions
    called `name` that solver._first_resolving defines (search or
    resolves), one dict per call, read by a profile hook."""
    consts = solver._first_resolving.__code__.co_consts
    codes = {c for c in consts if getattr(c, "co_name", None) == name}
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            names = frame.f_code.co_varnames[: frame.f_code.co_argcount]
            calls.append({a: frame.f_locals[a] for a in names})

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def test_a_loop_tail_is_counted_by_arithmetic():
    # wheel:15 DIM: a node with at most two slots left ends its loop at the
    # first landmark from which no later column moves a lane its prefix
    # leaves 0; the subsets it skips are counted in the level's count or the
    # witness's rank. Without the cut the search tests 2 809 leaves
    with nested_calls("resolves") as leaves:
        r = dimension(gen_wheel(15), Variant.DIM)
    assert (r.value, r.witness, r.subsets_checked) == (6, (0, 1, 4, 6, 9, 11), 7452)
    assert len(leaves) == 566


@pytest.mark.parametrize(
    "variant, value, count",
    [(Variant.MD, 6, 6770), (Variant.LDIM, 5, 4768)],
    ids=["md", "ldim"],
)
def test_twin_rules_set_the_first_level_searched(variant, value, count):
    # corona:path:5/2,2,2,2,2: every resolving set holds a vertex of each of
    # the five closed-twin pairs, so no level below 5 is searched, though
    # level_lower_bound is 2 for MD and 1 for LDIM
    g = gen(parse_family_spec(CORONA))
    assert level_lower_bound(g, variant) < 5
    with nested_calls("search") as calls:
        r = dimension(g, variant)
    assert min(call["depth"] for call in calls if not call["prefix"]) == 5
    assert (r.value, r.subsets_checked) == (value, count)


def test_the_root_stops_a_level_at_the_budget():
    # wheel:27 DIM (n = 28, value 11): levels 1-4 are skipped and level 5 is
    # refuted, 122 437 subsets. At level 6 the root's child (0,) holds
    # C(27, 5) = 80 730 more, which pass a budget of 200 000, so the root
    # raises before its child (1,): the search of level 6 stays below (0,),
    # where the whole level would reach children (1,), (2,) and (3,)
    g = gen_wheel(27)
    with nested_calls("search") as calls, pytest.raises(BudgetExhaustedError) as info:
        dimension(g, Variant.DIM, SolverOptions(cap=28, subset_budget=200000))
    assert info.value.budget == 200000
    roots = [call["depth"] for call in calls if not call["prefix"]]
    assert roots == [5, 6]
    level6 = [call for call in calls if call["depth"] + call["prefix"].bit_count() == 6]
    assert level6[0]["prefix"] == 0
    assert all(call["prefix"] & 1 for call in level6[1:])


def test_completions_of_a_prefix_feasible_rejects_is_zero(monkeypatch):
    # every (chosen, first, slots) on three graphs with K-end rules: the
    # count matches a plain loop over the completions, and where _feasible
    # rejects the prefix it is 0 without building the product (math.comb
    # is never called)
    def forbidden(*args):
        raise AssertionError("_completions built the product of a rejected prefix")

    two_triangles = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    cases = [
        (two_triangles, Variant.LMD),  # two pairs, exactly one of each
        (gen_complete(5), Variant.LDIM_MS),  # all but one of five
        (parse_graph6("Eqiw"), Variant.LMD),
    ]
    rejected = 0
    for g, variant in cases:
        rules, n = solver._rules(g, variant)[0], g.n
        prefixes = [(first, chosen) for first in range(n + 1) for chosen in range(1 << first)]
        for first, chosen in prefixes:
            for slots in range(n - first + 1):
                want = 0
                for X in combinations(range(first, n), slots):
                    W = chosen | sum(1 << x for x in X)
                    fits = [lo <= (W & mask).bit_count() <= hi for mask, lo, hi in rules]
                    want += all(fits)
                if solver._feasible(rules, chosen, first, slots):
                    got = solver._completions(n, rules, chosen, first, slots)
                else:
                    rejected += 1
                    with monkeypatch.context() as patch:
                        patch.setattr(math, "comb", forbidden)
                        got = solver._completions(n, rules, chosen, first, slots)
                assert got == want, (g.edges, chosen, first, slots)
    assert rejected == 249


def test_what_is_counted_by_arithmetic_never_resolves(classes7, monkeypatch):
    # every subset that dimension() counts without testing it, in a level
    # skipped or refuted, before the witness in its level's order or in the
    # walk's unsat count, is one of the subsets a _completions call counts;
    # by the definitions in multisets, not by the kernel, none of them
    # resolves
    calls = []
    completions = solver._completions

    def recording(n, rules, chosen, first, slots):
        calls.append((chosen, first, slots))
        return completions(n, rules, chosen, first, slots)

    monkeypatch.setattr(solver, "_completions", recording)
    tested = Counter()
    for g, _ in classes7:
        for variant in Variant:
            calls.clear()
            dimension(g, variant)
            for chosen, first, slots in calls:
                prefix = tuple(w for w in range(first) if chosen >> w & 1)
                for rest in combinations(range(first, g.n), slots):
                    W = prefix + rest
                    assert not is_resolving(g, W, variant), (variant, g.edges, W)
                    tested[variant.name] += 1
    # subsets counted untested: every subset that a solve counts but its
    # witness
    assert dict(tested) == {
        "DIM": 29234,
        "LDIM": 16725,
        "MD": 38969,
        "DIM_MS": 42264,
        "LMD": 29923,
        "LDIM_MS": 19511,
    }


def test_md_with_a_closed_twin_triple_is_infinite_without_a_search(
    classes7, monkeypatch
):
    # no certificate covers a closed-twin triple for MD, and the twin rules
    # (exactly one of each twin pair) admit no set: the answer is the
    # exhaustion's, counted by arithmetic, and no subset is tested, since
    # testing one needs the kernel's columns
    def no_columns(*args):
        raise AssertionError("the kernel built its columns")

    monkeypatch.setattr(solver, "_columns", no_columns)
    covered = []
    for g, _ in classes7:
        if infinite_certificates(g, Variant.MD):
            continue
        if all(len(vs) < 3 for vs in twin_classes(g, True).values()):
            continue
        got = dimension(g, Variant.MD)
        want = (INFINITE, 2**g.n - 1, f"exhausted all 2^{g.n} - 1 subsets")
        assert (got.value, got.subsets_checked, got.certificate) == want, g.edges
        covered.append(g)
    assert Counter(g.n for g in covered) == {6: 2, 7: 22}
    g = covered[0]
    assert naive_all_dimensions(g, [Variant.MD])[Variant.MD].is_infinite
    short = 2**g.n - 2
    with pytest.raises(BudgetExhaustedError) as info:
        dimension(g, Variant.MD, opts=SolverOptions(subset_budget=short))
    assert info.value.budget == short


@pytest.mark.parametrize(
    "g", [Graph(1, []), Graph(2, [(0, 1)])], ids=["one_vertex", "one_edge"]
)
def test_smallest_graphs_all_variants(g):
    for variant in Variant:
        r = dimension(g, variant)
        got = (r.value, r.witness, r.subsets_checked, r.certificate)
        assert got == (1, (0,), 1, None), variant


@settings(max_examples=120, deadline=None)
@given(connected_graphs(n_max=6), st.data())
def test_all_but_one_vertex_resolves_outer_variants(g, data):
    """W = V minus one vertex leaves nothing to distinguish pairwise."""
    x = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    W = tuple(v for v in range(g.n) if v != x) or (0,)
    assert is_resolving(g, W, Variant.LDIM_MS)


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
