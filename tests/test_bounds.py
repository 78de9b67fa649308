import math

import pytest

from multires import bounds
from multires.bounds import (
    clique_log_bound,
    g_bound,
    infinite_certificates,
    is_path_graph,
    level_lower_bound,
    lower_bounds,
)
from multires.errors import DisconnectedGraphError
from multires.generators import (
    gen_clique_gadget,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_star,
    gen_wheel,
)
from multires.graph import Graph
from multires.multisets import Variant
from multires.solver import dimension, solve_all


def test_g_bound_definition():
    # smallest k with C(k+d-1,d-1) + C(k+d-2,d-1) - d + 1 >= chi
    for d in (2, 3, 4):
        for chi in range(1, 30):
            k = g_bound(d, chi)
            val = math.comb(k + d - 1, d - 1) + math.comb(k + d - 2, d - 1) - d + 1
            assert val >= chi
            if k > 1:
                prev = (
                    math.comb(k + d - 2, d - 1)
                    + math.comb(k + d - 3, d - 1)
                    - d
                    + 1
                )
                assert prev < chi
    with pytest.raises(ValueError):
        g_bound(1, 3)
    with pytest.raises(ValueError):
        g_bound(2, 0)


def test_clique_log_bound():
    assert [clique_log_bound(w) for w in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]


def test_is_path_graph():
    assert is_path_graph(gen_path(1))
    assert is_path_graph(gen_path(2))
    assert is_path_graph(gen_path(7))
    assert not is_path_graph(gen_cycle(4))
    assert not is_path_graph(gen_star(3))
    # a triangle and an isolated vertex has n - 1 edges and degrees <= 2; it
    # raises, from the memoized BFS row of vertex 0, as the rest of bounds does
    with pytest.raises(DisconnectedGraphError):
        is_path_graph(Graph(4, [(0, 1), (1, 2), (0, 2)]))


def test_infinite_certificates_exclude_paths():
    assert infinite_certificates(gen_path(3), Variant.MD) == ()
    kinds = {c.kind for c in infinite_certificates(gen_star(3), Variant.MD)}
    assert kinds == {"diam_le_2", "triple_open_neighborhood"}
    kinds = {c.kind for c in infinite_certificates(gen_complete(4), Variant.LMD)}
    assert "triple_k_end" in kinds


def test_solve_all_derives_the_certificates_once(monkeypatch):
    # the MD solve alone calls within_two_hops, memoized on the fresh graph
    calls = []
    two_hops = bounds.within_two_hops

    def counting(g):
        calls.append(g)
        return two_hops(g)

    monkeypatch.setattr(bounds, "within_two_hops", counting)
    solve_all(gen_wheel(8))
    assert len(calls) == 1


def test_each_caller_derives_only_the_certificates_it_reads(monkeypatch):
    calls = {"k_end_groups": 0, "within_two_hops": 0}

    def counting(name):
        derive = getattr(bounds, name)

        def counted(g):
            calls[name] += 1
            return derive(g)

        return counted

    for name in calls:
        monkeypatch.setattr(bounds, name, counting(name))
    dimension(gen_wheel(8), Variant.MD)
    assert calls == {"k_end_groups": 0, "within_two_hops": 1}
    dimension(gen_wheel(8), Variant.LMD)
    assert calls == {"k_end_groups": 1, "within_two_hops": 1}
    # above the omega cap the K-end groups are skipped, not derived and dropped
    lower_bounds(gen_complete(25))
    assert calls == {"k_end_groups": 1, "within_two_hops": 2}


def test_certificates_of_a_disconnected_graph_raise_every_time():
    g = Graph(4, [(0, 1), (2, 3)])
    for variant in (Variant.MD, Variant.LMD, Variant.MD):
        with pytest.raises(DisconnectedGraphError):
            infinite_certificates(g, variant)


def test_certificates_confirmed_by_solver():
    for g in (gen_star(4), gen_complete(5), gen_wheel(4)):
        for variant in Variant:  # a certificate of a finite value fails
            for cert in infinite_certificates(g, variant):
                assert cert.variant is variant
                assert dimension(g, variant).is_infinite, cert


def test_lower_bounds_wheel():
    report = lower_bounds(gen_wheel(6))
    assert report.lower[Variant.LMD].value == 2
    assert report.upper[Variant.LDIM_MS] == 6
    assert report.skipped == ()


def test_upper_bounds_on_one_vertex():
    # K_1 needs its one vertex as a landmark, so n - 1 = 0 is no upper bound
    g = gen_path(1)
    report = lower_bounds(g)
    for variant in (Variant.DIM_MS, Variant.LDIM_MS):
        assert report.upper[variant] == 1 == dimension(g, variant).value


def test_lower_bounds_skips_above_caps_but_keeps_clique_log():
    g = gen_clique_gadget(8).graph  # 20 vertices, omega 8
    report = lower_bounds(g)
    assert report.lower[Variant.LMD].value == 3
    assert report.lower[Variant.LMD].provenance == "clique_log"
    assert any("chromatic_gdchi" in note for note in report.skipped)


def test_lower_bounds_lists_skipped_k_end_certificate():
    # lmd(K_25) is infinite; triple_k_end needs no clique enumeration, but it
    # is left out above the omega cap so that the bounds output does not change
    report = lower_bounds(gen_complete(25))
    assert [c.kind for c in report.certificates] == ["diam_le_2"]
    assert any(note.startswith("clique_log") for note in report.skipped)
    assert any(note.startswith("triple_k_end") for note in report.skipped)


def test_lower_bounds_bipartite():
    report = lower_bounds(gen_cycle(8))
    assert report.lower[Variant.LMD].value == 1


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_level_lower_bound_complete(n):
    # D = 1: only W's own zeros tell vertices apart
    g = gen_complete(n)
    assert level_lower_bound(g, Variant.DIM) == n - 1
    assert level_lower_bound(g, Variant.DIM_MS) == n - 1
    assert dimension(g, Variant.DIM).value == n - 1


def test_level_lower_bound_wheels_dim_ms():
    # D = 2: the hub's count c is k, the rim's lies in [0, 3] below k = 12,
    # so at most 5 vertices outside W differ and n - k <= 5
    assert level_lower_bound(gen_wheel(14), Variant.DIM_MS) == 10
    assert level_lower_bound(gen_wheel(15), Variant.DIM_MS) == 11


def test_level_lower_bound_long_cycle():
    # D = 8: one landmark gives 8 distances outside W, fewer than 15 or 16
    g = gen_cycle(16)
    for variant in (Variant.DIM, Variant.MD, Variant.DIM_MS):
        assert level_lower_bound(g, variant) == 2, variant


def test_level_lower_bound_trivial_cases():
    # no level of md(K_4) can resolve; the local variants get the trivial 1
    assert level_lower_bound(gen_complete(4), Variant.MD) == 5
    assert level_lower_bound(Graph(1, []), Variant.MD) == 1
    for variant in (Variant.LDIM, Variant.LMD, Variant.LDIM_MS):
        assert level_lower_bound(gen_complete(6), variant) == 1
