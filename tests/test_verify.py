import hashlib
import json
from itertools import combinations_with_replacement

import pytest

from multires import verify
from multires.cli import main
from multires.errors import CapExceededError, GraphValidationError, NoClosedFormError
from multires.generators import FamilySpec, gen, parse_family_spec
from multires.graph import to_graph6
from multires.multisets import Variant
from multires.solver import INFINITE, certify, dimension, naive_all_dimensions
from multires.verify import (
    THEOREMS,
    closed_form,
    corpus_scan,
    run_all,
    run_theorem,
    wheel_path_structure,
)


def cf(text, variant):
    return closed_form(parse_family_spec(text), variant)


def exact(text, variant):
    g = gen(parse_family_spec(text))
    return naive_all_dimensions(g, variants=[variant])[variant].value


@pytest.mark.parametrize(
    "text,variant,expected",
    [
        ("path:7", Variant.LMD, 1),
        ("star:4", Variant.LDIM_MS, 1),
        ("cycle:8", Variant.LMD, 1),
        ("cycle:5", Variant.LMD, INFINITE),
        ("cycle:9", Variant.LMD, 3),
        ("cycle:9", Variant.LDIM_MS, 2),
        ("wheel:3", Variant.LDIM_MS, 3),
        ("wheel:4", Variant.LMD, 3),
        ("wheel:7", Variant.LMD, INFINITE),
        ("wheel:8", Variant.LMD, 2),
        ("wheel:11", Variant.LDIM_MS, 4),
        ("wheel:9", Variant.LDIM, 3),
        ("complete:6", Variant.LMD, INFINITE),
        ("complete:6", Variant.LDIM_MS, 5),
        ("amal:2,2,2", Variant.LMD, 1),
        ("amal:3,3", Variant.LMD, 2),
        ("amal:3,3,3", Variant.LDIM_MS, 3),
        ("edge_amal:4,4", Variant.LMD, 3),
        ("edge_amal:3,3,3", Variant.LDIM_MS, 2),
        ("edge_amal:2,5", Variant.LDIM_MS, 4),
        ("unicyclic:4/1", Variant.LMD, 1),
        ("unicyclic:5/0,0", Variant.LDIM_MS, 2),
        ("gadget:8", Variant.LMD, 3),
    ],
)
def test_closed_form_values(text, variant, expected):
    assert cf(text, variant) == expected


def test_closed_form_raises_outside_coverage():
    with pytest.raises(NoClosedFormError):
        cf("cycle:6", Variant.DIM)
    with pytest.raises(NoClosedFormError):
        cf("corona:path:3/2,2,2", Variant.LMD)
    with pytest.raises(NoClosedFormError):
        cf("join:cycle:5+path:2", Variant.LMD)


@pytest.mark.parametrize(
    "text,variant",
    [
        ("cycle:7", Variant.LMD),
        ("cycle:6", Variant.LDIM_MS),
        ("wheel:4", Variant.LDIM_MS),
        ("wheel:6", Variant.LMD),
        ("amal:4,2", Variant.LDIM_MS),
        ("amal:3,1", Variant.LMD),
        ("edge_amal:3,2", Variant.LMD),
        ("edge_amal:4,3", Variant.LDIM_MS),
        # refutes the uncorrected ldim_ms form for a lone clique of order
        # >= 5: K_5 itself, where it gave 3
        ("edge_amal:2,5", Variant.LDIM_MS),
        ("unicyclic:3/0", Variant.LDIM_MS),
        ("gadget:4", Variant.LDIM_MS),
    ],
)
def test_closed_form_matches_brute_force(text, variant):
    assert cf(text, variant) == exact(text, variant)


def test_degenerate_amalgamations_match_brute_force():
    """The collapse cases: K_2 parts that vanish into the shared structure."""
    assert cf("amal:3,2", Variant.LMD) == exact("amal:3,2", Variant.LMD) == 2
    assert (
        cf("amal:3,1", Variant.LMD) == exact("amal:3,1", Variant.LMD) == INFINITE
    )
    assert (
        cf("edge_amal:3,2", Variant.LMD)
        == exact("edge_amal:3,2", Variant.LMD)
        == INFINITE
    )
    assert (
        cf("edge_amal:4,2,2", Variant.LMD)
        == exact("edge_amal:4,2,2", Variant.LMD)
        == INFINITE
    )
    assert cf("amal:4,2", Variant.LDIM_MS) == exact("amal:4,2", Variant.LDIM_MS) == 3


def test_wheel_path_structure_examples():
    # two singletons with rim gaps of order three on each side
    assert wheel_path_structure(8, {0, 4}, outer=False)
    # two rim-adjacent landmarks form a rim path of order two
    assert not wheel_path_structure(8, {0, 1}, outer=True)
    # empty rim intersection leaves the full rim as the complement component
    assert not wheel_path_structure(6, {6}, outer=False)
    assert wheel_path_structure(6, {6}, outer=True)
    # a hub in W is ignored on the rim
    assert wheel_path_structure(8, {0, 4, 8}, outer=False)
    # full rim coverage counts as a single component of rim order
    assert wheel_path_structure(3, {0, 1, 2}, outer=True)
    assert not wheel_path_structure(4, {0, 1, 2, 3}, outer=True)


def test_run_theorem_families_pass():
    for tid in ("cycles", "complete", "unicyclic", "chromatic_bound"):
        check = run_theorem(tid)
        assert check.passed, check.failures()


def test_edge_amal_closed_forms_beyond_the_fixed_orders():
    # cliques of order up to 7 (up to 6 in four cliques) reach the lone
    # clique of order >= 5 that the theorem's orders (at most 4) never build
    vectors = [
        *(v for m in (2, 3) for v in combinations_with_replacement(range(2, 8), m)),
        *combinations_with_replacement(range(2, 7), 4),
    ]
    for orders in vectors:
        spec = FamilySpec("edge_amal", orders)
        g = gen(spec)
        for variant in (Variant.LMD, Variant.LDIM_MS):
            want = dimension(g, variant).value
            assert closed_form(spec, variant) == want, (spec, variant)


def test_run_theorem_wheels_small_range():
    check = run_theorem("wheels")
    assert check.passed, check.failures()


def test_run_theorem_rejects_unknown_id():
    with pytest.raises(NoClosedFormError):
        run_theorem("perpetual_motion")


def test_run_theorem_rejects_an_unknown_parameter():
    # the instance lists are fixed: a misspelt knob is an error, not ignored
    with pytest.raises(TypeError):
        run_theorem("cycles", nhi=4)


def test_run_theorem_rejects_an_empty_corpus_for_every_theorem():
    # cycles uses no corpus, yet n_max=0 fails loudly for it too
    with pytest.raises(GraphValidationError, match="n_max >= 1, got 0"):
        run_theorem("cycles", n_max=0)


def test_wheel_lemma_holds_for_lmd_bases():
    check = run_theorem("wheel_lemma_1or3")
    lmd = [c for c in check.instances if c.quantity == "lmd_path_structure"]
    assert lmd and all(c.ok for c in lmd), [c for c in lmd if not c.ok]


def test_wheel_lemma_outer_variant_fails_on_odd_wheels():
    """The outer structure condition is not necessary for odd wheels.

    A rim path of order two inside W is invisible to the outer comparison,
    and minimum certified bases containing one do exist.
    """
    check = run_theorem("wheel_lemma_1or3")
    assert not all(
        c.ok
        for c in check.instances
        if c.quantity == "ldim_ms_path_structure" and c.instance.startswith("wheel:5 ")
    )
    g = gen(parse_family_spec("wheel:5"))
    assert certify(g, (0, 1), Variant.LDIM_MS).valid
    assert not wheel_path_structure(5, (0, 1), outer=True)


def test_corpus_scan_small():
    count, failures = corpus_scan(4)
    assert count == 1 + 1 + 4 + 38
    assert failures == []
    with pytest.raises(GraphValidationError):
        corpus_scan(0)


def test_corpus_scan_is_capped_at_eight(monkeypatch):
    # 261 080 classes on 9 vertices would take tens of minutes
    monkeypatch.setattr(verify, "_examine_graph", None)  # no class is examined
    with pytest.raises(CapExceededError, match="n=9 > cap=8"):
        corpus_scan(9)


def test_corpus_scan_examines_only_the_new_vertex_count(monkeypatch, classes7):
    corpus_scan(6)
    monkeypatch.delitem(verify._CORPUS_CACHE, 7, raising=False)
    # the session fixture already holds the classes; building them again
    # would take about a second
    monkeypatch.setattr(
        verify,
        "connected_classes",
        lambda n_max: (c for c in classes7 if c[0].n <= n_max),
    )
    examined = []
    examine = verify._examine_graph

    def counting_examine(g):
        examined.append(g.n)
        return examine(g)

    monkeypatch.setattr(verify, "_examine_graph", counting_examine)
    count, failures = corpus_scan(7)
    assert len(examined) == 853 and set(examined) == {7}
    assert count == 1893732
    assert failures == []


def test_corpus_scan_up_to_seven():
    # 996 classes, counted as the labeled connected graphs with n <= 7
    count, failures = corpus_scan(7)
    assert count == 1893732
    assert failures == []


def test_corpus_backed_theorems_pass():
    for tid in (
        "observation_chain",
        "bipartite_iff_1",
        "infmd",
        "dms_extremal",
        "lower_bounds",
        "maxsubgraph",
    ):
        check = run_theorem(tid, n_max=5)
        assert check.passed, check.failures()


# clause -> (class in graph6, variant, wrong value, whether the value is the
# 2-core's): the oracle's one wrong answer that the clause must report.
# A_ is K2, Bw is K3 (the 2-core of the paw), Cr is C4 and Cs is K1,3.
WRONG_ANSWERS = {
    "observation_chain": ("A_", Variant.LDIM, 0, False),
    "bipartite_iff_1": ("Cr", Variant.LMD, 2, False),
    "infmd_diam": ("Bw", Variant.MD, 2, False),
    "infmd_triple": ("Cs", Variant.MD, 3, False),
    "certificate_confirmed": ("Bw", Variant.LMD, 2, False),
    "dms_extremal": ("Bw", Variant.DIM_MS, 1, False),
    "lower_bound_le_exact": ("Bw", Variant.LDIM_MS, 0, False),
    "counting_bound_le_exact": ("Bw", Variant.DIM, 0, False),
    "upper_bound_ge_exact": ("Bw", Variant.LDIM_MS, 3, False),
    "maxsubgraph_le": ("Bw", Variant.LDIM_MS, 0, True),
}


@pytest.mark.parametrize(
    "clause", [c for clauses in verify.CORPUS_CLAUSES.values() for c in clauses]
)
def test_corpus_reports_a_wrong_answer(clause, monkeypatch, capsys):
    target, variant, value, core = WRONG_ANSWERS[clause]
    oracle = verify.naive_all_dimensions

    def wrong(g, variants=None):
        results = oracle(g, variants)
        # _examine_graph passes variants only for the 2-core
        if to_graph6(g) == target and (variants is not None) == core:
            results[variant] = results[variant]._replace(value=value)
        return results

    monkeypatch.setattr(verify, "_CORPUS_CACHE", {})  # examine the classes anew
    monkeypatch.setattr(verify, "naive_all_dimensions", wrong)
    _, failures = corpus_scan(4)
    assert clause in {c for c, _ in failures}
    theorem = next(t for t, cs in verify.CORPUS_CLAUSES.items() if clause in cs)
    [row] = run_theorem(theorem, n_max=4).instances
    assert row.ok is False
    assert f"{clause}: " in row.note
    assert main(["verify", "--theorem", theorem, "--n-max", "4"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert f"{clause}: " in out  # the table prints the failure's note


def test_theorem_registry_is_complete():
    expected = {
        "cycles", "wheels", "wheel_ldim", "wheel_lemma_1or3", "complete",
        "amal", "edge_amal", "corona", "unicyclic", "clique_gadget",
        "chromatic_bound", "maxsubgraph_sharpness", "observation_chain",
        "bipartite_iff_1", "infmd", "dms_extremal", "lower_bounds",
        "maxsubgraph",
    }
    assert set(THEOREMS) == expected


def test_run_all_instance_lists_are_pinned():
    got = [(c.theorem_id, len(c.instances)) for c in run_all(n_max=4)]
    assert got == [
        ("cycles", 20),
        ("wheels", 20),
        ("wheel_ldim", 10),
        ("wheel_lemma_1or3", 135),
        ("complete", 14),
        ("amal", 60),
        ("edge_amal", 32),
        ("corona", 46),
        ("unicyclic", 18),
        ("clique_gadget", 32),
        ("chromatic_bound", 100),
        ("maxsubgraph_sharpness", 13),
        ("observation_chain", 1),
        ("bipartite_iff_1", 1),
        ("infmd", 1),
        ("dms_extremal", 1),
        ("lower_bounds", 1),
        ("maxsubgraph", 1),
    ]


# theorem id -> the first 16 hex digits of the SHA-256 of its rows at
# n_max=4, as JSON: every field of every row, so a change to any value,
# note or order names the theorem it touches
ROW_DIGESTS = {
    "cycles": "3383952176a92ecf",
    "wheels": "92f3ebe15f9ed3d3",
    "wheel_ldim": "72ece51276326e0f",
    "wheel_lemma_1or3": "994834adafb2dafe",
    "complete": "13a55e81ec859dfe",
    "amal": "b022825e283ea7b7",
    "edge_amal": "2107285d6f8970b3",
    "corona": "4f9a6f450682d8f3",
    "unicyclic": "4108c570505dbeb4",
    "clique_gadget": "28c746f70d4bb2db",
    "chromatic_bound": "b01fedbc5e70946a",
    "maxsubgraph_sharpness": "602fff27a9ccea4b",
    "observation_chain": "6cad7d500e37242c",
    "bipartite_iff_1": "c1761efca7c880c2",
    "infmd": "2bb77a01871b8e26",
    "dms_extremal": "b845f943c1c963b9",
    "lower_bounds": "62a4e32e0995d40a",
    "maxsubgraph": "0aa74df21dedd545",
}


@pytest.mark.parametrize("theorem_id", ROW_DIGESTS)
def test_theorem_rows_are_pinned(theorem_id):
    rows = json.dumps([list(c) for c in run_theorem(theorem_id, n_max=4).instances])
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == ROW_DIGESTS[theorem_id]
