import pytest

from multires.errors import NoClosedFormError
from multires.generators import gen, parse_family_spec
from multires.multisets import Variant
from multires.solver import INFINITE, certify, naive_all_dimensions
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
        assert check.passed, check.to_json_dict()


def test_run_theorem_wheels_small_range():
    check = run_theorem("wheels", n_lo=3, n_hi=8)
    assert check.passed, check.to_json_dict()


def test_run_theorem_rejects_unknown_id():
    with pytest.raises(NoClosedFormError):
        run_theorem("perpetual_motion")


def test_theorem_check_serialization():
    check = run_theorem("cycles", n_lo=3, n_hi=4)
    d = check.to_json_dict()
    assert d["passed"] is True
    assert d["instances"] == 4
    assert d["failures"] == []


def test_wheel_lemma_holds_for_lmd_bases():
    check = run_theorem("wheel_lemma_1or3", n_lo=4, n_hi=10, variants=("lmd",))
    assert check.passed, check.to_json_dict()


def test_wheel_lemma_outer_variant_fails_on_odd_wheels():
    """The outer structure condition is not necessary for odd wheels.

    A rim path of order two inside W is invisible to the outer comparison,
    and minimum certified bases containing one do exist.
    """
    check = run_theorem("wheel_lemma_1or3", n_lo=5, n_hi=5, variants=("ldim_ms",))
    assert not check.passed
    g = gen(parse_family_spec("wheel:5"))
    assert certify(g, (0, 1), Variant.LDIM_MS).valid
    assert not wheel_path_structure(5, (0, 1), outer=True)


def test_corpus_scan_small():
    count, failures = corpus_scan(4)
    assert count == 1 + 1 + 4 + 38
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
        assert check.passed, check.to_json_dict()


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
