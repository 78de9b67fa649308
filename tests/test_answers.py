"""Every answer the solver gives on a fixed list of graphs with n = 9-20,
beyond the naive oracle's reach (n <= 8), checked by the definitions: each
witness resolves and has the value's size, the values keep the order that
the definitions imply, and each infinity that a structural certificate
claims is confirmed by the level search. The benchmark's recorded answers
are pinned as well."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from multires import solver
from multires.generators import gen, parse_family_spec
from multires.graph import parse_graph6
from multires.multisets import Variant
from multires.solver import INFINITE, certify, dimension

from strategies import random_connected_graph

# perfbench's compute workload: its graphs and its recorded answers, read only
COMPUTE = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "compute.json"
COMPUTE_SPECS = (
    "wheel:14",
    "wheel:15",
    "corona:path:5/2,2,2,2,2",
    "gadget:8",
    "cycle:16",
    "amal:4,4,3",
)
SPECS = COMPUTE_SPECS + (
    "wheel:16",
    "wheel:17",
    "wheel:18",
    "wheel:19",
    "join:cycle:9+cycle:9",
    "corona:cycle:6/2,2,2,2,2,2",
    "amal:4,4,4,4,4,4",
)
# K_7 on 0..6 with one K-end pair (5, 6), n = 16: LMD 7, witness
# (0, 2, 5, 9, 11, 13, 15)
GRAPH6 = ("O~~~{?@?I@C??@C?@GG?@",)

# each variant's value is at most the next one's, by the definitions: a
# set that separates more pairs, or by finer representations, separates these
CHAINS = (
    (Variant.LDIM, Variant.DIM, Variant.DIM_MS, Variant.MD),
    (Variant.LDIM, Variant.LDIM_MS, Variant.LMD, Variant.MD),
    (Variant.LDIM_MS, Variant.DIM_MS),
)


def listed_graphs():
    """(name, graph): the specs, the graph6 strings, and from one fixed seed
    16 trees with n = 9-20, 16 sparse graphs with n = 9-16 and 8 random
    graphs with n = 9-13."""
    graphs = [(spec, gen(parse_family_spec(spec))) for spec in SPECS]
    graphs += [(text, parse_graph6(text)) for text in GRAPH6]
    rng = random.Random(20250901)
    for name, n_max, max_extra, count in (
        ("tree", 20, 0, 16),
        ("sparse", 16, 6, 16),
        ("random", 13, None, 8),
    ):
        for i in range(count):
            g = random_connected_graph(rng, n_max, n_min=9, max_extra=max_extra)
            graphs.append((f"{name} {i}", g))
    return graphs


@pytest.fixture(scope="module")
def answers():
    """name -> (graph, {variant: dimension()}), each pair solved once."""
    return {
        name: (g, {variant: dimension(g, variant) for variant in Variant})
        for name, g in listed_graphs()
    }


def test_the_benchmark_answers_are_pinned(answers):
    # value, witness, subsets_checked and certificate kind (its first token)
    # of all 36 compute solves, as perfbench records and checks them
    with open(COMPUTE) as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(
        f"{spec}/{variant.name.lower()}" for spec in COMPUTE_SPECS for variant in Variant
    )
    for item, want in expected.items():
        spec, variant = item.rsplit("/", 1)
        r = answers[spec][1][Variant[variant.upper()]]
        got = {
            "value": "infinity" if r.is_infinite else r.value,
            "witness": None if r.witness is None else list(r.witness),
            "subsets_checked": r.subsets_checked,
            "kind": r.certificate and r.certificate.split(":", 1)[0].split()[0],
        }
        assert got == want, item


def test_every_answer_meets_the_definitions(answers):
    for name, (g, results) in answers.items():
        assert 9 <= g.n <= 20, name
        for variant, r in results.items():
            if r.value == INFINITE:
                assert r.witness is None and r.certificate, (name, variant)
            else:
                cert = certify(g, r.witness, variant)
                assert cert.valid and len(r.witness) == r.value, (name, variant)
        for chain in CHAINS:
            values = [results[variant].value for variant in chain]
            assert values == sorted(values), (name, chain, values)


def test_certificates_agree_with_the_search(answers):
    # each infinite MD or LMD that a structural certificate answers, at
    # n <= 16, is confirmed by the level search (with the walk for LMD),
    # which reads no certificate
    confirmed = []
    for name, (g, results) in answers.items():
        for variant in (Variant.MD, Variant.LMD):
            r = results[variant]
            if g.n <= 16 and r.value == INFINITE and r.subsets_checked == 0:
                assert solver._first_resolving(g, variant, None)[0] is None, (name, variant)
                confirmed.append(variant.name)
    assert Counter(confirmed) == {"MD": 10, "LMD": 1}
