import random

import pytest

from multires.bounds import level_lower_bound
from multires.generators import connected_classes
from multires.multisets import Variant
from multires.solver import _rules, dimension, naive_all_dimensions

from strategies import plain_count, random_connected_graph


@pytest.fixture(scope="session")
def classes7():
    """(graph, |Aut|) for every connected isomorphism class with n <= 7."""
    return list(connected_classes(7))


@pytest.fixture(scope="session")
def oracle_sweep():
    """The kernel against the naive oracle on 500 random graphs (n <= 8):
    (mismatches, counted), where a mismatch names the failed check, the
    variant and the edges, and counted is the number of subsets_checked
    counts compared. Under K-end rules the count is that of a plain loop
    over the subsets that pass them. Run once for every test that reads it."""
    rng = random.Random(271828)
    mismatches = []
    counted = 0
    for _ in range(500):
        g = random_connected_graph(rng, n_max=8)
        naive = naive_all_dimensions(g)
        for variant in Variant:
            got, want = dimension(g, variant), naive[variant]
            where = (variant, g.edges)
            if (got.value, got.witness) != (want.value, want.witness):
                mismatches.append(("value or witness", where))
            if level_lower_bound(g, variant) > want.value:
                mismatches.append(("level_lower_bound", where))
            # a certificate answers before any subset is counted
            if got.subsets_checked:
                # a K-end rule skips subsets the oracle counts
                rules = _rules(g, variant)[0]
                want_count = want.subsets_checked
                if rules:
                    want_count = plain_count(g, rules, got.witness)
                if got.subsets_checked != want_count:
                    mismatches.append(("subsets_checked", where))
                counted += 1
    return mismatches, counted
