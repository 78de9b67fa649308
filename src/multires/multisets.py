"""Representations, distance multisets and the six resolving predicates.

Each dimension variant combines a representation kind (ordered vector or
sorted multiset) with two choices of the vertex pairs that must be
distinguished: all pairs or only the edges, and whether pairs with an end in
W drop out. The predicates read only the landmarks' distance rows, never the
whole distance matrix.
"""

from enum import Enum
from itertools import chain, combinations

from .errors import GraphValidationError
from .graph import distance_row


class Variant(Enum):
    """The six resolvability variants.

    kind: "vector" (ordered landmark list) or "multiset" (bag of distances).
    adjacent: only the edges are compared, not all distinct pairs.
    outer: pairs with an end in W are dropped.
    """

    DIM = ("vector", False, False)
    LDIM = ("vector", True, False)
    MD = ("multiset", False, False)
    DIM_MS = ("multiset", False, True)
    LMD = ("multiset", True, False)
    LDIM_MS = ("multiset", True, True)

    def __init__(self, kind, adjacent, outer):
        self.kind = kind
        self.adjacent = adjacent
        self.outer = outer
        # MD and LMD, the multiset kinds that also compare the landmarks,
        # can be infinite; the other four never are. A plain attribute,
        # since the solver reads it on every solve.
        self.always_finite = kind == "vector" or outer


def vertex_keys(rows, kind):
    """Per-vertex representation keys from the landmarks' distance rows.

    rows[i][u] is d(u, w_i). For the vector kind the row order fixes the
    landmark order (resolvability is order-invariant).
    """
    if kind == "vector":
        return list(zip(*rows))
    return [tuple(sorted(dists)) for dists in zip(*rows)]


def scope_pairs(g, W, variant):
    """The unordered vertex pairs a resolving set must distinguish."""
    pairs = iter(g.edges) if variant.adjacent else combinations(range(g.n), 2)
    if variant.outer:
        Wset = set(W)
        pairs = ((u, v) for u, v in pairs if u not in Wset and v not in Wset)
    return pairs


def _check_W(g, W):
    if not W:
        raise GraphValidationError("resolving-set candidate must be non-empty")
    bad = [w for w in W if not 0 <= w < g.n]
    if bad:
        raise GraphValidationError(f"witness vertices {bad} out of range for n={g.n}")


def is_resolving(g, W, variant):
    """True iff every pair in the variant's scope has distinct keys."""
    return not violating_pairs(g, W, variant)


def violating_pairs(g, W, variant):
    """All in-scope pairs with equal representations, sorted; empty iff resolving.

    Unless only edges are compared, the vertices (those outside W for the
    outer variants) are grouped by key: the pairs inside each group, sorted,
    are those a scan of `scope_pairs` would find.
    """
    _check_W(g, W)
    keys = vertex_keys([distance_row(g, w) for w in sorted(W)], variant.kind)
    if variant.adjacent:
        return [(u, v) for u, v in scope_pairs(g, W, variant) if keys[u] == keys[v]]
    Wset = set(W) if variant.outer else ()
    groups = {}
    for u, key in enumerate(keys):
        if u not in Wset:
            groups.setdefault(key, []).append(u)
    return sorted(
        chain.from_iterable(
            combinations(group, 2) for group in groups.values() if len(group) > 1
        )
    )
