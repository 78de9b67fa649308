"""Representations, distance multisets and the six resolving predicates.

Each dimension variant combines a representation kind (ordered vector or
sorted multiset) with a scope (which vertex pairs must be distinguished).
The predicates read only the landmarks' distance rows, never the whole
distance matrix.
"""

from enum import Enum
from itertools import combinations

from .errors import GraphValidationError
from .graph import distance_row


class Variant(Enum):
    """The six resolvability variants.

    kind: "vector" (ordered landmark list) or "multiset" (bag of distances).
    scope: "all" (all distinct pairs), "adjacent" (edges), "outer" (distinct
    pairs outside W), "adjacent_outer" (edges with both ends outside W).
    """

    DIM = ("vector", "all")
    LDIM = ("vector", "adjacent")
    MD = ("multiset", "all")
    DIM_MS = ("multiset", "outer")
    LMD = ("multiset", "adjacent")
    LDIM_MS = ("multiset", "adjacent_outer")

    def __init__(self, kind, scope):
        self.kind = kind
        self.scope = scope
        # MD and LMD, the multiset kinds whose scope also compares the
        # landmarks, can be infinite; the other four never are. A plain
        # attribute, since the solver reads it on every solve.
        self.always_finite = not (kind == "multiset" and scope in ("all", "adjacent"))

    @classmethod
    def from_name(cls, name):
        try:
            return cls[name.upper()]
        except KeyError:
            raise GraphValidationError(f"unknown variant {name!r}") from None


def vertex_keys(rows, kind):
    """Per-vertex representation keys from the landmarks' distance rows.

    rows[i][u] is d(u, w_i). For the vector kind the row order fixes the
    landmark order (resolvability is order-invariant).
    """
    if kind == "vector":
        return list(zip(*rows))
    return [tuple(sorted(dists)) for dists in zip(*rows)]


def scope_pairs(g, W, scope):
    """The unordered vertex pairs a resolving set must distinguish."""
    if scope == "all":
        return combinations(range(g.n), 2)
    if scope == "adjacent":
        return iter(g.edges)
    Wset = set(W)
    if scope == "outer":
        outside = [u for u in range(g.n) if u not in Wset]
        return combinations(outside, 2)
    if scope == "adjacent_outer":
        return ((u, v) for u, v in g.edges if u not in Wset and v not in Wset)
    raise ValueError(f"unknown scope {scope!r}")


def _check_W(g, W):
    if not W:
        raise GraphValidationError("resolving-set candidate must be non-empty")
    for w in W:
        if not (0 <= w < g.n):
            raise GraphValidationError(f"vertex {w} out of range")


def is_resolving(g, W, variant):
    """True iff every pair in the variant's scope has distinct keys."""
    return not violating_pairs(g, W, variant)


def violating_pairs(g, W, variant):
    """All in-scope pairs with equal representations, sorted; empty iff resolving.

    The all and outer scopes group their vertices by key: the pairs inside
    each group, sorted, are those a scan of `scope_pairs` would find.
    """
    _check_W(g, W)
    keys = vertex_keys([distance_row(g, w) for w in sorted(W)], variant.kind)
    scope = variant.scope
    if scope in ("adjacent", "adjacent_outer"):
        return [(u, v) for u, v in scope_pairs(g, W, scope) if keys[u] == keys[v]]
    Wset = set(W) if scope == "outer" else ()
    groups = {}
    for u, key in enumerate(keys):
        if u not in Wset:
            groups.setdefault(key, []).append(u)
    return sorted(
        pair
        for group in groups.values()
        if len(group) > 1
        for pair in combinations(group, 2)
    )
