"""Representations, distance multisets and the six resolving predicates.

Each dimension variant combines a representation kind (ordered vector or
sorted multiset) with a scope (which vertex pairs must be distinguished).
"""

from enum import Enum
from itertools import combinations

from .errors import GraphValidationError
from .graph import all_pairs_distances


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

    @property
    def always_finite(self):
        """MD and LMD can be infinite; the other four never are."""
        return self not in (Variant.MD, Variant.LMD)

    @classmethod
    def from_name(cls, name):
        try:
            return cls[name.upper()]
        except KeyError:
            raise GraphValidationError(f"unknown variant {name!r}") from None


def representation(dm, u, landmarks):
    """Ordered distance vector r(u|W) for a landmark list W."""
    if not landmarks:
        raise GraphValidationError("landmark set must be non-empty")
    return tuple(dm.d[u][w] for w in landmarks)


def representation_multiset(dm, u, landmark_set):
    """Canonical sorted distance bag m(u|W)."""
    if not landmark_set:
        raise GraphValidationError("landmark set must be non-empty")
    return tuple(sorted(dm.d[u][w] for w in landmark_set))


def vertex_keys(dm, landmarks, kind):
    """Per-vertex representation keys for all vertices at once.

    `landmarks` must be sorted ascending; for the vector kind this fixes the
    landmark order (resolvability is order-invariant).
    """
    rows = dm.d
    if kind == "vector":
        return [tuple(rows[u][w] for w in landmarks) for u in range(dm.n)]
    return [tuple(sorted(rows[u][w] for w in landmarks)) for u in range(dm.n)]


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
    _check_W(g, W)
    keys = vertex_keys(all_pairs_distances(g), sorted(W), variant.kind)
    return all(keys[u] != keys[v] for u, v in scope_pairs(g, W, variant.scope))


def violating_pairs(g, W, variant):
    """All in-scope pairs with equal representations; empty iff resolving."""
    _check_W(g, W)
    keys = vertex_keys(all_pairs_distances(g), sorted(W), variant.kind)
    return [(u, v) for u, v in scope_pairs(g, W, variant.scope) if keys[u] == keys[v]]
