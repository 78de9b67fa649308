"""Closed-form lower bounds, upper bounds and infiniteness certificates.

Bounds never substitute for exact solving; they annotate results, prune the
search, and let the verification harness cross-check exact values.
"""

import math
from collections import namedtuple
from itertools import groupby

from .graph import (
    CHI_CAP,
    OMEGA_CAP,
    bipartition,
    chromatic_number,
    clique_number,
    diameter,
    distance_row,
    k_end_groups,
    memoized,
    twin_classes,
    within_two_hops,
)
from .multisets import Variant


Bound = namedtuple("Bound", "value provenance")


class InfiniteCertificate(namedtuple("InfiniteCertificate", "variant kind witness description")):
    """Structural witness that a variant's dimension is infinite.

    kind is diam_le_2, triple_open_neighborhood or triple_k_end.
    """

    __slots__ = ()


class BoundReport(namedtuple("BoundReport", "n lower upper certificates skipped")):
    """lower maps each Variant to the best of its applicable Bounds, upper to
    an int (max(1, n-1) for the outer variants). certificates is a tuple of
    InfiniteCertificates, skipped a tuple of human-readable notes for the
    bounds skipped by caps.
    """

    __slots__ = ()


def g_bound(d, chi):
    """Smallest k with C(k+d-1,d-1) + C(k+d-2,d-1) - d + 1 >= chi.

    Exact integer arithmetic throughout; k is found by incrementing from 1.
    """
    if d < 2:
        raise ValueError("g_bound requires diameter >= 2")
    if chi < 1:
        raise ValueError("g_bound requires chi >= 1")
    k = 1
    while True:
        if math.comb(k + d - 1, d - 1) + math.comb(k + d - 2, d - 1) - d + 1 >= chi:
            return k
        k += 1


def level_lower_bound(g, variant):
    """Smallest k at which `variant` can have a resolving set of k vertices.

    Counting bounds, with D the diameter: a vertex outside W has all its
    distances to W in {1..D}. n + 1 means that no level can resolve.

    - DIM: the n - k vertices outside W have vectors in {1..D}^k, and each
      vertex of W has its one 0 in its own place, so n <= D^k + k
      (Khuller, Raghavachari & Rosenfeld 1996, "Landmarks in graphs";
      Chartrand et al. 2000).
    - MD: outside W a multiset of size k over {1..D} is one of
      C(k+D-1, D-1); in W it is one 0 and k - 1 entries in {1..D}, one of
      C(k+D-2, D-1). So n <= C(k+D-1, D-1) + C(k+D-2, D-1), the count
      behind the paper's g_bound with n in place of chi.
    - DIM_MS: only the n - k vertices outside W must differ, so
      n - k <= C(k+D-1, D-1).
    - DIM_MS with D = 2, sharper: the multiset of u outside W is fixed by
      c = |N(u) & W|, where max(0, k - (n-1-deg u)) <= c <= min(deg u, k).
      Level k needs n - k vertices with distinct c (`_distinct_counts`).

    The local variants get the trivial 1.
    """
    if g.n == 1 or variant.adjacent:
        return 1
    n, D = g.n, diameter(g)
    degrees = sorted(map(len, g.adj))

    def fits(k):
        if variant is Variant.DIM:
            return n <= D**k + k
        if variant is Variant.MD:
            return n <= math.comb(k + D - 1, D - 1) + math.comb(k + D - 2, D - 1)
        if D == 2:
            return _distinct_counts(degrees, k) >= n - k
        return n - k <= math.comb(k + D - 1, D - 1)

    return next((k for k in range(1, n + 1) if fits(k)), n + 1)


def _distinct_counts(degrees, k):
    """Most vertices that can have pairwise distinct counts c = |N(u) & W|,
    from the sorted degrees.

    Each vertex's c lies in an interval (`level_lower_bound`); greedy
    interval-point matching, intervals by right end and each given the
    smallest free point, matches the most vertices. Both ends of an interval
    grow with the degree, so the sorted degrees give that order, and a
    degree's run shares one interval: its walk for a free point resumes
    where the last one stopped, and once it finds none the rest of the run
    cannot either, since the used points only grow.
    """
    n = len(degrees)
    used = set()
    for d, run in groupby(degrees):
        hi, lo = min(d, k), max(0, k - (n - 1 - d))
        for _ in run:
            while lo in used:
                lo += 1
            if lo > hi:
                break
            used.add(lo)
    return len(used)


def clique_log_bound(omega):
    """max(1, ceil(log2 omega)), computed exactly: every graph needs a landmark."""
    return max(1, (omega - 1).bit_length())


def is_complete(g):
    return len(g.edges) == g.n * (g.n - 1) // 2


def is_path_graph(g):
    """A connected tree (n - 1 edges) with no vertex of degree 3 or more. A
    disconnected graph raises, from the memoized BFS row of vertex 0."""
    distance_row(g, 0)
    return len(g.edges) == g.n - 1 and max(map(len, g.adj)) <= 2


@memoized
def infinite_certificates(g, variant):
    """Structural proofs that `variant`'s dimension is infinite, as a tuple.

    MD: diameter <= 2 (paths excepted: md(P_2) = md(P_3) = 1, so the raw
    diameter condition is false for them) or three vertices with the same
    open neighbourhood (`graph.twin_classes`). LMD: a clique with three or
    more K-end vertices (`graph.k_end_groups`). Neither enumerates cliques.
    Every other variant is always finite and gets ().

    Memoized on the graph per variant (`graph.memoized`), so a solve derives
    only its own variant's certificates. A disconnected graph raises on
    every call, since a call that raises stores nothing. The connectivity
    check is the memoized BFS row of vertex 0, which `bipartition` and the
    distance rows share.
    """
    distance_row(g, 0)
    if variant is Variant.LMD:
        return tuple(
            InfiniteCertificate(
                Variant.LMD,
                "triple_k_end",
                ends,
                f"clique {clique} has {len(ends)} K-end vertices",
            )
            for clique, ends in k_end_groups(g)
            if len(ends) >= 3
        )
    if variant is not Variant.MD:
        return ()
    certs = []
    if within_two_hops(g) and not is_path_graph(g):
        # at diameter 1 or 2, d(u, v) is the diameter exactly when u != v
        # and u, v are adjacent iff the graph is complete
        complete = is_complete(g)
        far = next(
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and (v in g.adj[u]) == complete
        )
        diam = 1 if complete else 2
        certs.append(
            InfiniteCertificate(
                Variant.MD,
                "diam_le_2",
                far,
                f"diameter {diam} <= 2 and graph is not a path",
            )
        )
    for triple in twin_classes(g, False).values():
        if len(triple) >= 3:
            certs.append(
                InfiniteCertificate(
                    Variant.MD,
                    "triple_open_neighborhood",
                    triple,
                    f"vertices {triple} share one open neighbourhood",
                )
            )
    return tuple(certs)


def lower_bounds(g):
    """Best applicable lower bound for LMD and LDIM_MS, with provenance.

    Each candidate bound is computed only when its inputs fit the exact caps
    (`graph.OMEGA_CAP`, `graph.CHI_CAP`); skipped candidates are listed so
    callers can tell that the report is partial rather than silently
    heuristic. The certificates are MD's, then LMD's up to OMEGA_CAP (this
    is the one place that caps them). The distance rows are built only for
    the chromatic bound, so never above CHI_CAP.
    """
    certificates = infinite_certificates(g, Variant.MD)
    candidates = [Bound(1, "trivial_1")]
    skipped = []
    bipartite = bipartition(g) is not None
    if not bipartite:
        candidates.append(Bound(2, "nonbipartite_2"))
    if g.n <= OMEGA_CAP:
        certificates += infinite_certificates(g, Variant.LMD)
        candidates.append(Bound(clique_log_bound(clique_number(g)), "clique_log"))
    else:
        skipped.append(f"clique_log: n={g.n} exceeds omega cap {OMEGA_CAP}")
        skipped.append(f"triple_k_end: n={g.n} exceeds omega cap {OMEGA_CAP}")
    if not is_complete(g):  # diameter >= 2
        if g.n <= CHI_CAP:
            chi = chromatic_number(g)
            candidates.append(Bound(g_bound(diameter(g), chi), "chromatic_gdchi"))
        else:
            skipped.append(f"chromatic_gdchi: n={g.n} exceeds chi cap {CHI_CAP}")
    best = max(candidates, key=lambda b: b.value)
    lower = {Variant.LMD: best, Variant.LDIM_MS: best}
    upper = max(1, g.n - 1)  # K_1 still needs one landmark
    return BoundReport(
        n=g.n,
        lower=lower,
        upper={Variant.DIM_MS: upper, Variant.LDIM_MS: upper},
        certificates=certificates,
        skipped=tuple(skipped),
    )

