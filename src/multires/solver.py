"""Exact dimension solver: cardinality-ordered subset search with pruning.

Resolvability of the multiset variants is not monotone under adding
landmarks, so there are no superset shortcuts. The answer is that of a
plain loop over the subsets of each cardinality k = 1..n, lexicographic
within each k, that skips the subsets a K-end rule (below) excludes and
returns the first subset that resolves; this makes witnesses
deterministic. `subsets_checked` and the subset budget count the subsets
that pass the K-end rules, in that order. The search only looks for the
first resolving set of each level, and the count is arithmetic on its
answer. It skips the levels that a counting bound rules out, cuts a prefix
as soon as the K-end rules or the twin rules can no longer be met or a pair
that no later landmark can tell apart is unresolved, and decides an
infinite LMD value by a membership walk instead of visiting all 2^n - 1
subsets.

K-end rules (LMD and LDIM_MS). The K-end vertices of a clique K, the u with
N[u] = K, are closed twins (`graph.k_end_groups`), so no landmark outside
them tells them apart. LMD needs exactly one of two in W (three or more make
LMD infinite, and `dimension()` returns the triple_k_end certificate first),
and LDIM_MS all but one. `_rules(g, variant)` states these as the rules
(mask, at_least, at_most) of its first list, below, with no clique cap.

The kernel (`_first_resolving`) walks the subsets of each cardinality as a
depth-first search over combinations in lexicographic order (Knuth, TAOCP
4A, 7.2.1.3). Each landmark w has a precomputed column, and a subset's value
is its prefix's value extended by the column of its last landmark, so a
subset costs one big-integer add or OR and one test instead of n sorted
keys. The pairs in scope are all pairs for DIM, MD and DIM_MS, and the
edges for LDIM, LMD and LDIM_MS.

- multiset kinds: the key of u is the sum over w in W of f(d(u, w)), a
  mixed-radix number (below) equal for two vertices iff their distance
  multisets are equal. For the outer scopes, w's own entry in its column is
  a distinct negative sentinel, which takes W's vertices out of every
  comparison. The kernel keeps one key difference per pair, packed into
  one integer (below), and tests that none is 0.
- vector kinds: column w is the bitmask of the pairs that w separates,
  read off the same lanes, one bit per pair (below); W resolves iff the OR
  of its columns has every bit set.

Bipartite graphs (LDIM, LMD and LDIM_MS). No edge of a connected
bipartite graph joins two vertices equally far from vertex 0, so {0}, the
plain loop's first subset, resolves every edge; with no triangle there is
no K-end rule and no certificate. `dimension()` returns it, counted as one
subset, before it builds certificates, rules or columns.

One integer per subset. `_columns(g, variant)`, the only code that knows
this lane format, builds all six variants' columns with it. The key of the
vector kinds is d(u, w), with F = D + 1 for D the diameter. That of the
multiset kinds: with Delta the maximum degree, the radices are r_0 = 2 and
r_d = min(n-1, Delta*(Delta-1)**(d-1)) + 1 for 1 <= d < D, the place values
f(d) = r_0 * ... * r_(d-1) for d < D and f(D) = 0, and
F = r_0 * ... * r_(D-1). So key_W(u) = sum over d < D of c_d * f(d), where
c_d counts W's vertices at distance d from u. Only u is at distance 0 from
u, and no vertex has more than min(n-1, Delta*(Delta-1)**(d-1)) vertices
at distance d >= 1 (the Moore bound), so c_d < r_d: the c_d are the digits
of the key in this mixed radix, the key lies in [0, F), and two keys are
equal iff their digits are. c_D = |W| - (c_0 + ... + c_(D-1)) follows from
them, since every vertex has |W| distances to W, so two keys are equal iff
the multisets are. In the outer scopes w's own entry in its column is the
sentinel -(w+1)*F, so the key of w in W lies in [-(w+1)*F, -w*F): below
every key outside W and apart from every other landmark's key.

Pair i in scope owns the L-bit lane [L*i, L*(i+1)). Lane i of column w
holds the signed key difference key_w(u) - key_w(v) of the pair (u, v):
column w is sum over u of key_w(u) * E[u], where the incidence integer
E[u] holds +1 in the lanes of the pairs (u, v) and -1 in those of (v, u).
For all pairs, `_pair_incidence` builds E[u] from two blocks of unit lanes,
u's own pairs and a running sum of its pairs (v, u), in O(n) big-integer
operations; the edge scopes add one lane per edge.
B exceeds |key_W(u) - key_W(v)| for every W: in the all and adjacent
scopes every key lies in [0, F), so |diff| < F = B, and in the outer
scopes in [-n*F, F), so |diff| < (n+1)*F = B. Both searches start a
subset's value acc at base = B*low, where low has a 1 in every lane, and
add the columns of its landmarks. An integer is linear in its lanes, so
lane i of acc is B plus the key difference of its pair under the
landmarks added so far: it lies in (0, 2B) at every level, and equals B
iff that difference is 0. L = (2*B).bit_length() + 1 keeps every lane
below 2**(L-1): no lane borrows from or carries into the next, and every
lane's top bit stays clear. With high = low << (L-1), the lanes' top bits,
and target = base | high, lane i of y = acc ^ target is 2**(L-1) + z_i,
with z_i < 2**(L-1) and z_i = 0 iff the difference is 0 (acc's top bits
are clear, so the XOR sets them all). W resolves iff
(y - low) & high == high. The test is exact (a zero-lane test; Warren,
"Hacker's Delight", 6-1): with every top bit set first, every lane is at
least 1, so subtracting low borrows nowhere, and lane i keeps its top bit
iff z_i >= 1. A vector column is the top bits of the lanes w moves,
((col + base) ^ target) - low & high, packed to one bit per pair; `_columns`
returns it with base, target and low 0.

A rule (mask, at_least, at_most) bounds the count of W's vertices in the
vertex set `mask`. `_feasible(rules, chosen, first, slots)` asks: can
`chosen` grow by `slots` more vertices from first..n-1 into a set W with
at_least <= |W & mask| <= at_most for every rule? It answers no when a
rule's count already exceeds at_most, when a rule's shortfall below
at_least exceeds the vertices of its class left at or after `first`, or
when the shortfalls together exceed `slots`. Each condition is necessary
because the classes are disjoint (each is a class of twins, below), so one
more vertex lowers at most one shortfall by one. At a leaf, slots is 0 and
the check is exactly the plain loop's filter.
`_completions(n, rules, chosen, first, slots)` counts the leaves below a
node that pass the rules: with the classes disjoint, it is the coefficient
of x**slots in a product of per-class binomial polynomials
sum_j C(left, j) x**j, j over the counts that keep the class within its
rule, times (1 + x)**(vertices in no class), plain C(n - first, slots)
with no rules, and 0 with no product where `_feasible` says no.

The search counts nothing. No level below the floor k_min resolves, each
refutation raises it, and the loop searches level k only at k >= k_min (a
refuter raises k_min or skips one level's search). Each level with no
resolving set, below k_min, refuted or walked past, adds at one line every
k-set that passes the K-end rules, `_completions(n, rules, 0, 0, k)`.
The answer level adds its witness W's rank among those sets: 1 plus, for
each i, the sets that share W's landmarks below W[i] and take next an s
with W[i - 1] < s < W[i]. Every set so counted comes before W, and none
resolves. The budget rule is the plain loop's, which raises
BudgetExhaustedError(budget) where it would count subset budget + 1: a
count above `subset_budget` raises, and the count the loop had reached is
the budget. `dimension()` checks the count of its answer once. To bound
the work, each level's count is checked as it is added, and with a budget
set the root of a level sums its passed children's counts and raises
before the next child with counted sets once they use up the budget.

Twin rules. Vertices u, v are closed twins when N[u] = N[v] (so they are
adjacent) and open twins when N(u) = N(v) (so they are not). Outside
their own class, twins have the same distance to every vertex, so a
landmark set that holds neither u nor v gives them the same vector and the
same multiset. `_rules(g, variant)` states what follows, one rule
(mask, at_least, at_most) per class of t twins:
- closed twins, all six variants: every scope compares u and v while both
  are outside W (they are an edge, and a pair of the all and outer
  scopes), so W holds all but one of the class: at least t - 1 (for DIM,
  Hernando, Mora, Pelayo, Seara & Wood 2010).
- open twins, DIM, MD and DIM_MS: the all and outer scopes compare them
  the same way, so the same rule holds. They are never adjacent, so the
  adjacent scopes never compare them and LDIM, LMD and LDIM_MS get no
  rule from them.
- MD and LMD, which also compare the vertices of W: with both u and v in
  W, the multisets of u and v are still equal (each has one 0, one
  d(u, v) and the same distances to the rest of W). So W holds exactly one
  of a twin pair: at most 1 as well. A class of three or more then needs
  at least 2 and at most 1, which no set obeys, and no subset resolves.
  DIM separates u in W by its 0 coordinate, and the outer scopes drop a
  pair with an end in W, so the others get no at_most.
A vertex cannot have both an open twin v and a closed twin x: x is in
N(u) = N(v), so v is in N[x] = N[u] and u, v would be adjacent. So the
open and closed classes are disjoint, and `_rules` puts each class's one
rule in one list: the K-end groups the plain loop filters on in the first,
the twin rules in the second, so `_feasible`'s slot argument holds for the
two together. Only the K-end rules decide what is counted, but every
resolving set obeys both: an internal node checks both for each child, and
a leaf runs only the lane test (a leaf that breaks a K-end rule does not
resolve). A set of twin rules that no set obeys sets k_min to n + 1: no
level is searched, so no column is built, and every level is counted.

Final lanes (both searches, all six variants). Landmark w moves the lane
or bit of a pair (u, v) only if d(u, w) != d(v, w); otherwise its column
holds 0 there. `_final_lanes` gives final[w], the bits of `full` (high, or
every pair's bit for vector kinds) that no column after w moves: each later
column clears the bits set in ((col + base) ^ target) - low, whose top bits
are those of the lanes it moves (for vector kinds, whose base, target and
low are 0, its own bits). The landmarks chosen after w lie above it, so a
pair in final[w] that acc, base plus the sum (or the OR) of the columns
chosen, leaves unresolved stays so in every completion.
((acc ^ target) - low) & final[w] != final[w] finds one, exactly, at every
level and in any lane order: with every top bit set first, subtracting low
borrows nowhere, and a bit that no later column sets stays clear. A node
with at most two slots left also ends its own loop: if acc leaves 0 a lane
of final[w - 1], which no column from w on moves, no child or leaf from w
on resolves, and since final[w - 1] grows with w the first such w ends the
loop. It runs only there, as deeper nodes test each child's final[w]
already (wheel:14 and wheel:15 DIM_MS 8-10% slower), with no K-end rules
(the corona, amal and edge_amal theorems up to 3% slower), and once final
exists.

All resolving sets. `resolving_sets(g, variant, k)` lists every resolving
k-set in lexicographic order by the same lane test on base plus (for
vector kinds, OR) the columns of each set. The test is exact on every
subset, so it needs no K-end rule: a set that breaks one never resolves.
The theorem harness reads the minimum bases of the wheel lemma from it.

Membership walk (LMD). Many graphs have an infinite LMD that no
certificate covers. `_membership_search` decides whether any W that
passes the K-end rules resolves, by a depth-first walk over i = 0..n-1
that tries "take vertex i" before "skip it", over the level kernel's own
columns, base, target and final lanes: once i is decided, it prunes with
the test on final[i] and with `_feasible`, the vertices left being the
slots. At i = n every lane has been tested. If no W resolves, the walk
sets k_min to n + 1, so no level from its own on is searched; if one does,
the level search goes on for the first witness in the plain loop's order.
Most LMD values are found at level 1 or 2, where a walk is pure overhead,
so it runs at most once, before the first level at which the level search
has counted n*|E| subsets (wheel:15: before level 4, after 696 of 65 535).
The final lanes are built at the first level >= 3 or walk. `search` and
`walk` call themselves through their closure cells, so each search deletes
its own when it ends, and a solve leaves no reference cycle. MD stays on
the level search.

k_min starts at the larger of `bounds.level_lower_bound` and the sum of
at_least over both rule lists, which every resolving set meets as the
classes are disjoint. For DIM, MD and DIM_MS, counting the
representations a vertex can have, with D the diameter, proves that no
k-set resolves when n > D^k + k (DIM; Khuller, Raghavachari & Rosenfeld
1996, "Landmarks in graphs"; Chartrand et al. 2000), when
n > C(k+D-1, D-1) + C(k+D-2, D-1) (MD, the count behind the paper's
g_bound), or when n - k exceeds the number of multisets the vertices
outside W can take (DIM_MS). Each level below k_min is counted as above.
"""

import math
import time
from collections import namedtuple
from functools import reduce
from itertools import accumulate, combinations
from operator import add, mul, or_

from .bounds import infinite_certificates, level_lower_bound
from .errors import BudgetExhaustedError, CapExceededError, GraphValidationError
from .graph import (
    all_pairs_distances, bipartition, diameter, k_end_groups, memoized, twin_classes
)
from .multisets import Variant, scope_pairs, vertex_keys, violating_pairs

INFINITE = math.inf

SOLVER_CAP_DEFAULT = 20


# parallel_shards is inert: the search is one sequential loop. Values below 1
# are still rejected. Kept only because the benchmark's compute-jobs2 workload
# sets parallel_shards=2.
SolverOptions = namedtuple(
    "SolverOptions", "parallel_shards subset_budget cap", defaults=(1, None, SOLVER_CAP_DEFAULT)
)

_DEFAULT_OPTIONS = SolverOptions()


class DimensionResult(
    namedtuple(
        "DimensionResult", "variant value witness subsets_checked certificate elapsed_ms"
    )
):
    """value is a positive int or INFINITE; witness is the sorted vertex
    tuple when value is finite, else None."""

    __slots__ = ()

    @property
    def is_infinite(self):
        return self.value == INFINITE


Certificate = namedtuple("Certificate", "variant witness valid violating")


def _feasible(rules, chosen, first, slots):
    """Whether `chosen` plus `slots` more vertices from first..n-1 can pass
    every rule (module docstring); at a leaf, with slots 0, whether it does."""
    short = 0
    for vs, lo, hi in rules:
        have = (chosen & vs).bit_count()
        if have > hi:
            return False
        if have < lo:
            if lo - have > (vs >> first).bit_count():
                return False
            short += lo - have
    return short <= slots


def _rules(g, variant):
    """(k_end, twins): one rule (mask, at_least, at_most) per twin class the
    variant compares (module docstring). k_end holds the K-end groups the
    plain loop filters on, twins the other classes; twins only prune and
    raise the first level searched, and a class of three or more under MD
    or LMD gets at_least > at_most there."""
    at_most = g.n if variant.always_finite else 1  # 1 for MD and LMD
    # LMD and LDIM_MS; LMD filters on pairs only, as triples have a certificate
    ends = (
        {vs for _, vs in k_end_groups(g) if at_most > 1 or len(vs) == 2}
        if variant.kind == "multiset" and variant.adjacent
        else ()
    )
    k_end, twins = [], []
    for closed in (True,) if variant.adjacent else (True, False):
        for vs in twin_classes(g, closed).values():
            rule = (sum(1 << v for v in vs), len(vs) - 1, at_most)
            (k_end if vs in ends else twins).append(rule)
    return k_end, twins


def _completions(n, rules, chosen, first, slots):
    """The sets chosen | X, X a `slots`-subset of first..n-1, that pass every
    rule, whose classes are disjoint: the coefficient of x**slots in the
    product over the classes of sum_j C(left, j) x**j, j over the counts
    that keep the class within its rule, times (1 + x)**free for the
    vertices in no class. Each polynomial is an integer in base 2**(n+1),
    which holds every coefficient: each counts sets of at most n vertices."""
    free = n - first
    if not rules:
        return math.comb(free, slots)
    if not _feasible(rules, chosen, first, slots):
        return 0  # no set passes: skip the product
    bits = n + 1
    product = 1
    for vs, lo, hi in rules:
        have = (chosen & vs).bit_count()
        left = (vs >> first).bit_count()
        free -= left
        product *= sum(
            math.comb(left, j) << bits * j
            for j in range(max(lo - have, 0), min(hi - have, left) + 1)
        )
    product *= ((1 << bits) + 1) ** free
    return product >> bits * slots & (1 << bits) - 1


def _pair_incidence(n, L):
    """E[u], +1 in the L-bit lanes of the pairs (u, v) and -1 in those of
    (v, u), for all pairs u < v in combinations order, by vertex block."""
    # pair (u, v) is lane off[u] + v - u - 1: u's own pairs are the n - 1 - u
    # lanes from off[u] on, and N holds the lanes of u's pairs (v, u), v < u
    off = accumulate(range(n - 1, 0, -1), initial=0)
    ones = ((1 << L * (n - 1)) - 1) // ((1 << L) - 1)  # n - 1 unit lanes
    E, N = [], 0
    for u, start in enumerate(off):
        E.append((ones >> L * u << L * start) - N)
        N = (N << L) + (1 << L * start)
    return E


@memoized
def _columns(g, variant):
    """(cols, base, target, low, full) in the lane format of the module
    docstring, one path for all six variants: a subset's value is base plus
    (for vector kinds, OR) its landmarks' columns, and it resolves iff
    ((value ^ target) - low) & full == full. A vector column is packed to one
    bit per pair, the top bits of the lanes its landmark moves, with base,
    target and low 0. Memoized on the graph, so `resolving_sets` reuses it."""
    rows = all_pairs_distances(g)
    n, D = g.n, diameter(g)
    if variant.kind == "vector":
        keys, F = rows, D + 1  # key_w(u) = d(u, w)
    else:
        # key_w(u) = f(d(u, w)) as row w: f is the place values of the radices
        # r_d, which bound the count of landmarks at distance d < D from a vertex
        delta = max(map(len, g.adj))
        radix = [
            min(n - 1, delta * (delta - 1) ** (d - 1)) + 1 if d else 2 for d in range(D)
        ]
        place = list(accumulate(radix, mul, initial=1))
        F, place[D] = place[D], 0  # every key lies in [0, F)
        keys = [list(map(place.__getitem__, row)) for row in rows]
    if variant.outer:
        # a landmark's own entry is a sentinel: the key of w in W lies in
        # [-(w+1)*F, -w*F), below every key outside W and apart from the
        # other landmarks' keys
        for w, row in enumerate(keys):
            row[w] = -(w + 1) * F
    B = (n + 1) * F if variant.outer else F  # exceeds every |key difference|
    L = (2 * B).bit_length() + 1
    if variant.adjacent:
        E = [0] * n  # E[u]: +1 in the lanes of the edges (u, v), -1 in (v, u)
        for i, (u, v) in enumerate(g.edges):
            lane = 1 << L * i
            E[u] += lane
            E[v] -= lane
        lanes = len(g.edges)
    else:
        E, lanes = _pair_incidence(n, L), n * (n - 1) // 2
    low = ((1 << L * lanes) - 1) // ((1 << L) - 1)
    high = low << (L - 1)
    base = B * low
    target = base | high
    cols = tuple(sum(map(mul, row, E)) for row in keys)
    if variant.kind == "vector":
        # one bit per pair, the top bit of each lane that w moves: every L-th
        # digit of the binary string, from the last lane's top bit down
        moved = (((c + base) ^ target) - low & high for c in cols)
        spec = f"0{L * lanes}b"
        cols = tuple(int(format(m, spec)[::L], 2) for m in moved)
        return cols, 0, 0, 0, (1 << lanes) - 1
    return cols, base, target, low, high


def _final_lanes(cols, base, target, low, full):
    """final[w]: the lanes' top bits (multiset kinds) or the bits (vector
    kinds) of `full` that no column after w moves (module docstring)."""
    final = [full] * len(cols)
    for w in range(len(cols) - 1, 0, -1):
        final[w - 1] = final[w] & ~(((cols[w] + base) ^ target) - low)
    return final


def _membership_search(rules, cols, final, base, target, low):
    """The first landmark set, in take-before-skip order over the vertices,
    that passes the K-end rules and leaves no final lane 0: a resolving set
    of LMD as a bitmask, or None when none exists (module docstring)."""
    n = len(cols)

    def walk(i, chosen, acc):
        # vertices 0..i-1 are decided; acc is base plus the columns of the
        # vertices `chosen` holds
        if i == n:
            return chosen
        mask = final[i]
        for chosen_, acc_ in ((chosen | 1 << i, acc + cols[i]), (chosen, acc)):
            if rules and not _feasible(rules, chosen_, i + 1, n - i - 1):
                continue
            if ((acc_ ^ target) - low) & mask != mask:
                continue
            found = walk(i + 1, chosen_, acc_)
            if found is not None:
                return found
        return None

    try:
        return walk(0, 0, base)
    finally:
        del walk  # walk calls itself through this cell: break the cycle


def _first_resolving(g, variant, budget):
    """The first resolving W, by k and then lexicographically (module docstring).

    Returns (W, examined), W None when no subset resolves; `examined` counts
    the subsets that pass the K-end rules and may pass `budget`, which
    `dimension()` checks (module docstring).
    """
    n = g.n
    rules, twins = _rules(g, variant)
    both = rules + twins
    if any(lo > hi for _, lo, hi in twins):
        k_min = n + 1  # no set obeys the twin rules, so none resolves
    else:
        # no subset of a level below k_min resolves; a refutation raises it
        k_min = max(level_lower_bound(g, variant), sum(lo for _, lo, _ in both))
    examined, cols = 0, None  # cols is built at the first level searched
    if variant.kind == "vector":
        extend = or_

        def resolves(acc, col):
            return acc | col == full

    else:
        extend = add

        def resolves(acc, col):
            # full loses a bit iff some pair's key difference is 0
            return (((acc + col) ^ target) - low) & full == full

    def metered(ws, depth):
        # the root's children, stopped where the budget runs out (module docstring)
        passed = examined
        for w in ws:
            count = _completions(n, rules, 1 << w, w + 1, depth - 1)
            if count and passed >= budget:
                raise BudgetExhaustedError(budget)
            passed += count
            yield w

    def search(first, depth, prefix, acc):
        # the first resolving set below the bitmask prefix, or None
        ws = range(first, n - depth + 1)
        if budget is not None and not prefix:
            ws = metered(ws, depth)
        # with at most two slots left, the loop ends at the first w where z,
        # whose top bits (or bits) are acc's lanes that are not 0, lacks a
        # bit of final[w - 1] (module docstring); a root's w = 0 has none
        z = None
        if depth <= 2 and prefix and not rules and final is not None:
            z = (acc ^ target) - low
        if depth > 1:
            for w in ws:
                if z is not None and z & final[w - 1] != final[w - 1]:
                    return None
                chosen = prefix | 1 << w
                if both and not _feasible(both, chosen, w + 1, depth - 1):
                    continue
                acc_ = extend(acc, cols[w])
                if depth > 2 and ((acc_ ^ target) - low) & final[w] != final[w]:
                    continue
                found = search(w + 1, depth - 1, chosen, acc_)
                if found:
                    return found
        else:
            for w in ws:
                if z is not None and z & final[w - 1] != final[w - 1]:
                    return None
                if resolves(acc, cols[w]):
                    return prefix | 1 << w
        return None

    probe = variant is Variant.LMD
    final = None  # built for the first level or walk that reads it
    try:
        for k in range(1, n + 1):
            walk = probe and k >= k_min and examined >= n * len(g.edges)
            if cols is None and k >= k_min:
                cols, base, target, low, full = _columns(g, variant)
            if final is None and k >= k_min and (walk or k > 2):
                final = _final_lanes(cols, base, target, low, full)
            if walk:
                probe = False
                if _membership_search(rules, cols, final, base, target, low) is None:
                    k_min = n + 1  # no subset resolves: search no level from here on
            found = k >= k_min and search(0, k, 0, base)
            if found:
                # W's rank among the k-sets that pass the K-end rules: the
                # sets before it share its landmarks below some W[i], then
                # take an s between W[i - 1] and W[i] (module docstring)
                W = tuple(w for w in range(n) if found >> w & 1)
                rank = 1 + sum(
                    _completions(n, rules, found & (1 << w) - 1 | 1 << s, s + 1, k - i - 1)
                    for i, w in enumerate(W)
                    for s in range(W[i - 1] + 1 if i else 0, w)
                )
                return W, examined + rank
            # no k-set resolves: skipped below k_min, refuted or walked past
            examined += _completions(n, rules, 0, 0, k)
            if budget is not None and examined > budget:
                raise BudgetExhaustedError(budget)
        return None, examined
    finally:
        del search  # search calls itself through this cell: break the cycle


def _result(variant, n, W, examined, certificate, t0):
    """The one constructor of DimensionResult: W None with no certificate
    is a completed exhaustion of the plain loop."""
    if W is None and certificate is None:
        certificate = f"exhausted all 2^{n} - 1 subsets"
    return DimensionResult(
        variant=variant,
        value=INFINITE if W is None else len(W),
        witness=W,
        subsets_checked=examined,
        certificate=certificate,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def dimension(g, variant, opts=None):
    """Exact dimension for one variant, per the enumeration contract above."""
    opts = opts or _DEFAULT_OPTIONS
    budget = opts.subset_budget
    if opts.parallel_shards < 1 or opts.cap < 1 or (budget is not None and budget < 0):
        raise GraphValidationError(
            "SolverOptions needs parallel_shards >= 1, cap >= 1 and subset_budget"
            f" >= 0, got {opts.parallel_shards}, {opts.cap} and {budget}"
        )
    if g.n > opts.cap:
        raise CapExceededError("dimension solver", g.n, opts.cap)
    t0 = time.perf_counter()
    certificate = None
    if variant.adjacent and bipartition(g) is not None:
        # {0}, the plain loop's first subset, resolves (module docstring)
        W, examined = (0,), 1
    elif not variant.always_finite and (
        certificate := next(
            (f"{c.kind}: {c.description}" for c in infinite_certificates(g, variant)), None
        )
    ):
        W, examined = None, 0
    else:
        W, examined = _first_resolving(g, variant, budget)
    if budget is not None and examined > budget:  # the budget rule (module docstring)
        raise BudgetExhaustedError(budget)
    if W is None and certificate is None and variant.always_finite:
        raise RuntimeError(
            f"internal error: {variant.name} found no resolving set among"
            f" all 2^{g.n} - 1 subsets, but it is always finite"
        )
    return _result(variant, g.n, W, examined, certificate, t0)


def resolving_sets(g, variant, k):
    """Every resolving k-set, in lexicographic order, each tested by the
    kernel's lane test on `_columns` (module docstring), which is exact on
    every subset: a set that breaks a K-end rule never resolves."""
    if k < 1:
        raise GraphValidationError(f"resolving_sets needs k >= 1, got {k}")
    cols, base, target, low, full = _columns(g, variant)
    extend = or_ if variant.kind == "vector" else add
    found = []
    # one value per (k-1)-prefix, then one extend and test per last landmark
    for prefix in combinations(range(g.n - 1), k - 1):
        acc = reduce(extend, map(cols.__getitem__, prefix), base)
        for w in range(prefix[-1] + 1 if prefix else 0, g.n):
            if ((extend(acc, cols[w]) ^ target) - low) & full == full:
                found.append(prefix + (w,))
    return found


def naive_all_dimensions(g, variants=None):
    """Plain full scan for all requested variants in one subset sweep.

    No pruning and no shortcuts: this is the oracle the tuned
    solver is tested against. It checks each subset with the definitions in
    `multisets` (vertex_keys and scope_pairs), not with the solver's kernel,
    and builds the keys once per representation kind per subset.
    """
    t0 = time.perf_counter()
    distances = all_pairs_distances(g)
    if variants is None:
        variants = list(Variant)
    n = g.n
    pending = set(variants)
    settled = {}  # variant -> (W, examined) when found
    examined = 0
    for k in range(1, n + 1):
        if not pending:
            break
        for W in combinations(range(n), k):
            examined += 1
            keys_by_kind = {}
            for variant in list(pending):
                if variant.kind not in keys_by_kind:
                    rows = [distances[w] for w in W]
                    keys_by_kind[variant.kind] = vertex_keys(rows, variant.kind)
                keys = keys_by_kind[variant.kind]
                if all(keys[u] != keys[v] for u, v in scope_pairs(g, W, variant)):
                    settled[variant] = W, examined
                    pending.discard(variant)
            if not pending:
                break
    return {
        v: _result(v, n, *settled.get(v, (None, examined)), None, t0) for v in variants
    }


def certify(g, W, variant):
    """Validate a candidate resolving set, reporting all violating pairs."""
    witness = tuple(sorted(set(W)))
    violating = tuple(violating_pairs(g, witness, variant))
    return Certificate(
        variant=variant,
        witness=witness,
        valid=not violating,
        violating=violating,
    )


def solve_all(g, opts=None):
    """dimension() for all six variants; the distances are memoized on g."""
    return {v: dimension(g, v, opts=opts) for v in Variant}
