"""Exact dimension solver: cardinality-ordered subset search with pruning.

Resolvability of the multiset variants is not monotone under adding
landmarks, so there are no superset shortcuts: every subset of each
cardinality is examined unless a theorem-backed constraint excludes it.
Enumeration order is k = 1..n, subsets lexicographic within each k, and the
first success is returned, which makes witnesses deterministic. The search
is one lazy sequential loop; a subset budget counts the subsets that pass
the constraints, in that order.

The kernel (`_first_resolving`) walks the subsets of each cardinality as a
depth-first search over combinations in lexicographic order (Knuth, TAOCP
4A, 7.2.1.3). Each landmark w has a precomputed column, and a subset's value
is its prefix's value extended by the column of its last landmark, so a
subset costs O(n) integer operations (a fixed number of big-integer ones for
the vector kinds and the adjacent scopes) instead of n sorted keys:

- multiset kinds: the key of u is the sum over w in W of (n+1)**d(u, w),
  equal for two vertices iff their distance multisets are equal. For the
  outer scopes, w's own entry in its column is a distinct negative sentinel,
  which takes W's vertices out of every comparison. The all and outer scopes
  keep one key per vertex and test that the n keys are distinct; the
  adjacent scopes keep one key difference per edge, packed into one integer
  (below), and test that none is 0.
- vector kinds: column w is a bitmask of the in-scope pairs (all pairs for
  DIM, the edges for LDIM) that w separates; W resolves iff the OR of its
  columns has every bit set.

Adjacent multiset scopes (LMD, LDIM_MS), one integer per subset. Edge i of
`g.edges` owns the L-bit lane [L*i, L*(i+1)). Lane i of column w holds
key_w(u) - key_w(v) + bias for the edge (u, v), where `bias` exceeds every
|key difference|: for LMD an edge's ends differ by at most 1 in distance, so
|diff| <= n*(n+1)**(D-1) < (n+1)**D = bias; for LDIM_MS the sentinel
entries give |diff| <= n*top + n + 1 < (n+1)**(D+2) = bias, with
top = (n+1)**(D+1) (D the diameter). A lane of one column lies in
[1, 2*bias), so a lane of a sum of k <= n columns lies in [k, 2k*bias), and
L = (2*n*bias).bit_length() + 1 keeps every lane below 2**(L-1): sums and
XORs never carry into the next lane, and every lane's top bit stays clear.
Column w is sum over u of key_w(u) * E[u] + bias*low, where the incidence
integer E[u] holds +1 in the lanes of the edges (u, v), -1 in those of
(v, u), and low has a 1 in every lane. At level k the subset's key
difference on edge i is 0 iff lane i of acc + col equals k*bias, that is iff
lane i of y = (acc + col) ^ k*bias*low is 0. W resolves iff
(y - low) & high == 0, with high = low << (L-1), the lanes' top bits. The
test is exact (the zero-lane test of Mycroft; Warren, "Hacker's Delight",
6-1): a borrow can start only at a zero lane. If no lane is 0, every lane is
at least 1, subtracting low borrows nowhere, and each lane y_i - 1 < 2**(L-1)
has its top bit clear. If some lane is 0, the lanes below the lowest zero
lane are at least 1 and lend it no borrow, so it becomes 2**L - 1, whose
top bit is set. (The general form (y - low) & ~y & high allows lanes with
their top bit set; the spare bit of L makes ~y & high = high.)

The order, the constraint filter at each leaf and the budget count are
those of a plain loop over `itertools.combinations`, so witnesses and
`subsets_checked` are the same. The filter reads the subset as a bitmask:
W passes iff |W & vertices| lies in [at_least, at_most] for each constraint.

Levels below `bounds.level_lower_bound` are not searched. For DIM, MD and
DIM_MS, counting the representations a vertex can have, with D the
diameter, proves that no k-set resolves when n > D^k + k (DIM; Khuller,
Raghavachari & Rosenfeld 1996, "Landmarks in graphs"; Chartrand et al.
2000), when n > C(k+D-1, D-1) + C(k+D-2, D-1) (MD, the count behind the
paper's g_bound), or when n - k exceeds the number of multisets the vertices
outside W can take (DIM_MS). These variants have no K-end constraints, so
the plain loop would count every subset of a skipped level: the search adds
C(n, k) for each one to `subsets_checked`, and raises the plain loop's
budget error when that sum passes the budget.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations
from operator import add, mul, or_

from .bounds import infinite_certificates, level_lower_bound
from .errors import BudgetExhaustedError, CapExceededError, GraphValidationError
from .graph import all_pairs_distances, k_end_structure
from .multisets import Variant, scope_pairs, vertex_keys, violating_pairs

INFINITE = math.inf

SOLVER_CAP_DEFAULT = 20


@dataclass(frozen=True)
class SolverOptions:
    # Inert: the search is one sequential loop. Values below 1 are still
    # rejected. Kept only because the benchmark's compute-jobs2 workload
    # sets parallel_shards=2.
    parallel_shards: int = 1
    subset_budget: int = None
    cap: int = SOLVER_CAP_DEFAULT


@dataclass(frozen=True)
class DimensionResult:
    variant: Variant
    value: float  # positive int, or INFINITE
    witness: tuple  # sorted vertex tuple when finite, else None
    subsets_checked: int
    certificate: str
    elapsed_ms: int

    @property
    def is_infinite(self):
        return self.value == INFINITE

    def to_json_dict(self):
        return {
            "variant": self.variant.name.lower(),
            "value": "infinity" if self.is_infinite else int(self.value),
            "witness": None if self.witness is None else list(self.witness),
            "certificate": self.certificate,
            "subsets_checked": self.subsets_checked,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class Constraint:
    """Cardinality constraint on the intersection of W with a vertex set."""

    vertices: tuple
    at_least: int
    at_most: int  # None means unbounded
    source: str
    derived_from_proof: bool = False


@dataclass(frozen=True)
class Certificate:
    variant: Variant
    witness: tuple
    valid: bool
    violating: tuple

    def to_json_dict(self):
        return {
            "variant": self.variant.name.lower(),
            "witness": list(self.witness),
            "valid": self.valid,
            "violating_pairs": [list(p) for p in self.violating],
        }


def required_vertices(g, variant, cap=SOLVER_CAP_DEFAULT):
    """Theorem-backed membership constraints from K-end structure.

    LMD: a clique with two K-end vertices forces exactly one of them into
    every resolving set (three or more make lmd infinite, and `dimension()`
    returns the triple_k_end certificate before asking). LDIM_MS: all but
    one of the K-end vertices must be inside; for exactly two K-end vertices
    the constraint follows from a strictly stronger argument and is flagged
    derived_from_proof.
    """
    if variant not in (Variant.LMD, Variant.LDIM_MS):
        raise GraphValidationError("required_vertices applies to LMD and LDIM_MS only")
    out = []
    for clique, ends in k_end_structure(g, cap):
        t = len(ends)
        if variant is Variant.LMD and t == 2:
            out.append(
                Constraint(
                    vertices=ends,
                    at_least=1,
                    at_most=1,
                    source=f"K-end pair of clique {clique}",
                )
            )
        elif variant is Variant.LDIM_MS and t >= 2:
            out.append(
                Constraint(
                    vertices=ends,
                    at_least=t - 1,
                    at_most=None,
                    source=f"K-end vertices of clique {clique}",
                    derived_from_proof=(t == 2),
                )
            )
    return out


def _first_resolving(g, variant, constraints, budget):
    """The first resolving W, by k and then lexicographically (module docstring).

    Returns (W, examined), W None when no subset resolves; `examined` counts
    the subsets that pass the constraints.
    """
    dm = all_pairs_distances(g)
    n, edges, scope = g.n, g.edges, variant.scope
    if variant.kind == "vector":
        # bit i of column w is set when w separates the i-th pair in scope;
        # dm.d[w][u] is d(u, w)
        pairs = list(combinations(range(n), 2)) if scope == "all" else edges
        cols = [
            sum(1 << i for i, (u, v) in enumerate(pairs) if row[u] != row[v])
            for row in dm.d
        ]
        full = (1 << len(pairs)) - 1
        empty, extend = 0, or_

        def resolves(acc, col):
            return acc | col == full

    else:
        # key(u) = sum over w in W of (n+1)**d(u, w): its base-(n+1) digits
        # count the landmarks at each distance from u, and no count exceeds n
        powers = [(n + 1) ** d for d in range(dm.diameter + 1)]
        keys = [list(map(powers.__getitem__, row)) for row in dm.d]
        if scope in ("outer", "adjacent_outer"):
            # a landmark's own entry is a sentinel: `top` exceeds every key,
            # so the key of w in W lies in [-(w+1)*top, -w*top), below every
            # key outside W and apart from the other landmarks' keys
            top = (n + 1) ** (dm.diameter + 1)
            for w, row in enumerate(keys):
                row[w] = -(w + 1) * top
        if scope in ("all", "outer"):
            cols, empty = keys, [0] * n

            def extend(acc, col):
                return list(map(add, acc, col))

            def resolves(acc, col):
                return len(set(map(add, acc, col))) == n

        else:
            # lane i (L bits) of column w holds the key difference of edge i
            # plus `bias`; `bias` exceeds every difference (module docstring)
            bias = (n + 1) ** (dm.diameter + (2 if scope == "adjacent_outer" else 0))
            L = (2 * n * bias).bit_length() + 1
            E = [0] * n  # E[u]: +1 in the lanes of the edges (u, v), -1 in (v, u)
            for i, (u, v) in enumerate(edges):
                lane = 1 << L * i
                E[u] += lane
                E[v] -= lane
            low = ((1 << L * len(edges)) - 1) // ((1 << L) - 1)  # 1 in every lane
            high = low << (L - 1)  # every lane's top bit
            cols = [sum(map(mul, row, E), bias * low) for row in keys]
            targets = [k * bias * low for k in range(n + 1)]
            empty, extend = 0, add

            def resolves(acc, col):
                # k is the level being searched: a lane of y is 0 iff its
                # edge's key difference is 0
                y = (acc + col) ^ targets[k]
                return (y - low) & high == 0

    limit = math.inf if budget is None else budget
    # no subset of a level below k_min resolves; only the constraint-free
    # variants get a k_min above 1, so the plain loop would count them all
    k_min = level_lower_bound(g, variant)
    examined = sum(math.comb(n, k) for k in range(1, k_min))
    if examined > limit:
        raise BudgetExhaustedError(budget, budget)
    # W passes iff |W & vertices| is in [at_least, at_most] for every constraint
    rules = [
        (
            sum(1 << v for v in c.vertices),
            c.at_least,
            n if c.at_most is None else c.at_most,
        )
        for c in constraints
    ]

    def search(first, depth, prefix, acc):
        # prefix: the bitmask of the landmarks chosen so far
        nonlocal examined
        if depth > 1:
            for w in range(first, n - depth + 1):
                found = search(w + 1, depth - 1, prefix | 1 << w, extend(acc, cols[w]))
                if found:
                    return found
            return None
        for w in range(first, n):
            if rules and not all(
                lo <= ((prefix | 1 << w) & vs).bit_count() <= hi for vs, lo, hi in rules
            ):
                continue
            if examined >= limit:
                raise BudgetExhaustedError(examined, budget)
            examined += 1
            if resolves(acc, cols[w]):
                return prefix | 1 << w
        return None

    for k in range(k_min, n + 1):
        W = search(0, k, 0, empty)
        if W:
            return tuple(w for w in range(n) if W >> w & 1), examined
    return None, examined


def _elapsed_ms(t0):
    return int((time.perf_counter() - t0) * 1000)


def dimension(g, variant, opts=None):
    """Exact dimension for one variant, per the enumeration contract above."""
    opts = opts or SolverOptions()
    budget = opts.subset_budget
    if opts.parallel_shards < 1 or opts.cap < 1 or (budget is not None and budget < 0):
        raise GraphValidationError(
            "SolverOptions needs parallel_shards >= 1, cap >= 1 and subset_budget"
            f" >= 0, got {opts.parallel_shards}, {opts.cap} and {budget}"
        )
    if g.n > opts.cap:
        raise CapExceededError("dimension solver", g.n, opts.cap)
    t0 = time.perf_counter()

    if not variant.always_finite:
        for cert in infinite_certificates(g, cap=opts.cap):
            if cert.variant is variant:
                return DimensionResult(
                    variant=variant,
                    value=INFINITE,
                    witness=None,
                    subsets_checked=0,
                    certificate=f"{cert.kind}: {cert.description}",
                    elapsed_ms=_elapsed_ms(t0),
                )

    constraints = []
    if variant in (Variant.LMD, Variant.LDIM_MS):
        constraints = required_vertices(g, variant, cap=opts.cap)

    W, examined = _first_resolving(g, variant, constraints, budget)
    if W is not None:
        return DimensionResult(
            variant=variant,
            value=len(W),
            witness=W,
            subsets_checked=examined,
            certificate=None,
            elapsed_ms=_elapsed_ms(t0),
        )
    if variant.always_finite:
        raise RuntimeError(
            f"internal error: {variant.name} found no resolving set among all"
            f" 2^{g.n} - 1 subsets, but it is always finite"
        )
    return DimensionResult(
        variant=variant,
        value=INFINITE,
        witness=None,
        subsets_checked=examined,
        certificate=f"exhausted all 2^{g.n} - 1 subsets",
        elapsed_ms=_elapsed_ms(t0),
    )


def naive_all_dimensions(g, variants=None):
    """Plain full scan for all requested variants in one subset sweep.

    No pruning and no shortcuts: this is the oracle the tuned
    solver is tested against. It checks each subset with the definitions in
    `multisets` (vertex_keys and scope_pairs), not with the solver's kernel,
    and builds the keys once per representation kind per subset.
    """
    t0 = time.perf_counter()
    dm = all_pairs_distances(g)
    if variants is None:
        variants = list(Variant)
    n = g.n
    pending = set(variants)
    found = {}
    examined = 0
    for k in range(1, n + 1):
        if not pending:
            break
        for W in combinations(range(n), k):
            examined += 1
            keys_by_kind = {}
            for variant in list(pending):
                if variant.kind not in keys_by_kind:
                    rows = [dm.d[w] for w in W]
                    keys_by_kind[variant.kind] = vertex_keys(rows, variant.kind)
                keys = keys_by_kind[variant.kind]
                if all(keys[u] != keys[v] for u, v in scope_pairs(g, W, variant.scope)):
                    found[variant] = DimensionResult(
                        variant=variant,
                        value=k,
                        witness=W,
                        subsets_checked=examined,
                        certificate=None,
                        elapsed_ms=_elapsed_ms(t0),
                    )
                    pending.discard(variant)
            if not pending:
                break
    for variant in pending:
        found[variant] = DimensionResult(
            variant=variant,
            value=INFINITE,
            witness=None,
            subsets_checked=examined,
            certificate=f"exhausted all 2^{n} - 1 subsets",
            elapsed_ms=_elapsed_ms(t0),
        )
    return {v: found[v] for v in variants}


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
    """dimension() for all six variants; graph.py memoizes distances and cliques."""
    return {v: dimension(g, v, opts=opts) for v in Variant}
