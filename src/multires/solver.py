"""Exact dimension solver: cardinality-ordered subset search with pruning.

Resolvability of the multiset variants is not monotone under adding
landmarks, so there are no superset shortcuts: every subset of each
cardinality is examined unless a theorem-backed constraint excludes it.
Enumeration order is k = 1..n, subsets lexicographic within each k, and the
first success is returned, which makes witnesses deterministic. The search
is one lazy sequential loop; a subset budget counts the subsets that pass
the constraints, in that order.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations

from .bounds import infinite_certificates
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
class Contradiction:
    """A clique with >= 3 K-end vertices: no LMD resolving set exists."""

    clique: tuple
    k_end: tuple
    reason: str


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
    every resolving set; three or more is a contradiction. LDIM_MS: all but
    one of the K-end vertices must be inside; for exactly two K-end vertices
    the constraint follows from a strictly stronger argument and is flagged
    derived_from_proof.
    """
    if variant not in (Variant.LMD, Variant.LDIM_MS):
        raise GraphValidationError("required_vertices applies to LMD and LDIM_MS only")
    out = []
    for clique, ends in k_end_structure(g, cap):
        t = len(ends)
        if t < 2:
            continue
        if variant is Variant.LMD:
            if t >= 3:
                out.append(
                    Contradiction(
                        clique=clique,
                        k_end=ends,
                        reason=f"clique {clique} has {t} K-end vertices",
                    )
                )
            else:
                out.append(
                    Constraint(
                        vertices=ends,
                        at_least=1,
                        at_most=1,
                        source=f"K-end pair of clique {clique}",
                    )
                )
        else:
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


def _subset_resolves(rows, edges, n, kind, scope, W):
    if kind == "multiset":
        keys = [tuple(sorted(row[w] for w in W)) for row in rows]
    else:
        keys = [tuple(row[w] for w in W) for row in rows]
    if scope == "all":
        return len(set(keys)) == n
    if scope == "adjacent":
        return all(keys[u] != keys[v] for u, v in edges)
    wset = set(W)
    if scope == "outer":
        seen = set()
        for u in range(n):
            if u in wset:
                continue
            if keys[u] in seen:
                return False
            seen.add(keys[u])
        return True
    # adjacent_outer
    return all(
        keys[u] != keys[v] for u, v in edges if u not in wset and v not in wset
    )


def _passes(constraints, W):
    s = set(W)
    for c in constraints:
        hit = len(s.intersection(c.vertices))
        if hit < c.at_least:
            return False
        if c.at_most is not None and hit > c.at_most:
            return False
    return True


def _elapsed_ms(t0):
    return int((time.perf_counter() - t0) * 1000)


def dimension(g, variant, opts=None, dm=None):
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
    if dm is None:
        dm = all_pairs_distances(g)
    rows = dm.d
    edges = g.edges
    n = g.n

    if not variant.always_finite:
        for cert in infinite_certificates(g, dm, cap=opts.cap):
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
        # no Contradiction: for LMD, infinite_certificates has already
        # returned the triple_k_end certificate of the same K-end structure
        constraints = required_vertices(g, variant, cap=opts.cap)

    kind, scope = variant.kind, variant.scope
    examined = 0
    for k in range(1, n + 1):
        for W in combinations(range(n), k):
            if not _passes(constraints, W):
                continue
            if budget is not None and examined >= budget:
                raise BudgetExhaustedError(examined, budget)
            examined += 1
            if _subset_resolves(rows, edges, n, kind, scope, W):
                return DimensionResult(
                    variant=variant,
                    value=k,
                    witness=W,
                    subsets_checked=examined,
                    certificate=None,
                    elapsed_ms=_elapsed_ms(t0),
                )

    if variant.always_finite:
        raise RuntimeError(
            f"internal error: {variant.name} found no resolving set among all"
            f" 2^{n} - 1 subsets, but it is always finite"
        )
    return DimensionResult(
        variant=variant,
        value=INFINITE,
        witness=None,
        subsets_checked=examined,
        certificate=f"exhausted all 2^{n} - 1 subsets",
        elapsed_ms=_elapsed_ms(t0),
    )


def naive_all_dimensions(g, dm=None, variants=None):
    """Plain full scan for all requested variants in one subset sweep.

    No pruning and no shortcuts: this is the oracle the tuned
    solver is tested against. It checks each subset with the definitions in
    `multisets` (vertex_keys and scope_pairs), not with the solver's kernel,
    and builds the keys once per representation kind per subset.
    """
    t0 = time.perf_counter()
    if dm is None:
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
                    keys_by_kind[variant.kind] = vertex_keys(dm, W, variant.kind)
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


def certify(g, W, variant, dm=None):
    """Validate a candidate resolving set, reporting all violating pairs."""
    if dm is None:
        dm = all_pairs_distances(g)
    witness = tuple(sorted(set(W)))
    violating = tuple(violating_pairs(dm, g, witness, variant))
    return Certificate(
        variant=variant,
        witness=witness,
        valid=not violating,
        violating=violating,
    )


def solve_all(g, opts=None, dm=None):
    """dimension() for all six variants, sharing one distance matrix."""
    if dm is None:
        dm = all_pairs_distances(g)
    return {v: dimension(g, v, opts=opts, dm=dm) for v in Variant}
