"""Graph representation, ingestion, distances and classical invariants.

Vertices are dense integers 0..n-1. Graphs are simple, undirected and, for
every dimension computation, connected.

What is derived from a graph lives on the graph: `memoized` keeps a
function's value in the graph's own memo, keyed by the function and its
positional arguments: built once, freed with the graph. Only this module
builds distances and cliques. The solver needs no cliques: `k_end_groups`
reads the K-end vertices off the closed-twin classes that `twin_classes`
finds by hashing (both memoized on the graph, for the certificates, the
K-end groups and the solver's twin rules), and `maximal_cliques` serves
only `clique_number`. `distance_row` builds one BFS row per vertex when it
is first asked for; `all_pairs_distances` is the tuple of all the rows, and
`diameter(g)` their largest entry. A call that needs the distances from a
few landmarks builds only their rows. `within_two_hops` decides whether
the diameter is at most 2 with no BFS, by the Moore bound on a two-hop
ball and then closed-neighbourhood bitmasks. `_bfs` is the one
breadth-first search. Every connectivity check reads the memoized row of
vertex 0, which raises DisconnectedGraphError for 0 and the first vertex
it cannot reach, so a parsed graph runs that BFS once.
"""

from collections import deque
from functools import wraps
from types import MappingProxyType

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GraphValidationError,
    NoLeaflessSubgraphError,
)

OMEGA_CAP = 20
CHI_CAP = 16


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The adjacency structure is a tuple of frozensets and `edges` the sorted
    tuple of edges (u, v), u < v; duplicate edges are collapsed and loops
    are rejected. Immutable, except for the values memoized on the graph.
    """

    __slots__ = ("n", "adj", "edges", "_memo")

    def __init__(self, n, edges):
        if n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        sets = [set() for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphValidationError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u},{v}) out of range for n={n}")
            seen.add((u, v) if u < v else (v, u))
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in sets)
        self.edges = tuple(sorted(seen))
        self._memo = {}  # (function, args) -> value, filled by `memoized`

    def degree(self, u):
        return len(self.adj[u])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def memoized(build):
    """Keep `build(g, *args)` in g's memo, keyed by build and the positional
    arguments as given: a keyword raises TypeError, and a call that omits a
    default is an entry of its own. A call that raises stores nothing; a value
    must not reference g, or the graph would be part of a reference cycle."""

    @wraps(build)
    def cached(g, *args):
        value = g._memo.get((build, args), cached)  # no value is this wrapper
        if value is cached:
            value = g._memo[build, args] = build(g, *args)
        return value

    return cached


def parse_edge_list(text):
    """Parse ASCII edge-list input: one "u v" pair per line, '#' comments.

    The vertex count is 1 + the maximum id seen. The result must be
    connected. Input with fewer edges than that count minus one cannot be,
    so its witness pair is found from the ids in the edges alone, with no
    state for the ids in between.
    """
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two tokens, got {len(parts)}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer token in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError("vertex ids must be non-negative", lineno)
        if u == v:
            raise GraphValidationError(f"loop edge at vertex {u} (line {lineno})")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise GraphParseError("no edges in input")
    if max_id > len(edges):
        ids = sorted({0}.union(*edges))  # 0 is vertex 0 of the relabelled graph
        index = {v: i for i, v in enumerate(ids)}
        dist = _bfs(Graph(len(ids), [(index[u], index[v]) for u, v in edges]), 0)
        reached = {v for v, d in zip(ids, dist) if d >= 0}
        raise DisconnectedGraphError(0, next(v for v in range(max_id + 1) if v not in reached))
    g = Graph(max_id + 1, edges)
    distance_row(g, 0)
    return g


def parse_graph6(text):
    """Decode a one-line graph6 text (standard printable 63-offset encoding)."""
    line = text.strip()
    lines = len(line.splitlines())
    if lines > 1:
        raise GraphParseError(f"graph6 input holds {lines} lines; expected one graph")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphParseError("empty graph6 input")
    data = [ord(c) - 63 for c in line]
    if any(b < 0 or b > 63 for b in data):
        raise GraphParseError("invalid graph6 character")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise GraphParseError("unsupported graph6 size header")
    if n < 1:
        raise GraphParseError("graph6 graph must have at least one vertex")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError("truncated or oversized graph6 bit vector")
    bits = "".join(f"{b:06b}" for b in body)
    # row v, the pairs (0, v) .. (v - 1, v), starts at bit v(v - 1)/2
    edges = [
        (u, v)
        for v in range(1, n)
        for u, bit in enumerate(bits[v * (v - 1) // 2 : v * (v + 1) // 2])
        if bit == "1"
    ]
    g = Graph(n, edges)
    distance_row(g, 0)
    return g


def to_graph6(g):
    """Encode a Graph as a one-line graph6 string (n <= 258047).

    n <= 62 is one byte; larger n is '~' and then n in three 6-bit bytes.
    """
    n = g.n
    if n > 258047:
        raise GraphValidationError("graph6 encoder supports n <= 258047")
    bits = ["0"] * (n * (n - 1) // 2)  # pair (u, v), u < v, is bit v(v - 1)/2 + u
    for u, v in g.edges:
        bits[v * (v - 1) // 2 + u] = "1"
    bits = "".join(bits) + "0" * (-len(bits) % 6)
    header = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    body = [int(bits[i : i + 6], 2) for i in range(0, len(bits), 6)]
    return "".join(chr(b + 63) for b in header + body)


def to_edge_list(g):
    """Render a Graph in the edge-list interchange format."""
    return "\n".join(f"{u} {v}" for u, v in g.edges)


def _bfs(g, s):
    """Hop counts from s to every vertex; -1 marks the vertices s cannot reach."""
    adj = g.adj
    dist = [-1] * g.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


@memoized
def distance_row(g, s):
    """Tuple of d(s, v) for every v, memoized on the graph.

    A disconnected graph raises DisconnectedGraphError for 0 and the first
    vertex unreachable from 0, whichever row was asked for.
    """
    dist = _bfs(g, s)
    if -1 in dist:
        if s:
            distance_row(g, 0)  # raises for the first vertex 0 cannot reach
        raise DisconnectedGraphError(0, dist.index(-1))
    return tuple(dist)


@memoized
def all_pairs_distances(g):
    """The tuple of every distance row, memoized on the graph; errors if
    disconnected."""
    return tuple(distance_row(g, s) for s in range(g.n))


@memoized
def diameter(g):
    """The largest distance, memoized on the graph; errors if disconnected."""
    return max(map(max, all_pairs_distances(g)))


def within_two_hops(g):
    """True iff every vertex is within two hops of every other.

    On a connected graph this is diameter <= 2. A two-hop ball holds at most
    1 + Delta**2 vertices (the Moore bound), so n - 1 > Delta**2 answers no
    at once. Otherwise each vertex u must reach every vertex through the
    union of N[v] over v in N[u], as bitmasks; the closed neighbourhoods are
    built as the balls read them, so a sparse graph fails at vertex 0 after
    building only those of its neighbours.
    """
    adj, n = g.adj, g.n
    if n - 1 > max(map(len, adj)) ** 2:
        return False
    every = (1 << n) - 1
    closed = [0] * n  # N[v] as a bitmask, 0 until first read
    for u in range(n):
        ball = 0
        for v in (u, *adj[u]):
            if not closed[v]:
                closed[v] = sum(map((1).__lshift__, adj[v])) | 1 << v
            ball |= closed[v]
        if ball != every:
            return False
    return True


def bipartition(g):
    """2-coloring by the parity of d(0, v); None if non-bipartite.

    The ends of an edge differ by at most 1 in distance from 0, so they have
    equal parity exactly when they are equally far. Errors if disconnected.
    """
    row = distance_row(g, 0)
    if any(row[u] == row[v] for u, v in g.edges):
        return None
    return tuple(d & 1 for d in row)


@memoized
def maximal_cliques(g):
    """Tuple of all maximal cliques by Bron-Kerbosch with pivoting, memoized
    on the graph; above OMEGA_CAP vertices it raises and stores nothing."""
    if g.n > OMEGA_CAP:
        raise CapExceededError("clique enumeration", g.n, OMEGA_CAP)
    return tuple(_extensions(g.adj, [], frozenset(range(g.n)), frozenset()))


def _extensions(adj, clique, candidates, excluded):
    """The maximal cliques that extend `clique` by vertices of `candidates`
    and none of `excluded`; not a closure, so it leaves no reference cycle."""
    if not candidates and not excluded:
        yield frozenset(clique)
        return
    pivot = max(candidates | excluded, key=lambda p: len(candidates & adj[p]))
    for v in sorted(candidates - adj[pivot]):
        yield from _extensions(adj, clique + [v], candidates & adj[v], excluded & adj[v])
        candidates = candidates - {v}
        excluded = excluded | {v}


def clique_number(g):
    return max(len(c) for c in maximal_cliques(g))


def chromatic_number(g):
    """Exact chromatic number by backtracking k-colorability, k ascending from omega."""
    if g.n > CHI_CAP:
        raise CapExceededError("chromatic number", g.n, CHI_CAP)
    if bipartition(g) is not None:
        return 2 if g.edges else 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    colors = [-1] * g.n  # a branch that fails uncolours what it coloured
    # n colours always suffice, and a graph that is not bipartite has n >= 3
    first = max(clique_number(g), 3)
    return next(k for k in range(first, g.n + 1) if _colourable(g.adj, order, colors, k))


def _colourable(adj, order, colors, k, pos=0, used=0):
    """Whether order[pos:] can take colours below k, given `colors` so far."""
    if pos == len(order):
        return True
    u = order[pos]
    forbidden = {colors[v] for v in adj[u] if colors[v] >= 0}
    # trying at most one previously unused color kills symmetric branches
    limit = min(used + 1, k)
    for c in range(limit):
        if c in forbidden:
            continue
        colors[u] = c
        if _colourable(adj, order, colors, k, pos + 1, max(used, c + 1)):
            return True
        colors[u] = -1
    return False


def two_core(g):
    """Iteratively strip degree-1 vertices; the maximal leafless subgraph.

    Returns (subgraph, kept_vertices), where subgraph vertex i is the kept
    vertex kept_vertices[i]. Raises NoLeaflessSubgraphError when g is a tree.
    """
    degree = [g.degree(u) for u in range(g.n)]
    alive = [d > 1 for d in degree]  # a vertex dies when it is queued
    queue = deque(u for u in range(g.n) if not alive[u])
    while queue:
        for v in g.adj[queue.popleft()]:
            if alive[v]:
                degree[v] -= 1
                if degree[v] <= 1:
                    alive[v] = False
                    queue.append(v)
    kept = [u for u in range(g.n) if alive[u]]
    if not kept:
        raise NoLeaflessSubgraphError()
    index = {u: i for i, u in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in g.edges if alive[u] and alive[v]]
    return Graph(len(kept), edges), tuple(kept)


@memoized
def twin_classes(g, closed):
    """{N(u): vertices}, or {N[u]: vertices} if `closed`, for each class of
    two or more vertices with that neighbourhood, found by hashing.
    Memoized on the graph, each kind when first asked for; the mapping is
    read-only.
    """
    classes = {}
    for u, nbrs in enumerate(g.adj):
        classes.setdefault(nbrs | {u} if closed else nbrs, []).append(u)
    return MappingProxyType(
        {nbrs: tuple(vs) for nbrs, vs in classes.items() if len(vs) >= 2}
    )


@memoized
def k_end_groups(g):
    """Sorted (clique, ends) for each clique of order >= 3 with two or more
    K-end vertices, with no clique enumeration. u in K is a K-end vertex
    when N[u] = K, so the ends of K are the closed-twin class whose N[u] is
    K; such a K is maximal, since a vertex adjacent to all of it is in N[u]."""
    return tuple(
        sorted(
            (tuple(sorted(clique)), ends)
            for clique, ends in twin_classes(g, True).items()
            if len(clique) >= 3 and all(clique - g.adj[w] == {w} for w in clique)
        )
    )
