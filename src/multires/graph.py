"""Graph representation, ingestion, distances and classical invariants.

Vertices are dense integers 0..n-1. Graphs are simple, undirected and, for
every dimension computation, connected. All structures here are immutable
after construction.

Only this module builds distances and cliques, memoized for the most recent
graph. The solver needs no cliques: `k_end_groups` reads the K-end vertices
off the closed-twin classes that `twin_classes` finds by hashing (both
kinds memoized, for the certificates, the K-end groups and the solver's
twin rules), and `maximal_cliques` serves only `clique_number`. The
distance memo holds one BFS row per vertex, filled as rows are asked for:
`distance_row` gives one of them, and `all_pairs_distances` fills them all.
A call that needs the distances from a few landmarks builds only their
rows; `within_two_hops` decides "diameter <= 2" with no BFS at all, by the
Moore bound on a two-hop ball and then closed-neighbourhood bitmasks. `_bfs`
is the one breadth-first search. `bipartition` and `Graph.check_connected`,
which every parser calls, read the memoized row of vertex 0, so a parsed
graph runs that BFS once. Only `Graph.is_connected`, which `all_connected`
calls on every mask, runs its own BFS and memoizes nothing.
"""

from collections import deque
from functools import lru_cache
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

    The adjacency structure is a tuple of frozensets; duplicate edges are
    collapsed and loops are rejected.
    """

    __slots__ = ("n", "adj", "_edges", "_hash")

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
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in sets)
        self._edges = tuple(sorted(seen))
        self._hash = None  # the per-graph memos hash the graph on every lookup

    @property
    def edges(self):
        """Sorted tuple of edges (u, v) with u < v."""
        return self._edges

    def degree(self, u):
        return len(self.adj[u])

    def is_connected(self):
        return -1 not in _bfs(self, 0)

    def check_connected(self):
        """Raise DisconnectedGraphError for 0 and the first vertex it cannot
        reach; a connected graph keeps the BFS row of 0 in the distance memo."""
        distance_row(self, 0)

    def induced(self, vertices):
        """Induced subgraph on `vertices`, relabeled 0..len(vertices)-1.

        Returns (subgraph, mapping) where mapping[i] is the original label of
        the subgraph vertex i. `vertices` is taken in sorted order.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in index and v in index
        ]
        return Graph(len(keep), edges), tuple(keep)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self._edges)})"


class DistMatrix:
    """All-pairs shortest path distances (hop counts), immutable."""

    __slots__ = ("n", "d", "diameter")

    def __init__(self, n, d, diameter):
        self.n = n
        self.d = d
        self.diameter = diameter

    def __repr__(self):
        return f"DistMatrix(n={self.n}, diameter={self.diameter})"


def parse_edge_list(text):
    """Parse ASCII edge-list input: one "u v" pair per line, '#' comments.

    The vertex count is 1 + the maximum id seen. The result must be
    connected.
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
    g = Graph(max_id + 1, edges)
    g.check_connected()
    return g


def parse_graph6(text):
    """Decode one graph6 line (standard printable 63-offset encoding)."""
    line = text.strip()
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
    g.check_connected()
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


@lru_cache(maxsize=1)
def _rows(g):
    """The distance rows of the most recent graph, None until asked for."""
    return [None] * g.n


def distance_row(g, s):
    """Tuple of d(s, v) for every v, memoized for the last graph.

    A disconnected graph raises DisconnectedGraphError for 0 and the first
    vertex unreachable from 0, whichever row was asked for.
    """
    rows = _rows(g)
    row = rows[s]
    if row is None:
        dist = _bfs(g, s)
        if -1 in dist:
            if s:
                distance_row(g, 0)  # raises for the first vertex 0 cannot reach
            raise DisconnectedGraphError(0, dist.index(-1))
        row = rows[s] = tuple(dist)
    return row


@lru_cache(maxsize=1)
def all_pairs_distances(g):
    """Every distance row, memoized for the last graph; errors if disconnected."""
    rows = tuple(distance_row(g, s) for s in range(g.n))
    return DistMatrix(g.n, rows, max(map(max, rows)))


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


def maximal_cliques(g, cap=OMEGA_CAP):
    """Tuple of all maximal cliques, memoized; the cap is checked before the memo."""
    if g.n > cap:
        raise CapExceededError("clique enumeration", g.n, cap)
    return _maximal_cliques(g)


@lru_cache(maxsize=1)
def _maximal_cliques(g):
    """Bron-Kerbosch with pivoting."""
    adj = g.adj
    out = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(frozenset(clique))
            return
        pivot = max(candidates | excluded, key=lambda p: len(candidates & adj[p]))
        for v in sorted(candidates - adj[pivot]):
            expand(clique + [v], candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand([], frozenset(range(g.n)), frozenset())
    return tuple(out)


def clique_number(g, cap=OMEGA_CAP):
    return max(len(c) for c in maximal_cliques(g, cap))


def chromatic_number(g, cap=CHI_CAP):
    """Exact chromatic number by backtracking k-colorability, k ascending from omega."""
    if g.n > cap:
        raise CapExceededError("chromatic number", g.n, cap)
    if bipartition(g) is not None:
        return 2 if g.edges else 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    adj = g.adj
    for k in range(max(clique_number(g, cap), 3), g.n + 1):
        colors = [-1] * g.n

        def feasible(pos, used):
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
                if feasible(pos + 1, max(used, c + 1)):
                    return True
                colors[u] = -1
            return False

        if feasible(0, 0):
            return k
    return g.n


def two_core(g):
    """Iteratively strip degree-1 vertices; the maximal leafless subgraph.

    Returns (subgraph, kept_vertices). Raises NoLeaflessSubgraphError when g
    is a tree.
    """
    degree = [g.degree(u) for u in range(g.n)]
    alive = [True] * g.n
    queue = deque(u for u in range(g.n) if degree[u] <= 1)
    while queue:
        u = queue.popleft()
        if not alive[u]:
            continue
        alive[u] = False
        for v in g.adj[u]:
            if alive[v]:
                degree[v] -= 1
                if degree[v] <= 1:
                    queue.append(v)
    kept = [u for u in range(g.n) if alive[u]]
    if not kept:
        raise NoLeaflessSubgraphError()
    sub, mapping = g.induced(kept)
    return sub, mapping


def twin_classes(g, closed=False):
    """{N(u): vertices}, or {N[u]: vertices} if `closed`, for each class of
    two or more vertices with that neighbourhood, found by hashing.
    Memoized for the most recent graph, each kind when first asked for; the
    mapping is read-only.
    """
    memo = _twins(g)
    closed = bool(closed)
    if closed not in memo:
        classes = {}
        for u, nbrs in enumerate(g.adj):
            classes.setdefault(nbrs | {u} if closed else nbrs, []).append(u)
        memo[closed] = MappingProxyType(
            {nbrs: tuple(vs) for nbrs, vs in classes.items() if len(vs) >= 2}
        )
    return memo[closed]


@lru_cache(maxsize=1)
def _twins(g):
    """The twin classes of the most recent graph, by kind, as asked for."""
    return {}


@lru_cache(maxsize=1)
def k_end_groups(g):
    """Sorted (clique, ends) for each clique of order >= 3 with two or more
    K-end vertices, with no clique enumeration. u in K is a K-end vertex
    when N[u] = K, so the ends of K are the closed-twin class whose N[u] is
    K; such a K is maximal, since a vertex adjacent to all of it is in N[u]."""
    return tuple(
        sorted(
            (tuple(sorted(clique)), ends)
            for clique, ends in twin_classes(g, closed=True).items()
            if len(clique) >= 3 and all(clique - g.adj[w] == {w} for w in clique)
        )
    )
