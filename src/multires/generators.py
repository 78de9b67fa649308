"""Deterministic constructors for every analysed graph family.

Vertex labelings are part of the contract so that solver witnesses are
reproducible. Star, amal, edge_amal, corona and unicyclic are cliques glued
onto a base by one routine, `_glue`, which appends each clique's new vertices:

  path/cycle/complete  0..n-1 in order (cycle in rim order)
  star                 center 0, leaves 1..m
  wheel                rim 0..n-1 in cycle order, hub = n (last index)
  amal                 identified vertex 0, cliques appended in order
  edge_amal            identified edge (0, 1), cliques appended in order
  corona               base graph keeps its labels, copies appended per base
                       vertex in order
  join                 first graph's labels, then the second graph shifted
  unicyclic            cycle 0..c-1, tree vertices appended; parent of the
                       t-th tree vertex is any already-existing vertex
  gadget               clique first (u_1..u_k, v_0, v_1, ...), then the
                       pendant paths in j order
"""

from collections import namedtuple
from itertools import combinations, product

from .errors import CapExceededError, DisconnectedGraphError, GraphValidationError
from .graph import Graph, distance_row

ALL_CONNECTED_CAP = 7
CORPUS_CAP = 8  # 11 117 classes on 8 vertices, 261 080 on 9


class FamilySpec(namedtuple("FamilySpec", "tag numbers subs", defaults=((), ()))):
    """Parametric description of a generated family.

    Compact string grammar (see parse_family_spec): "wheel:8",
    "amal:3,3,4", "corona:path:3/2,2,2", "join:cycle:5+path:2",
    "unicyclic:5/1,5", "gadget:8".
    """

    __slots__ = ()

    def __str__(self):
        if self.tag == "corona":
            return f"corona:{self.subs[0]}/{','.join(map(str, self.numbers))}"
        if self.tag == "join":
            return f"join:{self.subs[0]}+{self.subs[1]}"
        if self.tag == "unicyclic":
            head = str(self.numbers[0])
            rest = ",".join(map(str, self.numbers[1:]))
            return f"unicyclic:{head}/{rest}" if rest else f"unicyclic:{head}"
        return f"{self.tag}:{','.join(map(str, self.numbers))}"


def _ints(text, what):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise GraphValidationError(f"bad integer list {text!r} in {what}") from None


def parse_family_spec(text):
    text = text.strip()
    tag, sep, rest = text.partition(":")
    tag = tag.strip().lower().replace("edgeamal", "edge_amal")
    if tag not in _BUILDERS:
        raise GraphValidationError(f"unknown family {tag!r}")
    if not sep or not rest:
        raise GraphValidationError(f"family {tag!r} needs parameters")
    if tag == "corona":
        base_text, slash, orders = rest.rpartition("/")
        if not slash:
            raise GraphValidationError("corona spec needs base/orders, e.g. corona:path:3/2,2,2")
        return FamilySpec("corona", _ints(orders, "corona orders"), (parse_family_spec(base_text),))
    if tag == "join":
        left, plus, right = rest.partition("+")
        if not plus:
            raise GraphValidationError("join spec needs two parts, e.g. join:cycle:5+path:2")
        return FamilySpec("join", (), (parse_family_spec(left), parse_family_spec(right)))
    if tag == "unicyclic":
        head, slash, parents = rest.partition("/")
        nums = _ints(head, "cycle length")
        _require(len(nums) == 1, f"unicyclic needs one cycle length, got {head!r}")
        if slash:
            nums += _ints(parents, "unicyclic parents")
        return FamilySpec("unicyclic", nums)
    nums = _ints(rest, tag)
    if len(nums) > 1 and tag not in ("amal", "edge_amal"):
        raise GraphValidationError(f"family {tag!r} takes one number, got {rest!r}")
    return FamilySpec(tag, nums)


def _require(cond, message):
    if not cond:
        raise GraphValidationError(message)


def _glue(n, edges, parts):
    """The graph of `edges` on 0..n-1 with, for each (shared, new) in `parts`
    in order, a clique on the shared vertices and `new` vertices appended
    after the last one."""
    edges = list(edges)
    for shared, new in parts:
        edges += combinations(shared + tuple(range(n, n + new)), 2)
        n += new
    return Graph(n, edges)


def gen_path(n):
    _require(n >= 1, "path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n):
    _require(n >= 3, "cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n):
    _require(n >= 1, "complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def gen_star(m):
    _require(m >= 1, "star needs m >= 1 leaves")
    return _glue(1, (), [((0,), 1)] * m)


def gen_wheel(n):
    _require(n >= 3, "wheel needs n >= 3 rim vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return Graph(n + 1, edges)


def gen_amal(orders):
    _require(len(orders) >= 2, "amal needs m >= 2 cliques")
    _require(all(ni >= 1 for ni in orders), "amal needs n_i >= 1")
    return _glue(1, (), [((0,), ni - 1) for ni in orders])


def gen_edge_amal(orders):
    _require(len(orders) >= 2, "edge_amal needs m >= 2 cliques")
    _require(all(ni >= 2 for ni in orders), "edge_amal needs n_i >= 2")
    return _glue(2, [(0, 1)], [((0, 1), ni - 2) for ni in orders])


def gen_corona(base, orders):
    _require(
        len(orders) == base.n,
        f"corona needs one clique order per base vertex ({base.n}), got {len(orders)}",
    )
    _require(all(mi >= 1 for mi in orders), "corona needs m_i >= 1")
    return _glue(base.n, base.edges, [((i,), mi) for i, mi in enumerate(orders)])


def gen_join(g1, g2):
    shift = g1.n
    edges = list(g1.edges)
    edges += [(u + shift, v + shift) for u, v in g2.edges]
    edges += [(u, v + shift) for u in range(g1.n) for v in range(g2.n)]
    return Graph(g1.n + g2.n, edges)


def gen_unicyclic(c, parents=()):
    _require(c >= 3, "unicyclic needs cycle length >= 3")
    for child, parent in enumerate(parents, c):
        _require(
            0 <= parent < child,
            f"unicyclic parent {parent} must reference an existing vertex < {child}",
        )
    return _glue(c, [(i, (i + 1) % c) for i in range(c)], [((p,), 1) for p in parents])


class CliqueGadget(namedtuple("CliqueGadget", "graph landmarks clique labels")):
    """Clique-of-order-n gadget with its distinguished landmark set.

    labels maps each clique vertex to its k-vector of distances to the
    landmarks (entry j is 2j when realized through the shortcut edge to the
    j-th pendant path, 2j+1 otherwise). n = 2 has no pendant paths: the
    graph is K_2 with landmark 0, and labels is empty.
    """

    __slots__ = ()


def gen_clique_gadget(n):
    """Graph with clique number n achieving the ceil(log2 n) lower bound.

    A clique K_{2^k} whose vertices are told apart by parity patterns of
    their distances to the far ends of k pendant paths of lengths 2, 4, ...,
    2k. Clique vertex u_j has only entry j even and v_0 has every entry
    even; v_1, v_2, ... take the mixed-parity vectors in ascending order and
    then the all-odd one. For 2^{k-1} < n < 2^k, v_1..v_{2^k-n} are left out.
    """
    _require(n >= 2, "clique gadget needs n >= 2")
    if n == 2:
        return CliqueGadget(
            graph=gen_complete(2), landmarks=(0,), clique=(0, 1), labels={}
        )
    k = (n - 1).bit_length()
    even = tuple(2 * j for j in range(1, k + 1))
    odd = tuple(2 * j + 1 for j in range(1, k + 1))
    single_even = [tuple(even[i] if i == j else odd[i] for i in range(k)) for j in range(k)]
    # product yields the vectors in ascending order
    mixed = [
        vec
        for vec in product(*zip(even, odd))
        if 1 < sum(a % 2 == 0 for a in vec) < k
    ]
    labels = dict(enumerate(single_even + [even] + (mixed + [odd])[(1 << k) - n :]))

    edges = list(combinations(range(n), 2))
    landmarks = []
    nxt = n  # first vertex of the next pendant path
    for j in range(k):
        # the path of 2j + 2 vertices starts at a neighbour of u_j and of
        # every clique vertex whose entry j is even
        edges += [(v, nxt) for v, vec in labels.items() if vec[j] % 2 == 0]
        edges += [(s, s + 1) for s in range(nxt, nxt + 2 * j + 1)]
        nxt += 2 * j + 2
        landmarks.append(nxt - 1)
    return CliqueGadget(
        graph=Graph(nxt, edges),
        landmarks=tuple(landmarks),
        clique=tuple(range(n)),
        labels=labels,
    )


_BUILDERS = {
    "path": lambda spec: gen_path(*spec.numbers),
    "cycle": lambda spec: gen_cycle(*spec.numbers),
    "complete": lambda spec: gen_complete(*spec.numbers),
    "star": lambda spec: gen_star(*spec.numbers),
    "wheel": lambda spec: gen_wheel(*spec.numbers),
    "amal": lambda spec: gen_amal(spec.numbers),
    "edge_amal": lambda spec: gen_edge_amal(spec.numbers),
    "corona": lambda spec: gen_corona(gen(spec.subs[0]), spec.numbers),
    "join": lambda spec: gen_join(gen(spec.subs[0]), gen(spec.subs[1])),
    "unicyclic": lambda spec: gen_unicyclic(spec.numbers[0], spec.numbers[1:]),
    "gadget": lambda spec: gen_clique_gadget(*spec.numbers).graph,
}


def gen(spec):
    """Build the graph a FamilySpec describes; always connected."""
    build = _BUILDERS.get(spec.tag)
    if build is None:
        raise GraphValidationError(f"unknown family {spec.tag!r}")
    return build(spec)


def graph_from_mask(n, mask):
    """Labeled graph on 0..n-1 whose edge set is the bitmask over C(n,2) pairs."""
    pairs = list(combinations(range(n), 2))
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return Graph(n, edges)


def all_connected(n):
    """Every labeled connected simple graph on 0..n-1, each exactly once."""
    if n > ALL_CONNECTED_CAP:
        raise CapExceededError("all_connected enumeration", n, ALL_CONNECTED_CAP)
    if n < 1:
        raise GraphValidationError("all_connected needs n >= 1")
    npairs = n * (n - 1) // 2
    for mask in range(1 << npairs):
        g = graph_from_mask(n, mask)
        try:
            distance_row(g, 0)
        except DisconnectedGraphError:
            continue
        yield g


def _refine(nbrs, colours):
    """Colour refinement to the coarsest equitable partition finer than `colours`.

    A vertex's new colour is the rank of (its colour, the multiset of its
    neighbours' colours, packed into one integer); ranks keep the order of
    the old colours, so the result is an ordered partition that depends on
    the labels only through `colours`. Colours come back as 0..k-1.
    """
    n = len(nbrs)
    width = n.bit_length()  # fewer than n neighbours per colour, and n < 2**width
    cells = len(set(colours))
    while True:
        if cells == n:  # discrete, hence equitable
            rank = {c: i for i, c in enumerate(sorted(colours))}
            return [rank[c] for c in colours]
        weight = [1 << width * c for c in colours]
        sigs = [
            (colours[v], sum(map(weight.__getitem__, nbrs[v]))) for v in range(n)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colours = [rank[sig] for sig in sigs]
        if len(rank) == cells:
            return colours
        cells = len(rank)


def canonical_form(g):
    """(least leaf code, every automorphism of g) by individualization-refinement.

    The search refines colours to an equitable partition, individualizes
    each vertex of the first cell with more than one vertex in turn, and
    refines again, down to discrete partitions (McKay & Piperno 2014,
    "Practical graph isomorphism, II"). Each leaf orders the vertices, and
    its code is the edge set under that order as a bitmask. Every step is
    label-invariant, so isomorphic graphs share the least code. Nothing is
    pruned, and two leaves share a code exactly when an automorphism maps
    one to the other, so the leaves reaching the least code give Aut(g),
    each automorphism once, as a tuple of vertex images.
    """
    n = g.n
    nbrs = [tuple(g.adj[v]) for v in range(n)]
    bit = [[0] * n for _ in range(n)]  # bit[a][b]: the pair of leaf positions a, b
    for i, (a, b) in enumerate(combinations(range(n), 2)):
        bit[a][b] = bit[b][a] = 1 << i
    best, leaves = None, []
    stack = [_refine(nbrs, [0] * n)]
    while stack:
        colours = stack.pop()
        sizes = [0] * n
        for c in colours:
            sizes[c] += 1
        target = next((c for c in range(n) if sizes[c] > 1), None)
        if target is None:
            code = sum(bit[colours[u]][colours[v]] for u, v in g.edges)
            if best is None or code < best:
                best, leaves = code, [colours]
            elif code == best:
                leaves.append(colours)
            continue
        for v in range(n):
            if colours[v] == target:
                split = [2 * c + (u != v) for u, c in enumerate(colours)]
                stack.append(_refine(nbrs, split))
    at = [0] * n  # at[position] = the vertex the first best leaf puts there
    for v, c in enumerate(leaves[0]):
        at[c] = v
    return best, [tuple(at[c] for c in colours) for colours in leaves]


def connected_classes(n_max):
    """One connected graph per isomorphism class, n = 1..n_max, with |Aut|.

    Yields (graph, automorphism count) in order of n. The classes on n
    vertices come from those on n-1: vertex n-1 is added with every
    nonempty neighbourhood and the results are deduplicated by the code of
    canonical_form. Every connected graph has a vertex whose removal leaves
    it connected, so every class is reached. Neighbourhoods that an
    automorphism of the smaller graph maps onto each other give isomorphic
    graphs, so only the first of each orbit is tried (McKay 1998,
    "Isomorph-free exhaustive generation"). Each class keeps the first
    graph that reached it, so the order and labels are deterministic. A
    layer keeps its classes as edges, so what is memoized on a yielded graph
    is freed with it. Above CORPUS_CAP it raises before building any class.
    """
    if n_max < 1:
        raise GraphValidationError("connected_classes needs n_max >= 1")
    if n_max > CORPUS_CAP:
        raise CapExceededError("connected class enumeration", n_max, CORPUS_CAP)
    layer = [((), [(0,)])]
    yield Graph(1, ()), 1
    for n in range(2, n_max + 1):
        seen = set()
        nxt = []
        for edges, automorphisms in layer:
            tried = set()
            for mask in range(1, 1 << (n - 1)):
                if mask in tried:
                    continue
                nbhd = [u for u in range(n - 1) if mask >> u & 1]
                tried.update(sum(1 << p[u] for u in nbhd) for p in automorphisms)
                g = Graph(n, edges + tuple((u, n - 1) for u in nbhd))
                code, aut = canonical_form(g)
                if code not in seen:
                    seen.add(code)
                    nxt.append((g.edges, aut))
                    yield g, len(aut)
        layer = nxt
