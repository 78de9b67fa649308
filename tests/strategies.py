import random
from itertools import combinations

from hypothesis import strategies as st

from multires.generators import graph_from_mask
from multires.graph import Graph


def random_connected_graph(rng, n_max=8, n_min=2, max_extra=None):
    """Uniform-ish random connected graph: spanning tree plus up to
    `max_extra` random edges (up to n(n-1)/2 if None; a tree if 0)."""
    n = rng.randint(n_min, n_max)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        parent = rng.choice(order[:i])
        edges.add(tuple(sorted((order[i], parent))))
    extra = rng.randint(0, n * (n - 1) // 2 if max_extra is None else max_extra)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add(tuple(sorted((u, v))))
    return Graph(n, edges)


def plain_count(g, rules, last):
    """Subsets that pass every rule (mask, at_least, at_most), read as a
    vertex set with bounds on its count in W, in the solver's order (k, then
    lexicographic), up to and including `last` (all if None)."""
    count = 0
    for k in range(1, g.n + 1):
        for W in combinations(range(g.n), k):
            hits = [sum(mask >> w & 1 for w in W) for mask, _, _ in rules]
            if all(lo <= hit <= hi for (_, lo, hi), hit in zip(rules, hits)):
                count += 1
            if W == last:
                return count
    return count


@st.composite
def connected_graphs(draw, n_max=6):
    n = draw(st.integers(min_value=1, max_value=n_max))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    g = graph_from_mask(n, mask)
    if len(_components(g)) > 1:
        # patch up connectivity deterministically from the drawn mask
        seed = draw(st.integers(min_value=0, max_value=2**16))
        rng = random.Random(seed)
        comps = _components(g)
        edges = set(g.edges)
        for a, b in zip(comps, comps[1:]):
            edges.add(tuple(sorted((rng.choice(a), rng.choice(b)))))
        g = Graph(n, edges)
    return g


def _components(g):
    seen = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        stack = [s]
        comp = []
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps
