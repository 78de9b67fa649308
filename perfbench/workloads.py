"""The benchmark's workloads: inputs made from a seed, the timed items of one
pass, and the checks that decide whether each item's output is correct.

A workload is built in two steps. `load_expected` reads the recorded answers
(benchmark overhead, never timed). The constructor then generates the inputs
through the program's public API; that is the set-up the benchmark times.
Each entry of `items` is (item id, call); the pass times each call, and
`check` judges the outputs after the timed region has ended.
"""

import json
import random
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

COMPUTE_SPECS = (
    "wheel:14",
    "wheel:15",
    "corona:path:5/2,2,2,2,2",
    "gadget:8",
    "cycle:16",
    "amal:4,4,3",
)

VERIFY_N_MAX = 5

# Families for certify-large, n = 100-400; seeded sparse random graphs are
# added at the sizes in CERTIFY_RANDOM_SIZES so a pass costs the same for
# every seed.
CERTIFY_FAMILIES = (
    "cycle:150",
    "cycle:400",
    "wheel:120",
    "wheel:300",
    "corona:cycle:50/" + ",".join(["2"] * 50),
    "corona:path:100/" + ",".join(["1"] * 100),
)
CERTIFY_RANDOM_SIZES = (100, 130, 160, 190, 220, 250, 280, 310, 340, 370, 400)
CERTIFY_LANDMARKS = 6  # |W|; the seed picks which vertices

# Representation kind and compared pairs of each variant, as the package
# README defines them; the certify-large reference uses only this table.
VARIANT_DEFINITIONS = {
    "DIM": ("vector", "all"),
    "LDIM": ("vector", "adjacent"),
    "MD": ("multiset", "all"),
    "DIM_MS": ("multiset", "outer"),
    "LMD": ("multiset", "adjacent"),
    "LDIM_MS": ("multiset", "adjacent_outer"),
}


def load_expected(name):
    path = EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def certificate_kind(certificate):
    if certificate is None:
        return None
    return certificate.split(":", 1)[0].split()[0]


def show_value(value):
    return "infinity" if value == float("inf") else int(value)


class Compute:
    """dimension() for all six variants on a few large graphs.

    The graphs keep the generators' labelling for every seed. A seeded
    relabelling moves the lexicographically first witness, and with it the
    time of most mid-sized solves: over five seeds it spread latency_p50_ms
    by 37% of its median, more than any bound can allow. With fixed labels
    every run checks the recorded witness and subsets_checked exactly.
    """

    name = "compute"
    notes = ()

    def __init__(self, mr, seed, expected, shards=1):
        self.mr = mr
        self.expected = expected
        opts = mr.SolverOptions(parallel_shards=shards)
        self.graphs = {}
        self.items = []
        for spec in COMPUTE_SPECS:
            g = mr.gen(mr.parse_family_spec(spec))
            self.graphs[spec] = g
            for variant in mr.Variant:
                item_id = f"{spec}/{variant.name.lower()}"
                self.items.append((item_id, self._solve(g, variant, opts)))

    def _solve(self, g, variant, opts):
        mr = self.mr
        return lambda: mr.dimension(g, variant, opts)

    @staticmethod
    def summary(r):
        return {
            "value": show_value(r.value),
            "witness": None if r.witness is None else list(r.witness),
            "subsets_checked": r.subsets_checked,
            "kind": certificate_kind(r.certificate),
        }

    def check(self, item_id, r):
        want = self.expected[item_id]
        got = self.summary(r)
        spec, variant_name = item_id.rsplit("/", 1)
        bad = [k for k in want if got[k] != want[k]]
        if bad:
            return f"{item_id}: " + ", ".join(f"{k} {got[k]!r} != {want[k]!r}" for k in bad)
        if r.witness is not None:
            variant = self.mr.Variant[variant_name.upper()]
            cert = self.mr.certify(self.graphs[spec], r.witness, variant)
            if not cert.valid or len(cert.witness) != got["value"]:
                return f"{item_id}: witness {r.witness} rejected by certify()"
        return None

    def pass_problems(self):
        return []


class Verify:
    """The theorem harness: every theorem id, corpus up to VERIFY_N_MAX."""

    name = "verify"

    def __init__(self, mr, seed, expected):
        self.mr = mr
        self.expected = expected
        self.notes = []
        # a module cache surviving an earlier pass would turn the corpus
        # into a dict lookup; each pass runs in a fresh interpreter, and
        # this records that nothing was cached before the first item
        self.cached_before = _cache_sizes(mr)
        # the ids run_all() iterates, as recorded at this benchmark's commit
        self.theorem_ids = list(expected or mr.verify.THEOREMS)
        self.items = [(tid, self._run(tid)) for tid in self.theorem_ids]

    def _run(self, tid):
        mr = self.mr
        return lambda: mr.run_theorem(tid, n_max=VERIFY_N_MAX, jobs=1)

    @staticmethod
    def summary(check):
        return {
            "passed": check.passed,
            "instances": len(check.instances),
            "failures": [
                [f.instance, f.quantity, _plain(f.expected), _plain(f.computed)]
                for f in check.failures()
            ],
        }

    def check(self, item_id, check):
        got = self.summary(check)
        want = self.expected[item_id]
        if got != want:
            return (
                f"{item_id}: passed={got['passed']} with {len(got['failures'])} failing"
                f" instances, recorded passed={want['passed']} with"
                f" {len(want['failures'])}"
            )
        if not want["passed"]:
            self.notes.append(
                f"recorded divergence reproduced: {item_id} fails on"
                f" {len(want['failures'])} of {want['instances']} instances"
            )
        return None

    def pass_problems(self):
        if any(self.cached_before):
            return [f"module caches not empty before the pass: {self.cached_before}"]
        return []


def _plain(value):
    if isinstance(value, float) and value == float("inf"):
        return "infinity"
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _cache_sizes(mr):
    corpus = getattr(mr.verify, "_CORPUS_CACHE", {})
    spec_cache = getattr(mr.verify, "parse_spec_cached", None)
    info = getattr(spec_cache, "cache_info", None)
    return (len(corpus), info().currsize if info else 0)


class CertifyLarge:
    """lower_bounds() and certify() for all six variants on large graphs."""

    name = "certify-large"
    notes = ()

    def __init__(self, mr, seed, expected=None):
        self.mr = mr
        rng = random.Random(f"certify-large/{seed}")
        graphs = [(spec, mr.gen(mr.parse_family_spec(spec))) for spec in CERTIFY_FAMILIES]
        for n in CERTIFY_RANDOM_SIZES:
            graphs.append((f"random:{n}", random_sparse_graph(mr, n, rng)))
        self.cases = {}
        self.items = []
        for name, g in graphs:
            W = tuple(sorted(rng.sample(range(g.n), CERTIFY_LANDMARKS)))
            item_id = f"{name.split('/')[0]} W={list(W)}"
            self.cases[item_id] = (g, W)
            self.items.append((item_id, self._certify(g, W)))

    def _certify(self, g, W):
        mr = self.mr

        def run():
            report = mr.lower_bounds(g)
            return report, [mr.certify(g, W, v) for v in mr.Variant]

        return run

    def check(self, item_id, output):
        report, certs = output
        g, W = self.cases[item_id]
        bipartite, want = reference_certify(g.n, g.edges, W)
        lower = report.lower[self.mr.Variant.LMD].value
        # bipartite graphs have lmd 1; otherwise the odd-cycle bound gives 2
        if (bipartite and lower != 1) or (not bipartite and lower < 2):
            return f"{item_id}: lower bound {lower} for bipartite={bipartite}"
        for cert in certs:
            valid, pairs = want[cert.variant.name]
            if cert.valid != valid or len(cert.violating) != pairs:
                return (
                    f"{item_id} {cert.variant.name.lower()}: valid={cert.valid}"
                    f" with {len(cert.violating)} violating pairs, reference"
                    f" valid={valid} with {pairs}"
                )
        return None

    def pass_problems(self):
        return []


def random_sparse_graph(mr, n, rng):
    """Connected: a random recursive tree plus n // 2 random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    while len(edges) < n - 1 + n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return mr.Graph(n, edges)


def reference_certify(n, edges, W):
    """Bipartiteness, and (valid, violating pair count) per variant name,
    straight from the definitions; shares no code with the program."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for w in W:
        dist = [-1] * n
        dist[w] = 0
        frontier = [w]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        rows.append(dist)
    parity = [rows[0][u] % 2 for u in range(n)]
    bipartite = all(parity[u] != parity[v] for u, v in edges)
    in_w = set(W)
    out = {}
    for name, (kind, scope) in VARIANT_DEFINITIONS.items():
        keys = [tuple(row[u] for row in rows) for u in range(n)]
        if kind == "multiset":
            keys = [tuple(sorted(k)) for k in keys]
        if scope in ("all", "outer"):
            groups = {}
            for u in range(n):
                if scope == "all" or u not in in_w:
                    groups[keys[u]] = groups.get(keys[u], 0) + 1
            pairs = sum(c * (c - 1) // 2 for c in groups.values())
        else:
            pairs = sum(
                1
                for u, v in edges
                if keys[u] == keys[v]
                and (scope == "adjacent" or (u not in in_w and v not in in_w))
            )
        out[name] = (pairs == 0, pairs)
    return bipartite, out


# name -> (workload class, recorded answers file or None, constructor options)
WORKLOADS = {
    "compute": (Compute, "compute", {}),
    "verify": (Verify, "verify", {}),
    "certify-large": (CertifyLarge, None, {}),
    "compute-jobs2": (Compute, "compute", {"shards": 2}),
}
