"""Spans at the multires module boundaries, for the traced run only.

`Tracer.install` replaces each target function at every binding of its
function object across the loaded `multires.*` modules (a function imported
into four modules is wrapped in all four), so calls between modules are seen
as well as calls from the benchmark. Spans (id, parent, name, item, start,
end, info) are kept in memory; `write` saves them, and `layer_metrics`
derives counts and self times from them. Untraced passes never call
`install`, so they run the program unwrapped.

The private subset kernel is not wrapped: microseconds per subset come from
public counts (`DimensionResult.subsets_checked`) divided by self time, so the
figures survive a rewrite of the kernel.
"""

import functools
import json
import sys
import time

# (module, attribute, span name). Layers are named after the modules.
TARGETS = (
    ("graph", "all_pairs_distances", "graph.bfs"),
    ("graph", "maximal_cliques", "graph.cliques"),
    ("graph", "chromatic_number", "graph.chromatic"),
    ("generators", "graph_from_mask", "generators.graph_from_mask"),
    ("generators", "gen", "generators.gen"),
    ("generators", "gen_clique_gadget", "generators.gen_clique_gadget"),
    ("bounds", "infinite_certificates", "bounds.certificates"),
    ("bounds", "lower_bounds", "bounds.lower_bounds"),
    ("solver", "dimension", "solver.dimension"),
    ("solver", "required_vertices", "solver.required_vertices"),
    ("solver", "naive_all_dimensions", "solver.naive"),
    ("solver", "certify", "solver.certify"),
    ("multisets", "is_resolving", "multisets.is_resolving"),
    ("multisets", "violating_pairs", "multisets.violating_pairs"),
    ("verify", "run_theorem", "verify.theorem"),
    ("verify", "corpus_scan", "verify.corpus"),
)

GENERATOR_SPANS = (
    "generators.graph_from_mask",
    "generators.gen",
    "generators.gen_clique_gadget",
)


def _info_for(name, args, result):
    """The count a span carries, read from the call's public result."""
    if name == "solver.dimension":
        return result.subsets_checked
    if name == "solver.naive":
        # one sweep serves every variant; it stops at the last one settled
        return max(r.subsets_checked for r in result.values())
    if name == "verify.corpus":
        return result[0]  # connected graphs in the corpus
    if name == "verify.theorem":
        return args[0]
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, item, start_ns, end_ns, info]
        self.stack = []
        self.item = None
        self.active = True
        self.connected = 0  # graph_from_mask results that are connected
        self.missing = []  # targets this version of the program lacks

    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, self.item, time.perf_counter_ns(), 0, None])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][5] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.spans[sid][6] = _info_for(name, args, result)
            if name == "generators.graph_from_mask":
                tracer.active = False  # the check below is not program work
                try:
                    tracer.connected += result.is_connected()
                finally:
                    tracer.active = True
            return result

        return traced

    def install(self):
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "multires" or key.startswith("multires."))
        ]
        wrapped = {}
        for mod_name, attr, span in TARGETS:
            home = sys.modules.get(f"multires.{mod_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped[id(fn)] = (fn, self._wrap(fn, span))
        self._wrap_pools(wrapped)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap_pools(self, wrapped):
        """Count and time the two process pools the program can start."""
        tracer = self
        solver = sys.modules.get("multires.solver")
        executor = getattr(solver, "ProcessPoolExecutor", None)
        if executor is not None:

            class TracedExecutor(executor):
                def __init__(self, *args, **kwargs):
                    self._trace_span = tracer.open("solver.pool") if tracer.active else None
                    super().__init__(*args, **kwargs)

                def shutdown(self, *args, **kwargs):
                    try:
                        super().shutdown(*args, **kwargs)
                    finally:
                        if self._trace_span is not None:
                            tracer.close(self._trace_span)
                            self._trace_span = None

            wrapped[id(executor)] = (executor, TracedExecutor)
        verify = sys.modules.get("multires.verify")
        pool = getattr(verify, "Pool", None)
        if pool is not None:
            wrapped[id(pool)] = (pool, self._wrap(pool, "verify.pool"))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(
                json.dumps(["id", "parent", "name", "item", "start_ns", "end_ns", "info"])
                + "\n"
            )
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, theorem_ids):
        """Per-layer counts and self times (seconds) for one pass."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_s, total_s, info = {}, {}, {}, {}
        theorem_s = dict.fromkeys(theorem_ids, 0.0)
        built = 0
        shortcuts = 0
        corpus_graphs = 0  # later corpus_scan calls may return a cached scan
        for sid, parent, name, _, start, end, note in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (dur - child_ns[sid]) / 1e9
            total_s[name] = total_s.get(name, 0.0) + dur / 1e9
            if isinstance(note, int) and not isinstance(note, bool):
                info[name] = info.get(name, 0) + note
            if name == "verify.theorem":
                theorem_s[note] = theorem_s.get(note, 0.0) + dur / 1e9
            if name in GENERATOR_SPANS and (
                parent < 0 or self.spans[parent][2] not in GENERATOR_SPANS
            ):
                built += 1
            if name == "solver.dimension" and note == 0:
                shortcuts += 1
            if name == "verify.corpus":
                corpus_graphs = max(corpus_graphs, note)

        def n(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        subsets = info.get("solver.dimension", 0)
        naive_subsets = info.get("solver.naive", 0)
        out = {
            "graph.bfs_calls": n("graph.bfs"),
            "graph.bfs_s": s("graph.bfs"),
            "graph.cliques_calls": n("graph.cliques"),
            "graph.cliques_s": s("graph.cliques"),
            "graph.chromatic_s": s("graph.chromatic"),
            "generators.graphs_built": built,
            "generators.connected_ratio": ratio(
                self.connected, n("generators.graph_from_mask")
            ),
            "generators.gen_s": sum(s(name) for name in GENERATOR_SPANS),
            "bounds.certificates_calls": n("bounds.certificates"),
            "bounds.certificates_s": s("bounds.certificates"),
            "bounds.lower_bounds_s": s("bounds.lower_bounds"),
            "solver.dimension_calls": n("solver.dimension"),
            "solver.dimension_self_s": s("solver.dimension"),
            "solver.subsets_checked": subsets,
            "solver.us_per_subset": ratio(s("solver.dimension") * 1e6, subsets),
            "solver.shortcut_ratio": ratio(shortcuts, n("solver.dimension")),
            "solver.required_vertices_s": s("solver.required_vertices"),
            "solver.naive_calls": n("solver.naive"),
            "solver.naive_s": s("solver.naive"),
            "solver.naive_us_per_subset": ratio(s("solver.naive") * 1e6, naive_subsets),
            "solver.certify_s": s("solver.certify"),
            "solver.pool_starts": n("solver.pool"),
            "solver.pool_s": s("solver.pool"),
            "multisets.is_resolving_calls": n("multisets.is_resolving"),
            "multisets.is_resolving_s": s("multisets.is_resolving"),
            "multisets.violating_pairs_calls": n("multisets.violating_pairs"),
            "multisets.violating_pairs_s": s("multisets.violating_pairs"),
            "verify.corpus_s": total_s.get("verify.corpus", 0.0),
            "verify.corpus_graphs": corpus_graphs,
            "verify.pool_starts": n("verify.pool"),
        }
        for tid in theorem_ids:
            out[f"verify.theorem_s.{tid}"] = theorem_s[tid]
        return out
