"""In-memory span recorder for the benchmark's traced mode.

Spans are recorded from outside the program: `Tracer.install` replaces
module-level functions of the `pcvne` package at the bindings their callers
look up at call time, and `Tracer.remove` puts the originals back. Each span
keeps its name, start and end (perf_counter_ns) and the index of the span
that was open when it started. Counts are taken from return values only
(lengths, `Wdag.arc_count()`, None versus found), so they survive changes to
the program's internal data structures.
"""

from __future__ import annotations

import json
import time

# (module, attribute, span name, counter). Every caller of a function looks
# it up in its own module's globals, so a function imported into several
# modules (commit) is patched in each of them under one span name.
PATCHES = (
    ("path_embedding", "procedure_pe", "path_embedding.procedure_pe", None),
    ("path_embedding", "decompose_paths", "path_embedding.decompose_paths", "paths"),
    ("path_embedding", "pack_mkp", "path_embedding.pack_mkp", "packed"),
    ("path_embedding", "assign_mdkp", "path_embedding.assign_mdkp", "funded"),
    ("path_embedding", "solve_mkp", "knapsack.solve_mkp", None),
    ("path_embedding", "solve_mdkp", "knapsack.solve_mdkp", None),
    ("path_embedding", "commit", "model.commit", None),
    ("cycle_embedding", "greedy_revenue", "cycle_embedding.greedy_revenue", None),
    ("cycle_embedding", "c2ce", "cycle_embedding.c2ce", "found"),
    ("cycle_embedding", "feasible_sets", "cycle_embedding.feasible_sets", None),
    ("cycle_embedding", "build_wdag", "cycle_embedding.build_wdag", "arcs"),
    ("cycle_embedding", "min_weight_cycle", "cycle_embedding.min_weight_cycle", None),
    ("cycle_embedding", "commit", "model.commit", None),
    ("baseline", "generic_batch", "baseline.generic_batch", None),
    ("baseline", "generic_embed", "baseline.generic_embed", "found"),
    ("baseline", "node_scores", "baseline.node_scores", None),
    ("baseline", "_shortest_feasible_path", "baseline.route", None),
    ("baseline", "commit", "model.commit", None),
)

# The ring solver's `fallback` argument is traced under its own name; it
# wraps the unpatched generic_embed, so baseline.generic_embed counts the
# standalone baseline only.
FALLBACK = "cycle_embedding.fallback"


def _count(kind, result):
    if kind == "found":
        return 0 if result is None else 1
    if kind == "arcs":
        return result.arc_count()
    return len(result)


class Tracer:
    """Span store plus the patches that feed it. Not thread-safe: the
    benchmark runs in one thread."""

    def __init__(self):
        self.spans = []     # (name, start_ns, end_ns, parent index or -1)
        self.counts = {}    # (span name, counter) -> summed count
        self._stack = []
        self._saved = []
        self.fallback = None

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        key = (name, counter)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counts[key] = counts.get(key, 0) + _count(counter, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, pkg):
        """Patch the package's modules; `self.fallback` becomes the traced
        fallback callable for the ring solver."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: getattr(pkg, name) for name in ("path_embedding", "cycle_embedding", "baseline")}
        # look every target up before patching any, so a missing one patches nothing
        targets = [(modules[m], attr, getattr(modules[m], attr), span, counter)
                   for m, attr, span, counter in PATCHES]
        self.fallback = self.wrap(FALLBACK, modules["baseline"].generic_embed, "found")
        for mod, attr, original, span, counter in targets:
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span, original, counter))

    def remove(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def count(self, name, counter):
        return self.counts.get((name, counter), 0)

    def self_seconds(self):
        """Per span name: summed duration minus the part covered by direct
        children, in seconds."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0) + (end - start - child_ns[i])
        return {name: ns / 1e9 for name, ns in totals.items()}

    def dump(self, fp):
        """Write the spans as compact JSON: a name table plus
        [name index, start_ns, end_ns, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent] for n, start, end, parent in self.spans]
        json.dump({"names": names, "spans": rows}, fp, separators=(",", ":"))
