"""Per-layer tracing from outside the package.

The tracer replaces module-level functions of `hyperb` with timing wrappers.
Every module attribute bound to a wrapped function is patched, so a function
imported into several modules (say `sample_family_bits`, bound in both
`neighborhoods` and `compression`) is timed whichever name the caller uses.
Nothing under `src/` is modified; `uninstall` restores the originals.

Each wrapped call yields a span (name, start, end, parent, run id) kept in
memory.  Only spans within two levels of a job, or lasting at least 1 ms,
are kept: the kernels are called millions of times and their spans would
not fit in memory.  Counters and times are kept for every call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, function, metric base).  Functions that share a base are one
# group: a call counts once, at the outermost group member on the stack.
TIMED = [
    ("cli", "main", "cli.main"),
    ("_tables", "balls", "_tables.balls"),
    ("_tables", "masks_in_order", "_tables.masks_in_order"),
    ("_tables", "rank_of_mask", "_tables.rank_of_mask"),
    ("_tables", "section_tables", "_tables.section_tables"),
    ("_tables", "initial_segment_closed_sizes", "_tables.segment_sizes"),
    ("_tables", "initial_segment_open_sizes", "_tables.segment_sizes"),
    ("_tables", "closed_bits", "_tables.closed_bits"),
    ("_tables", "compress_bits", "_tables.compress_bits"),
    ("_tables", "split_bits", "_tables.split_bits"),
    ("_tables", "join_bits", "_tables.join_bits"),
    ("neighborhoods", "sample_family_bits", "neighborhoods.sample_family_bits"),
    ("neighborhoods", "verify_close_inequality", "neighborhoods.verify_close_inequality"),
    ("neighborhoods", "verify_open_inequality", "neighborhoods.verify_open_inequality"),
    ("neighborhoods", "verify_section_identity", "neighborhoods.verify_section_identity"),
    ("neighborhoods", "section_identity_holds", "neighborhoods.section_identity_holds"),
    ("neighborhoods", "common_neighborhood", "neighborhoods.common_neighborhood"),
    ("neighborhoods", "verify_initial_segment_closure", "neighborhoods.verify_initial_segment_closure"),
    ("neighborhoods", "verify_closed_form", "neighborhoods.verify_closed_form"),
    ("compression", "compress_fully_bits", "compression.compress_fully_bits"),
    ("compression", "verify_fixpoint_classification", "compression.verify_fixpoint_classification"),
    ("compression", "verify_compression_inequality", "compression.verify_compression_inequality"),
    ("compression", "sections", "compression.object"),
    ("compression", "compress", "compression.object"),
    ("compression", "is_compressed", "compression.object"),
    ("compression", "compress_fully", "compression.object"),
    ("compression", "classify_fixpoint", "compression.object"),
    ("subsets", "mask_rank", "subsets.rank_unrank"),
    ("subsets", "mask_unrank", "subsets.rank_unrank"),
    ("subsets", "family_to_bits", "subsets.family_bits"),
    ("subsets", "family_from_bits", "subsets.family_bits"),
    ("bounds", "bound_report", "bounds.bound_report"),
    ("bcoloring", "exact_b_chromatic", "bcoloring.exact_b_chromatic"),
    ("bcoloring", "greedy_b_coloring", "bcoloring.greedy_b_coloring"),
    ("bcoloring", "_adjacency_rows", "bcoloring.adjacency"),
    ("bcoloring", "validate_coloring", "bcoloring.validate_coloring"),
    ("bcoloring", "verify_coset_bcoloring", "bcoloring.verify_coset_bcoloring"),
]

# Counted, not timed: the search time of a k stays in the self time of
# exact_b_chromatic, which is what nodes per second divides by.
COUNTED = [("bcoloring", "_decide_b_coloring", "bcoloring.decide")]

# Cached table builders whose builds are cache misses.
CACHED = {"_tables.balls", "_tables.section_tables", "bcoloring.adjacency"}

LAYERS = ("cli", "_tables", "neighborhoods", "compression", "subsets", "bounds", "bcoloring")

KEEP_DEPTH = 2
KEEP_SECONDS = 1e-3


class Tracer:
    def __init__(self, run_id: str, package):
        self.run_id = run_id
        self.package = package
        self.origin = perf_counter()
        self.calls = defaultdict(int)  # outermost calls per group
        self.incl = defaultdict(float)  # inclusive seconds of outermost calls
        self.self_s = defaultdict(float)  # per function base and per layer
        self.counts = defaultdict(int)
        self.builds = defaultdict(int)
        self._active = defaultdict(int)
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self.spans = []
        self._patches = []
        self._miss_marks = {}

    # ------------------------------------------------------------ spans
    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame

    def _leave(self, name, sid, parent, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        if len(self._stack) <= KEEP_DEPTH or dur >= KEEP_SECONDS:
            self.spans.append((sid, name, t0, t1, parent))
        return dur - frame[1]

    def job(self, name: str, fn):
        """Run fn() as a top-level span (one benchmark job)."""
        sid, parent, frame = self._enter()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._leave(name, sid, parent, frame, t0, perf_counter())

    # --------------------------------------------------------- wrappers
    def _timed(self, fn, name: str, base: str, layer: str):
        tracer = self
        active = self._active
        observe_nonempty = base == "_tables.closed_bits"

        def wrapper(*args, **kwargs):
            outer = active[base] == 0
            active[base] += 1
            sid, parent, frame = tracer._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[base] -= 1
                own = tracer._leave(name, sid, parent, frame, t0, t1)
                tracer.self_s[base] += own
                tracer.self_s[layer] += own
                if outer:
                    tracer.calls[base] += 1
                    tracer.incl[base] += t1 - t0
            if observe_nonempty and result:
                tracer.counts["_tables.closed_bits.nonempty"] += 1
            return result

        return wrapper

    def _counted(self, fn, base: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[base] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _modules(self):
        import sys

        prefix = self.package.__name__
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def install(self):
        """Patch every module attribute bound to a traced function."""
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        specs = [(m, f, b, True) for m, f, b in TIMED] + [(m, f, b, False) for m, f, b in COUNTED]
        for mod_name, fname, base, timed in specs:
            original = getattr(by_name[mod_name], fname)
            if timed:
                wrapper = self._timed(original, f"{mod_name}.{fname}", base, mod_name)
            else:
                wrapper = self._counted(original, base)
            if base in CACHED:
                self._miss_marks[base] = (original, original.cache_info().misses)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []
        for base, (original, mark) in self._miss_marks.items():
            self.builds[base] += original.cache_info().misses - mark
        self._miss_marks = {}

    # ---------------------------------------------------------- results
    def metrics(self) -> dict[str, float]:
        out = {}
        for _, _, base in TIMED:
            out[f"{base}.calls"] = self.calls[base]
            out[f"{base}.s"] = self.incl[base]
            out[f"{base}.self_s"] = self.self_s[base]
        for _, _, base in COUNTED:
            out[f"{base}.calls"] = self.counts[base]
        for base in CACHED:
            out[f"{base}.builds"] = self.builds[base]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        calls = self.calls["_tables.closed_bits"]
        nonempty = self.counts["_tables.closed_bits.nonempty"]
        out["_tables.closed_bits.nonempty_ratio"] = nonempty / calls if calls else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": round(t0 - self.origin, 9),
                            "end": round(t1 - self.origin, 9),
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )
