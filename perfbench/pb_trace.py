"""Per-layer tracing from outside the library.

A `Tracer` wraps public functions and methods of the tperfect modules for the
length of a traced run.  A module-level function is replaced under every name
that refers to it in any tperfect module (``from .geometry import solve_lp``
binds ``solve_lp`` in ``colouring`` too), and every original is put back by
`remove`.  Spans (name, start, end, parent) are kept in memory; the per-layer
metrics are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute path).  The layer is the part of the span
# name before the first dot.
TARGETS = {
    "graphs.graph_init": ("graphs", "Graph.__init__"),
    "graphs.induced_subgraph": ("graphs", "Graph.induced_subgraph"),
    "graphs.delete_vertices": ("graphs", "Graph.delete_vertices"),
    "graphs.bfs_distances": ("graphs", "Graph.bfs_distances"),
    "graphs.connected_components": ("graphs", "Graph.connected_components"),
    "graphs.bipartition": ("graphs", "Graph.bipartition"),
    "graphs.odd_girth": ("graphs", "odd_girth"),
    "graphs.shortest_odd_cycle": ("graphs", "shortest_odd_cycle"),
    "graphs.is_stable": ("graphs", "is_stable"),
    "graphs.is_path_induced": ("graphs", "is_path_induced"),
    "graphs.is_cycle_induced": ("graphs", "is_cycle_induced"),
    "geometry.enumerate_vertices": ("geometry", "enumerate_vertices"),
    "geometry.solve_lp": ("geometry", "solve_lp"),
    "geometry.point_in_hull": ("geometry", "point_in_hull"),
    "polytopes.tstab": ("polytopes", "tstab"),
    "polytopes.hstab": ("polytopes", "hstab"),
    "polytopes.all_stable_sets": ("polytopes", "all_stable_sets"),
    "polytopes.maximal_stable_sets": ("polytopes", "maximal_stable_sets"),
    "polytopes.chordless_odd_cycles": ("polytopes", "chordless_odd_cycles"),
    "polytopes.is_t_perfect": ("polytopes", "is_t_perfect"),
    "polytopes.verify_witness": ("polytopes", "verify_witness"),
    "colouring.certify": ("colouring", "certify"),
    "colouring.chi_exact": ("colouring", "chi_exact"),
    "colouring.chi_fractional": ("colouring", "chi_fractional"),
    "colouring.reduce_odd_girth": ("colouring", "reduce_odd_girth"),
    "colouring.verify_colouring": ("colouring", "verify_colouring"),
    "colouring.verify_fractional_colouring": ("colouring", "verify_fractional_colouring"),
    "tminors.find_odd_wheel_tminor": ("tminors", "find_odd_wheel_tminor"),
    "tminors.replay": ("tminors", "replay"),
    "tminors.verify_odd_wheel_witness": ("tminors", "verify_odd_wheel_witness"),
    "tminors.is_odd_wheel": ("tminors", "is_odd_wheel"),
    "tminors.delete_step": ("tminors", "TraceBuilder.delete"),
    "tminors.tcontract_step": ("tminors", "TraceBuilder.tcontract"),
    "ropes.find_rope": ("ropes", "find_rope"),
    "ropes.build_broken_rope": ("ropes", "build_broken_rope"),
    "ropes.rope_induction_step": ("ropes", "rope_induction_step"),
    "ropes.audit_induction_step": ("ropes", "audit_induction_step"),
    "ropes.audit_broken_rope": ("ropes", "audit_broken_rope"),
    "ropes.verify_rope": ("ropes", "verify_rope"),
    "ropes.generate_rope": ("ropes", "generate_rope"),
    "ropes.rope_from_json": ("ropes", "rope_from_json"),
    "graphio.parse_graph": ("graphio", "parse_graph"),
    "graphio.to_json_graph": ("graphio", "to_json_graph"),
    "graphio.identify_certificate": ("graphio", "identify_certificate"),
    "graphio.parse_colouring": ("graphio", "parse_colouring"),
    "graphio.parse_witness": ("graphio", "parse_witness"),
    "graphio.parse_wheel_witness": ("graphio", "parse_wheel_witness"),
    "cli.verify": ("cli", "cmd_verify"),
    "cli.rope_verify": ("cli", "cmd_rope_verify"),
    "cli.load_graph": ("cli", "load_graph"),
    "corpus.make": ("corpus", "make"),
}

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("graphs.self_s", "s"),
    ("graphs.graph_init.calls", "count"),
    ("graphs.induced_subgraph.calls", "count"),
    ("graphs.odd_girth.calls", "count"),
    ("graphs.odd_girth.s", "s"),
    ("graphs.odd_girth.repeat", "ratio"),
    ("geometry.self_s", "s"),
    ("geometry.enumerate_vertices.s", "s"),
    ("geometry.enumerate_vertices.rows", "count"),
    ("geometry.enumerate_vertices.vertices", "count"),
    ("geometry.solve_lp.calls", "count"),
    ("geometry.solve_lp.s", "s"),
    ("geometry.solve_lp.cells", "count"),
    ("geometry.point_in_hull.s", "s"),
    ("polytopes.self_s", "s"),
    ("polytopes.is_t_perfect.calls", "count"),
    ("polytopes.verify_witness.s", "s"),
    ("polytopes.relaxation_rows", "count"),
    ("polytopes.maximal_stable_sets.sets", "count"),
    ("colouring.self_s", "s"),
    ("colouring.chi_exact.calls", "count"),
    ("colouring.chi_exact.s", "s"),
    ("colouring.chi_exact.repeat", "ratio"),
    ("colouring.chi_fractional.calls", "count"),
    ("colouring.chi_fractional.s", "s"),
    ("colouring.reduce_odd_girth.calls", "count"),
    ("colouring.colours", "count"),
    ("tminors.self_s", "s"),
    ("tminors.find_odd_wheel_tminor.s", "s"),
    ("tminors.steps_applied", "count"),
    ("tminors.steps_per_witness_step", "ratio"),
    ("tminors.replay.s", "s"),
    ("ropes.self_s", "s"),
    ("ropes.find_rope.s", "s"),
    ("ropes.rope_induction_step.calls", "count"),
    ("ropes.audit.s", "s"),
    ("ropes.verify_rope.calls", "count"),
    ("ropes.verify_rope.s", "s"),
    ("graphio.self_s", "s"),
    ("cli.verify.calls", "count"),
    ("cli.verify.s", "s"),
    ("corpus.make.s", "s"),
    ("trace.overhead_s", "s"),
]

# a t-minor step counts as search work unless it replays a found witness
SEARCH_OR_REPLAY = ("tminors.find_odd_wheel_tminor", "tminors.replay")

LAYERS = ("graphs", "geometry", "polytopes", "colouring", "tminors", "ropes", "graphio")


def _graph_key(g):
    return (g.vertices, g.edges())


def _hook_enumerate_vertices(tracer, args, result):
    tracer.counts["geometry.enumerate_vertices.rows"] += len(args[0].inequalities)
    tracer.counts["geometry.enumerate_vertices.vertices"] += len(result.vertices)


def _hook_solve_lp(tracer, args, result):
    tracer.counts["geometry.solve_lp.cells"] += len(args[0]) * len(args[2])


def _hook_relaxation(tracer, args, result):
    tracer.counts["polytopes.relaxation_rows"] += len(result.inequalities)


def _hook_maximal_stable_sets(tracer, args, result):
    tracer.counts["polytopes.maximal_stable_sets.sets"] += len(result)


def _hook_odd_girth(tracer, args, result):
    tracer.inputs["graphs.odd_girth"].add(_graph_key(args[0]))


def _hook_chi_exact(tracer, args, result):
    tracer.inputs["colouring.chi_exact"].add(_graph_key(args[0]))
    tracer.counts["colouring.colours"] += result[0]


def _hook_certify(tracer, args, result):
    if result.kind == "colouring":
        tracer.counts["colouring.colours"] += result.colouring.num_colours


def _hook_find_wheel(tracer, args, result):
    if result is not None:
        tracer.counts["tminors.witness_steps"] += len(result.trace.steps)


HOOKS = {
    "geometry.enumerate_vertices": _hook_enumerate_vertices,
    "geometry.solve_lp": _hook_solve_lp,
    "polytopes.tstab": _hook_relaxation,
    "polytopes.hstab": _hook_relaxation,
    "polytopes.maximal_stable_sets": _hook_maximal_stable_sets,
    "graphs.odd_girth": _hook_odd_girth,
    "colouring.chi_exact": _hook_chi_exact,
    "colouring.certify": _hook_certify,
    "tminors.find_odd_wheel_tminor": _hook_find_wheel,
}


def wrapper_cost(calls: int = 20000, batches: int = 7) -> float:
    """Median over batches of the seconds a wrapper adds to one call of an
    empty function (one without a hook)."""

    def empty():
        return None

    tracer = Tracer({})
    wrapped = tracer._wrap("empty", empty)
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        middle = perf_counter()
        for _ in range(calls):
            empty()
        costs.append((2 * middle - start - perf_counter()) / calls)
    return statistics.median(costs)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "tperfect"]


class Tracer:
    """Installs the wrappers, records spans and counts, and takes the
    wrappers out again."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.inputs = defaultdict(set)
        self.patches = []  # (owner, attribute, original)
        self.hook_s = 0.0  # time spent in HOOKS

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                start = perf_counter()
                hook(tracer, args, result)
                tracer.hook_s += perf_counter() - start
            return result

        wrapper.traced_span = name
        return wrapper

    def install(self) -> None:
        # modules the library imports lazily are imported now, so that their
        # names are wrapped before the first call
        for module, _ in self.targets.values():
            importlib.import_module(f"tperfect.{module}")
        modules = _package_modules()
        for name, (module, path) in self.targets.items():
            owner = sys.modules[f"tperfect.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self.patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- analysis ------------------------------------------------------------

    def overhead_s(self) -> float:
        """Estimated seconds that tracing added to the traced calls: the
        number of spans times the cost of one wrapper, plus the time spent
        in hooks.  Effects on caches and the garbage collector are left out.
        A measured difference of traced and untraced time would be less than
        the machine's drift between two rounds."""
        return len(self.spans) * wrapper_cost() + self.hook_s

    def metrics(self) -> dict:
        """Every per-layer metric."""
        spans = self.spans
        duration = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += duration[i]
        calls = Counter(s[0] for s in spans)
        self_s = Counter()
        inclusive = Counter()  # outermost spans of each name only
        search_steps = 0
        for i, (name, _, _, parent) in enumerate(spans):
            self_s[name.split(".")[0]] += duration[i] - child[i]
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:
                inclusive[name] += duration[i]
            if name in ("tminors.delete_step", "tminors.tcontract_step"):
                nearest = next((a for a in ancestors if a in SEARCH_OR_REPLAY), None)
                search_steps += nearest == "tminors.find_odd_wheel_tminor"
        counts = self.counts

        def repeat(name):
            distinct = len(self.inputs[name])
            return calls[name] / distinct if distinct else 0.0

        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        witness_steps = counts["tminors.witness_steps"]
        out.update(
            {
                "graphs.graph_init.calls": calls["graphs.graph_init"],
                "graphs.induced_subgraph.calls": calls["graphs.induced_subgraph"],
                "graphs.odd_girth.calls": calls["graphs.odd_girth"],
                "graphs.odd_girth.s": inclusive["graphs.odd_girth"],
                "graphs.odd_girth.repeat": repeat("graphs.odd_girth"),
                "geometry.enumerate_vertices.s": inclusive["geometry.enumerate_vertices"],
                "geometry.enumerate_vertices.rows": counts["geometry.enumerate_vertices.rows"],
                "geometry.enumerate_vertices.vertices": counts["geometry.enumerate_vertices.vertices"],
                "geometry.solve_lp.calls": calls["geometry.solve_lp"],
                "geometry.solve_lp.s": inclusive["geometry.solve_lp"],
                "geometry.solve_lp.cells": counts["geometry.solve_lp.cells"],
                "geometry.point_in_hull.s": inclusive["geometry.point_in_hull"],
                "polytopes.is_t_perfect.calls": calls["polytopes.is_t_perfect"],
                "polytopes.verify_witness.s": inclusive["polytopes.verify_witness"],
                "polytopes.relaxation_rows": counts["polytopes.relaxation_rows"],
                "polytopes.maximal_stable_sets.sets": counts["polytopes.maximal_stable_sets.sets"],
                "colouring.chi_exact.calls": calls["colouring.chi_exact"],
                "colouring.chi_exact.s": inclusive["colouring.chi_exact"],
                "colouring.chi_exact.repeat": repeat("colouring.chi_exact"),
                "colouring.chi_fractional.calls": calls["colouring.chi_fractional"],
                "colouring.chi_fractional.s": inclusive["colouring.chi_fractional"],
                "colouring.reduce_odd_girth.calls": calls["colouring.reduce_odd_girth"],
                "colouring.colours": counts["colouring.colours"],
                "tminors.find_odd_wheel_tminor.s": inclusive["tminors.find_odd_wheel_tminor"],
                "tminors.steps_applied": search_steps,
                "tminors.steps_per_witness_step": search_steps / witness_steps if witness_steps else 0.0,
                "tminors.replay.s": inclusive["tminors.replay"],
                "ropes.find_rope.s": inclusive["ropes.find_rope"],
                "ropes.rope_induction_step.calls": calls["ropes.rope_induction_step"],
                "ropes.audit.s": inclusive["ropes.audit_induction_step"] + inclusive["ropes.audit_broken_rope"],
                "ropes.verify_rope.calls": calls["ropes.verify_rope"],
                "ropes.verify_rope.s": inclusive["ropes.verify_rope"],
                "cli.verify.calls": calls["cli.verify"] + calls["cli.rope_verify"],
                "cli.verify.s": inclusive["cli.verify"] + inclusive["cli.rope_verify"],
                "corpus.make.s": inclusive["corpus.make"],
                "trace.overhead_s": self.overhead_s(),
            }
        )
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans and ``extra`` as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh, separators=(",", ":"))
