"""The benchmark's three workloads: seeded inputs, the timed produce and check
phases, and the independent audit of what the library emitted.

Each workload is a fixed set of operations that the runner repeats in whole
rounds.  The library sees only the generated inputs; the seed stays here.
Library entry points are looked up on their modules at call time
(``colouring.certify``, ``cli.main``), so a traced run sees the wrapped
versions.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import networkx as nx

import pb_checks
from tperfect import cli, colouring, corpus, graphio, ropes
from tperfect.errors import TPerfectError
from tperfect.graphs import Graph


@dataclass
class Task:
    """One certify input: its graph, chromatic number and t-perfection
    status, both known from how the graph was built."""

    name: str
    graph: Graph
    chi: int
    expect: str  # "colouring" (t-perfect) or "witness" (not t-perfect)


def _cli(argv) -> int:
    """Run the in-process `tperfect` entry point with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _plain(g: Graph) -> nx.Graph:
    return pb_checks.nx_graph(g.vertices, g.edges())


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _sp_chi(g: Graph) -> int:
    return 2 if nx.is_bipartite(_plain(g)) else 3


def _pendant(g: Graph, length: int) -> Graph:
    """g with a path of ``length`` new vertices hanging off vertex 0."""
    new = list(range(g.n, g.n + length))
    edges = list(g.edges()) + list(zip([0] + new, new))
    return Graph(list(g.vertices) + new, edges)


def _relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices 0..n-1 renumbered by a seeded permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(perm, [(perm[u], perm[v]) for u, v in g.edges()])


def _non_bipartite_sp(rng: random.Random, n: int) -> Graph:
    while True:
        g = corpus.make(f"sp-{rng.randrange(10**6)}-{n}")
        if _sp_chi(g) == 3:
            return g


# ---------------------------------------------------------------------------
# certify workloads
# ---------------------------------------------------------------------------


def polytope_tasks(seed: int) -> list:
    """6-13 vertices, every status known by construction or by theorem, so
    certify always settles it with the polytope oracle."""
    rng = random.Random(seed)
    tasks = [Task(f"C{n}", corpus.make(f"C{n}"), 2 + n % 2, "colouring") for n in range(6, 14)]
    for k in (5, 7, 9, 11):
        tasks.append(Task(f"W{k}", corpus.make(f"W{k}"), 4, "witness"))
    for name, chi in (("moebius8", 3), ("moebius12", 3), ("co-C7", 4), ("grotzsch", 4), ("joinC5C5", 6)):
        tasks.append(Task(name, corpus.make(name), chi, "witness"))
    # series-parallel graphs are t-perfect (Boulala-Uhry)
    for n in (8, 9, 10, 11):
        g = corpus.make(f"sp-{rng.randrange(10**6)}-{n}")
        tasks.append(Task(f"sp{n}", g, _sp_chi(g), "colouring"))
    # any graph containing K4 is not t-perfect
    for n in (6, 7):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(rng.randrange(v), v) for v in range(4, n)]
        tasks.append(Task(f"K4tree{n}", Graph(range(n), edges), 4, "witness"))
    # bipartite graphs are t-perfect
    for a, b in ((3, 4), (4, 5)):
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
        edges.append((0, a))
        tasks.append(Task(f"bip{a}x{b}", Graph(range(a + b), edges), 2, "colouring"))
    return tasks


def reduction_tasks(seed: int) -> list:
    """Non-bipartite graphs with 17-19 vertices: above the polytope cap, so
    t-perfect inputs go through the odd-girth reductions and the others fail
    them and go to the t-minor search."""
    rng = random.Random(seed)
    tasks = [Task(f"C{n}", corpus.make(f"C{n}"), 3, "colouring") for n in (17, 19)]
    # a fixed series-parallel graph, renumbered by the seed: certify on a
    # freshly drawn sp-S-17 takes from 0.04 to 1.8 s depending on S
    sp17 = _non_bipartite_sp(random.Random(0), 17)
    tasks.append(Task("sp17-relabelled", _relabel(sp17, rng), 3, "colouring"))
    for k, tail in ((9, 7), (11, 5), (13, 4), (17, 0)):
        g = corpus.make(f"W{k}")
        tasks.append(Task(f"W{k}+{tail}", _pendant(g, tail) if tail else g, 4, "witness"))
    return tasks


class CertifyWorkload:
    """Produce: `certify` on every task.  Check: `tperfect verify` on every
    certificate.  One operation is one certify call with its check."""

    def __init__(self, name: str, make_tasks, check_reps: int):
        self.name = name
        self.make_tasks = make_tasks
        self.check_reps = check_reps

    def setup(self, seed: int, outdir: Path) -> None:
        self.outdir = outdir
        self.tasks = self.make_tasks(seed)
        shutil.rmtree(outdir, ignore_errors=True)
        for t in self.tasks:
            _write(self._graph_path(t), graphio.to_json_graph(t.graph))

    def _graph_path(self, t: Task) -> Path:
        return self.outdir / "graphs" / f"{t.name}.json"

    def _cert_path(self, t: Task) -> Path:
        return self.outdir / "certs" / f"{t.name}.json"

    def produce(self, now=perf_counter):
        """Certificate JSON per task (None where certify raised), and the
        seconds each call took by the clock ``now``."""
        outputs, times = [], {}
        for t in self.tasks:
            start = now()
            try:
                outputs.append(colouring.certify(t.graph).to_json())
            except TPerfectError:
                outputs.append(None)
            times[t.name] = now() - start
        return outputs, times

    def emit(self, outputs) -> None:
        for t, text in zip(self.tasks, outputs):
            if text is not None:
                _write(self._cert_path(t), text)

    def check(self, outputs, now=perf_counter):
        """A verdict per operation, and the seconds of each verify call."""
        calls = [
            (t.name, ["verify", str(self._graph_path(t)), str(self._cert_path(t))], 0)
            for t, text in zip(self.tasks, outputs)
            if text is not None
        ]
        ok, times = _run_calls(calls, self.check_reps, now)
        return [ok.get(t.name, False) for t in self.tasks], times

    def audit(self, outputs) -> list:
        problems = []
        for t, text in zip(self.tasks, outputs):
            if text is not None:
                found = pb_checks.check_certificate(_plain(t.graph), text, t.chi, t.expect)
                problems += [f"{self.name}/{t.name}: {p}" for p in found]
        return problems


def _run_calls(calls, reps: int, now):
    """Run each (key, argv, expected exit code) CLI call ``reps`` times.
    Returns ({key: every exit was as expected}, {key: [seconds per run]})."""
    ok = {key: True for key, _, _ in calls}
    times = {key: [] for key, _, _ in calls}
    for _ in range(reps):
        for key, argv, code in calls:
            start = now()
            ok[key] = _cli(argv) == code and ok[key]
            times[key].append(now() - start)
    return ok, times


# ---------------------------------------------------------------------------
# rope workload
# ---------------------------------------------------------------------------


def layered_graph() -> Graph:
    """The 1456-vertex odd-girth-11 layered graph of the rope tests.

    A root feeds private length-5 paths into a gadget: hub w with private
    length-5 spokes to H = {a1, a2, q2, K}, where K is q2 plus 11 length-5
    spokes down to an 11-ring.
    """
    a1, a2, q2 = ("h", 0), ("h", 1), ("h", 2)
    ring = [("r", i) for i in range(11)]
    h_edges = [(a1, a2), (a1, q2)]
    for i in range(11):
        spoke = [q2] + [("k", i, j) for j in range(1, 5)] + [ring[i]]
        h_edges += list(zip(spoke, spoke[1:]))
        h_edges.append((ring[i], ring[(i + 1) % 11]))
    h_order = [a1, a2, q2] + [("k", i, j) for j in range(1, 5) for i in range(11)] + ring
    w = ("w",)
    gadget = [w] + h_order
    edges = list(h_edges)
    for k, hv in enumerate(h_order):
        spoke = [w] + [("s", k, j) for j in range(1, 5)] + [hv]
        gadget += spoke[1:-1]
        edges += list(zip(spoke, spoke[1:]))
    root = 0
    vertices = [root]
    for pv, cv in enumerate(gadget):
        feed = [root] + [("x", pv, j) for j in range(1, 4)] + [("p", pv), cv]
        vertices += feed[1:-1]
        edges += list(zip(feed, feed[1:]))
    return Graph(vertices + gadget, edges)


# (odd, even) path lengths; every pair has the same total length, so a seed
# changes the ropes but not the size of the check
ROPE_LENGTHS = ((7, 10), (9, 8))
GENERATED_R = (6, 8, 10)


class RopeWorkload:
    """Produce: `find_rope` on the layered graph.  Check: `tperfect rope
    verify` on the found rope, on generated ropes (accepted) and on copies of
    their hosts with one chord added (rejected).  Each of these calls is one
    operation."""

    name = "rope"

    def __init__(self, check_reps: int):
        self.check_reps = check_reps

    def setup(self, seed: int, outdir: Path) -> None:
        rng = random.Random(seed)
        self.outdir = outdir
        shutil.rmtree(outdir, ignore_errors=True)
        self.graph = layered_graph()
        _write(outdir / "layered.json", graphio.to_json_graph(self.graph))
        # (graph file, rope file, expected exit, plain graph, rope json)
        self.cases = []
        for r in GENERATED_R:
            odd, even = rng.choice(ROPE_LENGTHS)
            host, rope = ropes.generate_rope(r, odd, even)
            text = rope.to_json()
            _write(outdir / f"gen{r}.json", graphio.to_json_graph(host))
            rope_path = outdir / f"gen{r}.rope.json"
            _write(rope_path, text)
            self.cases.append((outdir / f"gen{r}.json", rope_path, 0, _plain(host), text))
            # a chord across two steps of one constituent path
            i, which = rng.randrange(r), rng.randrange(2)
            path = rope.paths[i][which]
            j = rng.randrange(len(path) - 2)
            bad = Graph(host.vertices, list(host.edges()) + [(path[j], path[j + 2])])
            _write(outdir / f"chord{r}.json", graphio.to_json_graph(bad))
            self.cases.append((outdir / f"chord{r}.json", rope_path, 1, _plain(bad), text))

    def produce(self, now=perf_counter):
        g = self.graph
        start = now()
        try:
            text = ropes.find_rope(g, frozenset(g.vertices), 2, c=0).to_json()
        except TPerfectError:
            text = None
        return [text], {"find_rope": now() - start}

    def emit(self, outputs) -> None:
        if outputs[0] is not None:
            _write(self.outdir / "found.rope.json", outputs[0])

    def check(self, outputs, now=perf_counter):
        """Verdicts for find_rope, the found rope's check and every other
        rope verify call, and the seconds of each call."""
        calls = [(gp.name, ["rope", "verify", str(gp), str(rp)], code) for gp, rp, code, _, _ in self.cases]
        if outputs[0] is not None:
            found = [str(self.outdir / "layered.json"), str(self.outdir / "found.rope.json")]
            calls.append(("found", ["rope", "verify", *found], 0))
        ok, times = _run_calls(calls, self.check_reps, now)
        verdicts = [outputs[0] is not None, ok.get("found", False)]
        return verdicts + [ok[gp.name] for gp, _, _, _, _ in self.cases], times

    def audit(self, outputs) -> list:
        problems = []
        if outputs[0] is not None:
            problems += [f"rope/found: {p}" for p in pb_checks.check_rope(_plain(self.graph), outputs[0])]
        for gp, _, code, plain, text in self.cases:
            found = pb_checks.check_rope(plain, text)
            if (code == 0) != (not found):
                problems.append(f"rope/{gp.name}: independent check {found} disagrees with exit {code}")
        return problems


def make(name: str):
    """The workload called ``name``.  The check pass is repeated a fixed
    number of times per round where one pass is short, so that every check
    call has several timings."""
    if name == "polytope":
        return CertifyWorkload("polytope", polytope_tasks, check_reps=1)
    if name == "reduction":
        return CertifyWorkload("reduction", reduction_tasks, check_reps=20)
    if name == "rope":
        return RopeWorkload(check_reps=5)
    raise ValueError(f"unknown workload {name!r}")

