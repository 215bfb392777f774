"""Print a digest of what the double description returns on relaxations.

    python3 tools/dd_outputs.py

For every corpus graph with at most 12 vertices, and for 200 seeded random
graphs on 3 to 10 vertices, it runs ``geometry._dd_enumerate`` on the
integer rows of ``tstab`` and ``hstab`` and prints one line: the graph, the
relaxation, the sha256 of the repr of the output (the homogeneous points,
their tight-row masks and their order), and the sha256 of the repr of
``enumerate_vertices`` on the same polytope.  After those two lines it
prints a third per graph: the graph, the word ``enumerators``, the sha256 of
the repr of ``chordless_odd_cycles`` and that of ``maximal_stable_sets``,
each set written as its members sorted by ``label_key``, since a frozenset's
repr depends on the order it was built in.  The library is imported from
this checkout's ``src``, so two checkouts compare by a ``diff`` of their
outputs.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tperfect import corpus  # noqa: E402
from tperfect.geometry import _dd_enumerate, _row_to_int, enumerate_vertices  # noqa: E402
from tperfect.graphs import Graph, label_key  # noqa: E402
from tperfect.polytopes import chordless_odd_cycles, hstab, maximal_stable_sets, tstab  # noqa: E402

MAX_CORPUS_VERTICES = 12
RANDOM_GRAPHS = 200
SEED = 2026


def graphs():
    """(name, graph): the small corpus graphs, then the seeded random ones,
    each edge present with a probability drawn per graph."""
    for name in corpus.corpus_names():
        g = corpus.make(name)
        if g.n <= MAX_CORPUS_VERTICES:
            yield name, g
    rng = random.Random(SEED)
    for k in range(RANDOM_GRAPHS):
        n = rng.randint(3, 10)
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield f"random{k}-n{n}", Graph(range(n), edges)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def main() -> int:
    for name, g in graphs():
        for relaxation, build in (("tstab", tstab), ("hstab", hstab)):
            p = build(g)
            out = _dd_enumerate([_row_to_int(i) for i in p.inequalities], p.dim)
            print(name, relaxation, digest(out), digest(enumerate_vertices(p)))
        stables = [sorted(s, key=label_key) for s in maximal_stable_sets(g)]
        print(name, "enumerators", digest(chordless_odd_cycles(g)), digest(stables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
