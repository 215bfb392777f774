"""Print a digest of what the odd-wheel t-minor search returns.

    python3 tools/search_outputs.py

It runs ``tminors.find_odd_wheel_tminor`` on every corpus graph with the
default budget; on the odd wheels W5-W13, co-C7 and moebius8, each with a
pendant path of 0-6 vertices hung off its first vertex, at budgets 0, 1,
50, 346 and 4000; and on 200 seeded random graphs on 6-14 vertices at
budget 300.  For each it prints one line: the graph, the budget, and the
sha256 of the witness JSON, or ``None`` when the search returns none.  The
library is imported from this checkout's ``src``, so two checkouts compare
by a ``diff`` of their outputs.  Run both under the same PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tperfect import corpus  # noqa: E402
from tperfect.graphs import Graph  # noqa: E402
from tperfect.tminors import find_odd_wheel_tminor  # noqa: E402

DEFAULT_BUDGET = 4000
PENDANT_BASES = ("W5", "W7", "W9", "W11", "W13", "co-C7", "moebius8")
PENDANT_BUDGETS = (0, 1, 50, 346, 4000)
RANDOM_GRAPHS = 200
RANDOM_BUDGET = 300
SEED = 2026


def pendant(g: Graph, length: int) -> Graph:
    """g with a path of ``length`` new vertices hanging off its first vertex."""
    new = list(range(g.n, g.n + length))
    return Graph(list(g.vertices) + new, list(g.edges()) + list(zip([g.vertices[0]] + new, new)))


def inputs():
    """(name, graph, budget): the corpus, the pendant graphs, then the
    seeded random graphs, each edge present with a probability drawn per
    graph."""
    for name in corpus.corpus_names():
        yield name, corpus.make(name), DEFAULT_BUDGET
    for name in PENDANT_BASES:
        for tail in range(7):
            g = pendant(corpus.make(name), tail)
            for budget in PENDANT_BUDGETS:
                yield f"{name}+{tail}", g, budget
    rng = random.Random(SEED)
    for k in range(RANDOM_GRAPHS):
        n = rng.randint(6, 14)
        p = rng.choice((0.2, 0.3, 0.4))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield f"random{k}-n{n}", Graph(range(n), edges), RANDOM_BUDGET


def main() -> int:
    for name, g, budget in inputs():
        w = find_odd_wheel_tminor(g, budget)
        out = "None" if w is None else hashlib.sha256(w.to_json().encode()).hexdigest()
        print(name, budget, out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
