"""Print what the odd-wheel t-minor searches that exhaust their budget cost.

    python3 tools/search_cost.py

It runs one ``tminors.find_odd_wheel_tminor`` call at the default budget
per fresh Python process, on co-C7 and moebius8, each with a pendant path
of 6, 11, 23 and 43 vertices hung off its first vertex.  For each it
prints one line: the input, the witness (the first 12 hex digits of the
sha256 of its JSON) or ``None``, the CPU seconds of the call, and the
process's peak RSS in MB, import included.  The library is imported from
this checkout's ``src``, so running the script in two checkouts compares
them; CPU times of one call vary from run to run, so compare several runs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
BASES = ("co-C7", "moebius8")
LENGTHS = (6, 11, 23, 43)

# one search in a fresh process; prints "witness cpu_s peak_rss_mb"
CHILD = """
import hashlib, resource, sys, time
sys.path.insert(0, sys.argv[1])
from tperfect import corpus
from tperfect.graphs import Graph
from tperfect.tminors import find_odd_wheel_tminor

g = corpus.make(sys.argv[2])
new = list(range(g.n, g.n + int(sys.argv[3])))
g = Graph(list(g.vertices) + new, list(g.edges()) + list(zip([g.vertices[0]] + new, new)))
start = time.process_time()
w = find_odd_wheel_tminor(g)
cpu = time.process_time() - start
found = "None" if w is None else hashlib.sha256(w.to_json().encode()).hexdigest()[:12]
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{found} {cpu:.3f} {rss:.1f}")
"""


def main() -> None:
    print("input witness cpu_s peak_rss_mb")
    for base in BASES:
        for length in LENGTHS:
            out = subprocess.run(
                [sys.executable, "-c", CHILD, SRC, base, str(length)],
                capture_output=True, text=True, check=True,
            ).stdout
            print(f"{base}+{length} {out.strip()}", flush=True)


if __name__ == "__main__":
    main()
