"""Print what ``ropes.find_rope`` costs in colourings and CPU time.

    python3 tools/rope_cost.py

It runs ``find_rope(g, V(g), r, c=0)`` in one fresh Python process per
input: the layered fixture of the rope tests at r = 2, and the host of
``generate_rope_shell(r, 7, 8)`` for r = 2..7.  For each it prints one
line: the input, the rope (the first 12 hex digits of the sha256 of its
JSON), the number of ``chi_exact`` calls the first run makes, the number
of distinct graphs among them, and the median CPU milliseconds of five
further runs.  The library is imported from this checkout's ``src``, so
running the script in two checkouts compares them; CPU times vary from run
to run, so compare several runs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("layered-2", *(f"shell-{r}" for r in range(2, 8)))

# one input in a fresh process; prints "rope calls distinct cpu_ms"
CHILD = """
import hashlib, statistics, sys, time
sys.path[:0] = sys.argv[1:3]
from tperfect import ropes

kind, r = sys.argv[3].split("-")
r = int(r)
if kind == "layered":
    from conftest import layered_instance
    g = layered_instance()[0]
else:
    g = ropes.generate_rope_shell(r, 7, 8)[0]
seen = []
real = ropes.chi_exact
ropes.chi_exact = lambda h: seen.append(h) or real(h)
text = ropes.find_rope(g, frozenset(g.vertices), r, c=0).to_json()
ropes.chi_exact = real
times = []
for _ in range(5):
    start = time.process_time()
    ropes.find_rope(g, frozenset(g.vertices), r, c=0)
    times.append(time.process_time() - start)
digest = hashlib.sha256(text.encode()).hexdigest()[:12]
print(f"{digest} {len(seen)} {len(set(seen))} {1000 * statistics.median(times):.1f}")
"""


def main() -> None:
    print("input rope chi_exact_calls distinct_graphs cpu_ms")
    for name in INPUTS:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "tests"), name],
            capture_output=True, text=True, check=True,
        ).stdout
        print(f"{name} {out.strip()}", flush=True)


if __name__ == "__main__":
    main()
