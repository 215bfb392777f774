"""Run two sets of untraced runs of this checkout and compare them.

    python3 perfbench/compare.py

For every workload in BENCHMARK.json, set A runs seeds 1..10 and set B seeds
101..110, alternating A, B, B, A, A, B, ... so that drift in the machine
falls on both sets alike.  For every end-to-end metric the table gives each
set's median, quartiles (statistics.quantiles, n=4) and spread
(interquartile range over median), the change of B's median against A's,
and the bound from BENCHMARK.json.  A row passes when B's median is within
the bound of A's, either way, and both spreads are within the bound; the
spread of setup_s is shown but not held to its bound, because set-up is a
fraction of a second and its spread from run to run follows the machine
more than the code.  A workload also passes only if every run failed the
same share of its operations.  Raw results go to perfbench/out/compare.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = i + 1 if name == "A" else i + 101
                res = run_once(workload, seed, bench["run_seconds"])
                sets[name].append({"seed": seed, **res})
                print(f"{workload} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
        results[workload] = sets

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "compare.json").write_text(json.dumps(results, indent=1))
    all_ok = True
    print(f"{'workload':10} {'metric':12} {'A median':>10} {'A q1..q3':>19} {'A spr':>6} "
          f"{'B median':>10} {'B q1..q3':>19} {'B spr':>6} {'B/A-1':>7} {'bound':>6}  verdict")
    for workload, sets in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in sets[k]]) for k in ("A", "B"))
            drift = b[0] / a[0] - 1
            ok = abs(drift) <= bound and (name == "setup_s" or max(a[3], b[3]) <= bound)
            all_ok &= ok
            print(f"{workload:10} {name:12} {a[0]:10.4f} {a[1]:9.4f}..{a[2]:8.4f} {a[3]:6.3f} "
                  f"{b[0]:10.4f} {b[1]:9.4f}..{b[2]:8.4f} {b[3]:6.3f} {drift:7.3f} "
                  f"{bound:6.2f}  {'ok' if ok else 'OUT OF BOUND'}")
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        print(f"{workload:10} failed share per set: {shares}")
        all_ok &= len(set().union(*shares.values())) == 1
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
