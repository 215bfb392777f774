"""Run one workload of the tperfect benchmark and print its metrics.

    python3 perfbench/run.py --workload polytope --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  An untraced run (--trace 0) sets the inputs up three
times, then repeats whole rounds of the workload while another round fits
in --seconds, and reports the end-to-end metrics: run_s and verify_s sum
each operation's median time over the rounds, setup_s is the import time
plus the median set-up; all three are rescaled to the reference speed of
pb_clock.  peak_rss_mb is the process peak.  A traced run (--trace 1) sets
up once and runs one traced round, whatever --seconds says, so that its
counts repeat exactly, and reports the per-layer metrics.  The last line of
standard output is one JSON object.
"""

import os
import sys
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import pb_clock  # noqa: E402
import pb_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("polytope", "reduction", "rope"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import tperfect from this checkout's src, and nothing else."""
    src = ROOT / "src"
    if not (src / "tperfect" / "__init__.py").is_file():
        sys.exit(f"run.py: no tperfect sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    warnings.filterwarnings("ignore", category=UserWarning, module="networkx")
    import tperfect

    if Path(tperfect.__file__).resolve().parent != src / "tperfect":
        sys.exit(f"run.py: tperfect imported from {tperfect.__file__}, not from {src}")
    import pb_workloads

    return pb_workloads


def run_round(workload, now):
    """One round: produce, write the certificates, check, timing each call
    by the clock ``now``.  Returns (outputs, verdicts, produce seconds per
    operation, check seconds per call and pass)."""
    outputs, produce_times = workload.produce(now)
    workload.emit(outputs)
    verdicts, check_times = workload.check(outputs, now)
    return outputs, verdicts, produce_times, check_times


def traced_run(workload, seed, outdir):
    """Set up with only `corpus.make` traced, so that set-up work is charged
    to ``corpus.make.s`` alone, then run one round with every target traced.
    Returns the round and both tracers."""
    with pb_trace.Tracer({"corpus.make": pb_trace.TARGETS["corpus.make"]}) as setup_tracer:
        workload.setup(seed, outdir)
    with pb_trace.Tracer() as tracer:
        traced_round = run_round(workload, time.perf_counter)
    return [traced_round], setup_tracer, tracer


def median_total(samples) -> float:
    """Sum over operations of the median of each operation's timings.  The
    machine's speed drifts by tens of percent over seconds; a per-operation
    median over rounds spread across the run is steadier than any one
    round's total."""
    by_key = {}
    for sample in samples:
        for key, seconds in sample.items():
            by_key.setdefault(key, []).extend(seconds if isinstance(seconds, list) else [seconds])
    return sum(statistics.median(v) for v in by_key.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    pb_workloads = import_library()
    import_s = time.perf_counter() - START
    workload = pb_workloads.make(args.workload)
    outdir = OUT / args.workload
    if args.trace:
        rounds, setup_tracer, tracer = traced_run(workload, args.seed, outdir)
    else:
        with pb_clock.Clock() as clock:
            setup_times = []
            for _ in range(SETUPS):
                t = clock.now()
                workload.setup(args.seed, outdir)
                setup_times.append(clock.now() - t)
            # whole rounds, as many as fit in --seconds (at least one)
            rounds = []
            t_start = time.perf_counter()
            while True:
                rounds.append(run_round(workload, clock.now))
                elapsed = time.perf_counter() - t_start
                if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break

    attempted = sum(len(verdicts) for _, verdicts, _, _ in rounds)
    failed = sum(not v for _, verdicts, _, _ in rounds for v in verdicts)
    problems = []
    audited = set()
    for outputs, _, _, _ in rounds:
        key = tuple(outputs)
        if key not in audited:
            audited.add(key)
            problems += workload.audit(outputs)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        per_layer = tracer.metrics()
        per_layer["corpus.make.s"] = sum(end - start for _, start, end, parent in setup_tracer.spans if parent < 0)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "metrics": per_layer, "setup_spans": setup_tracer.spans},
        )
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in pb_trace.METRICS}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = {
            "run_s": median_total(r[2] for r in rounds),
            "verify_s": median_total(r[3] for r in rounds),
            # the imports ran before the clock started; they count at the
            # run's median speed
            "setup_s": import_s * clock.scale() + statistics.median(setup_times),
        }
        metrics = {name: {"value": s, "unit": "s"} for name, s in times.items()}
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
        print(f"rounds: {len(rounds)}, reference samples: {len(clock.samples)}, "
              f"median scale: {clock.scale():.4f}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    # Set iteration order over string labels follows the hash seed; pin it so
    # that a seed always gives the same work and a traced run the same counts.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
