"""Tests of the benchmark itself: seeded inputs, the independent checks and
the tracer.  Collected by the repository's pytest run; kept to a few
seconds."""

import json
import signal
import sys
import time

import pb_checks
import pb_clock
import pb_trace
import pb_workloads
from tperfect import corpus, ropes
from tperfect.colouring import certify
from tperfect.graphs import Graph
from tperfect.tminors import find_odd_wheel_tminor


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_inputs(tmp_path):
    for name in ("polytope", "reduction"):
        a, b, c = tmp_path / f"{name}-a", tmp_path / f"{name}-b", tmp_path / f"{name}-c"
        pb_workloads.make(name).setup(7, a)
        pb_workloads.make(name).setup(7, b)
        pb_workloads.make(name).setup(8, c)
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)


def test_rope_inputs_repeat(monkeypatch, tmp_path):
    # the generated ropes are the slow part of the set-up; smaller ones
    # exercise the same code
    monkeypatch.setattr(pb_workloads, "GENERATED_R", (3, 4))
    a, b = tmp_path / "a", tmp_path / "b"
    pb_workloads.make("rope").setup(3, a)
    pb_workloads.make("rope").setup(3, b)
    assert _files(a) == _files(b)
    assert len(_files(a)) == 1 + 3 * 2


def _plain(g):
    return pb_checks.nx_graph(g.vertices, g.edges())


def test_colouring_check_rejects_tampering():
    g = corpus.make("C7")
    text = certify(g).to_json()
    assert pb_checks.check_certificate(_plain(g), text, 3, "colouring") == []
    data = json.loads(text)
    assignment = data["certificate"]["assignment"]
    assignment["1"] = assignment["0"]
    assert pb_checks.check_certificate(_plain(g), json.dumps(data), 3, "colouring")
    del assignment["1"]
    assert pb_checks.check_certificate(_plain(g), json.dumps(data), 3, "colouring")
    # a correct colouring that is not what the status calls for
    assert pb_checks.check_certificate(_plain(g), text, 3, "witness")


def test_witness_check_rejects_tampering():
    g = corpus.make("W5")
    text = certify(g).to_json()
    assert pb_checks.check_certificate(_plain(g), text, 4, "witness") == []
    data = json.loads(text)
    point = data["certificate"]["point"]
    # raising one coordinate breaks a row; all-zero is integral; all-1/3 is
    # inside the relaxation but not a vertex of it
    for replace in ({"0": "1/1"}, {v: "0/1" for v in point}, {v: "1/3" for v in point}):
        bad = json.loads(text)
        bad["certificate"]["point"].update(replace)
        assert pb_checks.check_certificate(_plain(g), json.dumps(bad), 4, "witness")


def test_wheel_trace_check_rejects_tampering():
    g = pb_workloads._pendant(corpus.make("W5"), 2)
    cert = json.loads(find_odd_wheel_tminor(g).to_json())
    assert pb_checks.check_wheel_witness(_plain(g), cert) == []
    dropped = json.loads(json.dumps(cert))
    dropped["trace"]["steps"] = []
    assert pb_checks.check_wheel_witness(_plain(g), dropped)
    rehubbed = json.loads(json.dumps(cert))
    rehubbed["hub"], rehubbed["rim"][0] = cert["rim"][0], cert["hub"]
    assert pb_checks.check_wheel_witness(_plain(g), rehubbed)
    other = corpus.make("W7")
    assert pb_checks.check_wheel_witness(_plain(other), cert)


def test_rope_check_rejects_tampering():
    host, rope = ropes.generate_rope(3, 7, 8)
    text = rope.to_json()
    assert pb_checks.check_rope(_plain(host), text) == []
    p = rope.paths[1][0]
    chorded = _plain(host)
    chorded.add_edge(p[1], p[3])
    assert pb_checks.check_rope(chorded, text)
    swapped = json.loads(text)
    swapped["paths"][0].reverse()
    swapped["paths"][1] = swapped["paths"][2]
    assert pb_checks.check_rope(_plain(host), json.dumps(swapped))
    # a new vertex joined to two anchors leaves every cycle induced but puts
    # the anchors at distance 2
    q1, q2 = rope.anchors[:2]
    shortcut = Graph(list(host.vertices) + ["z"], list(host.edges()) + [(q1, "z"), ("z", q2)])
    assert pb_checks.check_rope(_plain(shortcut), text) == ["anchors ('q', 1) and ('q', 2) at distance 2 < 5"]


def _small_tasks(seed):
    return [
        pb_workloads.Task("C7", corpus.make("C7"), 3, "colouring"),
        pb_workloads.Task("W5", corpus.make("W5"), 4, "witness"),
        pb_workloads.Task("W17", corpus.make("W17"), 4, "witness"),
    ]


def _traced_names():
    return [
        (mod.__name__, attr)
        for mod in pb_trace._package_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, "traced_span")
        or any(hasattr(v, "traced_span") for v in getattr(value, "__dict__", {}).values())
    ]


def test_traced_run_matches_untraced_and_unwraps(tmp_path):
    workload = pb_workloads.CertifyWorkload("small", _small_tasks, check_reps=1)
    workload.setup(0, tmp_path / "certify")
    plain, _ = workload.produce()
    host, _, _ = ropes.generate_rope_shell(3, 7, 8)
    plain_rope = ropes.find_rope(host, frozenset(host.vertices), 3, c=0).to_json()
    imported = [("geometry", "solve_lp"), ("colouring", "solve_lp"), ("graphs", "odd_girth"),
                ("colouring", "odd_girth"), ("tminors", "odd_girth"), ("ropes", "odd_girth")]
    originals = {(mod, name): getattr(sys.modules[f"tperfect.{mod}"], name) for mod, name in imported}
    init = Graph.__init__

    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        assert _traced_names()
        assert all(hasattr(getattr(sys.modules[f"tperfect.{m}"], n), "traced_span") for m, n in imported)
        traced, _ = workload.produce()
        workload.emit(traced)
        verdicts, _ = workload.check(traced)
        assert verdicts == [True] * 3
        traced_rope = ropes.find_rope(host, frozenset(host.vertices), 3, c=0).to_json()
    finally:
        tracer.remove()

    assert traced == plain
    assert traced_rope == plain_rope
    assert workload.audit(traced) == []
    assert _traced_names() == []
    assert all(getattr(sys.modules[f"tperfect.{m}"], n) is fn for (m, n), fn in originals.items())
    assert Graph.__init__ is init
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in pb_trace.METRICS}
    assert metrics["trace.overhead_s"] > 0
    assert metrics["polytopes.is_t_perfect.calls"] == 2
    assert metrics["ropes.find_rope.s"] > 0
    assert metrics["cli.verify.calls"] == 3


def test_setup_tracer_wraps_only_corpus_make():
    make = corpus.make
    with pb_trace.Tracer({"corpus.make": pb_trace.TARGETS["corpus.make"]}) as tracer:
        certify(corpus.make("C7"))
    assert [span[0] for span in tracer.spans] == ["corpus.make"]
    assert corpus.make is make


def test_clock_samples_during_work_and_rescales(monkeypatch):
    before = signal.getsignal(signal.SIGALRM)
    with pb_clock.Clock(interval=0.01) as clock:
        start, wall = clock.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.2:
            pass
        measured = clock.now() - start
    assert len(clock.samples) >= 5
    assert measured > 0
    assert signal.getsignal(signal.SIGALRM) is before
    # a reference that reads twice its nominal time halves every duration
    monkeypatch.setattr(pb_clock, "reference", lambda: 2 * pb_clock.NOMINAL_S)
    with pb_clock.Clock(interval=0.01) as clock:
        start, wall = clock.now(), time.perf_counter()
        time.sleep(0.2)
        measured, wall = clock.now() - start, time.perf_counter() - wall
    assert len(clock.samples) >= 5
    assert 0.45 * wall < measured < 0.55 * wall
    assert clock.scale() == 0.5
