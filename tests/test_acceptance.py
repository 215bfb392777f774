"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict to the live terminal (bypassing capture)
and then asserts, so a failed criterion both prints FAIL and fails the test.
"""

import math
import random
import time
from fractions import Fraction

import networkx as nx

from tperfect.colouring import (
    certify,
    chi_exact,
    chi_fractional,
    fractional_bound_check,
    hbar_colour,
    reduce_odd_girth,
    verify_colouring,
)
from tperfect.corpus import MANIFEST, cycle, join, make
from tperfect.errors import VerificationError
from tperfect.graphs import Graph, is_stable, odd_girth
from tperfect.colouring import clique_number
from tperfect.polytopes import is_h_perfect, is_hbar_perfect, is_t_perfect
from tperfect.ropes import (
    ODD_GIRTH11_COLOUR_BOUND,
    TPERFECT_COLOUR_BOUND,
    TRIANGLE_FREE_COLOUR_BOUND,
    StableGrading,
    broken_rope_threshold,
    earlier_witness,
    earlier_witness_tf,
    find_rope,
    finder_threshold,
    generate_rope,
    generate_rope_shell,
    hperfect_colour_bound,
    induction_threshold,
    verify_rope,
)
from tperfect.tminors import (
    connected_bipartite_containing,
    extract_wheel_from_hub,
    is_odd_wheel,
    verify_odd_wheel_witness,
)

from conftest import from_nx, random_graph


def report(capsys, number, failures, elapsed, limit):
    ok = not failures and elapsed < limit
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if failures:
        line += " " + "; ".join(str(f) for f in failures[:3])
    with capsys.disabled():
        print(line)
    assert ok, failures or f"over time limit {limit}s"


def test_criterion_01_polytope_oracles(capsys):
    t0 = time.time()
    failures = []
    t_expect = {
        "K4": False, "W3": False, "W5": False, "W7": False,
        "C3": True, "C5": True, "C7": True, "C9": True, "C11": True,
        "C6": True, "C8": True, "fig1a": True, "fig1b": True,
    }
    for name, expect in t_expect.items():
        if is_t_perfect(make(name))[0] != expect:
            failures.append(f"t-perfection of {name}")
    for name, expect in {"co-C7": False, "K4": True}.items():
        if is_h_perfect(make(name))[0] != expect:
            failures.append(f"h-perfection of {name}")
    for name, expect in {"C5": True, "joinC5C5": True, "C7": False}.items():
        if is_hbar_perfect(make(name))[0] != expect:
            failures.append(f"hbar-perfection of {name}")
    report(capsys, 1, failures, time.time() - t0, 10 * len(t_expect))


def test_criterion_02_four_critical_fixtures(capsys):
    t0 = time.time()
    failures = []
    for name in ("fig1a", "fig1b"):
        g = make(name)
        if chi_exact(g)[0] != 4:
            failures.append(f"chi({name}) != 4")
        for v in sorted(g.vertices):
            if chi_exact(g.delete_vertices([v]))[0] != 3:
                failures.append(f"{name} - {v} not 3-colourable")
    report(capsys, 2, failures, time.time() - t0, 5)


def _admissible_ells(g):
    og = odd_girth(g)
    top = 6 if og is math.inf else (og - 1) // 2
    return range(1, min(top, 6) + 1)


def test_criterion_03_fractional_chromatic(capsys):
    t0 = time.time()
    failures = []
    for ell in range(1, 7):
        value = chi_fractional(cycle(2 * ell + 1))[0]
        if value != 2 + Fraction(1, ell):
            failures.append(f"chi*(C{2 * ell + 1}) = {value}")
    for entry in MANIFEST:
        if not entry.get("t_perfect", (False,))[0]:
            continue
        g = make(entry["name"])
        for ell in _admissible_ells(g):
            if not fractional_bound_check(g, ell):
                failures.append(f"bound check {entry['name']} ell={ell}")
    report(capsys, 3, failures, time.time() - t0, 10)


def test_criterion_04_odd_girth_reduction_contract(capsys):
    t0 = time.time()
    failures = []
    calls = 0
    for entry in MANIFEST:
        if not entry.get("t_perfect", (False,))[0]:
            continue
        g = make(entry["name"])
        for ell in _admissible_ells(g):
            try:
                s = reduce_odd_girth(g, ell)
            except VerificationError as e:
                failures.append(f"{entry['name']} ell={ell}: {e}")
                continue
            calls += 1
            if not is_stable(g, s):
                failures.append(f"{entry['name']} ell={ell}: not stable")
            if Fraction(len(s)) < Fraction(ell * g.n, 2 * ell + 1):
                failures.append(f"{entry['name']} ell={ell}: too small")
            if odd_girth(g.delete_vertices(s)) < 2 * ell + 3:
                failures.append(f"{entry['name']} ell={ell}: odd girth too low")
    if calls == 0:
        failures.append("no reduction calls exercised")
    report(capsys, 4, failures, time.time() - t0, 30)


def test_criterion_05_odd_wheel_extraction(capsys):
    t0 = time.time()
    failures = []
    rng = random.Random(2026)
    for i in range(100):
        n = rng.choice([5, 7, 9, 11, 13, 15])
        a = rng.randrange(1, n - 2, 2)
        b = rng.randrange(1, n - a - 1, 2)
        edges = [(j, (j + 1) % n) for j in range(n)]
        edges += [(0, "v"), (a, "v"), (a + b, "v")]
        g = Graph(list(range(n)) + ["v"], edges)
        try:
            w = extract_wheel_from_hub(g, list(range(n)), "v")
            verify_odd_wheel_witness(w)
            if is_odd_wheel(w.trace.result) is None:
                failures.append(f"instance {i}: result not an odd wheel")
        except Exception as e:
            failures.append(f"instance {i}: {e}")
            continue
        if g.n <= 12 and is_t_perfect(g)[0]:
            failures.append(f"instance {i}: base graph t-perfect")
    report(capsys, 5, failures, time.time() - t0, 60)


def test_criterion_06_bipartite_containment_contract(capsys):
    t0 = time.time()
    failures = []
    rng = random.Random(77)
    done = 0
    while done < 200:
        g_param = rng.randint(2, 4)
        if rng.random() < 0.5:
            host = cycle(2 * g_param + 1 + 2 * rng.randint(0, 4))
        else:
            host = from_nx(
                nx.random_labeled_tree(rng.randint(6, 14), seed=rng.randint(0, 10**6))
            )
        size = rng.randint(1, min(2 * g_param, host.n // 2))
        s = set()
        verts = sorted(host.vertices)
        rng.shuffle(verts)
        for v in verts:
            if len(s) == size:
                break
            if not (host.neighbours(v) & s):
                s.add(v)
        s = frozenset(s)
        try:
            h = connected_bipartite_containing(host, s, g_param)
        except Exception as e:
            failures.append(f"instance {done}: {e}")
            done += 1
            continue
        sub = host.induced_subgraph(h)
        if not (s <= h and sub.is_connected() and sub.bipartition() is not None):
            failures.append(f"instance {done}: output shape")
        for v in h - s:
            smaller = host.induced_subgraph(h - {v})
            if smaller.is_connected() and s <= set(smaller.vertices):
                failures.append(f"instance {done}: not minimal at {v}")
                break
        done += 1
    report(capsys, 6, failures, time.time() - t0, 60)


def test_criterion_07_rope_suite(capsys):
    t0 = time.time()
    failures = []
    g, rope = generate_rope(5, 7, 8)
    try:
        verify_rope(g, rope)
    except VerificationError as e:
        failures.append(f"generator rope rejected: {e}")
    rng = random.Random(404)
    for i in range(50):
        pi = rng.randrange(rope.r)
        which = rng.randrange(2)
        path = rope.paths[pi][which]
        a = rng.randrange(1, len(path) - 3)
        b = rng.randrange(a + 2, len(path) - 1)
        bad = Graph(g.vertices, list(g.edges()) + [(path[a], path[b])])
        try:
            verify_rope(bad, rope)
            failures.append(f"mutation {i} accepted")
        except VerificationError:
            pass
    host, _, _ = generate_rope_shell(5, 7, 8)
    try:
        recovered = find_rope(host, frozenset(host.vertices), 5, c=0)
        verify_rope(host, recovered)
    except VerificationError as e:
        failures.append(f"shell recovery failed: {e}")
    report(capsys, 7, failures, time.time() - t0, 60)


def test_criterion_08_grading_witnesses(capsys):
    t0 = time.time()
    failures = []
    rng = random.Random(31415)
    done = 0
    while done < 600:
        n = rng.randint(4, 14)
        g = random_graph(rng, n, rng.uniform(0.25, 0.55))
        k, col = chi_exact(g)
        if k < 3:
            continue
        c = rng.randint(1, k - 2)
        grading = StableGrading(parts=tuple(frozenset(cl) for cl in col.classes()))
        try:
            earlier_witness(g, grading, c)
        except VerificationError as e:
            failures.append(f"earlier_witness trial {done}: {e}")
        done += 1
    done = 0
    while done < 400:
        base_n = rng.randint(3, 6)
        base = random_graph(rng, base_n, 0.5)
        sides = base.bipartition()
        if sides is None or base.m == 0:
            continue
        vertices = [(0, v) for v in base.vertices] + [(1, v) for v in base.vertices]
        edges = [((0, u), (0, v)) for u, v in base.edges()]
        edges += [((1, u), (0, v)) for u, v in base.edges()]
        edges += [((1, v), (0, u)) for u, v in base.edges()]
        apex = (2,)
        g = Graph(vertices + [apex], edges + [((1, v), apex) for v in base.vertices])
        k, col = chi_exact(g)
        if k < 3:
            continue
        c = rng.randint(0, k - 3)
        grading = StableGrading(parts=tuple(frozenset(cl) for cl in col.classes()))
        try:
            earlier_witness_tf(g, grading, c)
        except VerificationError as e:
            failures.append(f"earlier_witness_tf trial {done}: {e}")
        done += 1
    report(capsys, 8, failures, time.time() - t0, 120)


def test_criterion_09_certification_dichotomy(capsys):
    t0 = time.time()
    failures = []
    for entry in MANIFEST:
        if "t_perfect" not in entry:
            continue
        name = entry["name"]
        g = make(name)
        cert = certify(g)
        if entry["t_perfect"][0]:
            if cert.kind != "colouring":
                failures.append(f"{name}: expected a colouring")
                continue
            verify_colouring(g, cert.colouring)
            if cert.colouring.num_colours > entry.get("chi", (g.n,))[0] + 4:
                failures.append(f"{name}: colour count over chi + 4")
        elif g.n <= 12:
            if cert.kind != "witness":
                failures.append(f"{name}: expected a witness")
    report(capsys, 9, failures, time.time() - t0, 120)


def test_criterion_10_hbar_colour_bound(capsys):
    t0 = time.time()
    failures = []
    for entry in MANIFEST:
        if not entry.get("hbar_perfect", (False,))[0]:
            continue
        g = make(entry["name"])
        omega = clique_number(g)
        col = hbar_colour(g)
        verify_colouring(g, col)
        if col.num_colours > omega * (omega + 1) // 2:
            failures.append(f"{entry['name']}: over the binomial bound")
    if hbar_colour(cycle(5)).num_colours != 3:
        failures.append("C5 not coloured with exactly 3")
    jg = join(cycle(5), cycle(5))
    if hbar_colour(jg).num_colours > 10:
        failures.append("join(C5,C5) over 10 colours")
    if chi_exact(jg)[0] != 6:
        failures.append("chi(join(C5,C5)) != 6")
    report(capsys, 10, failures, time.time() - t0, 30)


def test_criterion_11_threshold_arithmetic(capsys):
    t0 = time.time()
    failures = []
    for c in range(0, 10):
        if induction_threshold(c) != 6 * c + 17:
            failures.append(f"induction threshold at c={c}")
        if broken_rope_threshold(1, c) != induction_threshold(c):
            failures.append(f"depth-1 chain at c={c}")
        for r in range(1, 6):
            if broken_rope_threshold(r + 1, c) != 6 * broken_rope_threshold(r, c) + 17:
                failures.append(f"chain step r={r} c={c}")
    if broken_rope_threshold(5, 3) != 49763:
        failures.append("broken rope threshold at (5, 3)")
    if finder_threshold(5) != Fraction(99525):
        failures.append("finder threshold at r=5")
    if ODD_GIRTH11_COLOUR_BOUND != 2 * 99525 - 1:
        failures.append("odd-girth-11 colour bound")
    if TPERFECT_COLOUR_BOUND != 199049 + 4 or TPERFECT_COLOUR_BOUND != 199053:
        failures.append("headline t-perfect bound")
    if TRIANGLE_FREE_COLOUR_BOUND != 199052:
        failures.append("triangle-free bound")
    for omega in (3, 4, 10):
        if hperfect_colour_bound(omega) != omega + 199050:
            failures.append(f"clique-peeling bound at omega={omega}")
    report(capsys, 11, failures, time.time() - t0, 10)
