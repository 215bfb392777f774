import hashlib
import math
from fractions import Fraction

import pytest

from tperfect.errors import PreconditionError, VerificationError
from tperfect.colouring import (
    Certificate,
    Colouring,
    FractionalColouring,
    certify,
    chi_exact,
    chi_fractional,
    clique_number,
    fractional_bound_check,
    hbar_colour,
    reduce_odd_girth,
    verify_colouring,
    verify_fractional_colouring,
)
from tperfect.corpus import cycle, complete, fig1a, join, make, wheel
from tperfect.graphs import odd_girth

F = Fraction


def test_chi_exact_values():
    assert chi_exact(cycle(5))[0] == 3
    assert chi_exact(complete(4))[0] == 4
    assert chi_exact(fig1a())[0] == 4
    assert chi_exact(make("petersen"))[0] == 3
    assert chi_exact(make("grotzsch"))[0] == 4


def test_chi_exact_witness_is_proper():
    for name in ("C7", "K4", "petersen", "fig1b"):
        g = make(name)
        k, col = chi_exact(g)
        assert col.num_colours == k
        assert verify_colouring(g, col)


def test_verify_colouring_rejects_improper():
    g = cycle(5)
    bad = Colouring({v: 0 for v in g.vertices}, 1)
    with pytest.raises(VerificationError, match="monochromatic"):
        verify_colouring(g, bad)
    gap = Colouring({0: 0, 1: 1, 2: 0, 3: 1}, 2)
    with pytest.raises(VerificationError, match="does not cover"):
        verify_colouring(g, gap)
    skipped = Colouring({0: 0, 1: 1, 2: 0, 3: 1, 4: 3}, 3)
    with pytest.raises(VerificationError, match="not contiguous"):
        verify_colouring(g, skipped)


def test_verify_fractional_colouring_rejects_tampering():
    g = cycle(5)
    half = F(1, 2)
    pairs = [frozenset({i, (i + 2) % 5}) for i in range(5)]
    assert verify_fractional_colouring(g, FractionalColouring(tuple((s, half) for s in pairs)))
    edge = FractionalColouring(((frozenset({0, 1}), F(1)),) + tuple((s, half) for s in pairs))
    with pytest.raises(VerificationError, match="non-stable"):
        verify_fractional_colouring(g, edge)
    short = FractionalColouring(tuple((s, half) for s in pairs[:4]))
    with pytest.raises(VerificationError, match="not fractionally covered"):
        verify_fractional_colouring(g, short)
    zero = FractionalColouring(((frozenset({0}), F(0)),) + tuple((s, half) for s in pairs))
    with pytest.raises(VerificationError, match="non-positive weight"):
        verify_fractional_colouring(g, zero)


def test_chi_fractional_values():
    assert chi_fractional(cycle(7))[0] == F(7, 3)
    assert chi_fractional(complete(4))[0] == 4
    assert chi_fractional(make("petersen"))[0] == F(5, 2)
    value, fc = chi_fractional(cycle(5))
    assert value == F(5, 2)
    assert verify_fractional_colouring(cycle(5), fc)
    assert fc.total == value


def test_fractional_below_integral():
    for name in ("C5", "C7", "K4", "petersen", "fig1a"):
        g = make(name)
        assert chi_fractional(g)[0] <= chi_exact(g)[0]


def test_fractional_bound_check():
    assert fractional_bound_check(cycle(5), 2)
    assert fractional_bound_check(cycle(9), 3)
    assert fractional_bound_check(cycle(6), 2)
    with pytest.raises(PreconditionError):
        fractional_bound_check(complete(4), 1)  # not t-perfect


def test_reduce_odd_girth_on_cycles():
    s = reduce_odd_girth(cycle(5), 2)
    assert len(s) == 2
    assert odd_girth(cycle(5).delete_vertices(s)) is math.inf
    s6 = reduce_odd_girth(cycle(6), 2)
    assert len(s6) == 3


def test_reduce_odd_girth_fig1a():
    g = fig1a()
    s = reduce_odd_girth(g, 1)
    assert 3 * len(s) >= g.n
    assert odd_girth(g.delete_vertices(s)) >= 5


def test_reduce_odd_girth_preconditions():
    with pytest.raises(PreconditionError):
        reduce_odd_girth(cycle(5), 0)
    with pytest.raises(PreconditionError):
        reduce_odd_girth(cycle(3), 2)  # odd girth below 2*ell+1


def test_certify_colouring_branch():
    g = make("fig1b")
    cert = certify(g)
    assert cert.kind == "colouring"
    assert verify_colouring(g, cert.colouring)
    assert cert.colouring.num_colours <= 8


def test_certify_witness_branch():
    for name in ("K4", "W5", "W7"):
        cert = certify(make(name))
        assert cert.kind == "witness"
    k4 = certify(complete(4))
    assert k4.witness.point == tuple(F(1, 3) for _ in range(4))


def test_failed_reduction_within_the_cap_asks_the_oracle_once(monkeypatch):
    # within the polytope cap certify has already run the oracle, which
    # accepted the graph; a failed reduction after that is an internal
    # contradiction, reported without a second oracle run
    import tperfect.colouring as colouring

    calls = []
    oracle = colouring.is_t_perfect

    def counted(g):
        calls.append(g)
        return oracle(g)

    def failing(g, ell):
        raise VerificationError("reduction set too small", detail={"ell": ell})

    monkeypatch.setattr(colouring, "is_t_perfect", counted)
    monkeypatch.setattr(colouring, "reduce_odd_girth", failing)
    with pytest.raises(VerificationError, match="oracle accepts") as failure:
        certify(cycle(7))
    assert len(calls) == 1
    assert failure.value.detail == {"reduction_failure": {"ell": 1}}


def test_certificate_json_kinds():
    import json

    for name in ("C5", "K4"):
        data = json.loads(certify(make(name)).to_json())
        assert data["kind"] in ("colouring", "witness")
        assert "certificate" in data


def test_hbar_colour():
    col5 = hbar_colour(cycle(5))
    assert col5.num_colours == 3  # matches C(3, 2)
    colk4 = hbar_colour(complete(4))
    assert colk4.num_colours == 4
    g = join(cycle(5), cycle(5))
    col = hbar_colour(g)
    assert verify_colouring(g, col)
    assert col.num_colours <= 10  # C(5, 2) at clique number 4
    assert chi_exact(g)[0] == 6


def test_clique_number():
    assert clique_number(complete(5)) == 5
    assert clique_number(make("petersen")) == 2


def _chi_exact_batch(monkeypatch):
    """(name, graph) pairs: the corpus, fig1a and fig1b minus each vertex,
    every graph find_rope colours on the layered fixture, C511 and P512 (the
    last two at or next to the largest size chi_exact accepts, so its search
    recurses about 512 deep)."""
    import tperfect.ropes as ropes
    from conftest import layered_instance
    from tperfect.corpus import corpus_names
    from tperfect.graphs import Graph

    batch = [(name, make(name)) for name in corpus_names()]
    for name in ("fig1a", "fig1b"):
        g = make(name)
        batch += [(f"{name}-{v!r}", g.delete_vertices([v])) for v in g.vertices]
    seen = []
    real = ropes.chi_exact
    monkeypatch.setattr(ropes, "chi_exact", lambda h: seen.append(h) or real(h))
    g = layered_instance()[0]
    ropes.find_rope(g, frozenset(g.vertices), 2, c=0)
    batch += [(f"find_rope-{i}", h) for i, h in enumerate(seen)]
    batch.append(("C511", cycle(511)))
    batch.append(("P512", Graph(range(512), [(i, i + 1) for i in range(511)])))
    return batch


def test_chi_exact_colourings_pinned(monkeypatch):
    # sha256 of chi_exact(g)[1].to_json() over the batch above; each
    # colouring is the one recorded while chi_exact still ran a greedy
    # DSATUR before its branch and bound
    batch = _chi_exact_batch(monkeypatch)
    assert len(batch) == 27 + 9 + 10 + 19 + 2
    h = hashlib.sha256()
    for name, g in batch:
        h.update(f"{name} {chi_exact(g)[1].to_json()}\n".encode())
    assert h.hexdigest() == "a931b762c49291fdcc8f2ff2fdbb3138334e390a98b2ffa836373c591c49fd36"
