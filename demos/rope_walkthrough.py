"""Fabricate an arithmetic rope, audit it, break it with a chord, then
recover a rope from a host graph with find_rope."""

from tperfect.errors import VerificationError
from tperfect.graphs import Graph
from tperfect.ropes import (
    find_rope,
    generate_rope,
    generate_rope_shell,
    verify_rope,
)

g, rope = generate_rope(3, 7, 8)
print(f"generated a {rope.r}-rope on {g.n} vertices, anchors {rope.anchors}")
verify_rope(g, rope)
print("all choice-vector audits passed")

path = rope.paths[0][0]
bad = Graph(g.vertices, list(g.edges()) + [(path[1], path[4])])
try:
    verify_rope(bad, rope)
except VerificationError as e:
    print(f"chord mutation rejected: {e}")

host, _, _ = generate_rope_shell(3, 7, 8)
recovered = find_rope(host, frozenset(host.vertices), 3, c=0)
verify_rope(host, recovered)
print(f"recovered a verified rope from the {host.n}-vertex host")
