"""Graph file formats (graph6, edge list, JSON adjacency), the one writer of
the JSON the library emits (``to_json`` and the ``JSONData`` base of every
certificate class), and the parser of every certificate and rope JSON.

Certificate JSON stores vertex labels as their Python reprs; parsing uses
``int`` on a plain decimal int and ast.literal_eval on anything else, which
covers every label kind the library produces (ints, strings, and nested
tuples of those).  Graph and rope JSON store labels as nested lists instead
(``encode_label``).
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction

from .errors import PreconditionError
from .graphs import Graph, label_key, neighbour_masks


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


def to_json(data) -> str:
    """JSON text as the library writes it: indented by two, keys sorted."""
    return json.dumps(data, indent=2, sort_keys=True)


class JSONData:
    """Base of the certificate classes: ``to_json()`` writes the JSON data
    that their ``to_data()`` returns."""

    def to_json(self) -> str:
        return to_json(self.to_data())


# ---------------------------------------------------------------------------
# graph formats
# ---------------------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """graph6 string without header; vertices are relabelled 0..n-1 in
    canonical label order.  graph6 is B. McKay's format
    (https://users.cecs.anu.edu.au/~bdm/data/formats.txt): each character
    is 63 plus a 6-bit value.  n takes one value when below 63, else "~"
    and three values, else "~~" and six; then come the bits of the upper
    triangle of the adjacency matrix, column by column, zero-padded to a
    multiple of six."""
    n = g.n
    width = 1 if n < 63 else 3 if n < 258048 else 6
    nb = neighbour_masks(g)
    bits = "".join(str(nb[j] >> i & 1) for j in range(1, n) for i in range(j))
    bits = f"{n:0{6 * width}b}" + bits + "0" * (-len(bits) % 6)
    chars = (chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))
    return "~" * (width // 3) + "".join(chars)


def from_graph6(text: str) -> Graph:
    """Parse graph6 with an optional ">>graph6<<" header.  Every character
    must lie in 63..126 ("?".."~"), and the body must be exactly as long as
    n(n-1)/2 bits need; both are checked before any pair is read."""
    text = text.strip()
    if not text:
        raise PreconditionError("empty graph6 input")
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    data = [ord(c) - 63 for c in text]
    if not all(0 <= d <= 63 for d in data):
        raise PreconditionError("malformed graph6 input: a character outside '?'..'~'")
    skip = 2 if data[:2] == [63, 63] else 1 if data[:1] == [63] else 0
    end = (1, 4, 8)[skip]  # the size prefix is data[:end], n is data[skip:end]
    if len(data) < end:
        raise PreconditionError("malformed graph6 input: the size prefix is cut short")
    bits = "".join(f"{d:06b}" for d in data)
    n = int(bits[6 * skip : 6 * end], 2)
    pairs = n * (n - 1) // 2
    if len(data) - end != (pairs + 5) // 6:
        raise PreconditionError(
            f"malformed graph6 input: expected {pairs} bits but got {6 * (len(data) - end)}"
        )
    upper = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(range(n), [pair for pair, b in zip(upper, bits[6 * end :]) if b == "1"])


def to_edge_list(g: Graph) -> str:
    """Header line "n m", then one "u v" line per edge, 0-based in canonical
    label order."""
    index = {v: i for i, v in enumerate(g.vertices)}
    lines = [f"{g.n} {g.m}"]
    lines += sorted(
        f"{min(index[u], index[v])} {max(index[u], index[v])}" for u, v in g.edges()
    )
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse "n m" header plus "u v" edge lines; blank lines and lines
    starting with # are ignored.  A negative n or m is rejected, and so is
    an edge listed twice, in either orientation, since it would defeat the
    header's count."""
    header = None
    edges = {}  # (min, max) endpoint pair -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise PreconditionError(f"line {lineno}: expected header 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise PreconditionError(f"line {lineno}: non-integer header") from None
            if min(header) < 0:
                raise PreconditionError(f"line {lineno}: negative count in header")
            continue
        if len(parts) != 2:
            raise PreconditionError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise PreconditionError(f"line {lineno}: non-integer endpoint") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise PreconditionError(f"line {lineno}: loop rejected")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise PreconditionError(
                f"line {lineno}: repeated edge {u} {v} (first on line {edges[edge]})"
            )
        edges[edge] = lineno
    if header is None:
        raise PreconditionError("missing 'n m' header line")
    if len(edges) != header[1]:
        raise PreconditionError(
            f"edge count mismatch: header says {header[1]}, found {len(edges)}"
        )
    return Graph(range(header[0]), edges)


def encode_label(v):
    """JSON-safe label encoding: tuples become lists, recursively."""
    if isinstance(v, tuple):
        return [encode_label(x) for x in v]
    return v


def decode_label(v):
    if isinstance(v, list):
        return tuple(decode_label(x) for x in v)
    if isinstance(v, dict):
        raise PreconditionError(f"a JSON object is not a vertex label: {v!r}")
    return v


def graph_data(g: Graph) -> dict:
    """{"adjacency": [[vertex, [neighbours]], ...]} in label order."""
    adjacency = [
        [encode_label(v), [encode_label(w) for w in sorted(g.neighbours(v), key=label_key)]]
        for v in g.vertices
    ]
    return {"adjacency": adjacency}


def to_json_graph(g: Graph) -> str:
    return to_json(graph_data(g))


def from_json_graph(text: str) -> Graph:
    """Parse {"adjacency": [[vertex, [neighbours]], ...]}.  Input nested too
    deeply for the JSON parser, decode_label or label_key raises
    PreconditionError."""
    try:
        return _from_json_graph(text)
    except RecursionError:
        raise PreconditionError("JSON graph nested too deeply") from None


def _from_json_graph(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"malformed JSON graph at offset {e.pos}: {e.msg}") from e
    if not isinstance(data, dict) or not isinstance(data.get("adjacency"), list):
        raise PreconditionError("JSON graph needs an 'adjacency' list")
    vertices = []
    edges = []
    for entry in data["adjacency"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
            raise PreconditionError(f"adjacency entry is not [vertex, [neighbours]]: {entry!r}")
        v = decode_label(entry[0])
        vertices.append(v)
        edges.extend((v, decode_label(w)) for w in entry[1])
    seen = set(vertices)
    for u, v in edges:
        if v not in seen:
            raise PreconditionError(f"adjacency references unknown vertex {v!r}")
    # Graph symmetrises one-sided entries and rejects loops
    return Graph(vertices, edges)


_FORMATS = {
    "graph6": (from_graph6, to_graph6),
    "edges": (from_edge_list, to_edge_list),
    "json": (from_json_graph, to_json_graph),
}


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt not in _FORMATS:
        raise PreconditionError(f"unknown graph format {fmt!r}")
    return _FORMATS[fmt][0](text)


def serialize_graph(g: Graph, fmt: str) -> str:
    if fmt not in _FORMATS:
        raise PreconditionError(f"unknown graph format {fmt!r}")
    return _FORMATS[fmt][1](g)


def guess_format(path: str) -> str:
    if path.endswith(".g6"):
        return "graph6"
    if path.endswith(".json"):
        return "json"
    return "edges"


# ---------------------------------------------------------------------------
# certificate and rope parsing
# ---------------------------------------------------------------------------


def parse_label(text: str):
    """The label whose repr is text.  A decimal int, the commonest label,
    skips the Python parser; any other text, "007" and "+5" included, gets
    ast.literal_eval's answer."""
    try:
        if re.fullmatch(r"-?(?:0|[1-9][0-9]*)", text):
            return int(text)
        return ast.literal_eval(text)
    # the parser reports nesting beyond its stack as MemoryError
    except (ValueError, SyntaxError, MemoryError, RecursionError) as e:
        raise PreconditionError(f"unparseable label {text!r}") from e


def _array(value, what: str) -> list:
    """value if it is a JSON array, else PreconditionError: the parsers
    iterate a certificate's lists, which would read a string or an object
    in their place as a list of its characters or keys."""
    if not isinstance(value, list):
        raise PreconditionError(f"certificate {what} must be a JSON array")
    return value


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def parse_colouring(data: dict):
    from .colouring import Colouring

    assignment = {parse_label(k): v for k, v in data["assignment"].items()}
    if not all(type(c) is int for c in [data["num_colours"], *assignment.values()]):
        raise PreconditionError("colour counts and colours must be JSON integers")
    return Colouring(assignment=assignment, num_colours=data["num_colours"])


def parse_fractional_colouring(data: dict):
    from .colouring import FractionalColouring

    weights = tuple(
        (
            frozenset(parse_label(v) for v in _array(entry["vertices"], "set vertices")),
            _parse_fraction(entry["weight"]),
        )
        for entry in _array(data["sets"], "sets")
    )
    return FractionalColouring(weights=weights)


def parse_witness(data: dict):
    from .geometry import qvec
    from .polytopes import ImperfectionWitness

    order = tuple(parse_label(v) for v in _array(data["order"], "order"))
    point = qvec(_parse_fraction(data["point"][repr(v)]) for v in order)
    extra = set(data["point"]).difference(map(repr, order))
    if extra:
        raise PreconditionError(f"witness point names {min(extra)!r}, which is not in its order")
    tight = tuple(
        (entry["tag"], tuple(parse_label(s) for s in _array(entry["source"], "source")))
        for entry in _array(data["tight"], "tight")
    )
    return ImperfectionWitness(
        relaxation=data["relaxation"], order=order, point=point, tight_tags=tight
    )


def _parse_trace_graph(data: dict) -> Graph:
    vertices = [parse_label(v) for v in _array(data["vertices"], "vertices")]
    edges = [
        (parse_label(u), parse_label(v))
        for u, v in (_array(e, "edge") for e in _array(data["edges"], "edges"))
    ]
    return Graph(vertices, edges)


def parse_trace(data: dict):
    from .tminors import TMinorStep, TMinorTrace

    return TMinorTrace(
        base=_parse_trace_graph(data["base"]),
        steps=tuple(
            TMinorStep(kind=s["kind"], vertex=parse_label(s["vertex"]))
            for s in _array(data["steps"], "steps")
        ),
        result=_parse_trace_graph(data["result"]),
        contraction_map={
            parse_label(v): frozenset(parse_label(u) for u in _array(cls, "class"))
            for v, cls in data["contraction_map"].items()
        },
    )


def parse_wheel_witness(data: dict):
    from .tminors import OddWheelWitness

    return OddWheelWitness(
        trace=parse_trace(data["trace"]),
        hub=parse_label(data["hub"]),
        rim=tuple(parse_label(v) for v in _array(data["rim"], "rim")),
    )


def parse_rope(data: dict):
    """A rope or broken rope from its JSON data; a kind other than "rope" or
    "broken_rope", an empty constituent path, or more than ROPE_R_CAP path
    pairs raises PreconditionError."""
    from .ropes import ROPE_R_CAP, ArithmeticRope, BrokenRope

    kind = {"rope": ArithmeticRope, "broken_rope": BrokenRope}.get(data["kind"])
    if kind is None:
        raise PreconditionError(f"unknown rope kind {data['kind']!r}")
    anchors = tuple(decode_label(q) for q in _array(data["anchors"], "anchors"))
    paths = tuple(
        (
            [decode_label(v) for v in _array(p1, "path")],
            [decode_label(v) for v in _array(p2, "path")],
        )
        for p1, p2 in (_array(pair, "path pair") for pair in _array(data["paths"], "paths"))
    )
    if not all(p1 and p2 for p1, p2 in paths):
        raise PreconditionError("rope has an empty constituent path")
    if len(paths) > ROPE_R_CAP:
        raise PreconditionError(f"rope has {len(paths)} path pairs, above the cap of {ROPE_R_CAP}")
    return kind(anchors=anchors, paths=paths)


def identify_certificate(data: dict) -> str:
    """Classify a certificate JSON object by its members."""
    if not isinstance(data, dict):
        raise PreconditionError("a certificate must be a JSON object")
    if "kind" in data and "certificate" in data:
        return "certificate"
    if "assignment" in data and "num_colours" in data:
        return "colouring"
    if "sets" in data and "total" in data:
        return "fractional"
    if "relaxation" in data and "point" in data:
        return "witness"
    if "hub" in data and "rim" in data and "trace" in data:
        return "wheel"
    if "contraction_map" in data and "steps" in data:
        return "trace"
    if data.get("kind") in ("rope", "broken_rope"):
        return "rope"
    raise PreconditionError("unrecognized certificate shape")
