"""Command-line front end.

Graph arguments accept either a file path (format guessed from the
extension, override with --format) or a corpus:NAME fixture URI.

Exit codes: 0 the queried property holds or a certificate was produced,
1 the property fails or a witness was produced, 2 runtime error, 64 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import corpus, graphio
from .errors import PreconditionError, TPerfectError, VerificationError
from .graphs import Graph, label_key, odd_girth

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _budget(text: str) -> int:
    """A --budget value: a non-negative int, else a usage error."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"budget must be a non-negative integer, got {text!r}")
    return int(text)


def _read(path: str) -> str:
    """The text of a file; a file that cannot be read or is not UTF-8 text
    raises TPerfectError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise TPerfectError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError:
        raise TPerfectError(f"cannot read {path}: not UTF-8 text") from None


def load_graph(spec: str, fmt: str | None = None) -> Graph:
    if spec.startswith("corpus:"):
        return corpus.make(spec)
    return graphio.parse_graph(_read(spec), fmt or graphio.guess_format(spec))


def _load_json_file(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise TPerfectError(f"malformed JSON in {path}: {e.msg}") from e
    except RecursionError:
        raise TPerfectError(f"JSON in {path} nested too deeply") from None


def _jsonable(value):
    """A VerificationError detail as JSON data: sets become lists sorted by
    label_key, tuples lists, Fractions "p/q", anything else its repr."""
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [_jsonable(v) for v in sorted(value, key=label_key)]
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None or isinstance(value, (str, int)):
        return value
    return repr(value)


def _report(message: str, e: TPerfectError) -> None:
    """Print an error line on stderr, then the error's detail, if any, as a
    ``detail: <json>`` line."""
    print(message, file=sys.stderr)
    detail = getattr(e, "detail", None)
    if detail is not None:
        print(f"detail: {json.dumps(_jsonable(detail), sort_keys=True)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_oddgirth(args) -> int:
    g = load_graph(args.graph, args.format)
    og = odd_girth(g)
    print("inf" if og is math.inf else og)
    return EXIT_HOLDS


def cmd_chi(args) -> int:
    from .colouring import chi_exact

    k, col = chi_exact(load_graph(args.graph, args.format))
    if args.json:
        print(col.to_json())
    else:
        print(k)
    return EXIT_HOLDS


def cmd_chistar(args) -> int:
    from .colouring import chi_fractional

    value, fc = chi_fractional(load_graph(args.graph, args.format))
    if args.json:
        print(fc.to_json())
    else:
        print(f"{value.numerator}/{value.denominator}")
    return EXIT_HOLDS


def _property_command(args, oracle) -> int:
    holds, witness = oracle(load_graph(args.graph, args.format))
    if holds:
        print("true")
        return EXIT_HOLDS
    if args.json:
        print(witness.to_json())
    else:
        print("false")
    return EXIT_FAILS


def cmd_tperfect(args) -> int:
    from .polytopes import is_t_perfect

    return _property_command(args, is_t_perfect)


def cmd_hperfect(args) -> int:
    from .polytopes import is_h_perfect

    return _property_command(args, is_h_perfect)


def cmd_hbarperfect(args) -> int:
    from .polytopes import is_hbar_perfect

    return _property_command(args, is_hbar_perfect)


def cmd_reduce(args) -> int:
    from .colouring import reduce_odd_girth

    g = load_graph(args.graph, args.format)
    s = reduce_odd_girth(g, args.ell)
    ordered = sorted(s, key=label_key)
    if args.json:
        print(graphio.to_json({"stable_set": [repr(v) for v in ordered]}))
    else:
        for v in ordered:
            print(repr(v))
    return EXIT_HOLDS


def _certify_one(spec: str, fmt: str | None, as_json: bool, prefix: str = "") -> int:
    from .colouring import certify

    cert = certify(load_graph(spec, fmt))
    if as_json:
        # batch lines stay one certificate per line
        payload = json.dumps(cert.to_data(), sort_keys=True) if prefix else cert.to_json()
        print(prefix + payload)
    elif cert.kind == "colouring":
        print(f"{prefix}colouring with {cert.colouring.num_colours} colours")
    else:
        print(f"{prefix}witness")
    return EXIT_HOLDS if cert.kind == "colouring" else EXIT_FAILS


def cmd_certify(args) -> int:
    if args.batch:
        specs = [line.strip() for line in _read(args.batch).split("\n") if line.strip()]
        worst = EXIT_HOLDS
        for spec in specs:
            code = _certify_one(spec, args.format, args.json, prefix=f"{spec}: ")
            worst = max(worst, code)
        return worst
    if not args.graph:
        raise TPerfectError("certify needs a GRAPH argument or --batch FILE")
    return _certify_one(args.graph, args.format, args.json)


def cmd_tcontract(args) -> int:
    from .tminors import t_contract

    g = load_graph(args.graph, args.format)
    v = graphio.parse_label(args.vertex)
    h, classes = t_contract(g, v)
    if args.json:
        print(
            json.dumps(
                {
                    "graph": graphio.graph_data(h),
                    "classes": {
                        repr(w): sorted((repr(u) for u in cls))
                        for w, cls in sorted(classes.items(), key=lambda kv: label_key(kv[0]))
                    },
                },
                indent=2,
            )
        )
    else:
        print(graphio.to_edge_list(h), end="")
    return EXIT_HOLDS


def cmd_oddwheel_witness(args) -> int:
    from .tminors import find_odd_wheel_tminor

    g = load_graph(args.graph, args.format)
    # every witness the search returns has already been verified
    w = find_odd_wheel_tminor(g, budget=args.budget)
    if w is None:
        print("none")
        return EXIT_FAILS
    if args.json:
        print(w.to_json())
    else:
        print(f"odd wheel with hub {w.hub!r} and rim length {len(w.rim)}")
    return EXIT_HOLDS


def cmd_rope_verify(args) -> int:
    from .ropes import verify_rope

    return _check_file(
        args, args.ropefile, "rope", lambda g, d: verify_rope(g, _parse(graphio.parse_rope, d))
    )


def cmd_rope_generate(args) -> int:
    from .ropes import generate_rope

    g, rope = generate_rope(args.r, args.odd, args.even)
    print(graphio.to_json({"graph": graphio.graph_data(g), "rope": rope.to_data()}))
    return EXIT_HOLDS


def cmd_rope_find(args) -> int:
    from .ropes import find_rope

    g = load_graph(args.graph, args.format)
    try:
        rope = find_rope(g, frozenset(g.vertices), args.r, c=args.c)
    except VerificationError as e:
        _report(f"no rope found: {e}", e)
        return EXIT_FAILS
    print(rope.to_json())
    return EXIT_HOLDS


def cmd_corpus_list(args) -> int:
    if args.json:
        print(corpus.manifest_json())
    else:
        for name in corpus.corpus_names():
            print(name)
    return EXIT_HOLDS


def cmd_corpus_emit(args) -> int:
    g = corpus.make(args.name)
    text = graphio.serialize_graph(g, args.emit_format)
    print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_HOLDS


def cmd_verify(args) -> int:
    return _check_file(args, args.certfile, "certificate", _verify_dispatch)


def _check_file(args, path, noun: str, check) -> int:
    """Load the graph and the JSON file, run check(graph, data), and report
    "<noun> verified" (exit 0) or "<noun> rejected: ..." (exit 1).  Every
    verifier returns True or raises VerificationError."""
    g = load_graph(args.graph, args.format)
    data = _load_json_file(path)
    try:
        check(g, data)
    except VerificationError as e:
        _report(f"{noun} rejected: {e}", e)
        return EXIT_FAILS
    print(f"{noun} verified")
    return EXIT_HOLDS


def _parse(parser, data):
    """Run a certificate parser.  A certificate of the wrong shape (missing
    members, wrong JSON types, unreadable numbers, nesting too deep to
    decode) is a usage fault of the input, reported as PreconditionError
    rather than as a failed check."""
    try:
        return parser(data)
    except TPerfectError:
        raise
    except RecursionError:
        raise PreconditionError("malformed certificate: nested too deeply") from None
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError) as e:
        raise PreconditionError(f"malformed certificate: {type(e).__name__}: {e}") from e


# the envelope kind that certify writes around each certificate shape
_ENVELOPE_KIND = {"colouring": "colouring", "witness": "witness", "wheel": "witness"}


def _verify_dispatch(g: Graph, data) -> bool:
    kind = graphio.identify_certificate(data)
    if kind == "certificate":
        # certify writes one envelope, of the kind it writes around the
        # certificate it holds
        outer, data = data["kind"], data["certificate"]
        kind = graphio.identify_certificate(data)
        inner = _ENVELOPE_KIND.get(kind)
        if inner is None or outer != inner:
            raise PreconditionError(
                f"certificate envelope of kind {outer!r} does not match what it holds"
            )
    if kind == "colouring":
        from .colouring import verify_colouring

        return verify_colouring(g, _parse(graphio.parse_colouring, data))
    if kind == "fractional":
        from .colouring import verify_fractional_colouring

        return verify_fractional_colouring(g, _parse(graphio.parse_fractional_colouring, data))
    if kind == "witness":
        from .polytopes import verify_witness

        return verify_witness(g, _parse(graphio.parse_witness, data))
    if kind == "wheel":
        from .tminors import verify_odd_wheel_witness

        w = _parse(graphio.parse_wheel_witness, data)
        _check_trace_base(g, w.trace)
        return verify_odd_wheel_witness(w)
    if kind == "trace":
        from .tminors import replay

        trace = _parse(graphio.parse_trace, data)
        _check_trace_base(g, trace)
        return replay(trace)
    # identify_certificate returns no kind but those above and "rope"
    from .ropes import verify_rope

    return verify_rope(g, _parse(graphio.parse_rope, data))


def _check_trace_base(g: Graph, trace) -> None:
    if trace.base != g:
        raise VerificationError("trace base graph does not match the input graph")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_graph_arg(p):
    p.add_argument("graph", help="graph file or corpus:NAME")
    p.add_argument(
        "--format",
        choices=["graph6", "edges", "json"],
        help="input format (default: guessed from the file extension)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call (the first ``main``, not import)
    and kept for the process."""
    parser = _Parser(prog="tperfect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("oddgirth", help="odd girth (inf if bipartite)")
    _add_graph_arg(p)
    p.set_defaults(func=cmd_oddgirth)

    p = sub.add_parser("chi", help="exact chromatic number")
    _add_graph_arg(p)
    p.add_argument("--json", action="store_true", help="emit the witness colouring")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("chistar", help="exact fractional chromatic number")
    _add_graph_arg(p)
    p.add_argument("--json", action="store_true", help="emit the fractional colouring")
    p.set_defaults(func=cmd_chistar)

    for name, func, blurb in [
        ("tperfect", cmd_tperfect, "edge/odd-cycle relaxation exactness test"),
        ("hperfect", cmd_hperfect, "edge/clique/odd-cycle relaxation exactness test"),
        ("hbarperfect", cmd_hbarperfect, "complement h-perfection test"),
    ]:
        p = sub.add_parser(name, help=blurb)
        _add_graph_arg(p)
        p.add_argument("--json", action="store_true", help="emit the witness on failure")
        p.set_defaults(func=func)

    p = sub.add_parser("reduce", help="stable set raising the odd girth past 2*ell+1")
    _add_graph_arg(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("certify", help="proper colouring or refutation of t-perfection")
    p.add_argument("graph", nargs="?", help="graph file or corpus:NAME")
    p.add_argument("--format", choices=["graph6", "edges", "json"])
    p.add_argument("--json", action="store_true", help="emit the certificate JSON")
    p.add_argument("--batch", help="file with one graph spec per line")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("tcontract", help="contract the closed neighbourhood of a vertex")
    _add_graph_arg(p)
    p.add_argument("--vertex", required=True, help="vertex label (Python literal)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tcontract)

    p = sub.add_parser("oddwheel-witness", help="search for an odd wheel t-minor")
    _add_graph_arg(p)
    p.add_argument("--json", action="store_true", help="emit the replayable trace")
    p.add_argument("--budget", type=_budget, default=4000)
    p.set_defaults(func=cmd_oddwheel_witness)

    p = sub.add_parser("rope", help="arithmetic rope operations")
    ropesub = p.add_subparsers(dest="rope_command", required=True, parser_class=_Parser)

    q = ropesub.add_parser("verify", help="audit a rope JSON against a graph")
    _add_graph_arg(q)
    q.add_argument("ropefile")
    q.set_defaults(func=cmd_rope_verify)

    q = ropesub.add_parser("generate", help="fabricate a host graph that is an r-rope")
    q.add_argument("r", type=int)
    q.add_argument("odd", type=int)
    q.add_argument("even", type=int)
    q.set_defaults(func=cmd_rope_generate)

    q = ropesub.add_parser("find", help="extract an r-rope from a graph")
    _add_graph_arg(q)
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--c", type=int, default=0)
    q.set_defaults(func=cmd_rope_find)

    p = sub.add_parser("corpus", help="named fixture graphs")
    corpsub = p.add_subparsers(dest="corpus_command", required=True, parser_class=_Parser)

    q = corpsub.add_parser("list", help="list fixture names")
    q.add_argument("--json", action="store_true", help="emit the manifest")
    q.set_defaults(func=cmd_corpus_list)

    q = corpsub.add_parser("emit", help="write a fixture graph to stdout")
    q.add_argument("name")
    q.add_argument(
        "--format",
        dest="emit_format",
        choices=["graph6", "edges", "json"],
        default="edges",
    )
    q.set_defaults(func=cmd_corpus_emit)

    p = sub.add_parser("verify", help="re-check any emitted certificate JSON")
    _add_graph_arg(p)
    p.add_argument("certfile")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command.  The handler is looked up by name at each call, so
    a module attribute rebound since the parser was built (a tracing
    wrapper, say) is the one that runs."""
    args = build_parser().parse_args(argv)
    try:
        code = globals()[args.func.__name__](args)
        sys.stdout.flush()
        return code
    except TPerfectError as e:
        _report(f"error: {e}", e)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
