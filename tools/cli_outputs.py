"""Print a digest of what the read-only CLI subcommands answer on graphs.

    python3 tools/cli_outputs.py [NAME...]

NAME is anything ``tperfect.corpus.make`` accepts (``C7``, ``W17``, ...);
with no names, every corpus graph.  For each graph and each subcommand
(``oddgirth``; ``chi``, ``chistar``, ``tperfect``, ``hperfect``,
``hbarperfect``, ``certify`` and ``oddwheel-witness`` with ``--json``;
``tcontract --vertex V --json`` at the graph's first vertex V,
``reduce --ell 1 --json`` and ``rope find --r 2``) it prints one line: the
subcommand, the graph, the sha256 of its standard output followed by its
standard error, and its exit code.  Every certificate a subcommand prints
is written to a file and given to ``verify``, and so are its nested
``certificate`` and ``trace`` parts; those lines name the subcommand as
``verify:certify``, ``verify:certify/certificate``,
``verify:certify/certificate/trace``, ...  Then, for r = 2..4, it prints
the lines of ``rope generate r 7 8`` (graph ``genR``), of ``rope verify``
on the generated rope, and of ``rope find`` on the generated host with the
default options, ``--c 1`` and ``--r 3`` (subcommands ``rope-find``,
``rope-find:--c=1`` and ``rope-find:--r=3``).
The library is imported from this checkout's ``src``, so two checkouts
compare by a ``diff`` of their outputs.  Run both under the same
PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tperfect import cli, corpus  # noqa: E402

COMMANDS = (
    ("oddgirth",),
    ("chi", "--json"),
    ("chistar", "--json"),
    ("tperfect", "--json"),
    ("hperfect", "--json"),
    ("hbarperfect", "--json"),
    ("certify", "--json"),
    ("oddwheel-witness", "--json"),
)


def run(argv: list) -> tuple:
    """Exit code, stdout and stderr of one CLI call, each call seeing its
    warnings as a fresh process would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def report(label: str, name: str, argv: list) -> str:
    """Run one call, print its line and return its standard output."""
    code, out, err = run(argv)
    print(label, name, hashlib.sha256((out + err).encode()).hexdigest(), code)
    return out


def verify(label: str, name: str, data, path: Path) -> None:
    """If data is a JSON object, print the line of ``verify`` on it, then
    recurse into its ``certificate`` and ``trace`` parts."""
    if not isinstance(data, dict):
        return
    path.write_text(json.dumps(data))
    report(f"verify:{label}", name, ["verify", f"corpus:{name}", str(path)])
    for part in ("certificate", "trace"):
        verify(f"{label}/{part}", name, data.get(part), path)


def main(names: list) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "certificate.json"
        for name in names or corpus.corpus_names():
            g = f"corpus:{name}"
            for command in COMMANDS:
                out = report(command[0], name, [command[0], g, *command[1:]])
                if out.startswith("{"):
                    verify(command[0], name, json.loads(out), path)
            first = repr(corpus.make(name).vertices[0])
            report("tcontract", name, ["tcontract", g, "--vertex", first, "--json"])
            report("reduce", name, ["reduce", g, "--ell", "1", "--json"])
            report("rope-find:--r=2", name, ["rope", "find", g, "--r=2"])
        ropes(Path(scratch))
    return 0


def ropes(scratch: Path) -> None:
    """The lines of the rope subcommands on generated ropes and hosts."""
    for r in (2, 3, 4):
        name = f"gen{r}"
        data = json.loads(report("rope-generate", name, ["rope", "generate", str(r), "7", "8"]))
        host, rope = scratch / f"{name}.json", scratch / f"{name}.rope.json"
        host.write_text(json.dumps(data["graph"]))
        rope.write_text(json.dumps(data["rope"]))
        report("rope-verify", name, ["rope", "verify", str(host), str(rope)])
        for options in ((), ("--c=1",), ("--r=3",)):
            label = ":".join(("rope-find", *options))
            report(label, name, ["rope", "find", str(host), *options])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
