"""Print a digest of what the read-only CLI subcommands answer on graphs.

    python3 tools/cli_outputs.py [NAME...]

NAME is anything ``tperfect.corpus.make`` accepts (``C7``, ``W17``, ...);
with no names, every corpus graph.  For each graph and each subcommand
(``oddgirth``; ``chi``, ``chistar``, ``tperfect``, ``hperfect``,
``hbarperfect``, ``certify`` and ``oddwheel-witness`` with ``--json``) it
prints one line: the subcommand, the graph, the sha256 of its standard
output followed by its standard error, and its exit code.  The library is
imported from this checkout's ``src``, so two checkouts compare by a
``diff`` of their outputs.  Run both under the same PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
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
    """Exit code and stdout + stderr of one CLI call, each call seeing its
    warnings as a fresh process would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue() + err.getvalue()


def main(names: list) -> int:
    for name in names or corpus.corpus_names():
        for command in COMMANDS:
            code, text = run([command[0], f"corpus:{name}", *command[1:]])
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(command[0], name, digest, code)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
