import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tperfect import cli
from tperfect.corpus import corpus_names, make
from tperfect.graphio import serialize_graph
from tperfect.graphs import Graph
from tperfect.ropes import ROPE_R_CAP, ArithmeticRope, generate_rope_shell

from conftest import layered_instance, pendant


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_oddgirth(capsys):
    code, out, _ = run(capsys, "oddgirth", "corpus:C5")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "oddgirth", "corpus:C6")
    assert out.strip() == "inf"


def test_chi_and_chistar(capsys):
    code, out, _ = run(capsys, "chi", "corpus:grotzsch")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "chistar", "corpus:C7")
    assert code == 0 and out.strip() == "7/3"


def _module_env():
    """The environment of a fresh process that imports this checkout's tperfect."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_module(*argv):
    """``python -m argv`` in a fresh process that imports this checkout's tperfect."""
    return subprocess.run(
        [sys.executable, "-m", *argv], env=_module_env(), capture_output=True, text=True, timeout=120
    )


def test_python_dash_m_runs_the_cli():
    done = run_module("tperfect", "chi", "corpus:C5")
    assert (done.returncode, done.stdout, done.stderr) == (0, "3\n", "")


@pytest.mark.parametrize(
    "argv, read",
    [(["rope", "generate", "20", "7", "8"], 100), (["chi", "corpus:C5"], 0)],
    ids=["print-meets-closed-pipe", "flush-meets-closed-pipe"],
)
def test_closed_stdout_is_a_runtime_error_without_traceback(argv, read):
    # stdout block-buffered, as in a shell: the 109 KB of rope JSON overflow
    # the pipe, so print meets the closed pipe; the "3" of chi waits in the
    # buffer until the flush.  Either way: exit 2, not 1 ("property fails"),
    # and nothing on stderr, not even at the interpreter's last flush
    env = {k: v for k, v in _module_env().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "tperfect", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (2, "")


def test_tperfect_exit_codes_and_witness(capsys):
    code, out, _ = run(capsys, "tperfect", "corpus:C5")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "tperfect", "corpus:K4", "--json")
    assert code == 1
    data = json.loads(out)
    assert set(data["point"].values()) == {"1/3"}


def test_hperfect_and_hbarperfect(capsys):
    assert run(capsys, "hperfect", "corpus:K4")[0] == 0
    assert run(capsys, "hperfect", "corpus:co-C7")[0] == 1
    assert run(capsys, "hbarperfect", "corpus:C5")[0] == 0
    assert run(capsys, "hbarperfect", "corpus:C7")[0] == 1


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "corpus:C5", "--ell", "2", "--json")
    assert code == 0
    assert len(json.loads(out)["stable_set"]) == 2


def test_certify_and_verify_loop(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", "corpus:fig1b", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "colouring"
    assert data["certificate"]["num_colours"] <= 8
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", "corpus:fig1b", str(cert))
    assert code == 0

    code, out, _ = run(capsys, "certify", "corpus:K4", "--json")
    assert code == 1
    cert.write_text(out)
    assert run(capsys, "verify", "corpus:K4", str(cert))[0] == 0


def test_rejected_certificate_prints_its_detail(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"num_colours": 1, "assignment": {"0": 0, "1": 0, "2": 0}}))
    code, out, err = run(capsys, "verify", "corpus:C3", str(cert))
    assert code == 1 and out == ""
    message, detail = err.splitlines()
    assert message == "certificate rejected: monochromatic edge"
    assert json.loads(detail.removeprefix("detail: ")) == {"colour": 0, "edge": [0, 1]}


def test_certify_batch(capsys, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("corpus:C5\ncorpus:K4\n")
    code, out, _ = run(capsys, "certify", "--batch", str(batch))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("corpus:C5: colouring")
    assert lines[1] == "corpus:K4: witness"


def test_file_inputs(capsys, tmp_path):
    g = make("C5")
    for fmt, suffix in (("graph6", "g6"), ("edges", "txt"), ("json", "json")):
        path = tmp_path / f"g.{suffix}"
        path.write_text(serialize_graph(g, fmt))
        code, out, _ = run(capsys, "tperfect", str(path))
        assert code == 0 and out.strip() == "true"
    # malformed JSON graphs are usage errors (exit 2), not crashes (exit 1)
    path = tmp_path / "bad.json"
    for text in ('{"adjacency": 3}', '{"adjacency": [[0]]}', '{"adjacency": [[0, [0]]]}'):
        path.write_text(text)
        code, _, err = run(capsys, "oddgirth", str(path))
        assert code == 2 and err.startswith("error:")


def test_graph6_with_a_cut_short_size_prefix_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "g.g6"
    for text in ("~", "~?", ">>graph6<<"):
        path.write_text(text)
        code, out, err = run(capsys, "chi", str(path))
        assert code == 2 and out == "" and err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("text", ["ER96", ">?", ">>graph6<<>?", "I2UMgiXb~"])
def test_graph6_with_a_character_outside_the_data_range_is_a_usage_error(capsys, tmp_path, text):
    path = tmp_path / "g.g6"
    path.write_text(text)
    code, out, err = run(capsys, "oddgirth", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_the_library_imports_without_networkx():
    # networkx is only the tests' and perfbench's reference
    code = (
        "import sys\n"
        "import tperfect.cli, tperfect.colouring, tperfect.corpus, tperfect.graphio\n"
        "import tperfect.polytopes, tperfect.ropes, tperfect.tminors\n"
        "print('networkx' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_module_env(), capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_certify_above_the_cap_writes_nothing_on_stderr(capsys, tmp_path):
    # 17 vertices, so the refutation comes from the odd-wheel t-minor search
    path = tmp_path / "w11.json"
    path.write_text(serialize_graph(pendant(make("W11"), 5), "json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "certify", str(path))
        assert code == 1 and err == ""
        code, _, err = run(capsys, "oddwheel-witness", str(path))
        assert code == 0 and err == ""


def test_tcontract(capsys):
    code, out, _ = run(capsys, "tcontract", "corpus:C5", "--vertex", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["graph"]["adjacency"]) == 3


def test_oddwheel_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "oddwheel-witness", "corpus:W5", "--json")
    assert code == 0
    cert = tmp_path / "w.json"
    cert.write_text(out)
    assert run(capsys, "verify", "corpus:W5", str(cert))[0] == 0
    # the same trace on another graph is a failed check, not a usage error
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(json.loads(out)["trace"]))
    assert run(capsys, "verify", "corpus:W5", str(trace))[0] == 0
    code, _, err = run(capsys, "verify", "corpus:W7", str(trace))
    assert code == 1 and "base graph does not match" in err
    code, out, _ = run(capsys, "oddwheel-witness", "corpus:C11")
    assert code == 1 and out.strip() == "none"


@pytest.mark.parametrize(
    "tamper",
    [lambda tight: tight[:1], lambda tight: [], lambda tight: tight[::-1]],
    ids=["tight-cut-to-one", "tight-emptied", "tight-reordered"],
)
def test_witness_with_a_wrong_tight_list_is_rejected(capsys, tmp_path, tamper):
    code, out, _ = run(capsys, "certify", "corpus:W5", "--json")
    assert code == 1
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert run(capsys, "verify", "corpus:W5", str(path)) == (0, "certificate verified\n", "")
    data = json.loads(out)
    assert data["kind"] == "witness" and len(data["certificate"]["tight"]) > 1
    data["certificate"]["tight"] = tamper(data["certificate"]["tight"])
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "corpus:W5", str(path))
    assert code == 1 and out == ""
    assert err.startswith("certificate rejected: witness tight list")


@pytest.mark.parametrize(
    "which, steps, index",
    [
        ("wheel", [["delete", "0"], ["delete", "0"]], 1),
        ("wheel", [["tcontract", "99"]], 0),
        ("trace", [["delete", "1"], ["tcontract", "5"]], 1),
        ("trace", [["tcontract", "0"]], 0),
    ],
    ids=["wheel-delete-gone", "wheel-contract-missing", "trace-contract-hub", "trace-contract-rim"],
)
def test_illegal_trace_step_is_rejected(capsys, tmp_path, which, steps, index):
    # W5's rim vertex 0 and its hub 5 have neighbourhoods that are not stable
    code, out, _ = run(capsys, "oddwheel-witness", "corpus:W5", "--json")
    data = json.loads(out)
    data["trace"]["steps"] = [{"kind": kind, "vertex": v} for kind, v in steps]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data if which == "wheel" else data["trace"]))
    code, out, err = run(capsys, "verify", "corpus:W5", str(path))
    assert code == 1 and out == ""
    message, detail = err.splitlines()
    assert message.startswith("certificate rejected: illegal trace step")
    assert json.loads(detail.removeprefix("detail: ")) == {"step": index}


def test_unknown_trace_step_kind_is_a_usage_error(capsys, tmp_path):
    code, out, _ = run(capsys, "oddwheel-witness", "corpus:W5", "--json")
    trace = json.loads(out)["trace"]
    trace["steps"] = [{"kind": "shrink", "vertex": "0"}]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(trace))
    code, out, err = run(capsys, "verify", "corpus:W5", str(path))
    assert code == 2 and out == "" and err.startswith("error: unknown step kind")


def test_cli_outputs_digests_what_each_subcommand_prints(capsys, tmp_path):
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
    done = subprocess.run(
        [sys.executable, str(tool), "C5", "W5", "C7"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0 and done.stderr == ""
    rows = [line.split() for line in done.stdout.splitlines()]
    commands = ["oddgirth", "chi", "chistar", "tperfect", "hperfect", "hbarperfect",
                "certify", "oddwheel-witness", "tcontract", "reduce", "rope-find:--r=2"]
    rope_commands = ["rope-generate", "rope-verify", "rope-find", "rope-find:--c=1", "rope-find:--r=3"]
    assert [row[:2] for row in rows if not row[0].startswith("verify:")] == [
        [c, name] for name in ("C5", "W5", "C7") for c in commands
    ] + [[c, f"gen{r}"] for r in (2, 3, 4) for c in rope_commands]
    assert {row[0] for row in rows if row[1] == "W5"} >= {
        "verify:certify/certificate", "verify:oddwheel-witness/trace"
    }
    outputs = {}
    for label, name, digest, code in rows:
        if label.startswith("verify:"):
            command, *parts = label.removeprefix("verify:").split("/")
            data = json.loads(outputs[command, name])
            for part in parts:
                data = data[part]
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(data))
            got, out, err = run(capsys, "verify", f"corpus:{name}", str(path))
        elif label.startswith("rope-"):
            got, out, err = _replay_rope(capsys, tmp_path, label, name)
        else:
            flags = {
                "oddgirth": [],
                "tcontract": ["--vertex", repr(make(name).vertices[0]), "--json"],
                "reduce": ["--ell", "1", "--json"],
            }.get(label, ["--json"])
            got, out, err = run(capsys, label, f"corpus:{name}", *flags)
            outputs[label, name] = out
        assert (digest, code) == (hashlib.sha256((out + err).encode()).hexdigest(), str(got))


def _replay_rope(capsys, tmp_path, label, name):
    """Run the rope subcommand of a cli_outputs row: on corpus:NAME, or on
    the rope and host that `rope generate R 7 8` gives for NAME genR."""
    command, *options = label.removeprefix("rope-").split(":")
    if not name.startswith("gen"):
        return run(capsys, "rope", command, f"corpus:{name}", *options)
    generate = ["generate", name[3:], "7", "8"]
    data = json.loads(run(capsys, "rope", *generate)[1])
    host, rope = tmp_path / "host.json", tmp_path / "rope.json"
    host.write_text(json.dumps(data["graph"]))
    rope.write_text(json.dumps(data["rope"]))
    argv = {"generate": generate, "verify": ["verify", str(host), str(rope)]}
    return run(capsys, "rope", *argv.get(command, [command, str(host), *options]))


@pytest.mark.parametrize(
    "command", ["chi", "chistar", "tperfect", "hperfect", "hbarperfect", "certify", "oddwheel-witness"]
)
def test_verify_accepts_every_printed_certificate(capsys, tmp_path, command):
    # on every corpus graph, the certificate a subcommand prints with --json
    # and its nested certificate and trace parts all pass verify on that graph
    path = tmp_path / "cert.json"
    checked = 0
    for name in corpus_names():
        _, out, _ = run(capsys, command, f"corpus:{name}", "--json")
        parts = [json.loads(out)] if out.startswith("{") else []
        while parts:
            data = parts.pop()
            path.write_text(json.dumps(data))
            assert run(capsys, "verify", f"corpus:{name}", str(path)) == (0, "certificate verified\n", ""), name
            parts += [data[k] for k in ("certificate", "trace") if isinstance(data.get(k), dict)]
            checked += 1
    assert checked


def test_fractional_set_outside_the_graph_is_rejected(capsys, tmp_path):
    data = _k4_certificate(capsys, "chistar")
    data["sets"][0]["vertices"].append("99")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "corpus:K4", str(path))
    assert code == 1 and out == ""
    assert err.splitlines()[0] == "certificate rejected: fractional colouring names a missing vertex"


def test_fractional_total_other_than_the_weight_sum_is_rejected(capsys, tmp_path):
    # the sets of chi*(C5) = 5/2, claiming a total of 1
    data = json.loads(run(capsys, "chistar", "corpus:C5", "--json")[1])
    assert data["total"] == "5/2"
    data["total"] = "1/1"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "corpus:C5", str(path))
    assert code == 1 and out == ""
    message, detail = err.splitlines()
    assert message == "certificate rejected: stated total is not the sum of the weights"
    assert json.loads(detail.removeprefix("detail: ")) == {"sum": "5/2", "total": "1/1"}


def test_unknown_vertex_message_is_plain(capsys):
    code, out, err = run(capsys, "tcontract", "corpus:C5", "--vertex", "99")
    assert code == 2 and out == "" and err == "error: unknown vertex 99\n"


def test_label_nested_past_the_parser_is_a_usage_error(capsys):
    code, out, err = run(capsys, "tcontract", "corpus:C5", "--vertex=" + "-" * 100000 + "1")
    assert code == 2 and out == "" and err.startswith("error: unparseable label")


_DEEP_ARRAY = "[" * 100000 + "]" * 100000
# a label the JSON parser reads, but too deep for a decoder that recurses
# once per level
_DEEP_LABEL = "[" * 950 + "1" + "]" * 950


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify corpus:C5", _DEEP_ARRAY),
        ("rope verify corpus:C5", _DEEP_ARRAY),
        ("oddgirth", '{"adjacency": %s}' % _DEEP_ARRAY),
        ("oddgirth", '{"adjacency": [[%s, []]]}' % _DEEP_LABEL),
        ("rope verify corpus:C5", '{"kind": "rope", "anchors": [%s, 1], "paths": []}' % _DEEP_LABEL),
    ],
    ids=["certificate", "rope-file", "graph-adjacency", "graph-label", "rope-anchor"],
)
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *command.split(), str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err and "Traceback" not in err


def test_rope_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "rope", "generate", "2", "7", "8")
    assert code == 0
    data = json.loads(out)
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    gpath.write_text(json.dumps(data["graph"]))
    rpath.write_text(json.dumps(data["rope"]))
    assert run(capsys, "rope", "verify", str(gpath), str(rpath))[0] == 0
    assert run(capsys, "verify", str(gpath), str(rpath))[0] == 0
    code, out, _ = run(capsys, "rope", "find", str(gpath), "--r", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "rope"


def test_rope_size_cap_is_a_usage_error(capsys, tmp_path):
    r = ROPE_R_CAP + 1
    code, out, err = run(capsys, "rope", "generate", str(r), "7", "8")
    assert code == 2 and out == ""
    assert err == f"error: r = {r} is above the cap of {ROPE_R_CAP} path pairs\n"
    anchors = tuple(range(r))
    rope = ArithmeticRope(anchors=anchors, paths=tuple(((a, a + 1), (a, a + 1)) for a in anchors))
    path = tmp_path / "rope.json"
    path.write_text(rope.to_json())
    for command in (["rope", "verify"], ["verify"]):
        code, out, err = run(capsys, *command, "corpus:C5", str(path))
        assert code == 2 and out == ""
        assert err == f"error: rope has {r} path pairs, above the cap of {ROPE_R_CAP}\n"


def test_rope_find_needs_two_anchors(capsys, tmp_path):
    host, _, _ = generate_rope_shell(3, 7, 8)
    path = tmp_path / "host.json"
    path.write_text(serialize_graph(host, "json"))
    for r in ("--r=1", "--r=0", "--r=-3"):
        code, out, err = run(capsys, "rope", "find", str(path), r)
        assert code == 2 and out == "" and err == "error: r must be at least 2\n"


def test_rope_find_refuses_negative_c(capsys, tmp_path):
    # a negative c is bad input (2), never "no rope" (1) nor a rope (0)
    path = tmp_path / "layered.json"
    path.write_text(serialize_graph(layered_instance()[0], "json"))
    for c in ("--c=-1", "--c=-5"):
        code, out, err = run(capsys, "rope", "find", str(path), c)
        assert (code, out, err) == (2, "", "error: c must be non-negative\n")


def test_rope_find_has_no_strict_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rope", "find", "corpus:C5", "--strict"])
    assert exc.value.code == 64
    assert "--strict" in capsys.readouterr().err


def test_rope_find_in_disconnected_graph_beyond_cap(capsys, tmp_path):
    # two copies of the 1456-vertex layered graph: each component is above
    # the chi_exact cap, so the first is levelled without being coloured
    g = layered_instance()[0]
    copy = {v: ("B", v) for v in g.vertices}
    two = Graph(
        [*g.vertices, *copy.values()], [*g.edges(), *[(copy[u], copy[v]) for u, v in g.edges()]]
    )
    outputs = []
    for name, host in (("one", g), ("two", two)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_graph(host, "json"))
        outputs.append(run(capsys, "rope", "find", str(path), "--r", "2"))
    assert outputs[1] == outputs[0] and outputs[0][0] == 0 and outputs[0][2] == ""


def test_deeply_wrapped_certificate_is_a_usage_error(capsys, tmp_path):
    # certify writes one envelope, so 980 of them are a malformed
    # certificate; in a fresh process, so that the stack starts as shallow
    # as a user's
    code, out, _ = run(capsys, "certify", "corpus:C5", "--json")
    assert code == 0
    inner = json.dumps(json.loads(out)["certificate"])
    path = tmp_path / "wrapped.json"
    path.write_text('{"kind": "colouring", "certificate": ' * 980 + inner + "}" * 980)
    done = run_module("tperfect.cli", "verify", "corpus:C5", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


def test_corpus_commands(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0 and "petersen" in out.split()
    code, out, _ = run(capsys, "corpus", "list", "--json")
    assert any(row["name"] == "K4" for row in json.loads(out))
    code, out, _ = run(capsys, "corpus", "emit", "C5", "--format", "graph6")
    assert code == 0 and out.strip()


def test_error_and_usage_codes(capsys, tmp_path):
    code, _, err = run(capsys, "chi", "corpus:nosuchgraph")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "chi", "/nonexistent/file")
    assert code == 2
    # input that is not UTF-8 text (here a UTF-16 byte-order mark first)
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe3\x00 \x002\x00")
    for argv in (["oddgirth", str(path)], ["certify", "--batch", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: cannot read {path}: not UTF-8 text\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 64


def _k4_certificate(capsys, *argv):
    code, out, _ = run(capsys, *argv, "corpus:K4", "--json")
    return json.loads(out)


def _drop_point_key(capsys):
    data = _k4_certificate(capsys, "tperfect")
    data["point"].pop(next(iter(data["point"])))
    return json.dumps(data)


def _extra_point_key(capsys):
    data = _k4_certificate(capsys, "tperfect")
    data["point"]["99"] = "1/2"
    return json.dumps(data)


def _zero_denominator_weight(capsys):
    data = _k4_certificate(capsys, "chistar")
    data["sets"][0]["weight"] = "1/0"
    return json.dumps(data)


def _fractional_total(text):
    def make_text(capsys):
        data = _k4_certificate(capsys, "chistar")
        data["total"] = text
        return json.dumps(data)

    return make_text


def _null_order(capsys):
    data = _k4_certificate(capsys, "tperfect")
    data["order"] = None
    return json.dumps(data)


def _assignment_as_list(capsys):
    data = _k4_certificate(capsys, "chi")
    data["assignment"] = list(data["assignment"].items())
    return json.dumps(data)


def _string_colour_count(capsys):
    data = _k4_certificate(capsys, "chi")
    data["num_colours"] = str(data["num_colours"])
    return json.dumps(data)


def _set_without_weight(capsys):
    data = _k4_certificate(capsys, "chistar")
    del data["sets"][0]["weight"]
    return json.dumps(data)


def _wheel_rim_string(capsys):
    data = _k4_certificate(capsys, "oddwheel-witness")
    data["rim"] = "123"
    return json.dumps(data)


def _trace_steps_object(capsys):
    data = _k4_certificate(capsys, "oddwheel-witness")
    data["trace"]["steps"] = {}
    return json.dumps(data)


def _trace_vertices_string(capsys):
    data = _k4_certificate(capsys, "oddwheel-witness")
    data["trace"]["base"]["vertices"] = "0123"
    return json.dumps(data)


def _tight_object(capsys):
    data = _k4_certificate(capsys, "tperfect")
    data["tight"] = {}
    return json.dumps(data)


def _rope_text(capsys):
    code, out, _ = run(capsys, "rope", "generate", "2", "7", "8")
    return json.dumps(json.loads(out)["rope"])


def _rope_with_object_label(capsys):
    rope = json.loads(_rope_text(capsys))
    rope["anchors"][0] = {"q": 1}
    return json.dumps(rope)


def _rope_with_empty_path(capsys):
    rope = json.loads(_rope_text(capsys))
    rope["paths"][0][1] = []
    return json.dumps(rope)


def _unknown_relaxation(capsys):
    data = _k4_certificate(capsys, "tperfect")
    data["relaxation"] = "qstab"
    return json.dumps(data)


def _rope_of_unknown_kind(capsys):
    rope = json.loads(_rope_text(capsys))
    rope["kind"] = "wheel"
    return json.dumps(rope)


def _witness_labelled_colouring(capsys):
    data = _k4_certificate(capsys, "certify")
    data["kind"] = "colouring"
    return json.dumps(data)


def _envelope_of_unknown_kind(capsys):
    return json.dumps({"kind": "bogus", "certificate": _k4_certificate(capsys, "certify")})


def _nested_envelope(capsys):
    # certify writes one envelope, never one inside another
    return json.dumps({"kind": "witness", "certificate": _k4_certificate(capsys, "certify")})


@pytest.mark.parametrize(
    "command, make_text",
    [
        ("verify", _drop_point_key),
        ("verify", _extra_point_key),
        ("verify", _zero_denominator_weight),
        ("verify", _fractional_total("abc")),
        ("verify", _fractional_total("1/0")),
        ("verify", _null_order),
        ("verify", _assignment_as_list),
        ("verify", _string_colour_count),
        ("verify", _set_without_weight),
        ("verify", _unknown_relaxation),
        ("verify", lambda capsys: "[1, 2]"),
        ("rope verify", None),
        ("rope verify", lambda capsys: _rope_text(capsys)[:40]),
        ("rope verify", _rope_with_object_label),
        ("verify", _rope_with_empty_path),
        ("rope verify", _rope_with_empty_path),
        ("rope verify", _rope_of_unknown_kind),
        ("verify", lambda capsys: b"\xff\xfe{\x00}\x00"),
        ("verify", _witness_labelled_colouring),
        ("verify", _envelope_of_unknown_kind),
        ("verify", _nested_envelope),
        ("verify", _wheel_rim_string),
        ("verify", _trace_steps_object),
        ("verify", _trace_vertices_string),
        ("verify", _tight_object),
    ],
    ids=[
        "point-missing-key",
        "point-extra-key",
        "weight-1/0",
        "total-abc",
        "total-1/0",
        "order-null",
        "assignment-list",
        "colour-count-string",
        "set-without-weight",
        "relaxation-unknown",
        "top-level-list",
        "rope-file-missing",
        "rope-file-truncated",
        "rope-label-object",
        "verify-rope-empty-path",
        "rope-empty-path",
        "rope-unknown-kind",
        "certificate-not-utf8",
        "envelope-kind-contradicts-body",
        "envelope-kind-unknown",
        "envelope-nested",
        "wheel-rim-string",
        "trace-steps-object",
        "trace-vertices-string",
        "witness-tight-object",
    ],
)
def test_malformed_certificates_are_usage_errors(capsys, tmp_path, command, make_text):
    path = tmp_path / "cert.json"
    if make_text is not None:
        text = make_text(capsys)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, *command.split(), "corpus:K4", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_oddwheel_witness_rejects_negative_budget(capsys):
    # a negative budget is a usage error (64), not "no witness" (1)
    for budget in ("--budget=-3", "--budget=ten"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oddwheel-witness", "corpus:moebius8", budget])
        assert exc.value.code == 64
        assert "budget" in capsys.readouterr().err
    code, out, _ = run(capsys, "oddwheel-witness", "corpus:moebius8", "--budget=0")
    assert code == 1 and out.strip() == "none"


def test_assembled_json_outputs_pinned(capsys, tmp_path):
    # one sha256 over the stdout and exit code of the subcommands whose JSON
    # nests one part inside another, recorded before they were built as data
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(f"corpus:{n}\n" for n in ("C5", "K4", "W5", "fig1b", "moebius8")))
    calls = [["certify", "--batch", str(batch), *flags] for flags in ([], ["--json"])]
    for name, vertex in (("C7", "0"), ("petersen", "0"), ("grotzsch", "(0, 0)"), ("moebius8", "0")):
        calls += [["tcontract", f"corpus:{name}", "--vertex", vertex, *f] for f in ([], ["--json"])]
    for name in ("C7", "petersen", "grotzsch", "fig1b", "moebius8"):
        calls += [["reduce", f"corpus:{name}", "--ell", ell, "--json"] for ell in ("1", "2")]
    digest = hashlib.sha256()
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    for r in ("2", "3", "4"):
        code, out, _ = run(capsys, "rope", "generate", r, "7", "8")
        digest.update(f"{code}\n{out}".encode())
        host = tmp_path / f"host{r}.json"
        host.write_text(json.dumps(json.loads(out)["graph"]))
        code, out, _ = run(capsys, "rope", "find", str(host), "--r", r)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "0f92a0d7086c826a9a58b4eeb49ba6fabf85f7490085e841867e88662d927415"
