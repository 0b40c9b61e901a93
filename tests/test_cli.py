"""CLI wire formats and exit codes, exercised in-process."""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grapes
from grapes.cli import main
from grapes.complexes import complex_to_json, void_complex
from grapes.generators import cycle_complex, cyclic_no_useless_digraph
from grapes.graphs import digraph_to_json, graph_to_json
from test_graphs import path_graph


@pytest.fixture
def write_json(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


C5 = complex_to_json(cycle_complex(5))
EDGE = {"ground": ["a", "b"], "facets": [["a", "b"]]}
TWO_POINTS = {"ground": ["a", "b"], "facets": [["a"], ["b"]]}
RP2 = {
    "ground": list("123456"),
    "facets": [
        list(t) for t in ("123", "124", "135", "146", "156", "236", "245", "256", "345", "346")
    ],
}


def test_dual_command(write_json, capsys):
    code, out = run_cli(capsys, "dual", write_json("c.json", TWO_POINTS))
    assert code == 0
    assert out == {"ground": ["a", "b"], "facets": [[]]}


def test_link_and_del_commands(write_json, capsys):
    path = write_json("c.json", {"ground": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]]})
    code, out = run_cli(capsys, "link", path, "b")
    assert code == 0 and out["facets"] == [["a"], ["c"]]
    code, out = run_cli(capsys, "del", path, "b")
    assert code == 0 and out["facets"] == [["a"], ["c"]]


def test_main_builds_its_parser_once(write_json, capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    path = write_json("c.json", {"ground": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]]})
    assert run_cli(capsys, "link", path, "a") == (0, {"ground": ["b", "c"], "facets": [["b"]]})
    assert run_cli(capsys, "del", path, "a") == (0, {"ground": ["b", "c"], "facets": [["b", "c"]]})
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_homology_command(write_json, capsys):
    code, out = run_cli(capsys, "homology", write_json("c.json", C5))
    assert code == 0
    assert out["betti"]["1"] == 1
    assert out["torsion"]["1"] == []
    assert out["cohomology"]["betti"]["1"] == 1


def test_collapse_command_yes_and_no(write_json, capsys):
    code, out = run_cli(capsys, "collapse", write_json("e.json", EDGE))
    assert code == 0 and out["verdict"] == "yes" and out["sequence"]["steps"]
    code, out = run_cli(
        capsys, "collapse", write_json("p.json", TWO_POINTS), "--exhaustive"
    )
    assert code == 1 and out["verdict"] == "no"
    code, out = run_cli(capsys, "collapse", write_json("p2.json", TWO_POINTS))
    assert code == 3 and out["verdict"] == "unknown"


def test_strong_round_trip_on_a_long_path_under_a_low_recursion_limit(
    write_json, capsys, tmp_path
):
    names = [f"v{i}" for i in range(1, 251)]
    path = write_json("path.json", {"ground": names, "facets": [list(p) for p in zip(names, names[1:])]})
    cert_path = tmp_path / "cert.json"
    limit = sys.getrecursionlimit()
    # well below the 250 nested calls a recursive recognition would need
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        check_code, check = run_cli(capsys, "grape", "check", path, "--variant", "strong")
        cert_path.write_text(json.dumps(check["certificate"]))
        code, out = run_cli(capsys, "grape", "verify-cert", path, str(cert_path))
    finally:
        sys.setrecursionlimit(limit)
    assert check_code == 0 and check["verdict"] == "yes"
    assert code == 0 and out == {"valid": True, "variant": "strong"}


def test_strong_check_and_replay_of_a_600_vertex_path_are_fast(write_json, capsys, tmp_path):
    # each deletion down the path keeps its facets without a pairwise
    # antichain scan; with one, check and replay took about 10 s together
    from time import perf_counter

    names = [f"v{i}" for i in range(1, 601)]
    path = write_json("path.json", {"ground": names, "facets": [list(p) for p in zip(names, names[1:])]})
    cert_path = tmp_path / "cert.json"
    start = perf_counter()
    check_code, check = run_cli(capsys, "grape", "check", path, "--variant", "strong")
    cert_path.write_text(json.dumps(check["certificate"]))
    code, out = run_cli(capsys, "grape", "verify-cert", path, str(cert_path))
    elapsed = perf_counter() - start
    assert check_code == 0 and check["verdict"] == "yes"
    assert code == 0 and out == {"valid": True, "variant": "strong"}
    assert elapsed < 4.0


def test_grape_check_yes_no_unknown(write_json, capsys):
    c5 = write_json("c5.json", C5)
    code, out = run_cli(capsys, "grape", "check", c5, "--variant", "weak")
    assert code == 0 and out["verdict"] == "yes" and "certificate" in out
    code, out = run_cli(capsys, "grape", "check", c5, "--variant", "comb")
    assert code == 1 and out["verdict"] == "no"
    rp2 = write_json("rp2.json", RP2)
    code, out = run_cli(capsys, "grape", "check", rp2, "--variant", "weak")
    assert code == 3 and out["verdict"] == "unknown"
    code, out = run_cli(
        capsys, "grape", "check", rp2, "--variant", "weak", "--exhaustive-gamma"
    )
    assert code == 1 and out["verdict"] == "no"


def test_grape_classify(write_json, capsys):
    code, out = run_cli(capsys, "grape", "classify", write_json("p.json", TWO_POINTS))
    assert code == 0
    assert out["strong"] is True
    assert out["class"] == {"class": "cross-polytope-boundary", "n": 1}
    code, out = run_cli(capsys, "grape", "classify", write_json("c5.json", C5))
    assert code == 1 and out["strong"] is False


def test_grape_verify_cert_round_trip(write_json, capsys, tmp_path):
    c5 = write_json("c5.json", C5)
    code, out = run_cli(capsys, "grape", "check", c5, "--variant", "weak")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(out["certificate"]))
    code, out = run_cli(capsys, "grape", "verify-cert", c5, str(cert_path))
    assert code == 0 and out["valid"] is True and out["variant"] == "weak"
    # replaying the certificate against a different complex must fail
    other = write_json("other.json", EDGE)
    code, out = run_cli(capsys, "grape", "verify-cert", other, str(cert_path))
    assert code == 1 and out["valid"] is False


def test_from_graph_and_dual(write_json, capsys):
    g = write_json("g.json", graph_to_json(path_graph(3)))
    code, out = run_cli(capsys, "from-graph", g, "--complex", "ind")
    assert code == 0 and out["facets"] == [["v2"], ["v1", "v3"]]
    code, out = run_cli(capsys, "from-graph", g, "--complex", "ec")
    assert code == 0 and out["facets"] == [[]]
    code, dual = run_cli(capsys, "from-graph", g, "--complex", "ind", "--dual")
    assert code == 0 and dual["facets"]


def test_from_digraph(write_json, capsys):
    d = write_json("d.json", digraph_to_json(cyclic_no_useless_digraph()))
    code, out = run_cli(capsys, "from-digraph", d, "--complex", "pf")
    assert code == 0
    assert sorted(map(sorted, out["facets"])) == [
        ["A", "C", "D", "E"],
        ["A", "D", "F"],
        ["B", "C", "D", "F"],
        ["B", "C", "E"],
    ]


def test_verify_forest_command(write_json, capsys):
    g = write_json("g.json", graph_to_json(path_graph(3)))
    code, out = run_cli(capsys, "verify", "forest", g)
    assert code == 0
    assert out["fail"] == 0 and out["pass"] == 8


def test_verify_forest_rejects_nonforest(write_json, capsys):
    g = write_json(
        "g.json", {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    )
    code = main(["verify", "forest", g])
    assert code == 1


def test_verify_pfpm_command(write_json, capsys):
    d = write_json("d.json", digraph_to_json(cyclic_no_useless_digraph()))
    code, out = run_cli(capsys, "verify", "pfpm", d)
    assert code == 0 and out["fail"] == 0


def test_verify_duality_command(write_json, capsys):
    code, out = run_cli(
        capsys,
        "verify",
        "duality",
        write_json("p.json", TWO_POINTS),
        "--variant",
        "strong",
    )
    assert code == 0 and out["pass"] is True
    # a well-formed non-grape exits by its primal verdict
    code, out = run_cli(
        capsys, "verify", "duality", write_json("c5.json", C5), "--variant", "comb"
    )
    assert code == 1 and out["primal_verdict"] == "no" and out["pass"] is False
    code, out = run_cli(
        capsys, "verify", "duality", write_json("rp2.json", RP2), "--variant", "weak"
    )
    assert code == 3 and out["primal_verdict"] == "unknown" and out["pass"] is False


def test_verify_cad_command(write_json, capsys):
    code, out = run_cli(capsys, "verify", "cad", write_json("c5.json", C5))
    assert code == 0 and out["status"] == "pass"
    degenerate = write_json("void.json", complex_to_json(void_complex("")))
    code, out = run_cli(capsys, "verify", "cad", degenerate)
    assert code == 1 and out["status"] == "fail"


def test_gen_commands_are_deterministic(capsys):
    code, first = run_cli(capsys, "gen", "complex", "--ground", "4", "--seed", "9")
    assert code == 0
    code, second = run_cli(capsys, "gen", "complex", "--ground", "4", "--seed", "9")
    assert first == second
    code, forest = run_cli(capsys, "gen", "forest", "--n", "5", "--seed", "3")
    assert code == 0 and len(forest["vertices"]) == 5
    code, d = run_cli(capsys, "gen", "digraph", "--v", "3", "--arcs", "4", "--seed", "2")
    assert code == 0 and len(d["arcs"]) == 4


def test_suite_command_smoke(capsys):
    code, out = run_cli(capsys, "suite", "--level", "smoke", "--seed", "5")
    assert code == 0
    assert out["fail"] == 0 and out["pass"] > 1000


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dual", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["dual", str(missing)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"ground": ["a"], "facets": [["z"]]}))
    assert main(["dual", str(wrong)]) == 2
    assert main(["link", str(wrong), "x"]) == 2


def module_env():
    """The environment for ``python -m grapes`` on this checkout's source."""
    src = str(Path(grapes.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_module(*argv):
    """Run ``python -m grapes`` in a child process, as a shell user would."""
    return subprocess.run(
        [sys.executable, "-m", "grapes", *argv], capture_output=True, text=True, env=module_env()
    )


def test_python_dash_m_entry_point(write_json):
    result = run_module("homology", write_json("c5.json", C5))
    assert result.returncode == 0
    assert json.loads(result.stdout)["betti"]["1"] == 1


def test_a_closed_stdout_exits_one_without_a_traceback(write_json):
    # both outputs are larger than a pipe's buffer, so the writer meets the
    # closed end: the 4,096 facets of the independence complex of a perfect
    # matching on 24 vertices (about 650 KB), and a 600-vertex path's
    # certificate (about 150 KB)
    v = [f"v{i}" for i in range(24)]
    matching = write_json("matching.json", {"vertices": v, "edges": [v[i:i + 2] for i in range(0, 24, 2)]})
    names = [f"v{i}" for i in range(1, 601)]
    path = write_json("path.json", {"ground": names, "facets": [list(p) for p in zip(names, names[1:])]})
    for argv in (("from-graph", matching, "--complex", "ind"),
                 ("grape", "check", path, "--variant", "strong")):
        # as `| head -c 1` does: read one byte, then close the pipe
        with subprocess.Popen([sys.executable, "-m", "grapes", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=module_env()) as proc:
            assert proc.stdout.read(1) == "{"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1, argv
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


STRONG_LIST_APEX = {
    "pivot": "a",
    "witness": {"kind": "strong", "cone_side": "link", "link_apex": ["x"]},
    "link": {"base": "point"},
    "deletion": {"base": "point"},
}
WEAK_NESTED_FACET = {
    "pivot": "a",
    "witness": {"kind": "weak", "gamma_facets": [[["x"]]], "collapse": {"steps": []}},
    "link": {"base": "point"},
    "deletion": {"base": "point"},
}
WEAK_NESTED_STEP = {
    "pivot": "a",
    "witness": {
        "kind": "weak",
        "gamma_facets": [],
        "collapse": {"steps": [{"sigma": [["a"]], "tau": []}]},
    },
    "link": {"base": "point"},
    "deletion": {"base": "point"},
}

STRONG_LINK = {"kind": "strong", "cone_side": "link", "link_apex": "b"}


def node_table(link, deletion, fmt=2):
    """A two-node certificate whose root names its children by the given refs."""
    root = {"pivot": "a", "witness": STRONG_LINK, "link": link, "deletion": deletion}
    return {"format": fmt, "nodes": [{"base": "point"}, root]}


BAD_TABLES = {
    "forward_ref": {"format": 2, "nodes": [node_table(1, 1)["nodes"][1], {"base": "point"}]},
    "self_ref": node_table(0, 1),
    "out_of_range_ref": node_table(0, -1),
    "bool_ref": node_table(True, 0),
    "string_ref": node_table(0, "0"),
    "empty_nodes": {"format": 2, "nodes": []},
    "format_three": node_table(0, 0, fmt=3),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "{edge}", "--budget", "-1"],
        ["gen", "complex", "--ground", "30", "--seed", "1"],
        ["gen", "forest", "--n", "0", "--seed", "1"],
        ["gen", "digraph", "--v", "0", "--arcs", "1", "--seed", "1"],
        ["grape", "verify-cert", "{edge}", "{strong_list_apex}"],
        ["grape", "verify-cert", "{edge}", "{weak_nested_facet}"],
        ["grape", "verify-cert", "{edge}", "{weak_nested_step}"],
        ["dual", "{deep}"],
        ["from-graph", "{int_endpoint}", "--complex", "ind"],
        ["from-graph", "{list_endpoint}", "--complex", "ind"],
        ["gen", "complex", "--ground", "3", "--density", "nan", "--seed", "1"],
        ["gen", "complex", "--ground", "3", "--density", "inf", "--seed", "1"],
        ["gen", "complex", "--ground", "3", "--density", "1e300", "--seed", "1"],
        ["gen", "complex", "--ground", "3", "--density", "-1", "--seed", "1"],
        ["gen", "complex", "--ground", "26", "--density", "1", "--seed", "1"],
        *(["grape", "verify-cert", "{edge}", "{%s}" % name] for name in BAD_TABLES),
        ["grape", "check", "{edge}", "--variant", "strong", "--budget", "0"],
        ["grape", "check", "{edge}", "--variant", "strong", "--budget", "-5"],
        ["gen", "digraph", "--v", "2", "--arcs", "-3", "--seed", "1"],
        ["gen", "forest", "--n", "3", "--seed", "1", "--drop", "-2"],
        ["homology", "{not_utf8}"],
        ["homology", "{huge_int}"],
        ["verify", "cad", "{not_utf8}"],
        ["verify", "cad", "{huge_int}"],
        ["homology", "{forty}"],
    ],
)
def test_bad_values_exit_two_without_traceback(write_json, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00garbage")
    huge_int = tmp_path / "huge_int.json"
    huge_int.write_text('{"ground": ["a"], "facets": [["a"]], "x": %s}' % ("9" * 5000))
    forty = [f"x{i}" for i in range(40)]
    files = {
        "not_utf8": str(not_utf8),
        "huge_int": str(huge_int),
        "forty": write_json("forty.json", {"ground": forty, "facets": [forty]}),
        "deep": str(deep),
        "edge": write_json("edge.json", EDGE),
        "strong_list_apex": write_json("c1.json", STRONG_LIST_APEX),
        "weak_nested_facet": write_json("c2.json", WEAK_NESTED_FACET),
        "weak_nested_step": write_json("c3.json", WEAK_NESTED_STEP),
        "int_endpoint": write_json("g1.json", {"vertices": ["a", "b"], "edges": [["a", 1]]}),
        "list_endpoint": write_json("g2.json", {"vertices": ["a"], "edges": [[["x"], "a"]]}),
        **{name: write_json(f"{name}.json", table) for name, table in BAD_TABLES.items()},
    }
    result = run_module(*(a.format(**files) for a in argv))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("input error:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def hostile_files(draw):
    """Bytes of a complex file that a user, or an attacker, might hand the CLI."""
    kind = draw(st.sampled_from(["bytes", "huge_int", "deep", "wrong_types", "names"]))
    if kind == "bytes":
        return draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3", b"{\"ground\": [\"\xe9\"]"])) + draw(
            st.binary(max_size=20)
        )
    if kind == "huge_int":
        digits = "9" * draw(st.integers(4301, 6000))
        where = draw(st.sampled_from(['"x": %s', '"ground": [%s]', '"facets": [[%s]]']))
        return ('{"ground": ["a"], "facets": [["a"]], ' + where % digits + "}").encode()
    if kind == "deep":
        depth = draw(st.integers(1, 3000))
        return ('{"ground": ' + "[" * depth + "]" * depth + ', "facets": []}').encode()
    if kind == "wrong_types":
        data = draw(
            JSON_VALUES
            | st.fixed_dictionaries({"ground": JSON_VALUES, "facets": JSON_VALUES})
        )
        return json.dumps(data).encode()
    names = draw(st.lists(st.text(max_size=2), max_size=6))
    facets = draw(st.lists(st.lists(st.sampled_from(names + ["\u2603"]), max_size=4), max_size=4))
    return json.dumps({"ground": names, "facets": facets}, ensure_ascii=draw(st.booleans())).encode()


HOSTILE_NAMES = st.sampled_from(["a", "b", "c", "", "a-b", "\u2603"]) | st.text(max_size=2)
HOSTILE_ENTRIES = HOSTILE_NAMES | st.integers(-1, 1) | st.none() | st.lists(HOSTILE_NAMES, max_size=2)


def as_json_bytes(data):
    return st.booleans().map(lambda ascii: json.dumps(data, ensure_ascii=ascii).encode())


@st.composite
def hostile_graph_files(draw):
    """Graph and digraph files with duplicate, empty, unknown or non-string names."""
    vertices = draw(st.lists(HOSTILE_NAMES, max_size=6) | JSON_VALUES)
    if draw(st.booleans()):
        edges = st.lists(st.lists(HOSTILE_ENTRIES, max_size=3), max_size=7)
        data = {"vertices": vertices, "edges": draw(edges | JSON_VALUES)}
    else:
        arc = st.fixed_dictionaries({k: HOSTILE_ENTRIES for k in ("id", "src", "tgt")})
        data = {"vertices": vertices, "arcs": draw(st.lists(arc, max_size=7) | JSON_VALUES),
                "s": draw(HOSTILE_ENTRIES), "t": draw(HOSTILE_ENTRIES)}
    return draw(as_json_bytes(data) | hostile_files())


FILE = "<file>"  # longer than any hostile name, so no drawn argument equals it


def exits_cleanly(raw, commands):
    """Each command, with FILE standing for the file, ends with an exit code,
    never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as handle:
            handle.write(raw)
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([path if arg == FILE else arg for arg in command])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(hostile_files(), HOSTILE_NAMES)
def test_hostile_complex_files_never_end_in_a_traceback(raw, element):
    exits_cleanly(raw, [["homology", FILE], ["verify", "cad", FILE], ["dual", FILE],
                        ["link", "--", FILE, element], ["del", "--", FILE, element]])


@settings(max_examples=150, deadline=None)
@given(hostile_graph_files())
def test_hostile_graph_files_never_end_in_a_traceback(raw):
    exits_cleanly(raw, [
        *(["from-graph", FILE, "--complex", kind, *dual]
          for kind in ("ind", "dom", "ec", "ed") for dual in ([], ["--dual"])),
        *(["from-digraph", FILE, "--complex", kind] for kind in ("pf", "pm")),
    ])


# fixed inputs whose builder outputs CI also hashes on other Python versions
CHORDED_PATH = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11", "v12"],
    "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v5"], ["v5", "v6"], ["v6", "v7"],
              ["v7", "v8"], ["v8", "v9"], ["v9", "v10"], ["v10", "v11"], ["v11", "v12"],
              ["v1", "v4"], ["v2", "v7"], ["v3", "v11"], ["v5", "v10"], ["v8", "v12"]],
}
TEN_ARC_DAG = {
    "vertices": ["s", "u", "v", "w", "x", "t"],
    "arcs": [{"id": "e1", "src": "s", "tgt": "u"}, {"id": "e2", "src": "s", "tgt": "v"},
             {"id": "e3", "src": "u", "tgt": "v"}, {"id": "e4", "src": "u", "tgt": "w"},
             {"id": "e5", "src": "v", "tgt": "w"}, {"id": "e6", "src": "v", "tgt": "x"},
             {"id": "e7", "src": "w", "tgt": "x"}, {"id": "e8", "src": "w", "tgt": "t"},
             {"id": "e9", "src": "x", "tgt": "t"}, {"id": "e10", "src": "u", "tgt": "t"}],
    "s": "s",
    "t": "t",
}


def test_builder_outputs_are_byte_stable(write_json, capsys):
    # sha256 of `from-graph --complex dom --dual` and `from-digraph --complex pf` stdout
    outputs = []
    for argv in (["from-graph", write_json("g.json", CHORDED_PATH), "--complex", "dom", "--dual"],
                 ["from-digraph", write_json("d.json", TEN_ARC_DAG), "--complex", "pf"]):
        assert main(argv) == 0
        outputs.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert outputs == [
        "b50c8ddb68d3b588ed0946cb19490733adbcf4da5cec2ec914f53569ba9a1921",
        "e2a2488453cc8d785b95fec40a671ca0a3baed5fe95b3dd15db8fb53ac4e18b3",
    ]
