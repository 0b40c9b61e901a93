"""CLI wire formats and exit codes, exercised in-process."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grapes
from grapes.cli import main
from grapes.complexes import complex_to_json, void_complex
from grapes.generators import cycle_complex, cyclic_no_useless_digraph, path_graph
from grapes.graphs import digraph_to_json, graph_to_json


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


def run_module(*argv):
    """Run ``python -m grapes`` in a child process, as a shell user would."""
    src = str(Path(grapes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "grapes", *argv], capture_output=True, text=True, env=env
    )


def test_python_dash_m_entry_point(write_json):
    result = run_module("homology", write_json("c5.json", C5))
    assert result.returncode == 0
    assert json.loads(result.stdout)["betti"]["1"] == 1


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
    ],
)
def test_bad_values_exit_two_without_traceback(write_json, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    files = {
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
