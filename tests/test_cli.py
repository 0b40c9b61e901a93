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
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import grapes
import grapes.cli as cli
import grapes.collapse
import grapes.complexes as complexes
import grapes.graphs as graphs
from grapes.cli import VARIANTS, _build_parser, main
from grapes.complexes import (
    complex_from_json,
    complex_to_json,
    void_complex,
)
from grapes.generators import cycle_complex, cyclic_no_useless_digraph, gen_digraph, gen_forest
from grapes.grape import GrapeVariant, certificate_to_json, check_grape
from grapes.graphs import digraph_to_json, graph_to_json
from shapes import cross_polytope
from test_collapse import dunce_hat_with_star
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
# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS = {
    "ground": list("0123456"),
    "facets": [[str(i), str((i + d) % 7), str((i + 3) % 7)] for i in range(7) for d in (1, 2)],
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


def test_handlers_read_library_functions_when_they_run(write_json, capsys, monkeypatch):
    # a tracer rebinds the module's globals after the parser is built and cached
    _build_parser()
    calls = []
    original = cli.alexander_dual

    def traced(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(cli, "alexander_dual", traced)
    code, out = run_cli(capsys, "dual", write_json("c.json", TWO_POINTS))
    assert code == 0 and out == {"ground": ["a", "b"], "facets": [[]]}
    assert len(calls) == 1


def test_main_builds_its_parser_once(write_json, capsys, monkeypatch):
    # a call parses with its command's own parser, built on first use; the
    # full parser is built only for what that one cannot answer
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    cli._build_parser.cache_clear()
    path = write_json("c.json", {"ground": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]]})
    assert run_cli(capsys, "link", path, "a") == (0, {"ground": ["b", "c"], "facets": [["b"]]})
    assert run_cli(capsys, "link", path, "b") == (0, {"ground": ["a", "c"], "facets": [["a"], ["c"]]})
    assert run_cli(capsys, "del", path, "a") == (0, {"ground": ["b", "c"], "facets": [["b", "c"]]})
    assert len(parsers) == 3 and parsers[0] is parsers[1] is not parsers[2]
    assert cli._build_parser.cache_info().currsize == 0
    for argv in (["--help"], ["link", "--help"], ["bogus"]):
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert cli._build_parser.cache_info().currsize == 1, argv
    capsys.readouterr()


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
    assert code == 1 and out["verdict"] == "no"


def test_a_search_that_does_not_replay_exits_one(write_json, capsys, monkeypatch):
    # a search checks its own sequence by replay before it answers: a cone
    # collapse short of its last pair leaves the triangle standing
    real = grapes.collapse.cone_steps
    monkeypatch.setattr(grapes.collapse, "cone_steps", lambda masks, apex: real(masks, apex)[:-1])
    path = write_json("t.json", {"ground": list("abc"), "facets": [list("abc")]})
    assert main(["collapse", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "replay error: search produced a sequence that does not replay\n"


def test_collapse_exhaustive_flag_changes_nothing(write_json, capsys):
    # the flag is still accepted; every search remembers failed face sets
    path = write_json("star.json", complex_to_json(dunce_hat_with_star(7)))
    outputs = []
    for extra in ([], ["--exhaustive"]):
        assert main(["collapse", path, *extra]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {"verdict": "no", "nodes": 449}


def test_collapse_obstruction_replays_as_homology(write_json, capsys):
    # RP2 has no free face and two disjoint edges run out of a budget of 3;
    # each "no" carries the homology that the homology command recomputes
    edges2 = {"ground": list("abcd"), "facets": [["a", "b"], ["c", "d"]]}
    for name, c in (("rp2.json", RP2), ("edges2.json", edges2)):
        path = write_json(name, c)
        code, out = run_cli(capsys, "collapse", path, "--budget", "3")
        assert (code, out["verdict"], out["nodes"]) == (1, "no", 1)
        assert "sequence" not in out
        _, homology = run_cli(capsys, "homology", path)
        assert out["obstruction"] == {k: homology[k] for k in ("betti", "torsion")}
    assert out["obstruction"]["betti"]["0"] == 1
    code, out = run_cli(capsys, "collapse", write_json("e.json", EDGE))
    assert code == 0 and "obstruction" not in out


def test_collapse_past_the_homology_bound_still_searches(write_json, capsys):
    # 2^21 faces are too many for homology, so the search runs and its
    # budget ends it, as before: exit 3, never 2
    simplex = [f"v{i}" for i in range(21)]
    path = write_json("big.json", {"ground": [*simplex, "w"], "facets": [simplex, ["w"]]})
    code, out = run_cli(capsys, "collapse", path, "--budget", "50")
    assert code == 3 and out == {"nodes": 51, "verdict": "unknown"}


def test_exhausted_grape_check_reports_one_node_more(write_json, capsys):
    # recognition and its collapse searches spend one budget, so a run that
    # runs out reports budget + 1 nodes wherever the last node fell
    path = write_json("c5.json", C5)
    for budget in (1, 3, 4, 5):
        code, out = run_cli(capsys, "grape", "check", path, "--variant", "weak",
                            "--budget", str(budget))
        assert code == 3 and out == {"nodes": budget + 1, "reason": "recognition budget exhausted",
                                     "verdict": "unknown"}


def test_collapse_of_a_cone_past_the_face_bound_is_input_error(write_json, capsys):
    # the full simplex on 22 vertices is a cone whose base spans 2^21 faces:
    # the face enumerator refuses it before building one, so exit 2 at once
    simplex = [f"v{i}" for i in range(22)]
    path = write_json("simplex22.json", {"ground": simplex, "facets": [simplex]})
    start = time.perf_counter()
    assert main(["collapse", path, "--budget", "50"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "the facets span more than 1048576 faces" in capsys.readouterr().err


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
    assert (code, out["verdict"], out["reason"]) == (
        1, "no", "the reduced homology has torsion, which no grape has")
    torus = write_json("torus.json", TORUS)
    code, out = run_cli(capsys, "grape", "check", torus, "--variant", "strong-weak")
    assert code == 1 and out["verdict"] == "no"
    code, out = run_cli(capsys, "grape", "check", torus, "--variant", "weak")
    assert code == 3 and out["verdict"] == "unknown"
    # homology refutes unasked, so there is no switch for it
    with pytest.raises(SystemExit) as exc:
        main(["grape", "check", rp2, "--variant", "weak", "--exhaustive-gamma"])
    assert exc.value.code == 2


def test_grape_classify(write_json, capsys):
    code, out = run_cli(capsys, "grape", "classify", write_json("p.json", TWO_POINTS))
    assert code == 0
    assert out["strong"] is True
    assert out["class"] == {"class": "cross-polytope-boundary", "n": 1}
    code, out = run_cli(capsys, "grape", "classify", write_json("c5.json", C5))
    assert code == 1 and out["strong"] is False


def test_grape_verify_cert_round_trip(write_json, capsys, tmp_path):
    # the face kernel at scale: cross(11) has 2,048 facets on 22 elements
    cross11 = write_json("cross11.json", complex_to_json(cross_polytope(11)))
    c5 = write_json("c5.json", C5)
    cert_path = tmp_path / "cert.json"
    for path, variant in ((cross11, "comb"), (c5, "weak")):
        code, out = run_cli(capsys, "grape", "check", path, "--variant", variant)
        assert code == 0, variant
        cert_path.write_text(json.dumps(out["certificate"]))
        code, out = run_cli(capsys, "grape", "verify-cert", path, str(cert_path))
        assert code == 0 and out["valid"] is True and out["variant"] == variant
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


def test_from_graph_dual_runs_no_transversal_search(write_json, capsys, monkeypatch):
    # Ind of a perfect matching with 21 edges has 2^21 facets, past MAX_FACES,
    # and its dual one per edge, built from the edges with no Berge search
    v = [f"v{i}" for i in range(42)]
    matching = write_json("matching.json", {"vertices": v, "edges": [v[i:i + 2] for i in range(0, 42, 2)]})
    calls = []
    for module, name in ((cli, "alexander_dual"), (complexes, "_transversals")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for kind in cli.FORBIDDEN_SETS:
        code, out = run_cli(capsys, "from-graph", matching, "--complex", kind, "--dual")
        assert code == 0 and len(out["facets"]) == 21, kind
    assert calls == []
    code, out = run_cli(capsys, "from-graph", matching, "--complex", "ind")
    assert code == 2 and out is None and calls == ["_transversals"]


def test_a_primal_build_past_max_faces_names_the_complex(write_json, capsys, monkeypatch):
    # Ind of a 7-edge matching has 2^7 facets; no dual was asked for
    monkeypatch.setattr(complexes, "MAX_FACES", 2**6)
    v = [f"v{i}" for i in range(14)]
    edges = [v[i:i + 2] for i in range(0, 14, 2)]
    matching = write_json("matching.json", {"vertices": v, "edges": edges})
    assert main(["from-graph", matching, "--complex", "ind"]) == 2
    assert capsys.readouterr().err == "input error: the complex's computation has an intermediate family of more than 64 sets\n"
    assert main(["from-graph", matching, "--complex", "ind", "--dual"]) == 0
    capsys.readouterr()
    # three disjoint s-t paths of 5 arcs: PF has a facet per cut, 5^3 of them
    chains = [["s", *(f"{c}{i}" for i in range(1, 5)), "t"] for c in "xyz"]
    arcs = [{"id": p[i] + p[i + 1], "src": p[i], "tgt": p[i + 1]} for p in chains for i in range(5)]
    vertices = ["s", "t", *(x for p in chains for x in p[1:-1])]
    pf = write_json("d.json", {"vertices": vertices, "arcs": arcs, "s": "s", "t": "t"})
    assert main(["from-digraph", pf, "--complex", "pf"]) == 2
    assert capsys.readouterr().err == "input error: the complex's computation has an intermediate family of more than 64 sets\n"


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


def test_verify_forest_command_on_the_empty_graph(write_json, capsys):
    # every complex lives on an empty ground: the primals are irrelevant and
    # their duals void, forced rather than read off a dimension formula
    g = write_json("g.json", {"vertices": [], "edges": []})
    code, out = run_cli(capsys, "verify", "forest", g)
    assert code == 0
    assert out["fail"] == 0 and out["unknown"] == 0 and out["pass"] == 8
    observed = [r["observed"] for r in out["reports"]]
    assert observed == ["cross-polytope-boundary(0)"] * 4 + ["void"] * 4


def test_verify_forest_command_on_eighteen_vertices(write_json, capsys):
    # the face bound counts distinct faces: summed over facets, 2^|F| passed
    # it on the dual side of this forest
    g = write_json("g.json", graph_to_json(gen_forest(18, 1)))
    code, out = run_cli(capsys, "verify", "forest", g)
    assert code == 0
    assert out["fail"] == 0 and out["unknown"] == 0 and out["pass"] == 8


def test_verify_forest_rejects_nonforest(write_json, capsys):
    # a graph with a cycle is malformed input for the forest theorem: exit 2
    g = write_json(
        "g.json", {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    )
    assert main(["verify", "forest", g]) == 2
    assert capsys.readouterr().err == "input error: forest theorem harness needs a forest\n"
    result = run_module("verify", "forest", g)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("input error:") and "Traceback" not in result.stderr


MEASURED_VERIFY_FOREST = """
import json, resource, subprocess, sys
child = subprocess.run([sys.executable, "-m", "grapes", "verify", "forest", sys.argv[1]],
                       capture_output=True, text=True)
print(json.dumps({"code": child.returncode, "stdout": child.stdout, "stderr": child.stderr,
                  "peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


@pytest.mark.parametrize("shape", ["path", "gen forest"])
def test_verify_forest_refuses_65536_vertices_in_linear_memory(write_json, shape):
    # the forest test is the canonical form's leaf peel, which keeps O(n)
    # ints, and the invariants' size refusal follows it: no closed
    # neighbourhood or breadth-first layer of Θ(n) bits per vertex, which
    # took the child to 585 MB on the path and 454 MB on the forest.  The
    # child's peak resident set (ru_maxrss, in kilobytes on Linux) is read
    # by a process of its own, which waits for nothing else
    n = 1 << 16
    if shape == "path":
        names = [f"v{i}" for i in range(1, n + 1)]
        payload = {"vertices": names, "edges": [list(e) for e in zip(names, names[1:])]}
    else:
        payload = graph_to_json(gen_forest(n, 1))
    g = write_json("g.json", payload)
    result = subprocess.run([sys.executable, "-c", MEASURED_VERIFY_FOREST, g], env=module_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    measured = json.loads(result.stdout)
    assert (measured["code"], measured["stdout"], measured["stderr"]) == (
        2, "", "input error: the invariants search 2^65536 vertex subsets, more than 1048576\n")
    assert measured["peak_kb"] < 150 * 1024, measured["peak_kb"]


def test_colliding_edge_labels_are_refused(write_json, capsys):
    # the edges a-b -- c and a -- b-c are both labelled "a-b-c"
    g = write_json("g.json", {"vertices": ["a-b", "c", "a", "b-c"],
                              "edges": [["a-b", "c"], ["a", "b-c"]]})
    for argv in (["from-graph", g, "--complex", "ec"], ["from-graph", g, "--complex", "ed"],
                 ["verify", "forest", g]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "input error: edge labels collide; rename vertices\n")


def test_verify_pfpm_command(write_json, capsys):
    d = write_json("d.json", digraph_to_json(cyclic_no_useless_digraph()))
    code, out = run_cli(capsys, "verify", "pfpm", d)
    assert code == 0 and out["fail"] == 0


def pinned_outputs(capsys, argvs):
    """The exit code and the sha256 of the stdout of each in-process call."""
    out = []
    for argv in argvs:
        code = main(argv)
        out.append((code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()))
    return out


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
    assert out["wedge"] == {"0": 1} and out["dual_wedge"] == out["expected_dual_wedge"] == {"-1": 1}
    # a well-formed non-grape exits by its primal verdict
    code, out = run_cli(
        capsys, "verify", "duality", write_json("c5.json", C5), "--variant", "comb"
    )
    assert code == 1 and out["primal_verdict"] == "no" and out["pass"] is False
    code, out = run_cli(
        capsys, "verify", "duality", write_json("torus.json", TORUS), "--variant", "weak"
    )
    assert code == 3 and out["primal_verdict"] == "unknown" and out["pass"] is False
    # exit codes and stdout bytes: an unknown primal, a primal "no" by torsion,
    # yes pairs of each weak-family variant, whose wedges are compared as the
    # strong one's are, and the empty ground, where no wedges are compared
    c5, rp2 = write_json("c5.json", C5), write_json("rp2.json", RP2)
    empty = write_json("empty.json", complex_to_json(void_complex("")))
    assert pinned_outputs(capsys, [
        ["verify", "duality", write_json("p.json", TWO_POINTS), "--variant", "strong"],
        ["verify", "duality", c5, "--variant", "comb"],
        ["verify", "duality", write_json("torus.json", TORUS), "--variant", "weak"],
        ["verify", "duality", rp2, "--variant", "weak"],
        ["verify", "duality", c5, "--variant", "weak"],
        ["verify", "duality", c5, "--variant", "strong-weak"],
        ["verify", "duality", empty, "--variant", "strong"],
    ]) == [
        (0, "514cd430513a62741483c2a9ab5d40eb6cc10f3f02640746356598cf83731881"),
        (1, "ccf262a5476645ce38b3f59695475d33a85dbfd7e30f7c7c1810fb77b84c2b00"),
        (3, "f5c50526a955763ce3c4b6ea44ea564164db83a1c786f641c3028610ec453b89"),
        (1, "d60b07e626eff6780906097bbd1d88ac6d04a91e414359dfd2fbcc4f2f92bcb6"),
        (0, "c179a61af11eeaa430dac4a26e16de0fd9693104707062ba8d309e51101b8da8"),
        (0, "3417db42ad8e4af299551f04f76746f4377cc463ccf3a62db34884a2526ae382"),
        (0, "67f5f1f7a0bc93a601131c77bbc83128c07bb0d80e3675a30ee1112f9f3d03cf"),
    ]


def test_verify_duality_exits_three_on_an_unknown_dual(write_json, capsys, monkeypatch):
    # C5 is a strong-weak grape and so is its dual; with the dual's
    # recognition held to one node it comes back "unknown", which is no
    # guessed "fail": the report is unknown and the command exits 3
    real, recognised = grapes.verify.check_grape, []

    def dual_runs_out(c, variant, **kwargs):
        recognised.append(c)
        return real(c, variant, 1 if len(recognised) > 1 else grapes.collapse.DEFAULT_BUDGET,
                    **kwargs)

    monkeypatch.setattr(grapes.verify, "check_grape", dual_runs_out)
    code, out = run_cli(
        capsys, "verify", "duality", write_json("c5.json", C5), "--variant", "strong-weak")
    assert len(recognised) == 2
    assert (out["primal_verdict"], out["dual_verdict"], out["unknown_tolerated"]) == (
        "yes", "unknown", True)
    # the document agrees with the exit code: an unknown is no pass
    assert out["pass"] is False
    assert code == 3


def test_verify_cad_command(write_json, capsys):
    code, out = run_cli(capsys, "verify", "cad", write_json("c5.json", C5))
    assert code == 0 and out["status"] == "pass"
    degenerate = write_json("void.json", complex_to_json(void_complex("")))
    code, out = run_cli(capsys, "verify", "cad", degenerate)
    assert code == 1 and out["status"] == "fail"
    # exit codes and stdout bytes, the failure's observed index included
    assert pinned_outputs(capsys, [
        ["verify", "cad", write_json("c5.json", C5)],
        ["verify", "cad", write_json("rp2.json", RP2)],
        ["verify", "cad", degenerate],
    ]) == [
        (0, "54e3e686d5c116fe6c8a0173b994b27db17b1bac27dc60cd6feafba00f1f74ba"),
        (0, "dbb5777bf925636ad349767285f71a05f5f4b26485a5b8d971badfa58a966f2e"),
        (1, "809802fb2b491e9b3804a17c00dc4d742c4247c3f32f7d4817c3d1ac0a5d7f00"),
    ]


def test_gen_commands_are_deterministic(capsys):
    code, first = run_cli(capsys, "gen", "complex", "--ground", "4", "--seed", "9")
    assert code == 0
    code, second = run_cli(capsys, "gen", "complex", "--ground", "4", "--seed", "9")
    assert first == second
    code, forest = run_cli(capsys, "gen", "forest", "--n", "5", "--seed", "3")
    assert code == 0 and len(forest["vertices"]) == 5
    code, d = run_cli(capsys, "gen", "digraph", "--v", "3", "--arcs", "4", "--seed", "2")
    assert code == 0 and len(d["arcs"]) == 4
    # pinned bytes: the generator's draws from random.Random stay the same
    # on every Python the project supports
    argvs = [["gen", "digraph", "--v", v, "--arcs", arcs, "--seed", seed]
             for v, arcs, seed in (("4", "6", "7"), ("5", "9", "1"), ("1", "3", "2"))]
    assert pinned_outputs(capsys, argvs) == [
        (0, "bef999a38aa2e4af354b959d878f57c466984e37739bd006a2085864cf0b4198"),
        (0, "089a1f0fbb5c5bcbf6b43503d28b9ba3ca939c9d429caa3567af281e4ce3a332"),
        (0, "a2f24dc6802a61781b73e6ff9389ba911a1256f0cf1524c40149aa5533ce3b28"),
    ]


def test_suite_command_smoke(capsys):
    code, out = run_cli(capsys, "suite", "--level", "smoke", "--seed", "5")
    assert code == 0
    assert out["fail"] == 0 and out["pass"] > 1000
    # the levels are read off the suite's sizes, and a bad one is refused in
    # the words of a parser that lists them by hand
    listed = argparse.ArgumentParser(prog="grapes suite")
    listed.add_argument("--level", choices=["smoke", "full"], default="smoke")
    listed.add_argument("--seed", type=int)
    errors = []
    for parse, argv in ((main, ["suite", "--level", "bogus"]), (listed.parse_args, ["--level", "bogus"])):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: grapes suite [-h] [--level {smoke,full}] [--seed SEED]\n")


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


SRC = str(Path(grapes.__file__).resolve().parent.parent)  # this checkout's source


def module_env():
    """The environment for ``python -m grapes`` on this checkout's source."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def run_module(*argv):
    """Run ``python -m grapes`` in a child process, as a shell user would."""
    return subprocess.run(
        [sys.executable, "-m", "grapes", *argv], capture_output=True, text=True, env=module_env()
    )


def test_python_dash_m_entry_point(write_json):
    result = run_module("homology", write_json("c5.json", C5))
    assert result.returncode == 0
    assert json.loads(result.stdout)["betti"]["1"] == 1
    result = run_module("--help")
    assert result.returncode == 0 and result.stdout.startswith("usage: grapes")


def test_the_smoke_suite_runs_on_the_standard_library_alone():
    # -S keeps site-packages off sys.path, and PYTHONPATH holds the source
    # alone (an inherited one may name site-packages), so the engine cannot
    # import pytest, hypothesis or any other installed package
    result = subprocess.run(
        [sys.executable, "-S", "-m", "grapes", "suite", "--level", "smoke", "--seed", "7"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def test_a_closed_stdout_exits_one_without_a_traceback(write_json):
    # two outputs are larger than a pipe's buffer, so the writer meets the
    # closed end: the 4,096 facets of the independence complex of a perfect
    # matching on 24 vertices (about 650 KB), and a 600-vertex path's
    # certificate (about 150 KB); gen's 331 bytes may land whole before the
    # close, so it exits 0 or 1
    v = [f"v{i}" for i in range(24)]
    matching = write_json("matching.json", {"vertices": v, "edges": [v[i:i + 2] for i in range(0, 24, 2)]})
    names = [f"v{i}" for i in range(1, 601)]
    path = write_json("path.json", {"ground": names, "facets": [list(p) for p in zip(names, names[1:])]})
    for argv, codes in ((("from-graph", matching, "--complex", "ind"), (1,)),
                        (("grape", "check", path, "--variant", "strong"), (1,)),
                        (("gen", "complex", "--ground", "14", "--density", "0.9", "--seed", "1"), (0, 1))):
        # as `| head -c 1` does: read one byte, then close the pipe
        with subprocess.Popen([sys.executable, "-m", "grapes", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=module_env()) as proc:
            assert proc.stdout.read(1) == "{"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode in codes, argv
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


def node_table(link, deletion, fmt=3, witness=None, leaf=None):
    """A two-node certificate whose root names its children by the given refs."""
    root = {"pivot": "a", "witness": witness or {"kind": "strong"}, "link": link,
            "deletion": deletion}
    return {"format": fmt, "nodes": [leaf or {"base": "cone", "apex": "b"}, root]}


BAD_TABLES = {
    "forward_ref": {"format": 3, "nodes": [node_table(1, 1)["nodes"][1], {"base": "irrelevant"}]},
    "self_ref": node_table(0, 1),
    "out_of_range_ref": node_table(0, -1),
    "bool_ref": node_table(True, 0),
    "string_ref": node_table(0, "0"),
    "empty_nodes": {"format": 3, "nodes": []},
    "weak_nested_facet": node_table(0, 0, witness={
        "kind": "weak", "gamma_facets": [[["x"]]], "collapse": {"steps": []}}),
    "weak_nested_step": node_table(0, 0, witness={
        "kind": "weak", "gamma_facets": [], "collapse": {"steps": [{"sigma": [["a"]], "tau": []}]}}),
    "weak_step_not_codim_one": node_table(0, 0, witness={
        "kind": "weak", "gamma_facets": [], "collapse": {"steps": [{"sigma": ["a", "b"], "tau": ["c"]}]}}),
    # formats no version writes any more: the nested tree of format 1, the
    # table of format 2, and a point leaf, which is now a cone leaf
    "format_one": {"pivot": "a", "witness": {"kind": "strong", "cone_side": "link"},
                   "link": {"base": "point"}, "deletion": {"base": "point"}},
    "format_two": node_table(0, 0, fmt=2),
    "point_leaf": node_table(0, 0, leaf={"base": "point"}),
    "format_four": node_table(0, 0, fmt=4),
}


BAD_VALUES = [
    ["collapse", "{edge}", "--budget", "-1"],
    ["gen", "complex", "--ground", "30", "--seed", "1"],
    ["gen", "forest", "--n", "0", "--seed", "1"],
    ["gen", "digraph", "--v", "0", "--arcs", "1", "--seed", "1"],
    ["dual", "{deep}"],
    ["from-graph", "{int_endpoint}", "--complex", "ind"],
    ["from-graph", "{list_endpoint}", "--complex", "ind"],
    # an empty vertex or arc id would be written as a ground element no
    # complex reader accepts
    *(["from-graph", "{empty_vertex}", "--complex", kind] for kind in ("ind", "ec")),
    *(["from-digraph", "{empty_arc}", "--complex", kind] for kind in ("pf", "pm")),
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
    ["gen", "forest", "--n", "100000000", "--seed", "1"],
    ["gen", "digraph", "--v", "100000000", "--arcs", "1", "--seed", "1"],
    ["gen", "digraph", "--v", "2", "--arcs", "100000000", "--seed", "1"],
    ["homology", "{not_utf8}"],
    ["homology", "{huge_int}"],
    ["verify", "cad", "{not_utf8}"],
    ["verify", "cad", "{huge_int}"],
    ["homology", "{forty}"],
    ["verify", "forest", "{forest28}"],
]


def bad_value_files(write_json, tmp_path):
    """The files that BAD_VALUES names in braces."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00garbage")
    huge_int = tmp_path / "huge_int.json"
    huge_int.write_text('{"ground": ["a"], "facets": [["a"]], "x": %s}' % ("9" * 5000))
    forty = [f"x{i}" for i in range(40)]
    return {
        "not_utf8": str(not_utf8),
        "huge_int": str(huge_int),
        "forty": write_json("forty.json", {"ground": forty, "facets": [forty]}),
        "deep": str(deep),
        "edge": write_json("edge.json", EDGE),
        "int_endpoint": write_json("g1.json", {"vertices": ["a", "b"], "edges": [["a", 1]]}),
        "list_endpoint": write_json("g2.json", {"vertices": ["a"], "edges": [[["x"], "a"]]}),
        "empty_vertex": write_json("g3.json", {"vertices": ["", "x"], "edges": [["", "x"]]}),
        "empty_arc": write_json("d1.json", {"vertices": ["s", "t"], "arcs": [
            {"id": "", "src": "s", "tgt": "t"}, {"id": "x", "src": "s", "tgt": "t"}], "s": "s", "t": "t"}),
        # the invariants' subset search is refused past 2^20 subsets
        "forest28": write_json("forest28.json", graph_to_json(gen_forest(28, 1))),
        **{name: write_json(f"{name}.json", table) for name, table in BAD_TABLES.items()},
    }


@pytest.mark.parametrize("argv", BAD_VALUES)
def test_bad_values_exit_two_without_traceback(write_json, tmp_path, argv):
    files = bad_value_files(write_json, tmp_path)
    result = run_module(*(a.format(**files) for a in argv))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("input error:")


# certificates that the reader refuses, each with the one line it writes to stderr
REFUSED_TABLES = {
    "witness_not_an_object": (node_table(0, 0, witness="strong"),
                              "witness must be an object"),
    "combinatorial_without_cone_element": (
        node_table(0, 0, witness={"kind": "combinatorial", "cone_element": ["b"]}),
        'combinatorial witness needs a "cone_element" string'),
    "strong_weak_side_neither": (
        node_table(0, 0, witness={"kind": "strong-weak", "side": "both", "collapse": {"steps": []}}),
        'strong-weak witness needs "side": "link" or "deletion"'),
    "node_not_an_object": ({"format": 3, "nodes": [["base", "void"]]},
                           "certificate node must be an object"),
    "collapse_without_steps": (
        node_table(0, 0, witness={"kind": "strong-weak", "side": "link", "collapse": {}}),
        'collapse sequence JSON needs a "steps" array'),
}


@pytest.mark.parametrize("name", sorted(REFUSED_TABLES))
def test_a_refused_certificate_exits_two_with_the_readers_message(write_json, name):
    table, message = REFUSED_TABLES[name]
    argv = ["grape", "verify-cert", write_json("edge.json", EDGE), write_json("cert.json", table)]
    assert outcome(argv) == (2, "", f"input error: {message}\n")


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
ELEMENT = "<element>"  # the drawn ground element
C4_FILE, CERT_FILE = "<c4>", "<certificate>"  # fixed files beside the drawn one
# the 4-cycle: no cone, so its certificates hold splits, witnesses, irrelevant and cone leaves
C4 = {"ground": ["a", "b", "c", "d"], "facets": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]}
C4_CERTIFICATES = [
    certificate_to_json(check_grape(complex_from_json(C4), variant).certificate)
    for variant in GrapeVariant
]


def run_quietly(argv):
    """The exit code and stdout of one in-process call, which must not end in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


def exits_cleanly(raw, commands, element="a"):
    """Each command, with FILE standing for a file of the raw bytes, ends with
    an exit code, never a traceback; what a builder writes with exit 0,
    ``homology`` reads with exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        fill = {ELEMENT: element}
        for name, data in ((FILE, raw), (C4_FILE, json.dumps(C4).encode()),
                           (CERT_FILE, json.dumps(C4_CERTIFICATES[0]).encode())):
            fill[name] = os.path.join(tmp, f"{name[1:-1]}.json")
            with open(fill[name], "wb") as handle:
                handle.write(data)
        for command in commands:
            code, out = run_quietly([fill.get(arg, arg) for arg in command])
            assert code in (0, 1, 2, 3)
            if code == 0 and command[0].startswith("from-"):
                built = os.path.join(tmp, "built.json")
                with open(built, "w") as handle:
                    handle.write(out)
                assert run_quietly(["homology", built])[0] == 0


def dicts_in(data):
    """Every object in a JSON value, outermost first."""
    if isinstance(data, dict):
        yield data
        data = list(data.values())
    for value in data if isinstance(data, list) else ():
        yield from dicts_in(value)


CERTIFICATE_WORDS = st.sampled_from(["strong", "combinatorial", "weak", "strong-weak", "link",
                                     "deletion", "both", "point", "void", "irrelevant", "cone"])


@st.composite
def hostile_certificates(draw):
    """Certificates of C4 with one field of one object dropped or replaced,
    node tables of such nodes in any order, or hostile bytes."""
    kind = draw(st.sampled_from(["mutated", "table", "bytes"]))
    if kind == "bytes":
        return draw(hostile_files())
    cert = json.loads(json.dumps(draw(st.sampled_from(C4_CERTIFICATES))))
    if kind == "table":
        nodes = cert["nodes"]
        cert["nodes"] = draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) + 1))
    target = draw(st.sampled_from(list(dicts_in(cert))))
    key = draw(st.sampled_from(sorted(target)) | st.sampled_from(["base", "format", "kind", "apex"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(HOSTILE_ENTRIES | JSON_VALUES | st.integers(-1, 4) | CERTIFICATE_WORDS)
    return draw(as_json_bytes(cert))


BUDGET = ["--budget", "40"]
FUZZED = {
    "complex": [
        ["homology", FILE], ["verify", "cad", FILE], ["dual", FILE],
        ["link", "--", FILE, ELEMENT], ["del", "--", FILE, ELEMENT],
        ["collapse", FILE, *BUDGET],
        *(["grape", "check", FILE, "--variant", v, *BUDGET] for v in sorted(VARIANTS)),
        ["grape", "classify", FILE],
        ["grape", "verify-cert", FILE, CERT_FILE],
        *(["verify", "duality", FILE, "--variant", v] for v in sorted(VARIANTS)),
    ],
    "graph": [
        *(["from-graph", FILE, "--complex", kind, *dual]
          for kind in ("ind", "dom", "ec", "ed") for dual in ([], ["--dual"])),
        *(["from-digraph", FILE, "--complex", kind] for kind in ("pf", "pm")),
        ["verify", "forest", FILE],
        ["verify", "pfpm", FILE],
    ],
    "certificate": [["grape", "verify-cert", C4_FILE, FILE]],
}
NOT_FUZZED = {
    ("gen", "forest"): "reads no file; test_bad_values_exit_two_without_traceback covers its values",
    ("gen", "complex"): "reads no file; test_bad_values_exit_two_without_traceback covers its values",
    ("gen", "digraph"): "reads no file; test_bad_values_exit_two_without_traceback covers its values",
    ("suite",): "reads no file; it takes one of two levels and any integer seed",
}


def subcommands(parser):
    """The {name: parser} of a parser's subcommands, empty for a leaf."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def leaf_commands(parser, prefix=()):
    children = subcommands(parser)
    if not children:
        return [prefix]
    return [leaf for name, child in children.items()
            for leaf in leaf_commands(child, prefix + (name,))]


def command_of(argv):
    """The leading words of argv that name subcommands."""
    parser, words = _build_parser(), ()
    for word in argv:
        children = subcommands(parser)
        if word not in children:
            break
        parser, words = children[word], words + (word,)
    return words


def test_every_declared_command_is_fuzzed_or_named_with_a_reason():
    leaves = leaf_commands(_build_parser())
    fuzzed = {command_of(argv) for commands in FUZZED.values() for argv in commands}
    assert fuzzed <= set(leaves) and set(NOT_FUZZED) <= set(leaves)
    assert not fuzzed & set(NOT_FUZZED)
    assert [leaf for leaf in leaves if leaf not in fuzzed | set(NOT_FUZZED)] == []


@settings(max_examples=150, deadline=None)
@given(hostile_files(), HOSTILE_NAMES)
def test_hostile_complex_files_never_end_in_a_traceback(raw, element):
    exits_cleanly(raw, FUZZED["complex"], element)


@settings(max_examples=150, deadline=None)
@given(hostile_graph_files())
# an empty vertex or arc id, which a builder would write as a ground element
@example(json.dumps({"vertices": ["", "x"], "edges": [["", "x"]]}).encode())
@example(json.dumps({"vertices": ["s", "t"], "arcs": [{"id": "", "src": "s", "tgt": "t"},
                     {"id": "x", "src": "s", "tgt": "t"}], "s": "s", "t": "t"}).encode())
def test_hostile_graph_files_never_end_in_a_traceback(raw):
    exits_cleanly(raw, FUZZED["graph"])


UNKNOWN = "w0"  # names no vertex of a generated forest or digraph, nor of TEN_ARC_DAG
NOT_STRINGS = st.sampled_from([0, None, ["v1"]])


@st.composite
def near_valid_graph_files(draw):
    """A valid document, of `gen forest`, `gen digraph` or the fixed DAG, with
    one field mutated: a vertex renamed everywhere to "", to another vertex's
    name or to a non-string; an arc id made "", a duplicate or a non-string;
    an edge end or arc end made unknown; an edge given 1 or 3 entries; or s
    or t made unknown."""
    source = draw(st.sampled_from(["forest", "digraph", "dag"]))
    if source == "forest":
        doc = graph_to_json(gen_forest(draw(st.integers(1, 6)), draw(st.integers(0, 9)),
                                       draw(st.integers(0, 2))))
    elif source == "digraph":
        doc = digraph_to_json(gen_digraph(draw(st.integers(1, 4)), draw(st.integers(0, 6)),
                                          draw(st.integers(0, 9))))
    else:
        doc = json.loads(json.dumps(TEN_ARC_DAG))
    vertices, edges, arcs = doc["vertices"], doc.get("edges", []), doc.get("arcs", [])
    mutations = ["vertex"] + ["end", "width"] * bool(edges) + ["arc id", "end"] * bool(arcs)
    mutations += ["s", "t"] * ("s" in doc)
    mutation = draw(st.sampled_from(mutations))
    if mutation == "vertex":
        old = draw(st.sampled_from(vertices))
        new = draw(st.sampled_from(["", *vertices]).filter(lambda v: v != old) | NOT_STRINGS)

        def rename(v):
            return new if v == old else v

        doc["vertices"] = [rename(v) for v in vertices]
        if "edges" in doc:
            doc["edges"] = [[rename(v) for v in e] for e in edges]
        else:
            doc["arcs"] = [{**a, "src": rename(a["src"]), "tgt": rename(a["tgt"])} for a in arcs]
            doc["s"], doc["t"] = rename(doc["s"]), rename(doc["t"])
    elif mutation == "arc id":
        arc = draw(st.sampled_from(arcs))
        arc["id"] = draw(st.sampled_from(["", *(a["id"] for a in arcs if a is not arc)]) | NOT_STRINGS)
    elif mutation == "end" and edges:
        edge = draw(st.sampled_from(edges))
        edge[draw(st.integers(0, 1))] = UNKNOWN
    elif mutation == "end":
        draw(st.sampled_from(arcs))[draw(st.sampled_from(["src", "tgt"]))] = UNKNOWN
    elif mutation == "width":
        edge = draw(st.sampled_from(edges))
        edge[:] = draw(st.sampled_from([edge[:1], edge + [draw(st.sampled_from(vertices))]]))
    else:
        doc[mutation] = UNKNOWN
    return draw(as_json_bytes(doc))


@settings(max_examples=150, deadline=None)
@given(near_valid_graph_files())
def test_near_valid_graph_files_never_end_in_a_traceback(raw):
    # with no @example: the one mutated field must reach each check in graph()
    # and digraph(), the empty-name ones too, by drawing alone
    exits_cleanly(raw, FUZZED["graph"])


# seeds for closure under the commands that write a complex: the empty ground,
# a void and an irrelevant complex, a simplex, two points, the 5-cycle, RP2 and
# the 7-vertex torus
CLOSURE_SEEDS = [{"ground": [], "facets": []}, {"ground": ["a", "b"], "facets": []},
                 {"ground": ["a"], "facets": [[]]}, EDGE, TWO_POINTS, C5, RP2, TORUS]


def test_every_complex_a_command_writes_is_read_by_every_complex_command(tmp_path):
    # closure: what dual, link and del write with exit 0 goes through homology,
    # dual, link and del at each of its elements, collapse, grape check, verify
    # cad and verify duality of every variant; none may refuse it (exit 2) or
    # end in a traceback, and every certificate grape check writes replays
    budget = ["--budget", "50"]
    built, cert = str(tmp_path / "built.json"), str(tmp_path / "cert.json")
    for n, seed in enumerate(CLOSURE_SEEDS):
        path = str(tmp_path / f"seed{n}.json")
        Path(path).write_text(json.dumps(seed))
        for writer in [["dual", path],
                       *([cmd, "--", path, x] for x in seed["ground"] for cmd in ("link", "del"))]:
            code, out = run_quietly(writer)
            assert code == 0, writer
            Path(built).write_text(out)
            ground = json.loads(out)["ground"]
            for reader in [["homology", built], ["dual", built],
                           *([cmd, "--", built, x] for x in ground for cmd in ("link", "del")),
                           ["collapse", built, *budget], ["verify", "cad", built],
                           *(["verify", "duality", built, "--variant", v] for v in sorted(VARIANTS))]:
                assert run_quietly(reader)[0] in (0, 1, 3), (writer, reader)
            for v in sorted(VARIANTS):
                code, out = run_quietly(["grape", "check", built, "--variant", v, *budget])
                assert code in (0, 1, 3), (writer, v)
                if code == 0:
                    Path(cert).write_text(json.dumps(json.loads(out)["certificate"]))
                    code, out = run_quietly(["grape", "verify-cert", built, cert])
                    assert code == 0 and json.loads(out)["valid"] is True, (writer, v)


@settings(max_examples=150, deadline=None)
@given(hostile_certificates())
def test_hostile_certificate_files_never_end_in_a_traceback(raw):
    exits_cleanly(raw, FUZZED["certificate"])


# fixed inputs of the builder-output pins and read-backs
CHORDED_PATH = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11", "v12"],
    "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v5"], ["v5", "v6"], ["v6", "v7"],
              ["v7", "v8"], ["v8", "v9"], ["v9", "v10"], ["v10", "v11"], ["v11", "v12"],
              ["v1", "v4"], ["v2", "v7"], ["v3", "v11"], ["v5", "v10"], ["v8", "v12"]],
}
EIGHT_VERTEX_FOREST = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"],
    "edges": [["v1", "v2"], ["v2", "v3"], ["v2", "v4"], ["v4", "v5"], ["v5", "v6"], ["v7", "v8"]],
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
CROSS_4 = complex_to_json(cross_polytope(4))


def test_builder_outputs_are_byte_stable(write_json, capsys, tmp_path):
    # sha256 of the stdout of `from-graph --complex dom --dual`, `from-digraph
    # --complex pf`, `verify forest`, `verify pfpm`, of `grape classify` and
    # `verify duality --variant strong` on the boundary of the 4-cross-polytope,
    # of the two Berge runs `from-graph --complex dom` (minimal transversals
    # of the closed neighbourhoods) and `dual` on that boundary, and of
    # `grape check` on it for the comb, weak and strong-weak variants, whose
    # certificates carry the other three witness kinds
    outputs = []
    graph = write_json("g.json", CHORDED_PATH)
    dag = write_json("d.json", TEN_ARC_DAG)
    cross = write_json("x.json", CROSS_4)
    for argv in (["from-graph", graph, "--complex", "dom", "--dual"],
                 ["from-digraph", dag, "--complex", "pf"],
                 ["verify", "forest", write_json("f.json", EIGHT_VERTEX_FOREST)],
                 ["verify", "pfpm", dag],
                 ["grape", "classify", cross],
                 ["verify", "duality", cross, "--variant", "strong"],
                 ["from-graph", graph, "--complex", "dom"],
                 ["dual", cross],
                 ["grape", "check", cross, "--variant", "comb"],
                 ["grape", "check", cross, "--variant", "weak"],
                 ["grape", "check", cross, "--variant", "strong-weak"]):
        assert main(argv) == 0
        outputs.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert outputs == [
        "b50c8ddb68d3b588ed0946cb19490733adbcf4da5cec2ec914f53569ba9a1921",
        "e2a2488453cc8d785b95fec40a671ca0a3baed5fe95b3dd15db8fb53ac4e18b3",
        "dc00289257449c73749c1dd3dd9c3c7148d581ec7836a29a486d9d1d325e8328",
        "cd7e823b53e73bb444e9dd5d7769394ea740388bb891aa1cd0233aa8c3d88d35",
        "11ed2e773905cf80957b0c3935ed12794a12b9771257e7a4d70212eaa488fc34",
        "ccc395a45a199215016b817afce6adfaf4fe162e8bdbdefc548e0471eeb47fee",
        "6a7b0e849ce08d33205cb576078761ea360f5cbe2382a892f1c758808d4b23fb",
        "d328551e91e2d233ed69cf67f3ee0b502e854cdfa192672b25a5e22a39ee07e6",
        "3efd4a70761794694987a3e7056f40062407cd49ab9311587784bf6c21a43575",
        "a6bde21c208bb732577afb3a8743604d73ff490eb930d896a17d5b2ffdb0f522",
        "70c00eaec514e4543b15d13117e43c68c1fb768ca065d1f8fa9a792662e54d39",
    ]
    # what a builder writes, homology reads: each kind on the graph, primal
    # and dual, and both complexes of the DAG
    built = tmp_path / "built.json"
    for argv in (*(["from-graph", graph, "--complex", kind, *dual]
                   for kind in cli.FORBIDDEN_SETS for dual in ([], ["--dual"])),
                 *(["from-digraph", dag, "--complex", kind] for kind in ("pf", "pm"))):
        assert main(argv) == 0, argv
        built.write_text(capsys.readouterr().out)
        assert main(["homology", str(built)]) == 0, argv
        capsys.readouterr()


def ladder(k):
    """A DAG of k layers, each two parallel arcs: 2^k simple s-t paths."""
    names = [f"u{i}" for i in range(k + 1)]
    arcs = [{"id": f"e{i}{side}", "src": names[i], "tgt": names[i + 1]}
            for i in range(k) for side in "ab"]
    return {"vertices": names, "arcs": arcs, "s": names[0], "t": names[-1]}


@pytest.mark.parametrize("argv", [["from-digraph", "{}", "--complex", "pf"],
                                  ["from-digraph", "{}", "--complex", "pm"],
                                  ["verify", "pfpm", "{}"]])
def test_path_listing_is_bounded_by_max_faces(monkeypatch, write_json, capsys, argv):
    monkeypatch.setattr(graphs, "MAX_FACES", 2**6)
    # 2^6 paths is the bound itself; 2^7 is past it
    assert main([a.format(write_json("six.json", ladder(6))) for a in argv]) == 0
    capsys.readouterr()
    assert main([a.format(write_json("seven.json", ladder(7))) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: the digraph has more than {2**6} s-t paths\n"


# -- the JSON writer ------------------------------------------------------------------


def oracle_json(payload):
    """What the stdlib's indent path writes, and the CLI must write byte for byte."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def written(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue()


# quotes, backslashes, control characters, non-ASCII and astral characters
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a", "b",
                                     "\u00e9", "\u00df", "\u2028", "\ud7ff", "\U0001f600"]),
                    max_size=6)
JSON_SCALARS = (st.none() | st.booleans() | st.sampled_from([0, 1, -1])
                | st.integers(-10**40, 10**40) | st.floats() | JSON_TEXT)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.lists(JSON_TEXT, max_size=5)
    | st.lists(inner, max_size=3).map(tuple) | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(JSON_PAYLOADS)
@example({"a": [True, 1, False, 0, None], "b": {"t": True, "one": 1}, "c": (False, 0)})
# the edges of the inline path: empty rows, tuples, a string beside a list,
# rows mixing strings and other scalars, dicts over a list of containers
@example([[]])
@example([["a"], []])
@example([("a",), ["b"]])
@example(["ab", ["c"]])
@example({"facets": [["a", 1], [2, "b"], ["c", None, True, 1.5]], "ground": ["a", 0]})
@example({"a": {}, "b": [], "c": {"d": {"e": [[1]], "f": "g"}}})
@example({"format": 3, "nodes": [{"apex": "b", "base": "cone"}, {"deletion": 0, "link": 0, "pivot": "a",
          "witness": {"collapse": {"steps": [{"sigma": ["a", "b"], "tau": ["a"]}]},
                      "gamma_facets": [["a", "b"], ["b"]], "kind": "weak"}}]})
@example({"ground": ["\u00e9", "\u2603", "\U0001f600"], "facets": [["\u00e9", "\u2603"], ["\U0001f600"]]})
# the edges of the recursive writer: empty containers under a key and in a
# list, a string-first list that falls back to the item loop, scalars that
# are no strings, and a weak certificate node (witness, collapse, steps)
@example({"a": {}})
@example({"a": []})
@example([[], {}])
@example(["a", {"b": 1}])
@example(("a", ["b"]))
@example([1.5, True, None, 2])
@example({"deletion": 1, "link": 0, "pivot": "c", "witness": {
    "collapse": {"steps": [{"sigma": ["a", "c"], "tau": ["c"]}, {"sigma": ["a"], "tau": []}]},
    "gamma_facets": [["a", "c"]], "kind": "weak"}})
def test_the_writer_matches_the_stdlib_indent_path(payload):
    assert written(payload) == oracle_json(payload)


class WriteRecorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# a long list of containers two levels down, and a long list of scalars
# three levels down: each holds several times WRITE_PARTS parts
@pytest.mark.parametrize("payload", [
    {"a": {"rows": [[i] for i in range(cli.WRITE_PARTS)]}},
    {"a": [{"b": list(range(3 * cli.WRITE_PARTS))}]},
])
def test_a_long_document_leaves_in_chunks(monkeypatch, payload):
    stdout = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli._emit(payload) == 0
    *chunks, newline = stdout.writes
    assert newline == "\n" and len(chunks) > 1
    assert "".join(stdout.writes) == oracle_json(payload)


# keys that are not strings, which json.dumps would turn into strings, and
# values JSON has no form for
@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2: "b"}],
                                     {(1, 2): 3}, {"a": {1, 2}}, [object()], b"bytes"])
def test_the_writer_refuses_keys_that_are_not_strings_and_unknown_types(payload):
    with pytest.raises(TypeError):
        written(payload)


# one tiny run of every declared command
PATH3 = {"ground": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]]}
GRAPH3 = {"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"], ["v2", "v3"]]}
DAG3 = {"vertices": ["s", "u", "t"], "arcs": [{"id": "e1", "src": "s", "tgt": "u"},
        {"id": "e2", "src": "u", "tgt": "t"}, {"id": "e3", "src": "s", "tgt": "t"}],
        "s": "s", "t": "t"}
EVERY_COMMAND = {
    ("dual",): ["dual", "{path3}"],
    ("link",): ["link", "{path3}", "a"],
    ("del",): ["del", "{path3}", "b"],
    ("homology",): ["homology", "{path3}"],
    ("collapse",): ["collapse", "{points2}", "--budget", "50"],
    ("grape", "check"): ["grape", "check", "{points2}", "--variant", "strong"],
    ("grape", "classify"): ["grape", "classify", "{points2}"],
    ("grape", "verify-cert"): ["grape", "verify-cert", "{points2}", "{cert}"],
    ("from-graph",): ["from-graph", "{graph3}", "--complex", "ind", "--dual"],
    ("from-digraph",): ["from-digraph", "{dag3}", "--complex", "pm"],
    ("verify", "forest"): ["verify", "forest", "{graph3}"],
    ("verify", "pfpm"): ["verify", "pfpm", "{dag3}"],
    ("verify", "duality"): ["verify", "duality", "{path3}", "--variant", "weak"],
    ("verify", "cad"): ["verify", "cad", "{void}"],
    ("gen", "forest"): ["gen", "forest", "--n", "4", "--seed", "1"],
    ("gen", "complex"): ["gen", "complex", "--ground", "5", "--seed", "1"],
    ("gen", "digraph"): ["gen", "digraph", "--v", "3", "--arcs", "2", "--seed", "1"],
    ("suite",): ["suite", "--level", "smoke", "--seed", "3"],
}


def every_command_files(write_json):
    """The files that EVERY_COMMAND names in braces."""
    cert = certificate_to_json(check_grape(complex_from_json(TWO_POINTS), GrapeVariant.STRONG).certificate)
    return {"path3": write_json("path3.json", PATH3), "points2": write_json("points2.json", TWO_POINTS),
            "void": write_json("void.json", complex_to_json(void_complex(""))),
            "graph3": write_json("graph3.json", GRAPH3), "dag3": write_json("dag3.json", DAG3),
            "cert": write_json("cert.json", cert)}


def test_every_command_writes_what_the_stdlib_writes(write_json, capsys):
    assert sorted(EVERY_COMMAND) == sorted(leaf_commands(_build_parser()))
    files = every_command_files(write_json)
    for argv in EVERY_COMMAND.values():
        main([a.format(**files) for a in argv])
        out = capsys.readouterr().out
        assert out and out == oracle_json(json.loads(out)), argv


def outcome(argv):
    """The exit code, stdout and stderr of one in-process call; an exit
    raised by argparse counts as an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_a_command_parser_answers_as_the_full_parser_does(write_json, tmp_path, monkeypatch):
    # a command's own parser on its own would print "grapes link: error: ..."
    # where the full parser prints "grapes: error: unrecognized arguments: ..."
    files = {**bad_value_files(write_json, tmp_path), **every_command_files(write_json)}
    every = {words: [a.format(**files) for a in argv] for words, argv in EVERY_COMMAND.items()}
    argvs = [[a.format(**files) for a in argv] for argv in BAD_VALUES] + list(every.values())
    c4, c4_cert = write_json("c4.json", C4), write_json("c4-cert.json", C4_CERTIFICATES[0])
    for kind, file, element in (("complex", "path3", "b"), ("complex", "path3", "-b"),
                                ("graph", "graph3", "b"), ("certificate", "cert", "b")):
        fill = {FILE: files[file], ELEMENT: element, C4_FILE: c4, CERT_FILE: c4_cert}
        argvs += [[fill.get(a, a) for a in argv] for argv in FUZZED[kind]]
    argvs += [[], ["bogus"], ["--help"], ["grape"], ["verify", "bogus"], ["gen", "-h"]]
    for words in leaf_commands(_build_parser()):
        leaf = _build_parser()
        for word in words:
            leaf = subcommands(leaf)[word]
        # "-h x" would be a positional to a parser without -h
        argvs += [[*words, "--help"], [*words, "-h x"], every[words] + ["--bogus"]]
        if any(action.required for action in leaf._actions):
            argvs.append(list(words))  # a missing positional or required option
        argvs += [every[words] + [action.option_strings[-1], "nope"]
                  for action in leaf._actions if action.choices and action.option_strings]

    def full_parser_only(argv):
        return _build_parser().parse_args(argv)

    for argv in argvs:
        own = outcome(argv)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_parse", full_parser_only)
            assert outcome(argv) == own, argv
    for argv in every.values():  # the handler is handed the same namespace
        assert vars(cli._parse(argv)) == vars(full_parser_only(argv))


class RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_a_small_result_is_one_write_and_a_large_one_several(write_json, monkeypatch):
    small, large = RecordingStdout(), RecordingStdout()
    monkeypatch.setattr(sys, "stdout", small)
    assert main(["gen", "complex", "--ground", "6", "--seed", "1"]) == 0
    monkeypatch.setattr(sys, "stdout", large)
    # the 2^14 paths of a 14-layer ladder: that many facets of 14 arcs, over 3 MB
    assert main(["from-digraph", write_json("ladder.json", ladder(14)), "--complex", "pm"]) == 0
    monkeypatch.undo()
    # the document, then its newline on its own
    assert len(small.writes) == 2 and small.writes[1] == 1
    text = large.getvalue()
    assert len(text) > 3_000_000 and len(large.writes) > 3 and max(large.writes) < len(text) / 2
    assert text == oracle_json(json.loads(text))
