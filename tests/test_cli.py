import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import cosmopoly.cli as cli
import cosmopoly.grobner as grobner
import cosmopoly.sweep as sweep_module
from cosmopoly.cli import (
    EXIT_BUDGET,
    EXIT_CHECK,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    _GRAPH_COMMANDS,
    parse_graph_text,
    run,
    write_graph_text,
)
from cosmopoly.errors import (
    Budget,
    CosmopolyError,
    GraphFileError,
    StructureViolation,
    TheoremViolation,
)
from cosmopoly.grobner import default_good_order
from cosmopoly.hstar import ONE, IntPolynomial
from cosmopoly.multigraph import Multigraph, bundle, multicycle, path_graph, theta_graph, triangle
from cosmopoly.polytope import lattice_points
from cosmopoly.sweep import enumerate_connected_multigraphs, sweep_graphs, sweep_theta, verify_graph
from cosmopoly.triangulation import build_triangulation, placed


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_plain_indices():
    g = parse_graph_text("0 1\n")
    assert g.vertex_count == 2 and g.edge_pairs() == ((0, 1),)


def test_parse_labels_first_appearance_order():
    g = parse_graph_text("b a\na c\n")
    assert g.vertex_count == 3
    assert g.edge_pairs() == ((0, 1), (1, 2))
    g = parse_graph_text("0 \u00b2\n")  # a superscript two is a label, not an index
    assert g.vertex_count == 2 and g.edge_pairs() == ((0, 1),)


def test_parse_header_comments_multiplicity_loop():
    text = """
    # a multicycle with a doubled edge
    vertices 3
    0 1 *2
    1 2
    2 0   # wraps around
    0 0
    """
    g = parse_graph_text(text)
    assert g.vertex_count == 3
    assert g.edge_pairs() == ((0, 1), (0, 1), (1, 2), (2, 0), (0, 0))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFileError) as err:
        parse_graph_text("0 1\n0 1 2 3\n")
    assert err.value.line_no == 2
    with pytest.raises(GraphFileError):
        parse_graph_text("vertices 2\n0 5\n")
    with pytest.raises(GraphFileError):
        parse_graph_text("0 1 *x\n")
    with pytest.raises(GraphFileError):
        parse_graph_text("# only comments\n")
    with pytest.raises(GraphFileError):
        parse_graph_text("vertices 3\n0 1\n")  # vertex 2 isolated
    with pytest.raises(GraphFileError) as err:
        parse_graph_text("0 1*2\n")  # not an edge to a vertex labelled 1*2
    assert err.value.line_no == 1
    with pytest.raises(GraphFileError) as err:
        parse_graph_text("0 1\nvertices 3\n")  # not an edge between vertices and 3
    assert err.value.line_no == 2


def test_roundtrip_canonical_writer():
    for g in [triangle(), bundle(3), multicycle((2, 1, 1)),
              Multigraph.from_pairs(2, [(1, 0), (0, 0)])]:
        assert parse_graph_text(write_graph_text(g)) == g


# ---------------------------------------------------------------------------
# Commands


def test_hstar_text_output(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n")
    code, out, _ = invoke(capsys, "hstar", path)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "h* = 1 + 3z"


def test_hstar_json_payload(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n0 1\n")
    code, out, _ = invoke(capsys, "hstar", path, "--json")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["coeffs"] == [1, 6, 5]
    assert payload["volume"] == 12
    assert payload["degree"] == 2
    assert payload["codegree"] == 2
    assert payload["schema_version"] == 1
    assert all(payload["checks"].values())


@pytest.mark.parametrize(
    "text, route",
    [("0 1\n1 2\n2 0\n", "blocks"), ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", "visibility")],
    ids=["triangle", "K4"],
)
def test_hstar_json_reports_resolved_route(tmp_path, capsys, text, route):
    path = graph_file(tmp_path, text)
    code, out, _ = invoke(capsys, "hstar", path, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["method"] == route


def test_auto_takes_the_block_product_of_a_one_sum(tmp_path, capsys):
    # K4 glued to K4 at vertex 3: two K4 placing passes under the default
    # budget, where whole-graph visibility would place about 5.9 M cells
    k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    _, out, _ = invoke(capsys, "hstar", graph_file(tmp_path, k4, "k4.txt"), "--json")
    single = json.loads(out)["coeffs"]
    glued = k4 + "3 4\n3 5\n3 6\n4 5\n4 6\n5 6\n"
    code, out, _ = invoke(capsys, "hstar", graph_file(tmp_path, glued), "--json")
    payload = json.loads(out)
    assert (code, payload["method"]) == (EXIT_OK, "blocks")
    assert payload["coeffs"] == list((IntPolynomial(single) * IntPolynomial(single)).coeffs)


def test_info_and_volume(tmp_path, capsys):
    path = graph_file(tmp_path, "a b\nb c\nc a\n")
    code, out, _ = invoke(capsys, "info", path)
    assert code == EXIT_OK and "lattice points: 15" in out
    code, out, _ = invoke(capsys, "volume", path)
    assert code == EXIT_OK and out.strip() == "Vol = 56"


def test_lattice_points_and_facets_json(tmp_path, capsys):
    path = graph_file(tmp_path, "0 0\n")
    code, out, _ = invoke(capsys, "lattice-points", path)
    assert code == EXIT_OK
    assert json.loads(out)["points"] == [
        {"name": "zv0", "coords": [1, 0]},
        {"name": "ze0", "coords": [0, 1]},
        {"name": "t0", "coords": [2, -1]},
    ]
    code, out, _ = invoke(capsys, "facets", path)
    normals = [f["normal"] for f in json.loads(out)["facets"]]
    assert sorted(normals) == [[1, 0], [1, 2]]


def test_info_text_names_a_bundle_by_its_multiplicity(tmp_path, capsys):
    code, out, _ = invoke(capsys, "info", graph_file(tmp_path, "0 1 *3\n"))
    assert code == EXIT_OK
    assert "  Bundle(3) vertices=[0, 1] edges=[0, 1, 2]" in out.splitlines()


def test_triangulate_text_appends_the_decorated_cells(tmp_path, capsys):
    code, out, _ = invoke(capsys, "triangulate", graph_file(tmp_path, "0 1\n"), "--decorated")
    lines = out.splitlines()
    assert code == EXIT_OK and lines[0] == "simplices: 4"
    assert lines[5:7] == ["", "graph cell_0 {"]


def test_triangulate_with_decorations(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n")
    code, out, _ = invoke(capsys, "triangulate", path, "--json", "--decorated", "--generators")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["simplex_count"] == 4
    assert ["t0", "ze0"] in payload["obstructions"]
    assert len(payload["decorated"]) == 4
    assert any("fillcolor=white" in d for d in payload["decorated"])
    assert len(payload["reduced_generators"]) == 6


def test_verify_ok(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    code, out, _ = invoke(capsys, "verify", path)
    assert code == EXIT_OK
    assert "methods agree: True" in out
    assert "verify: ok" in out


@pytest.mark.parametrize(
    "text, runs, skips",
    [
        ("".join(f"{i} {i + 1}\n" for i in range(16)), ["blocks"],
         ["ehrhart: skipped (dimension above cap)",
          "visibility: skipped (lattice-point count above cap)"]),
        ("0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n", ["blocks", "visibility"],
         ["ehrhart: skipped (dimension above cap)"]),
    ],
    ids=["path16", "c5+chord"],
)
def test_verify_text_lists_skipped_routes(tmp_path, capsys, text, runs, skips):
    path = graph_file(tmp_path, text)
    code, out, _ = invoke(capsys, "verify", path)
    lines = out.splitlines()
    assert code == EXIT_OK and lines[-1] == "verify: ok"
    assert [line.split(":")[0] for line in lines[: len(runs)]] == runs
    assert lines[len(runs): len(runs) + len(skips)] == skips
    assert "methods agree: True" in lines


def test_verify_json_reports_methods(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n")
    code, out, _ = invoke(capsys, "verify", path, "--json")
    payload = json.loads(out)
    assert payload["methods"]["blocks"] == [1, 3]
    assert payload["methods"]["visibility"] == [1, 3]
    assert payload["methods"]["ehrhart"] == [1, 3]
    assert payload["conjectures"] == {"statistic": "HOLDS", "upper-bound": "HOLDS"}
    assert payload["ok"] is True


@pytest.mark.parametrize(
    "text",
    ["vertices 5\n0 1\n1 2\n2 0\n3 4\n", "vertices 3\n0 1\n0 1\n2 2\n"],
    ids=["triangle+edge", "bundle2+loop"],
)
@pytest.mark.parametrize("seed", [[], ["--order-seed", "3"]], ids=["default", "seed3"])
def test_verify_json_on_disconnected_graph(tmp_path, capsys, text, seed):
    path = graph_file(tmp_path, text)
    code, out, _ = invoke(capsys, "verify", path, "--json", *seed)
    payload = json.loads(out)
    assert code == EXIT_OK and payload["agree"] is True
    assert "visibility" in payload["methods"]
    assert len({tuple(h) for h in payload["methods"].values()}) == 1
    assert "statistic" not in payload["conjectures"]


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "G", "--budget-nodes", "5"],
        ["info", "G", "--order-seed", "3"],
        ["lattice-points", "G", "--budget-nodes", "5"],
        ["lattice-points", "G", "--order-seed", "3"],
        ["facets", "G", "--order-seed", "3"],
        ["conjecture", "theta", "--cache-dir", "cache"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    path = graph_file(tmp_path, "0 1\n")
    argv = [path if a == "G" else a for a in argv]
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == EXIT_PARSE and captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err


@pytest.mark.parametrize(
    "error, code, prefix",
    [(TheoremViolation("degree"), EXIT_CHECK, "check failed: degree"),
     (StructureViolation("edge 2 carries 0 strokes"), EXIT_CHECK,
      "check failed: edge 2 carries 0 strokes"),
     (CosmopolyError("boom"), EXIT_INTERNAL, "error: boom")],
    ids=["theorem-violation", "structure-violation", "other-error"],
)
def test_library_error_exit_codes(tmp_path, capsys, monkeypatch, error, code, prefix):
    def handler(g, args):
        raise error

    monkeypatch.setitem(cli._GRAPH_COMMANDS, "info", (handler, None))
    path = graph_file(tmp_path, "0 1\n")
    assert invoke(capsys, "info", path) == (code, "", prefix + "\n")


def test_verify_exits_check_on_a_cell_that_breaks_the_stroke_rule(tmp_path, capsys, monkeypatch):
    def with_bad_cell(g, order, budget):
        masks, counts = placed(g, order, budget)
        bad = [i for i, p in enumerate(lattice_points(g)) if p.name in ("zv0", "zv1", "zv2", "t0")]
        return masks + [sum(1 << i for i in bad)], counts

    monkeypatch.setattr(sweep_module, "placed", with_bad_cell)
    monkeypatch.delenv("COSMOPOLY_CACHE", raising=False)
    path = graph_file(tmp_path, write_graph_text(path_graph(2)))  # the cell leaves edge 1 bare
    assert invoke(capsys, "verify", path) == (
        EXIT_CHECK, "", "check failed: edge 1 carries 0 strokes\n"
    )


def test_parse_error_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1 extra tokens\n")
    code, _, err = invoke(capsys, "info", path)
    assert code == EXIT_PARSE and "line 1" in err


@pytest.mark.parametrize(
    "text, message",
    [("vertices x\n", "line 1: header must be 'vertices <n>'"),
     ("vertices 3\na b\n", "line 2: expected integer endpoints, got 'a' 'b'"),
     # int() rejects a superscript digit that str.isdigit() accepts
     ("vertices \u00b2\n", "line 1: header must be 'vertices <n>'"),
     ("vertices 2\n0 \u00b2\n", "line 2: expected integer endpoints, got '0' '\u00b2'"),
     ("0 1 *\u00b2\n", "line 1: bad multiplicity suffix '*\u00b2'"),
     # up to five isolated vertices are listed; past five, the first five and the count
     ("vertices 7\n0 1\n", "line 2: isolated vertices not allowed: [2, 3, 4, 5, 6]"),
     ("vertices 8\n0 1\n", "line 2: isolated vertices not allowed: [2, 3, 4, 5, 6, ...] (6 in all)"),
     ("vertices 1000000000000\n0 1\n",
      "line 2: isolated vertices not allowed: [2, 3, 4, 5, 6, ...] (999999999998 in all)")],
    ids=["bad-header", "labels-under-header", "superscript-header", "superscript-endpoint",
         "superscript-multiplicity", "five-isolated", "six-isolated", "huge-header"],
)
def test_parse_error_messages(tmp_path, capsys, text, message):
    assert invoke(capsys, "info", graph_file(tmp_path, text)) == (
        EXIT_PARSE, "", f"error: {message}\n"
    )


def test_a_huge_vertex_count_is_refused_at_once():
    # the isolated vertices are counted, not listed: a header with a few
    # extra zeros costs no time or memory
    start = time.perf_counter()
    with pytest.raises(GraphFileError) as err:
        parse_graph_text("vertices 1000000000000\n0 1\n")
    assert time.perf_counter() - start < 0.5
    assert len(str(err.value)) < 200


@pytest.mark.parametrize(
    "suffix", ["1000000000000", "99999999999999999999999"], ids=["memory", "overflow"]
)
def test_a_huge_multiplicity_is_refused_before_expansion(tmp_path, capsys, suffix):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "info", graph_file(tmp_path, f"0 1 *{suffix}\n"))
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: line 1:")


def test_the_edge_cap_counts_multiplicities_across_lines(monkeypatch):
    monkeypatch.setattr(cli, "MAX_FILE_EDGES", 10)
    with pytest.raises(GraphFileError) as err:
        parse_graph_text("0 1 *6\n1 2 *6\n")
    assert err.value.line_no == 2
    assert parse_graph_text("0 1 *3\n").edge_pairs() == ((0, 1),) * 3


def test_info_counts_lattice_points_without_building_them(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1 *3000\n")
    tracemalloc.start()
    try:
        code = run(["info", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == EXIT_OK and "lattice points: 12002\n" in out
    assert peak < 20 * 2**20


@pytest.mark.parametrize(
    "name, content, reason",
    [("absent.txt", None, "No such file or directory"),
     ("", None, "Is a directory"),
     ("g.txt", b"0 1\n\xff\n", "'utf-8' codec can't decode byte 0xff")],
    ids=["missing", "directory", "not-utf8"],
)
def test_unreadable_graph_file_is_usage_error(tmp_path, capsys, name, content, reason):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code, out, err = invoke(capsys, "hstar", str(path))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith(f"error: cannot read graph file {path}: {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, message",
    [("triangulate", "triangulation enumeration"), ("facets", "facet description")],
)
def test_disconnected_graph_is_usage_error(tmp_path, capsys, command, message):
    path = graph_file(tmp_path, "vertices 5\n0 1\n1 2\n2 0\n3 4\n")
    code, out, err = invoke(capsys, command, path)
    assert code == EXIT_PARSE and out == ""
    assert err == f"error: {message} requires a connected graph\n"


@pytest.mark.parametrize("command", ["hstar", "volume"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
def test_auto_above_the_point_cap_is_usage_error(tmp_path, capsys, command, flags):
    # K6 has 66 lattice points, above the cap of 64, and no closed form
    k6 = "".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6))
    code, out, err = invoke(capsys, command, graph_file(tmp_path, k6), *flags)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (
        "error: graph exceeds the visibility point cap; "
        "pass an explicit --method with a bigger --budget-nodes\n"
    )


def test_budget_exit_code(tmp_path, capsys):
    pairs = "\n".join(
        f"{i} {(i + 1) % 25}" for i in range(25)
    ) + "\n" + "\n".join(f"{i} {(i + 5) % 25}" for i in range(25))
    path = graph_file(tmp_path, pairs + "\n")
    code, _, err = invoke(
        capsys, "hstar", path, "--method", "visibility", "--budget-nodes", "50000"
    )
    assert code == EXIT_BUDGET and "budget" in err


def test_non_integer_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["hstar", "--budget-nodes", "abc", "-"])
    captured = capsys.readouterr()
    assert exit_.value.code == EXIT_PARSE and captured.out == ""
    assert "invalid int value: 'abc'" in captured.err


@pytest.mark.parametrize("method", ["visibility", "auto"])
def test_negative_budget_is_usage_error(tmp_path, capsys, method):
    path = graph_file(tmp_path, "0 1\n")
    with pytest.raises(SystemExit) as exit_:
        run(["hstar", path, "--method", method, "--budget-nodes", "-5"])
    captured = capsys.readouterr()
    assert exit_.value.code == EXIT_PARSE and captured.out == ""
    assert "argument --budget-nodes: must be 0 or more, got -5" in captured.err
    # 0 stays a valid budget: visibility spends nodes, blocks on an edge none
    code, _, err = invoke(capsys, "hstar", path, "--method", method, "--budget-nodes", "0")
    assert code == (EXIT_BUDGET if method == "visibility" else EXIT_OK)


def test_facets_budget_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = invoke(capsys, "facets", path, "--budget-nodes", "5")
    assert code == EXIT_BUDGET and out == "" and "budget" in err


def test_triangulate_builds_obstruction_set_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = grobner.obstruction_set

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "obstruction_set", None)
        if name.split(".")[0] == "cosmopoly" and held is original:
            monkeypatch.setattr(module, "obstruction_set", counted)
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    code, _, _ = invoke(capsys, "triangulate", path, "--json")
    assert code == EXIT_OK and len(calls) == 1


@pytest.mark.parametrize(
    "g, spend",
    [
        pytest.param(triangle(), 421, id="triangle"),
        pytest.param(theta_graph(1, 1, 2), 1310, id="theta112"),
    ],
)
def test_triangulate_budget_at_one_build_spend(tmp_path, capsys, monkeypatch, g, spend):
    # ``spend`` is what one build_triangulation and one obstruction set
    # charge on g with the default order
    bud = Budget(None)
    order = default_good_order(g)
    build_triangulation(g, order, bud)
    grobner.obstruction_set(g, order, bud)
    assert bud.used == spend
    monkeypatch.delenv("COSMOPOLY_CACHE", raising=False)
    path = graph_file(tmp_path, write_graph_text(g))
    code, _, _ = invoke(capsys, "triangulate", path, "--budget-nodes", str(spend))
    assert code == EXIT_OK
    code, out, err = invoke(capsys, "triangulate", path, "--budget-nodes", str(spend - 1))
    assert code == EXIT_BUDGET and out == "" and "budget" in err


def test_visibility_and_verify_need_no_obstruction_set(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("obstruction_set called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cosmopoly" and hasattr(module, "obstruction_set"):
            monkeypatch.setattr(module, "obstruction_set", refuse)
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n0 1\n")
    code, out, _ = invoke(capsys, "hstar", path, "--method", "visibility")
    assert code == EXIT_OK and out.startswith("h* = ")
    code, out, _ = invoke(capsys, "verify", path)
    assert code == EXIT_OK and out.endswith("verify: ok\n")


def test_closed_stdout_is_not_an_error(tmp_path):
    path = graph_file(tmp_path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen(
        [sys.executable, "-m", "cosmopoly.cli", "triangulate", path, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()  # far less than the whole payload has been read
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == EXIT_OK
    assert "Traceback" not in err and "Error" not in err


def test_byte_identical_reruns(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n0 1\n")
    _, out1, _ = invoke(capsys, "triangulate", path, "--json")
    _, out2, _ = invoke(capsys, "triangulate", path, "--json")
    assert out1 == out2


def test_cache_roundtrip(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    cache = str(tmp_path / "cache")
    code, out1, _ = invoke(capsys, "hstar", path, "--json", "--cache-dir", cache)
    assert code == EXIT_OK
    stored = list((tmp_path / "cache").glob("*.json"))
    assert len(stored) == 1
    record = json.loads(stored[0].read_text())
    assert record["command"] == "hstar" and "wall_time_s" in record
    code, out2, _ = invoke(capsys, "hstar", path, "--json", "--cache-dir", cache)
    assert out1 == out2


def test_cache_store_that_fails_only_warns(tmp_path, capsys, monkeypatch):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    _, uncached, _ = invoke(capsys, "hstar", path, "--json")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    cache = tmp_path / "cache"
    code, out, err = invoke(capsys, "hstar", path, "--json", "--cache-dir", str(cache))
    assert (code, out) == (EXIT_OK, uncached)
    assert err == "warning: result not cached: replace refused\n"
    assert list(cache.iterdir()) == []  # the temporary record is gone too


@pytest.mark.parametrize(
    "command", ["info", "lattice-points", "facets", "triangulate", "hstar", "volume", "verify"]
)
def test_cache_keyed_on_labeled_graph(tmp_path, capsys, monkeypatch, command):
    cache = str(tmp_path / "cache")
    outputs = {}
    for i, text in enumerate(["0 1\n1 2\n", "1 0\n2 1\n", "1 2\n0 1\n"]):
        path = graph_file(tmp_path, text, name=f"g{i}.txt")
        _, uncached, _ = invoke(capsys, command, path, "--json")
        _, cached, _ = invoke(capsys, command, path, "--json", "--cache-dir", cache)
        assert cached == uncached
        outputs[path] = uncached
    # each stored record, payload digest and all, is a hit: nothing is computed
    _, renderer = _GRAPH_COMMANDS[command]
    monkeypatch.setitem(_GRAPH_COMMANDS, command, (None, renderer))
    for path, uncached in outputs.items():
        assert invoke(capsys, command, path, "--json", "--cache-dir", cache)[1] == uncached


def test_cache_dir_that_is_a_file_only_warns(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    _, uncached, _ = invoke(capsys, "verify", path, "--json")
    blocker = graph_file(tmp_path, "not a directory\n", name="cache")
    code, out, err = invoke(capsys, "verify", path, "--json", "--cache-dir", blocker)
    assert code == EXIT_OK and out == uncached
    assert err.startswith("warning: result not cached: ") and err.count("\n") == 1


def edited_payload(payload):
    """The stored record with its header kept and its payload replaced."""
    return lambda old: json.dumps({**json.loads(old), "payload": payload}).encode()


HSTAR_JSON = ["hstar", "--json"]


@pytest.mark.parametrize(
    "argv, record",
    [(HSTAR_JSON, b"[1, 2]"), (HSTAR_JSON, b'{"payload": [1, 2]}'),
     (HSTAR_JSON, b'{"payload": null}'), (HSTAR_JSON, b'{"payload": {}}'), (HSTAR_JSON, b"3"),
     (HSTAR_JSON, b"\xff"), (["hstar"], edited_payload({"coeffs": [1, 3]})),
     (HSTAR_JSON, edited_payload({"coeffs": [1, 3]})),
     (["verify"], edited_payload({"methods": {}}))],
    ids=["list", "list-payload", "null-payload", "gutted", "number", "not-utf8",
         "edited-payload-hstar", "edited-payload-hstar-json", "edited-payload-verify"],
)
def test_unusable_cache_record_is_a_miss(tmp_path, capsys, argv, record):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    cache = tmp_path / "cache"
    command, *flags = argv
    _, uncached, _ = invoke(capsys, command, path, *flags, "--cache-dir", str(cache))
    (stored,) = cache.glob("*.json")
    stored.write_bytes(record(stored.read_bytes()) if callable(record) else record)
    code, out, err = invoke(capsys, command, path, *flags, "--cache-dir", str(cache))
    assert (code, out, err) == (EXIT_OK, uncached, "")
    # the record is stored again, whole
    _, as_json, _ = invoke(capsys, command, path, "--json")
    assert json.loads(stored.read_text())["payload"] == json.loads(as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
def test_cache_record_of_another_request_is_a_miss(tmp_path, capsys, as_json):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    flags = ["--json"] if as_json else []
    cache = tmp_path / "cache"
    invoke(capsys, "info", path, "--cache-dir", str(cache))
    (info_record,) = cache.glob("*.json")
    _, uncached, _ = invoke(capsys, "hstar", path, *flags, "--cache-dir", str(cache))
    (hstar_record,) = set(cache.glob("*.json")) - {info_record}
    hstar_record.write_bytes(info_record.read_bytes())
    code, out, err = invoke(capsys, "hstar", path, *flags, "--cache-dir", str(cache))
    assert (code, out, err) == (EXIT_OK, uncached, "")
    assert json.loads(hstar_record.read_text())["command"] == "hstar"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COSMOPOLY_CACHE", str(tmp_path / "envcache"))
    path = graph_file(tmp_path, "0 1\n")
    invoke(capsys, "volume", path)
    assert list((tmp_path / "envcache").glob("*.json"))


def test_order_seed_changes_nothing_semantically(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n0 1\n1 2\n2 0\n")
    _, out1, _ = invoke(capsys, "hstar", path, "--json")
    _, out2, _ = invoke(capsys, "hstar", path, "--json", "--order-seed", "5")
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["coeffs"] == p2["coeffs"]


def test_conjecture_upper_bound_sweep(capsys):
    code, out, _ = invoke(capsys, "conjecture", "upper-bound", "--max-size", "5")
    assert code == EXIT_OK
    assert "0 violations" in out


def test_conjecture_statistic_sweep(capsys):
    code, out, _ = invoke(capsys, "conjecture", "statistic", "--max-size", "5", "--json")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["violations"] == 0
    assert all(f["status"] in ("HOLDS", "SKIPPED") for f in payload["findings"])


@pytest.mark.parametrize("which", ["upper-bound", "statistic"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_graph_sweep_with_disagreeing_routes_exits_check(capsys, monkeypatch, which, as_json):
    monkeypatch.setattr(sweep_module, "hstar_blocks", lambda g, budget, order_seed: ONE)
    code, out, _ = invoke(
        capsys, "conjecture", which, "--max-size", "4", *(["--json"] if as_json else [])
    )
    n = len(list(enumerate_connected_multigraphs(4)))
    assert code == EXIT_CHECK
    if as_json:
        findings = json.loads(out)["findings"]
        assert len(findings) == n
        assert {(f["status"], f["detail"]) for f in findings} == {("ERROR", "method disagreement")}
    else:
        *cases, summary = out.splitlines()
        assert len(cases) == n and all(line.startswith("ERROR ") for line in cases)
        assert summary == f"{which}: {n} cases, 0 violations"


def test_statistic_sweep_skips_only_graphs_without_a_triangulation(capsys):
    # one node runs the closed forms but no placing pass
    code, out, _ = invoke(capsys, "conjecture", "statistic", "--max-size", "4",
                          "--budget-nodes", "1", "--json")
    assert code == EXIT_OK
    findings = json.loads(out)["findings"]
    assert {(f["status"], f["detail"]) for f in findings} == {("SKIPPED", "no triangulation run")}
    code, out, _ = invoke(capsys, "conjecture", "upper-bound", "--max-size", "4",
                          "--budget-nodes", "1", "--json")
    assert code == EXIT_OK
    assert {f["status"] for f in json.loads(out)["findings"]} == {"HOLDS"}


def test_sweep_budget_caps_each_graph():
    spent = []
    for g in enumerate_connected_multigraphs(5):
        budget = Budget(None)
        verify_graph(g, budget)
        spent.append(budget.used)
    assert sum(spent) > max(spent)
    findings = sweep_graphs("statistic", 5, max(spent))
    assert {f.status for _, f in findings} == {"HOLDS"}


def test_sweep_graphs_rejects_an_unknown_conjecture():
    with pytest.raises(ValueError, match="unknown graph sweep 'theta'"):
        sweep_graphs("theta", 3)


def test_conjecture_theta_sweep(capsys):
    code, out, _ = invoke(capsys, "conjecture", "theta", "--max-size", "5")
    assert code == EXIT_OK
    assert "0 violations" in out


def test_theta_sweep_lists_each_case_once():
    # every k <= l <= m with k + l + m <= N, in lexicographic order; a budget
    # of 0 skips each case before it places a cell
    for n in range(13):
        cases = [(k, l, m) for k in range(1, n + 1) for l in range(k, n + 1)
                 for m in range(l, n + 1) if k + l + m <= n]
        findings = sweep_theta(n, budget=0)
        assert [name for name, _ in findings] == [f"theta({k},{l},{m})" for k, l, m in cases]
        assert {f.status for _, f in findings} <= {"SKIPPED"}


@pytest.mark.parametrize("which", ["theta", "upper-bound", "statistic"])
def test_negative_max_size_is_usage_error(capsys, which):
    with pytest.raises(SystemExit) as exit_:
        run(["conjecture", which, "--max-size", "-3"])
    captured = capsys.readouterr()
    assert exit_.value.code == EXIT_PARSE and captured.out == ""
    assert "argument --max-size: must be 0 or more, got -3" in captured.err
    # 0 stays a valid bound: an empty sweep
    code, out, _ = invoke(capsys, "conjecture", which, "--max-size", "0")
    assert code == EXIT_OK and "0 cases, 0 violations" in out


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
    code, out, _ = invoke(capsys, "volume", "-")
    assert code == EXIT_OK and out.strip() == "Vol = 4"
