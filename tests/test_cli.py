import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosmopoly.grobner as grobner
from cosmopoly.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    parse_graph_text,
    run,
    write_graph_text,
)
from cosmopoly.errors import Budget, GraphFileError
from cosmopoly.grobner import default_good_order
from cosmopoly.multigraph import Multigraph, bundle, multicycle, theta_graph, triangle
from cosmopoly.triangulation import build_triangulation


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


def test_parse_error_exit_code(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1 extra tokens\n")
    code, _, err = invoke(capsys, "info", path)
    assert code == EXIT_PARSE and "line 1" in err


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


def test_budget_exit_code(tmp_path, capsys):
    pairs = "\n".join(
        f"{i} {(i + 1) % 25}" for i in range(25)
    ) + "\n" + "\n".join(f"{i} {(i + 5) % 25}" for i in range(25))
    path = graph_file(tmp_path, pairs + "\n")
    code, _, err = invoke(
        capsys, "hstar", path, "--method", "visibility", "--budget-nodes", "50000"
    )
    assert code == EXIT_BUDGET and "budget" in err


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


@pytest.mark.parametrize("g, spend", [(triangle(), 561), (theta_graph(1, 1, 2), 1728)])
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


@pytest.mark.parametrize(
    "command", ["info", "lattice-points", "facets", "triangulate", "hstar", "volume", "verify"]
)
def test_cache_keyed_on_labeled_graph(tmp_path, capsys, command):
    cache = str(tmp_path / "cache")
    for i, text in enumerate(["0 1\n1 2\n", "1 0\n2 1\n", "1 2\n0 1\n"]):
        path = graph_file(tmp_path, text, name=f"g{i}.txt")
        _, uncached, _ = invoke(capsys, command, path, "--json")
        _, cached, _ = invoke(capsys, command, path, "--json", "--cache-dir", cache)
        assert cached == uncached


def test_cache_dir_that_is_a_file_only_warns(tmp_path, capsys):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    _, uncached, _ = invoke(capsys, "verify", path, "--json")
    blocker = graph_file(tmp_path, "not a directory\n", name="cache")
    code, out, err = invoke(capsys, "verify", path, "--json", "--cache-dir", blocker)
    assert code == EXIT_OK and out == uncached
    assert err.startswith("warning: result not cached: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "record",
    [b"[1, 2]", b'{"payload": [1, 2]}', b'{"payload": null}', b"3", b"\xff"],
    ids=["list", "list-payload", "null-payload", "number", "not-utf8"],
)
def test_unusable_cache_record_is_a_miss(tmp_path, capsys, record):
    path = graph_file(tmp_path, "0 1\n1 2\n2 0\n")
    cache = tmp_path / "cache"
    _, uncached, _ = invoke(capsys, "hstar", path, "--json", "--cache-dir", str(cache))
    (stored,) = cache.glob("*.json")
    stored.write_bytes(record)
    code, out, err = invoke(capsys, "hstar", path, "--json", "--cache-dir", str(cache))
    assert (code, out, err) == (EXIT_OK, uncached, "")
    assert json.loads(stored.read_text())["payload"] == json.loads(uncached)


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


def test_conjecture_theta_sweep(capsys):
    code, out, _ = invoke(capsys, "conjecture", "theta", "--max-size", "5")
    assert code == EXIT_OK
    assert "0 violations" in out


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
    code, out, _ = invoke(capsys, "volume", "-")
    assert code == EXIT_OK and out.strip() == "Vol = 4"
