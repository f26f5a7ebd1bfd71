import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from firebreak.cli import main

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "firebreak" / "schemas"


def load_schema(name):
    from referencing import Registry, Resource

    contents = {p.name: json.loads(p.read_text()) for p in SCHEMAS.glob("*.json")}
    registry = Registry().with_resources(
        (key, Resource.from_contents(value)) for key, value in contents.items()
    )
    validator = jsonschema.Draft7Validator(contents[name], registry=registry)
    return validator.validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_graph_file(capsys):
    code, out = run(capsys, "generate", "--family", "complete", "--n", "4")
    assert code == 0
    assert out.startswith("p 4 6")


def test_generate_dot(capsys):
    code, out = run(capsys, "generate", "--family", "path", "--n", "3", "--dot")
    assert code == 0 and "0 -- 1" in out


def test_orient_and_solve_pipeline(tmp_path, capsys):
    gfile = tmp_path / "pet.g"
    code, out = run(capsys, "generate", "--family", "petersen")
    gfile.write_text(out)
    code, out = run(capsys, "orient", "--recipe", "subcubic", "--in", str(gfile))
    assert code == 0
    ofile = tmp_path / "pet.o"
    ofile.write_text(out)
    code, out = run(capsys, "solve", "--in", str(ofile), "--f", "1")
    assert code == 0
    result = json.loads(out)
    assert result["beta"] <= 2 and result["exact"]
    load_schema("solve.json")(result)


def test_solve_best_complete_five(capsys):
    code, out = run(capsys, "solve-best", "--family", "complete", "--n", "5", "--f", "1")
    assert code == 0
    result = json.loads(out)
    assert result["beta"] == 2
    load_schema("solve.json")(result)


def test_solve_best_echoes_seed(capsys):
    code, out = run(capsys, "solve-best", "--family", "random_tree", "--n", "5", "--seed", "3")
    assert code == 0
    result = json.loads(out)
    assert result["seed"] == 3 and result["beta"] == 1


def test_simulate_json(tmp_path, capsys):
    code, out = run(capsys, "orient", "--recipe", "complete", "--n", "5")
    ofile = tmp_path / "k5.o"
    ofile.write_text(out)
    code, out = run(capsys, "simulate", "--in", str(ofile), "--start", "0", "--f", "1",
                    "--strategy", "complete-cyclic")
    assert code == 0
    trace = json.loads(out)
    assert trace["burned"] == 2 and trace["replay_valid"]
    load_schema("trace.json")(trace)


def test_bounds_json(capsys):
    code, out = run(capsys, "bounds", "--family", "complete_bipartite", "--p", "4", "--q", "4")
    assert code == 0
    entries = json.loads(out)
    load_schema("bounds.json")(entries)
    values = {e["name"]: e for e in entries}
    assert values["biclique-outdegree-plus"]["value"] == "3"


def test_bounds_k_reaches_ktree_rules(capsys):
    code, out = run(capsys, "bounds", "--family", "random_ktree", "--n", "9", "--k", "2")
    assert code == 0
    entries = json.loads(out)
    load_schema("bounds.json")(entries)
    half = {e["name"]: e for e in entries}["ktree-half"]
    assert half["applicable"] and half["value"] == "2"


def test_solve_undirected(capsys):
    code, out = run(capsys, "solve-undirected", "--family", "star", "--n", "6", "--start", "0")
    assert code == 0
    result = json.loads(out)
    assert result["beta"] == 5 and result["saved"] == 1
    assert result["mode"] == "undirected"
    load_schema("solve.json")(result)


def test_verify_suite_exit_zero(capsys):
    code, out = run(capsys, "verify", "recurrence-closed-form")
    assert code == 0
    assert "4/4 checks passed" in out


def test_verify_suite_json(capsys):
    code, out = run(capsys, "verify", "recurrence-closed-form", "--json")
    assert code == 0
    load_schema("suite.json")(json.loads(out))


def test_orient_family_with_recipe_flags(capsys):
    # recipe flags like --k must not leak into the family builder
    code, out = run(capsys, "orient", "--recipe", "bounded-degree", "--family", "random_regular",
                    "--n", "12", "--d", "4", "--k", "4", "--seed", "2")
    assert code == 0
    from firebreak.graphs import read_orientation

    o = read_orientation(out)
    assert o.n == 12 and o.graph.m == 24
    assert o.meta.get("scheme") == "bounded"


def test_usage_error_exit_two(capsys):
    assert main(["solve-best", "--family", "complete", "--n", "9"]) == 2
    assert main(["bounds", "--in", "/nonexistent/file.g"]) == 2


def test_unknown_subcommand_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_malformed_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("p 3 1\ne 2 2\n")
    assert main(["solve-best", "--in", str(bad)]) == 2


@pytest.mark.parametrize("argv, message", [
    (["solve", "--start", "99"], "start 99 is out of range 0..3"),
    (["solve", "--start", "-1"], "start -1 is out of range 0..3"),
    (["solve-undirected", "--family", "complete", "--n", "4", "--start", "9"], "start 9 is out of range 0..3"),
    (["solve-undirected", "--family", "complete", "--n", "4", "--f", "0"], "f must be at least 1"),
    (["solve-best", "--in", "EMPTY"], "the graph has no vertices"),
    (["bounds", "--in", "EMPTY"], "the graph has no vertices"),
    (["bounds", "--family", "complete", "--n", "4", "--f", "0"], "f must be at least 1"),
    (["generate", "--family", "grid_rect"], "family 'grid_rect' needs --w and --h"),
    (["generate", "--family", "path_power", "--n", "5"], "family 'path_power' needs --k"),
    (["bounds", "--family", "complete"], "family 'complete' needs --n"),
    (["solve-best", "--family", "complete", "--n", "5", "--budget-ms", "-1"], "budget_ms must be non-negative, got -1.0"),
    (["solve-best", "--family", "complete", "--n", "5", "--budget-ms", "nan"], "budget_ms must be non-negative, got nan"),
])
def test_bad_game_arguments_exit_two(tmp_path, capsys, argv, message):
    ofile = tmp_path / "k4.o"
    run(capsys, "orient", "--recipe", "complete", "--n", "4", "--out", str(ofile))
    empty = tmp_path / "empty.g"
    empty.write_text("p 0 0\n")
    if argv[0] == "solve":
        argv = argv + ["--in", str(ofile)]
    argv = [str(empty) if a == "EMPTY" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("script, message", [
    ("[1, 2]", "a script maps times to lists of vertices"),
    ("null", "a script maps times to lists of vertices"),
    ('{"1": 5}', "script time '1' must map to a list of vertices"),
    ('{"1": ["a"]}', "script time '1' must map to a list of vertices"),
])
def test_bad_script_exit_two(tmp_path, capsys, script, message):
    ofile = tmp_path / "k4.o"
    run(capsys, "orient", "--recipe", "complete", "--n", "4", "--out", str(ofile))
    sfile = tmp_path / "script.json"
    sfile.write_text(script)
    argv = ["simulate", "--in", str(ofile), "--start", "0", "--strategy", "scripted", "--script", str(sfile)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
