import functools
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

import firebreak.structure
from firebreak.cli import main
from firebreak.families import FAMILIES, complete, complete_bipartite, cycle, path_power, petersen
from firebreak.game import FireTrace, replay
from firebreak.graphs import Graph, Orientation, read_graph, read_orientation, write_graph, write_orientation
from firebreak.orient import (
    RECIPES,
    orient_bipartite,
    orient_complete,
    orient_grid,
    orient_half,
    orient_ktree,
    orient_subcubic,
)
from firebreak.strategies import STRATEGIES
from firebreak.verify import SUITES

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "src" / "firebreak" / "schemas"


@functools.cache
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
    # a k that the graph does not fit is named back, not asked for
    code, out = run(capsys, "bounds", "--family", "complete", "--n", "5", "--k", "2")
    assert code == 0
    ktree = [e for e in json.loads(out) if e["name"].startswith("ktree-")]
    assert len(ktree) == 3
    assert all(not e["applicable"] and e["hypothesis"] == "not a 2-tree" for e in ktree)


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


def test_orient_colouring_empty_graph(monkeypatch, capsys):
    outputs = []
    for extra in ([], ["--k", "0"]):
        monkeypatch.setattr("sys.stdin", io.StringIO("p 0 0\n"))
        outputs.append(run(capsys, "orient", "--recipe", "colouring", *extra))
    (code, out), (code_k, out_k) = outputs
    assert code == code_k == 0
    assert out_k == out and "o 0 0" in out


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
    (["simulate", "--start", "0", "--strategy", "scripted"], "strategy 'scripted' needs --script"),
    (["simulate", "--start", "0", "--strategy", "layer", "--script", "SCRIPT"], "strategy 'layer' takes no --script"),
    (["orient", "--recipe", "complete", "--family", "path", "--n", "3"], "input graph is not complete"),
    (["orient", "--recipe", "complete", "--in", "PETERSEN", "--n", "4"], "input graph is not complete"),
    (["orient", "--recipe", "grid-rect", "--in", "PETERSEN"], "grid-rect builds its own patch and takes no input graph"),
    (["orient", "--recipe", "ktree", "--in", "PETERSEN"], "recipe 'ktree' needs --k"),
    (["bounds", "--family", "complete", "--n", "4", "--k", "0"], "k must be at least 1"),
    (["bounds", "--family", "complete", "--n", "4", "--k", "-3"], "k must be at least 1"),
    (["generate", "--family", "random_regular", "--n", "0", "--d", "-1"], "d-regular graph needs d >= 0"),
    (["orient", "--recipe", "colouring", "--family", "random_regular", "--n", "60", "--d", "5", "--k", "3"],
     "exact colouring gave up after 100000 steps on 60 vertices"),
    (["solve-best", "--family", "path", "--n", "990", "--max-edges", "5000"],
     "the scan over 989 edges ran past Python's recursion limit"),
    (["orient", "--recipe", "unicyclic", "--in", "EMPTY"], "the graph has no vertices"),
    (["orient", "--recipe", "ktree", "--in", "PETERSEN", "--k", "0"], "k must be at least 1"),
    (["orient", "--recipe", "ktree", "--in", "PETERSEN", "--k", "-3"], "k must be at least 1"),
])
def test_bad_game_arguments_exit_two(tmp_path, capsys, argv, message):
    ofile = tmp_path / "k4.o"
    run(capsys, "orient", "--recipe", "complete", "--n", "4", "--out", str(ofile))
    files = {"EMPTY": "p 0 0\n", "PETERSEN": write_graph(petersen()), "SCRIPT": '{"1": [1]}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    if argv[0] in ("solve", "simulate"):
        argv = argv + ["--in", str(ofile)]
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("recipe", sorted(RECIPES))
@pytest.mark.parametrize("n", [0, 1])
def test_every_recipe_on_a_tiny_graph_ends_cleanly(tmp_path, capsys, recipe, n):
    # each recipe either orients the edgeless n-vertex graph or refuses it
    # with one error line
    gfile = tmp_path / "tiny.g"
    gfile.write_text(f"p {n} 0\n")
    extra = ["--k", "1"] if recipe == "ktree" else []
    code = main(["orient", "--recipe", recipe, "--in", str(gfile), *extra])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""


def test_fvs_recipe_over_the_subset_limit_exits_two(capsys, monkeypatch):
    # Petersen's smallest feedback vertex sets have 3 vertices; the sizes
    # below take 1 + 10 + 45 subsets
    monkeypatch.setattr(firebreak.structure, "FVS_SUBSET_LIMIT", 56)
    assert main(["orient", "--recipe", "fvs", "--family", "petersen"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: feedback vertex set search gave up after 56 subsets of 10 vertices\n"
    assert captured.out == ""
    monkeypatch.setattr(firebreak.structure, "FVS_SUBSET_LIMIT", 1 + 10 + 45 + 120)
    assert main(["orient", "--recipe", "fvs", "--family", "petersen"]) == 0


def test_subcubic_recipe_over_the_matching_limit_exits_two(capsys, monkeypatch):
    # the cube's matching search takes four steps
    monkeypatch.setattr(firebreak.structure, "PERFECT_MATCHING_STEP_LIMIT", 3)
    assert main(["orient", "--recipe", "subcubic", "--family", "cube"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: perfect matching search gave up after 3 steps on 8 vertices\n"
    assert captured.out == ""
    monkeypatch.setattr(firebreak.structure, "PERFECT_MATCHING_STEP_LIMIT", 4)
    assert main(["orient", "--recipe", "subcubic", "--family", "cube"]) == 0


def test_large_hex_grid_recipe_ends_without_a_traceback(capsys):
    # the subcubic construction matches 1,175 pairs here, one search frame
    # per pair, past Python's default recursion limit of 1,000
    code = main(["orient", "--recipe", "grid-hex", "--w", "50", "--h", "50"])
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("# meta ")


def test_colouring_recipe_on_a_long_path_exits_zero(capsys):
    # one colouring search position per vertex, past Python's default
    # recursion limit of 1,000
    code = main(["orient", "--recipe", "colouring", "--family", "path", "--n", "1500", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.startswith("# meta ")


@pytest.mark.parametrize("script, message", [
    ("[1, 2]", "a script maps times to lists of vertices"),
    ("null", "a script maps times to lists of vertices"),
    ('{"1": 5}', "script time '1' must map to a list of vertices"),
    ('{"1": ["a"]}', "script time '1' must map to a list of vertices"),
    ('{"1": [true, false]}', "script time '1' must map to a list of vertices"),
    ('{"1": [1.0]}', "script time '1' must map to a list of vertices"),
    ('{"a": [1]}', "script time 'a' is not an integer"),
    ('{"1.5": [1]}', "script time '1.5' is not an integer"),
    ('{"": []}', "script time '' is not an integer"),
    pytest.param('{"%s": [1]}' % ("1" * 5000), "script time '11111111111111111111...' is not an integer",
                 id="5000-digit-key"),
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


@pytest.mark.parametrize("payload, message", [
    ("[1, 2]", "line 2: meta must be a JSON object"),
    ("5", "line 2: meta must be a JSON object"),
    ('"ab"', "line 2: meta must be a JSON object"),
    ('{"scheme": ', "line 2: meta is not valid JSON"),
])
def test_malformed_meta_exit_two(tmp_path, capsys, payload, message):
    ofile = tmp_path / "bad.o"
    ofile.write_text(f"o 2 1\n# meta {payload}\na 0 1\n")
    assert main(["solve", "--in", str(ofile)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("strategy, meta, message", [
    ("complete-cyclic", {"scheme": "complete"}, "scheme 'complete' needs a list 'order'"),
    ("ktree-anticipate", {"scheme": "ktree"}, "scheme 'ktree' needs a positive integer 'k'"),
    ("grid-rect", {"scheme": "grid-rect", "h": 2}, "scheme 'grid-rect' needs a positive integer 'w'"),
    ("grid-tri", {"scheme": "grid-tri", "w": 2}, "scheme 'grid-tri' needs a positive integer 'h'"),
    ("subcubic", {"scheme": "subcubic", "labels": 5}, "scheme 'subcubic' needs a list 'labels'"),
    ("subcubic", {"scheme": "subcubic", "labels": []}, "scheme 'subcubic' needs one string per arc in 'labels'"),
    ("subcubic", {"scheme": "subcubic", "labels": ["cycle"] * 40},
     "scheme 'subcubic' needs one string per arc in 'labels'"),
    ("subcubic", {"scheme": "subcubic", "labels": [1]}, "scheme 'subcubic' needs one string per arc in 'labels'"),
    ("complete-cyclic", {"scheme": "complete", "order": [5]}, "scheme 'complete' needs each vertex once in 'order'"),
    ("complete-cyclic", {"scheme": "complete", "n": 3, "order": [0, 0, 1]},
     "scheme 'complete' needs each vertex once in 'order'"),
    ("complete-cyclic", {"scheme": "complete", "n": 4, "order": [0, 1, 2, 3], "sink": 9},
     "scheme 'complete' needs a vertex or null as 'sink'"),
    ("complete-cyclic", {"scheme": "complete", "n": 4, "order": [0, 1, 2, 3], "sink": True},
     "scheme 'complete' needs a vertex or null as 'sink'"),
    ("grid-rect", {"scheme": "grid-rect", "w": True}, "scheme 'grid-rect' needs a positive integer 'w'"),
    ("grid-tri", {"scheme": "grid-tri", "w": 2, "h": True}, "scheme 'grid-tri' needs a positive integer 'h'"),
    ("ktree-anticipate", {"scheme": "ktree", "k": True}, "scheme 'ktree' needs a positive integer 'k'"),
    ("ktree-anticipate", {"scheme": "ktree", "k": 10**20}, "scheme 'ktree' needs a positive integer 'k' of at most 2"),
    ("grid-rect", {"scheme": "grid-rect", "w": 3}, "scheme 'grid-rect' needs a positive integer 'w' of at most 2"),
])
def test_strategy_meta_missing_field_exit_two(tmp_path, capsys, strategy, meta, message):
    # the orientation is K_n for the meta's n, K2 without one
    n = meta.get("n", 2)
    arcs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ofile = tmp_path / "meta.o"
    ofile.write_text(f"# meta {json.dumps(meta)}\no {n} {len(arcs)}\n" + "".join(f"a {u} {v}\n" for u, v in arcs))
    argv = ["simulate", "--in", str(ofile), "--start", "0", "--strategy", strategy]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: orientation meta of {message}\n"
    assert captured.out == ""


def test_flag_binding_sweep(tmp_path, monkeypatch, capsys):
    # every recipe on three inputs under three flag sets, and every strategy
    # with and without a script: exit 0, or exit 2 with one error line
    ofile = tmp_path / "k5.o"
    run(capsys, "orient", "--recipe", "complete", "--n", "5", "--out", str(ofile))
    sfile = tmp_path / "script.json"
    sfile.write_text('{"1": [1]}')
    runs = [
        ["orient", "--recipe", recipe, *source, *flags]
        for recipe in sorted(RECIPES)
        for source in ([], ["--family", "petersen"], ["--family", "complete", "--n", "5"])
        for flags in ([], ["--n", "4"], ["--k", "2"])
    ] + [
        ["simulate", "--in", str(ofile), "--start", "0", "--strategy", strategy, *script]
        for strategy in sorted(STRATEGIES)
        for script in ([], ["--script", str(sfile)])
    ]
    pet = write_graph(petersen())
    for argv in runs:
        monkeypatch.setattr("sys.stdin", io.StringIO(pet))
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2), argv
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: "), argv
            assert captured.err.count("\n") == 1, argv
        else:
            assert captured.out and captured.err == "", argv


def _readme_cli_lines():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("firebreak ")]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # each example runs in order in one directory, pipes chained through
    # stdin; the --slow line is left to the slow CI step
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _readme_cli_lines() if "--slow" not in line]
    assert len(lines) >= 8
    for line in lines:
        text = ""
        for stage in line.split(" | "):
            argv = shlex.split(stage)
            target = None
            if ">" in argv:
                argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
            assert argv[0] == "firebreak", stage
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(argv[1:]) == 0, stage
            text = capsys.readouterr().out
        if target is not None:
            Path(target).write_text(text)


FUZZ_ORIENTATIONS = [
    write_orientation(o) for o in (
        orient_complete(5), orient_complete(6), orient_grid("rect", 4, 4), orient_grid("tri", 5, 5),
        orient_ktree(path_power(7, 2), 2), orient_subcubic(petersen()),
        orient_bipartite(complete_bipartite(2, 3)), orient_half(cycle(5)),
    )
]
META_KEYS = ["scheme", "n", "order", "sink", "w", "h", "k", "labels"]
SCHEMES = ["complete", "grid-rect", "grid-tri", "ktree", "subcubic", "bipartite", "half"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3) | st.sampled_from(SCHEMES),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
SCRIPTS = (
    st.dictionaries(
        st.integers(-1, 6).map(str) | st.text(max_size=3),
        st.lists(st.integers(-1, 25), max_size=3) | JSON_VALUES,
        max_size=4,
    ).map(json.dumps)
    | JSON_VALUES.map(json.dumps)
    | st.text(max_size=6)
)


@st.composite
def simulate_calls(draw):
    """An orientation text with its meta mutated, simulate's flags, and a
    script text or None."""
    text = draw(st.sampled_from(FUZZ_ORIENTATIONS))
    first, rest = text.split("\n", 1)
    meta = json.loads(first.removeprefix("# meta "))
    meta.update(draw(st.dictionaries(st.sampled_from(META_KEYS), JSON_VALUES, max_size=2)))
    for key in draw(st.sets(st.sampled_from(META_KEYS), max_size=2)):
        meta.pop(key, None)
    n = int(rest.split()[1])
    # the draws lean to the first entry of each list: the scripted strategy,
    # f = 1 and start 0
    strategy = draw(st.sampled_from(["scripted", *sorted(set(STRATEGIES) - {"scripted"})]))
    flags = [
        "--strategy", strategy,
        "--f", str(draw(st.sampled_from([1, 2, 3, 0]))),
        "--start", str(draw(st.sampled_from([*range(n), -1, n]))),
    ]
    # a script goes with the scripted strategy, and now and then with another
    script = draw(SCRIPTS) if strategy == "scripted" or draw(st.integers(0, 7)) == 7 else None
    return f"# meta {json.dumps(meta)}\n{rest}", flags, script


@given(simulate_calls())
@settings(max_examples=200, deadline=None)
def test_simulate_fuzz_ends_cleanly(tmp_path_factory, call):
    # any orientation meta, strategy, f, start and script: exit 0 with a
    # valid trace whose replay holds, or exit 2 with one error line
    text, flags, script = call
    argv = ["simulate", "--in", "-", *flags]
    if script is not None:
        path = tmp_path_factory.getbasetemp() / "script.json"
        path.write_text(script)
        argv += ["--script", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv
        trace = json.loads(out.getvalue())
        load_schema("trace.json")(trace)
        assert trace["replay_valid"], argv


SOLVE_GRAPHS = [
    write_graph(g) for g in (
        cycle(5), complete(4), complete(6), complete_bipartite(2, 3), complete_bipartite(3, 4), path_power(7, 2),
        petersen(), Graph(1, []), Graph(3, [(0, 1), (0, 1), (1, 2)]),
    )
]
SOLVE_ORIENTATIONS = FUZZ_ORIENTATIONS + [write_orientation(orient_complete(2))]
TOKENS = ["0", "1", "2", "7", "25", "-1", "1.5", "x", "", "p", "e", "o", "a", "# meta {}"]


@st.composite
def malformed(draw, texts):
    """One of texts, in about one draw of three with a line dropped,
    doubled, cut short or given a stray token, or with a stray line added."""
    lines = draw(st.sampled_from(texts)).splitlines()
    if draw(st.integers(0, 2)) == 2:
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "drop", "double", "cut", "add"]))
        if edit == "token":
            words = lines[i].split()
            j = draw(st.integers(0, len(words)))
            lines[i] = " ".join(words[:j] + [draw(st.sampled_from(TOKENS))] + words[j + 1:])
        elif edit == "drop":
            del lines[i]
        elif edit == "double":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            lines.insert(i, draw(st.text(max_size=6)))
    return "\n".join(lines) + "\n"


@st.composite
def solve_calls(draw):
    """A solver subcommand, its input text and its flags."""
    command = draw(st.sampled_from(["solve", "solve-best", "solve-undirected"]))
    text = draw(malformed(SOLVE_ORIENTATIONS if command == "solve" else SOLVE_GRAPHS))
    flags = ["--f", str(draw(st.sampled_from([1, 2, 3, 1, 2, 0])))]
    if command != "solve-best" and draw(st.booleans()):
        flags += ["--start", str(draw(st.sampled_from([0, 1, 4, 9, -1, 24])))]
    if command == "solve" and draw(st.booleans()):
        flags += ["--max-vertices", str(draw(st.sampled_from([24, 6, 2, 0])))]
    if command == "solve-best":
        if draw(st.booleans()):
            flags += ["--max-edges", str(draw(st.sampled_from([21, 9, 5, 0])))]
        if draw(st.booleans()):
            flags += ["--budget-ms", "0"]
    return command, text, flags


@given(solve_calls())
@settings(max_examples=200, deadline=None)
def test_solve_fuzz_ends_cleanly(call):
    # any input text, f, start, cap and budget: exit 2 with one error line,
    # or exit 0 with a schema-valid result whose beta is its worst start's
    # value and whose trace burns beta and replays on the solved digraph
    command, text, flags = call
    argv = [command, "--in", "-", *flags]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
        return
    assert err.getvalue() == "", argv
    result = json.loads(out.getvalue())
    load_schema("solve.json")(result)
    assert result["beta"] == max(result["per_start"].values()), argv
    assert result["exact"] or "--budget-ms" in flags, argv
    if command == "solve":
        o = read_orientation(text)
    elif command == "solve-best":
        o = Orientation(read_graph(text), [tuple(arc) for arc in result["orientation"]])
    else:
        g = read_graph(text)
        both = list(g.edges) + [(v, u) for u, v in g.edges]
        o = Orientation(Graph(g.n, both), both)
    trace = FireTrace.from_json_obj(result["trace"])
    assert (trace.start, trace.burned) == (result["witness_start"], result["beta"]), argv
    assert replay(o, trace).valid, argv


SIZES = ["-5", "-1", "0", "1", "2", "3", "7", "40", str(10 ** 20)]
SIZE_FLAGS = ["--n", "--p", "--q", "--k", "--w", "--h", "--d"]


@st.composite
def build_calls(draw):
    """The argv of generate, orient or bounds: a random family (without one,
    orient reads Petersen from stdin), recipe, size flags and seed, and f
    for bounds. The fvs recipe searches vertex sets exhaustively, up to
    structure.FVS_SUBSET_LIMIT of them, which takes 2-4 s on a 7 x 7 grid and
    longer on 40 vertices, so it draws no size above 3."""
    command = draw(st.sampled_from(["generate", "orient", "bounds"]))
    argv = [command]
    sizes = SIZES
    if command == "orient":
        recipe = draw(st.sampled_from(sorted(RECIPES)))
        argv += ["--recipe", recipe]
        if recipe == "fvs":
            sizes = [s for s in SIZES if s not in ("7", "40")]
    if command != "orient" or draw(st.booleans()):
        argv += ["--family", draw(st.sampled_from(sorted(FAMILIES)))]
    for flag in draw(st.lists(st.sampled_from(SIZE_FLAGS), max_size=4, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(sizes))}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.sampled_from(SIZES))}")
    if command == "bounds":
        argv.append(f"--f={draw(st.sampled_from(['1', '2', '3', '0', '-1']))}")
    elif draw(st.integers(0, 3)) == 3:
        argv.append("--dot")
    return argv


@given(build_calls())
@settings(max_examples=250, deadline=None)
def test_build_fuzz_ends_cleanly(argv):
    # any family, recipe and size flags, up to 10**20: exit 2 with one error
    # line, or exit 0 with a graph or orientation that reads back, or a
    # bound report valid against its schema
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(write_graph(petersen()))), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
        return
    assert err.getvalue() == "" and out.getvalue(), argv
    if argv[0] == "bounds":
        load_schema("bounds.json")(json.loads(out.getvalue()))
    elif "--dot" not in argv:
        (read_graph if argv[0] == "generate" else read_orientation)(out.getvalue())


@st.composite
def verify_calls(draw):
    """The argv of verify: a suite name (now and then an invalid one), a
    seed from -1 to 10**20, and --json and --slow at random. The slowest
    draw, b1-characterisation with --slow, solves the 143 classes up to
    n = 6 and screens all 26,704 graphs on 6 vertices in about 0.5 s."""
    suite = draw(st.sampled_from([*sorted(SUITES), "nope", "", "ORACLE-EQUIVALENCE"]))
    argv = ["verify", suite, "--seed", draw(st.sampled_from(["-1", "0", "7", str(10 ** 20)]))]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        argv.append("--slow")
    return argv


@given(verify_calls())
@settings(max_examples=40, deadline=None)
def test_verify_fuzz_ends_cleanly(argv):
    # any suite, seed and flags: argparse's exit 2 for an unknown suite, or
    # exit 0 on a pass and 1 on a failure, with a summary line or a
    # schema-valid JSON result
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if argv[1] not in SUITES:
        assert code == 2 and "invalid choice" in err.getvalue(), argv
        return
    assert code in (0, 1) and err.getvalue() == "", argv
    if "--json" in argv:
        result = json.loads(out.getvalue())
        load_schema("suite.json")(result)
        assert (result["suite"], result["seed"], result["passed"]) == (argv[1], int(argv[3]), code == 0), argv
    else:
        assert out.getvalue().splitlines()[-1].startswith(f"suite {argv[1]}: "), argv
