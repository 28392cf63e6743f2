import json
import subprocess
import sys

import pytest

from kiselman import canonical, cli, errors, hecke, sds, universal
from kiselman.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canon(capsys):
    code, out, _ = run_cli(capsys, "canon", "a", "b", "a")
    assert code == 0 and out.strip() == "ab"
    code, out, _ = run_cli(capsys, "canon", "bdbcdabcdc")
    assert code == 0 and out.strip() == "abcd"


def test_letters_above_z_render_as_indices(capsys):
    code, out, _ = run_cli(capsys, "canon", "27", "1", "27")
    assert code == 0 and out.strip() == "1 27"
    code, out, _ = run_cli(capsys, "mult", "a", "27 1")
    assert code == 0 and out.strip() == "1 27"
    code, out, _ = run_cli(capsys, "canon", "27", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "input": "27 1", "canonical": "27 1"}
    code, out, _ = run_cli(capsys, "mult", "ba", "27", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "left": "ba", "right": "27",
                               "product": "2 1 27"}
    code, out, _ = run_cli(capsys, "canon", "bab")
    assert code == 0 and out.strip() == "ab"
    code, _, err = run_cli(capsys, "canon", "27", "1", "--format", "letters")
    assert code == 2 and "1..26" in err


def test_join(capsys):
    code, out, _ = run_cli(capsys, "join", "cbadc", "abdc")
    assert code == 0 and out.strip() == "cbabdc"
    code, out, _ = run_cli(capsys, "join", "cbadc", "abdc", "--json", "--format", "indices")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "left": "3 2 1 4 3", "right": "1 2 4 3",
                               "join": "3 2 1 2 4 3"}


def test_mult(capsys):
    code, out, _ = run_cli(capsys, "mult", "ba", "b")
    assert code == 0 and out.strip() == "ab"
    code, out, _ = run_cli(capsys, "mult", "2 1", "2", "--format", "indices")
    assert code == 0 and out.strip() == "1 2"


def test_enum_kn_json(capsys):
    code, out, _ = run_cli(capsys, "enum-kn", "2", "--json")
    blob = json.loads(out)
    assert code == 0
    assert blob == {"schema": 1, "n": 2, "size": 5}
    code, out, _ = run_cli(capsys, "enum-kn", "2", "--json", "--list")
    blob = json.loads(out)
    assert blob["elements"] == ["-", "a", "b", "ab", "ba"]


def test_enum_kn_text_listing(capsys):
    code, out, _ = run_cli(capsys, "enum-kn", "2", "--list")
    assert out.splitlines() == ["-", "a", "b", "ab", "ba"]
    code, out, _ = run_cli(capsys, "enum-kn", "3")
    assert out.strip() == "18"


def test_enum_hk(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "enum-hk", "--graph", "complete:2", "--json")
    blob = json.loads(out)
    assert blob["size"] == 5 and blob["edges"] == [[1, 2]]
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"n": 2, "edges": []}))
    code, out, _ = run_cli(capsys, "enum-hk", "--graph", str(gfile))
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "enum-hk", "--graph", str(gfile), "--list")
    assert code == 0 and out.splitlines() == ["-", "a", "b", "ab"]


def test_enum_hk_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(hecke, "kn_quotient_classes", lambda pres, kn=None: (0, frozenset()))
    for json_flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, "enum-hk", "--graph", "complete:3", *json_flag)
        assert code == 1 and out == ""
        assert err.startswith("verification failure: Todd-Coxeter found 18 classes")


def test_enum_hk_json_stats_are_reproducible(capsys):
    code, first, _ = run_cli(capsys, "enum-hk", "--graph", "complete:4", "--json")
    _, second, _ = run_cli(capsys, "enum-hk", "--graph", "complete:4", "--json")
    assert code == 0 and first == second
    stats = json.loads(first)["stats"]
    assert stats["classes"] == 115
    assert set(stats) == {"cosets_defined", "coincidences", "classes",
                          "b_seeded_pairs", "b_merges"}


def test_enum_hk_refuses_large_graphs_before_building_them(capsys, monkeypatch, tmp_path):
    def unbuilt(*args):
        raise AssertionError("the graph was built before the vertex guard")

    monkeypatch.setattr(cli, "complete_dag", unbuilt)
    monkeypatch.setattr(cli, "Dag", unbuilt)
    monkeypatch.setattr(sds, "Dag", unbuilt)
    code, _, err = run_cli(capsys, "enum-hk", "--graph", "complete:1500")
    assert code == 3 and "vertex guard: 1500 vertices exceed MAX_VERTICES=6" in err
    gfile = tmp_path / "big.json"
    gfile.write_text(json.dumps({"n": 10 ** 9, "edges": []}))
    code, _, err = run_cli(capsys, "enum-hk", "--graph", str(gfile))
    assert code == 3 and "vertex guard: 1000000000 vertices exceed MAX_VERTICES=6" in err


def _arrow_blob():
    return {
        "graph": {"n": 2, "edges": [[1, 2]]},
        "states": [["0", "1", "2"], ["0", "1"]],
        "functions": [
            {"vertex": 1, "table": [{"args": ["0"], "out": "1"},
                                    {"args": ["1"], "out": "2"}]},
            {"vertex": 2, "table": [{"args": [], "out": "1"}]},
        ],
    }


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_arrow_blob()))
    return str(path)


@pytest.mark.parametrize("graph, message", [
    ({"n": 2.9, "edges": [[1.7, 2]]}, '"n" must be a JSON integer, got 2.9'),
    ({"n": True}, '"n" must be a JSON integer, got True'),
    ({"n": "2"}, '"n" must be a JSON integer, got \'2\''),
    ({"n": 2, "edges": [[1.7, 2]]}, "edge [1.7, 2] is not a pair of int vertices"),
    ({"n": 2, "edges": [[1, 2], ["1", 2]]}, "edge ['1', 2] is not a pair of int vertices"),
    ({"n": 2, "edges": ["12"]}, "edge '12' is not a pair of int vertices"),
    ({"n": 2, "edges": "12"}, '"edges" must be a JSON list'),
])
def test_graph_files_take_only_json_integers(capsys, tmp_path, graph, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "enum-hk", "--graph", str(path))
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("edit, message", [
    (lambda b: b.update(states=["012", ["0", "1"]]), 'state row 1 of "states" must be a JSON list'),
    (lambda b: b.update(states="01"), '"states" must be a JSON list'),
    (lambda b: b["graph"].update(n=2.0), '"n" must be a JSON integer, got 2.0'),
    (lambda b: b["functions"][0].update(vertex=1.9), '"vertex" must be a JSON integer, got 1.9'),
    (lambda b: b["functions"][0].update(vertex="1"), '"vertex" must be a JSON integer, got \'1\''),
    (lambda b: b["functions"][0].update(vertex=True), '"vertex" must be a JSON integer, got True'),
    (lambda b: b["functions"][0]["table"][0].update(args="0"),
     '"args" of a table row for vertex 1 must be a JSON list'),
    (lambda b: b.update(functions={"vertex": 1}), '"functions" must be a JSON list'),
    (lambda b: b["functions"][0].update(table="xy"), '"table" of vertex 1 must be a JSON list'),
])
def test_system_files_take_only_json_integers_and_lists(capsys, tmp_path, edit, message):
    blob = _arrow_blob()
    edit(blob)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "simulate", "--system", str(path), "--schedule", "1")
    assert code == 2 and out == "" and message in err


def test_simulate(capsys, system_file):
    code, out, _ = run_cli(capsys, "simulate", "--system", system_file,
                           "--schedule", "1 2", "--initial", "0,0")
    assert code == 0 and out.strip() == "2,1"
    code, out, _ = run_cli(capsys, "simulate", "--system", system_file,
                           "--schedule", "2 1", "--json")
    assert json.loads(out)["state"] == ["1", "1"]
    code, _, err = run_cli(capsys, "simulate", "--system", system_file,
                           "--schedule", "1", "--initial", "0")
    assert code == 2 and "tokens" in err


def test_simulate_refuses_tokens_outside_the_state_sets(capsys, system_file):
    for initial, v in (("0,zz", 2), ("bogus,0", 1)):
        code, out, err = run_cli(capsys, "simulate", "--system", system_file,
                                 "--schedule", "1", "--initial", initial)
        assert code == 2 and out == ""
        assert f"is not a state of vertex {v}" in err


def test_simulate_checks_the_vertex_count_before_building(capsys, tmp_path, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the graph was built before the state rows were counted")

    monkeypatch.setattr(sds, "Dag", unbuilt)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"graph": {"n": 10 ** 9, "edges": []},
                                "states": [["0"]], "functions": []}))
    code, out, err = run_cli(capsys, "simulate", "--system", str(path), "--schedule", "1")
    assert code == 2 and out == ""
    assert "graph has 1000000000 vertices but there are 1 state rows" in err


@pytest.mark.parametrize("row", [{"out": "1"}, ["0", "1"], "0"])
def test_malformed_table_rows_exit_2(capsys, tmp_path, row):
    blob = {
        "graph": {"n": 1, "edges": []},
        "states": [["0", "1"]],
        "functions": [{"vertex": 1, "table": [row]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    for command in ("dynamics", "simulate"):
        argv = [command, "--system", str(path)]
        if command == "simulate":
            argv += ["--schedule", "1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "bad table row for vertex 1" in err


def test_dynamics(capsys, system_file, monkeypatch):
    code, out, _ = run_cli(capsys, "dynamics", "--system", system_file, "--json")
    blob = json.loads(out)
    assert blob["size"] == 5 and blob["state_count"] == 6
    stats = blob["stats"]
    assert stats["states"] == 6 and stats["maps"] == 5 and stats["products"] == 10
    assert 0 < stats["compositions"] < stats["products"]
    assert not any("second" in key for key in stats)
    code, again, _ = run_cli(capsys, "dynamics", "--system", system_file, "--json")
    assert again == out
    code, out, _ = run_cli(capsys, "dynamics", "--system", system_file, "--json", "--list")
    assert json.loads(out)["witnesses"] == ["-", "a", "b", "ba", "ab"]
    code, out, _ = run_cli(capsys, "dynamics", "--system", system_file, "--list")
    assert code == 0 and out.splitlines() == ["5", "-", "a", "b", "ba", "ab"]
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 1)
    code, _, err = run_cli(capsys, "dynamics", "--system", system_file)
    assert code == 3 and "dynamics monoid exceeds MAX_ELEMENTS=1" in err


def test_check_relations(capsys, system_file):
    code, out, _ = run_cli(capsys, "check-relations", "--system", system_file)
    assert code == 0
    assert "edge-triple (1, 2): ok" in out
    code, out, _ = run_cli(capsys, "check-relations", "--system", system_file, "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "ok": True, "checked": 3, "failures": []}


def test_verify_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "2",
                           "--max-len", "5", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["counterexamples"] == [] and blob["checked"] == 63
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "2", "--max-len", "5")
    assert code == 0 and out == "checked 63 words, 0 counterexamples\n"
    # without --max-len: every word of length <= 6
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "1")
    assert code == 0 and out == "checked 7 words, 0 counterexamples\n"


def test_verify_theorem_takes_one_length_flag_and_seeds_only_random_words(capsys):
    code, out, err = run_cli(capsys, "verify-theorem", "--n", "3", "--seed", "4")
    assert code == 2 and out == "" and "--seed needs --random" in err
    code, out, err = run_cli(capsys, "verify-theorem", "--n", "3", "--max-len", "2",
                             "--random", "5", "--seed", "1", "--json")
    assert code == 0 and json.loads(out)["checked"] == 5
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--n", "3", "--exhaustive-len", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exhaustive-len 2" in capsys.readouterr().err


def test_verify_theorem_text_lists_counterexamples(capsys, monkeypatch):
    monkeypatch.setattr(universal, "canonical_form", lambda w: (1,))
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "2", "--max-len", "1")
    assert code == 1
    assert out.splitlines() == ["checked 3 words, 2 counterexamples",
                                "  -: reconstruction", "  b: reconstruction"]


def test_verify_theorem_json_reports_counts_and_no_times(capsys):
    _, out, _ = run_cli(capsys, "verify-theorem", "--n", "2",
                        "--max-len", "5", "--json")
    # 2^k words of each length k <= 5, each reaching the fold with one join
    assert json.loads(out)["stats"] == {"steps": sum(k * 2 ** k for k in range(6)),
                                        "joins": 63}


def test_verify_theorem_random_is_seed_reproducible(capsys):
    args = ("verify-theorem", "--n", "3", "--random", "50",
            "--max-len", "9", "--seed", "4", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("flags, message", [
    (["--max-len", "-1"], "argument --max-len: must be at least 0, got -1"),
    (["--random", "-3"], "argument --random: must be at least 1, got -3"),
    (["--random", "0"], "argument --random: must be at least 1, got 0"),
    (["--random", "5", "--max-len", "-1"], "argument --max-len: must be at least 0, got -1"),
])
def test_verify_theorem_refuses_empty_checks_at_the_parser(capsys, flags, message):
    """A count or length that would check no word is a usage error, not a pass."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--n", "3", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_iso(capsys):
    for n, size in ((1, 2), (2, 5), (3, 18), (4, 115), (5, 1710)):
        code, out, _ = run_cli(capsys, "verify-iso", "--n", str(n), "--json")
        blob = json.loads(out)
        assert code == 0 and blob == {"schema": 1, "n": n, "kn_size": size,
                                      "orbit_size": size, "failures": []}
    code, out, _ = run_cli(capsys, "verify-iso", "--n", "3")
    assert code == 0
    assert out.strip() == "|K_3| = 18, orbit of all-STAR: 18, failed relations: 0"


def test_size_constants_reach_the_guard_of_each_command(capsys, monkeypatch, system_file):
    monkeypatch.setattr(errors, "MAX_COSETS", 10)
    code, _, err = run_cli(capsys, "enum-hk", "--graph", "complete:5")
    assert code == 3 and "reach MAX_COSETS=10" in err
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 17)
    code, _, err = run_cli(capsys, "enum-kn", "3")
    assert code == 3 and "K_3 exceeds MAX_ELEMENTS=17" in err
    for argv in (["enum-kn", "3", "--max-elements", "5"],
                 ["enum-hk", "--graph", "complete:3", "--max-elements", "5"],
                 ["dynamics", "--system", system_file, "--max-elements", "5"],
                 ["canon", "a", "--max-elements", "5"],
                 ["verify-theorem", "--n", "2", "--max-elements", "5"],
                 ["verify-iso", "--n", "3", "--max-elements", "2"],
                 ["verify-iso", "--n", "2", "--pairs", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    def unclosed(*args):
        raise AssertionError("K_7 closure started before the alphabet guard")

    monkeypatch.setattr(canonical, "froidure_pin", unclosed)
    code, _, err = run_cli(capsys, "enum-kn", "7")
    assert code == 3 and "vertex guard: 7 vertices exceed MAX_VERTICES=6" in err


def test_guards_without_a_flag_name_their_constant(capsys):
    for argv, message in (
            (["verify-iso", "--n", "6"], "exceeds MAX_STATES=1000000"),
            (["verify-theorem", "--n", "7"], "over MAX_PRODUCT=1000000"),
            (["enum-kn", "7"], "exceed MAX_VERTICES=6"),
            (["enum-hk", "--graph", "complete:7"], "exceed MAX_VERTICES=6")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and message in err, argv


def test_conjecture_sweep_vertex_guard(capsys):
    code, _, err = run_cli(capsys, "conjecture-sweep", "--max-vertices", "0")
    assert code == 2 and "max_vertices=0" in err
    code, _, err = run_cli(capsys, "conjecture-sweep", "--max-vertices", "6")
    assert code == 3 and "max_vertices=6 exceeds MAX_CATALOG_VERTICES=5" in err


def test_conjecture_sweep(capsys):
    code, out, _ = run_cli(capsys, "conjecture-sweep", "--max-vertices", "2", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["schema"] == 1 and blob["matched"] == 3
    code, out, _ = run_cli(capsys, "conjecture-sweep", "--max-vertices", "2")
    assert code == 0 and out.splitlines() == [
        "n=1 edges=[-] hk=2 dynamics=2 match",
        "n=2 edges=[-] hk=4 dynamics=4 match",
        "n=2 edges=[1->2] hk=5 dynamics=5 match",
        "matched 3, mismatched 0, skipped 0",
    ]


def test_conjecture_sweep_json_is_reproducible_but_for_seconds(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "conjecture-sweep", "--max-vertices", "3", "--json")
        blob = json.loads(out)
        assert code == 0 and len(blob["rows"]) == 9
        for row in blob["rows"]:
            assert isinstance(row.pop("seconds"), float)
        runs.append(blob)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flag", [["--search-on-mismatch"], ["--seed", "1"],
                                  ["--out", "sweep.json"]])
def test_conjecture_sweep_refuses_retired_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture-sweep", "--max-vertices", "1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "canon", "x!")
    assert code == 2 and "bad letter" in err
    code, _, err = run_cli(capsys, "enum-kn", "9")
    assert code == 3 and "guard" in err
    code, _, err = run_cli(capsys, "enum-hk", "--graph", "/nonexistent.json")
    assert code == 2


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "kiselman.cli", "no-such-command"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kiselman.cli", "canon", "aba", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"schema": 1, "input": "aba",
                                       "canonical": "ab"}
