import json
import subprocess
import sys

import pytest

from kiselman import cli, sds
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


def test_join(capsys):
    code, out, _ = run_cli(capsys, "join", "cbadc", "abdc")
    assert code == 0 and out.strip() == "cbabdc"


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


def test_enum_hk_refuses_large_graphs_before_building_them(capsys, monkeypatch, tmp_path):
    def unbuilt(*args):
        raise AssertionError("the graph was built before the vertex guard")

    monkeypatch.setattr(cli, "complete_dag", unbuilt)
    monkeypatch.setattr(sds, "Dag", unbuilt)
    code, _, err = run_cli(capsys, "enum-hk", "--graph", "complete:1500")
    assert code == 3 and "max_vertices=6" in err
    gfile = tmp_path / "big.json"
    gfile.write_text(json.dumps({"n": 10 ** 9, "edges": []}))
    code, _, err = run_cli(capsys, "enum-hk", "--graph", str(gfile))
    assert code == 3 and "max_vertices=6" in err


@pytest.fixture
def system_file(tmp_path):
    blob = {
        "graph": {"n": 2, "edges": [[1, 2]]},
        "states": [["0", "1", "2"], ["0", "1"]],
        "functions": [
            {"vertex": 1, "table": [{"args": ["0"], "out": "1"},
                                    {"args": ["1"], "out": "2"}]},
            {"vertex": 2, "table": [{"args": [], "out": "1"}]},
        ],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(blob))
    return str(path)


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


def test_dynamics(capsys, system_file):
    code, out, _ = run_cli(capsys, "dynamics", "--system", system_file, "--json")
    blob = json.loads(out)
    assert blob["size"] == 5 and blob["state_count"] == 6
    code, _, err = run_cli(capsys, "dynamics", "--system", system_file,
                           "--max-elements", "1")
    assert code == 3 and "limit 1" in err
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--system", system_file, "--max-elements", "0"])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_check_relations(capsys, system_file):
    code, out, _ = run_cli(capsys, "check-relations", "--system", system_file)
    assert code == 0
    assert "edge-triple (1, 2): ok" in out


def test_verify_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "2",
                           "--exhaustive-len", "5", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["counterexamples"] == [] and blob["checked"] == 63


def test_verify_theorem_random_is_seed_reproducible(capsys):
    args = ("verify-theorem", "--n", "3", "--random", "50",
            "--max-len", "9", "--seed", "4", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_iso(capsys):
    code, out, _ = run_cli(capsys, "verify-iso", "--n", "2", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["kn_size"] == 5 and blob["dynamics_size"] == 5


def test_conjecture_sweep(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "conjecture-sweep", "--max-vertices", "2",
                           "--json", "--out", str(out_path))
    blob = json.loads(out)
    assert code == 0 and blob["matched"] == 3
    saved = json.loads(out_path.read_text())
    assert saved["schema"] == 1 and saved["matched"] == 3


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
