import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import got
from got import cli
from got.graphs import graph_to_json
from got.measures import TimeGrid, Triple, convex_interpolation, triple_to_json
from got.dynamics import constant_speed_solution_tree
from got.worked_examples import binomial_example, path_graph

CYCLE_JSON = {
    "vertices": ["0", "1", "2", "3"],
    "edges": [
        {"tail": "0", "head": "1"},
        {"tail": "1", "head": "2"},
        {"tail": "3", "head": "2"},
        {"tail": "0", "head": "3"},
    ],
    "root": "0",
}


def _write(tmp_path, name, payload):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def _dist(values):
    return {"values": {str(i): v for i, v in enumerate(values)}}


@pytest.fixture
def cycle_files(tmp_path):
    return (
        _write(tmp_path, "g.json", CYCLE_JSON),
        _write(tmp_path, "f0.json", _dist([0.25, 0.25, 0.25, 0.25])),
        _write(tmp_path, "f1.json", _dist([0.09, 0.01, 0.09, 0.81])),
    )


def test_distance_kantorovich(cycle_files, capsys):
    g, f0, f1 = cycle_files
    code = cli.main(
        ["distance", "--graph", g, "--from", f0, "--to", f1,
         "--method", "kantorovich"]
    )
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.splitlines()[-1].split(": ")[1])
    assert value == pytest.approx(0.8, abs=1e-9)


def test_distance_tree_binomial(tmp_path, capsys):
    example = binomial_example()
    g = _write(tmp_path, "g.json", graph_to_json(example.graph))
    f0 = _write(tmp_path, "f0.json",
                {"values": dict(zip(example.graph.labels, example.f0.tolist()))})
    f1 = _write(tmp_path, "f1.json",
                {"values": dict(zip(example.graph.labels, example.f1.tolist()))})
    code = cli.main(
        ["distance", "--graph", g, "--from", f0, "--to", f1, "--method", "tree"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.splitlines()[-1].split(": ")[1]) == pytest.approx(2.5)


def test_distance_tree_on_cycle_fails_naming_edge(cycle_files, capsys):
    g, f0, f1 = cycle_files
    code = cli.main(
        ["distance", "--graph", g, "--from", f0, "--to", f1, "--method", "tree"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "closes a cycle" in captured.err
    assert "edge" in captured.err


# a star centred on '1', rooted at a leaf; edges 0 and 2 point toward the root
INWARD_JSON = {
    "vertices": ["0", "1", "2", "3"],
    "edges": [
        {"tail": "1", "head": "0"},
        {"tail": "1", "head": "2"},
        {"tail": "3", "head": "1"},
    ],
    "root": "2",
}


def test_tree_methods_and_verify_on_an_inward_tree(tmp_path, capsys):
    g = _write(tmp_path, "g.json", INWARD_JSON)
    masses = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.4, 0.3, 0.2, 0.1])
    f0, f1 = (_write(tmp_path, f"f{i}.json", _dist(m.tolist())) for i, m in enumerate(masses))
    values = {}
    for method in ("kantorovich", "tree", "auto"):
        code = cli.main(
            ["distance", "--graph", g, "--from", f0, "--to", f1, "--method", method]
        )
        out = capsys.readouterr().out
        assert code == 0
        values[method] = float(out.splitlines()[-1].split(": ")[1])
    assert values["kantorovich"] == pytest.approx(0.7, abs=1e-12)
    for method in ("tree", "auto"):
        assert values[method] == pytest.approx(values["kantorovich"], abs=1e-12)

    graph = got.graph_from_json(INWARD_JSON)
    path = convex_interpolation(*masses, TimeGrid(3))
    triple = Triple(path, constant_speed_solution_tree(graph, path))
    t = _write(tmp_path, "t.json", triple_to_json(triple))
    assert cli.main(["verify", "--graph", g, "--triple", t]) == 0
    out = capsys.readouterr().out
    assert "tail_residual: " in out
    assert out.splitlines()[-1] == "PASS (threshold 1e-08)"


def test_distance_benamou_prints_certificate(cycle_files, capsys):
    g, f0, f1 = cycle_files
    code = cli.main(
        ["distance", "--graph", g, "--from", f0, "--to", f1,
         "--method", "benamou", "--q", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "speed: " in out and "flow_l1: " in out
    assert "distance: 0.8" in out


def test_distance_validation_failures(cycle_files, capsys, tmp_path):
    g, f0, f1 = cycle_files
    assert cli.main(
        ["distance", "--graph", g, "--from", f0, "--to", f1, "--method", "spooky"]
    ) == 1
    for q in ("0.5", "nan", "inf", "-inf"):
        assert cli.main(["distance", "--graph", g, "--from", f0, "--to", f1,
                         "--method", "benamou", "--q", q]) == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    assert cli.main(
        ["distance", "--graph", str(bad), "--from", f0, "--to", f1]
    ) == 1
    unbalanced = _write(tmp_path, "u.json", _dist([0.9, 0.0, 0.0, 0.0]))
    assert cli.main(
        ["distance", "--graph", g, "--from", unbalanced, "--to", f1]
    ) == 1
    for bad in ("1", True):
        textual = _write(tmp_path, "s.json", _dist([bad, 0, 0, 0]))
        assert cli.main(
            ["distance", "--graph", g, "--from", textual, "--to", f1]
        ) == 1
        assert "distribution values must be numbers" in capsys.readouterr().err
    huge = _write(tmp_path, "h.json", _dist([10**400, 0, 0, 0]))
    assert cli.main(["distance", "--graph", g, "--from", huge, "--to", f1]) == 1
    assert "beyond the float range" in capsys.readouterr().err


def test_distance_rejects_duplicate_labels(cycle_files, capsys, tmp_path):
    _, f0, f1 = cycle_files
    labels = CYCLE_JSON["vertices"] + ["0"]
    twice = _write(tmp_path, "twice.json", {**CYCLE_JSON, "vertices": labels})
    assert cli.main(["distance", "--graph", twice, "--from", f0, "--to", f1]) == 1
    assert "vertex labels must be distinct" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert cli.main(["distance", "--graph", "g.json"]) == 1
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()


def test_geodesic_stationary(tmp_path, capsys):
    g = _write(tmp_path, "g.json", CYCLE_JSON)
    f0 = _write(tmp_path, "f0.json", _dist([0.25, 0.25, 0.25, 0.25]))
    out = tmp_path / "geo.csv"
    code = cli.main(
        ["geodesic", "--graph", g, "--from", f0, "--to", f0,
         "--steps", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,vertex,mass"
    assert len(lines) == 1 + 4 * 4
    for line in lines[1:]:
        assert float(line.split(",")[2]) == pytest.approx(0.25)
    capsys.readouterr()


def test_geodesic_point_masses(tmp_path, capsys):
    path3 = {
        "vertices": ["0", "1", "2"],
        "edges": [{"tail": "0", "head": "1"}, {"tail": "1", "head": "2"}],
        "root": "0",
    }
    g = _write(tmp_path, "g.json", path3)
    f0 = _write(tmp_path, "f0.json", _dist([1.0, 0.0, 0.0]))
    f1 = _write(tmp_path, "f1.json", _dist([0.0, 0.0, 1.0]))
    out = tmp_path / "geo.csv"
    code = cli.main(
        ["geodesic", "--graph", g, "--from", f0, "--to", f1,
         "--steps", "2", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    middle = {row[1]: float(row[2]) for row in rows if row[0] == "0.5"}
    assert middle == {"0": pytest.approx(0.5), "1": 0.0, "2": pytest.approx(0.5)}
    # masses per knot sum to one and endpoints match the inputs exactly
    for t in ("0.0", "1.0"):
        masses = [float(r[2]) for r in rows if r[0] == t]
        assert sum(masses) == 1.0
    assert [float(r[2]) for r in rows if r[0] == "0.0"] == [1.0, 0.0, 0.0]
    capsys.readouterr()


def test_verify_round_trip(tmp_path, capsys):
    path3 = path_graph(3)
    g = _write(tmp_path, "g.json", graph_to_json(path3))
    f0 = np.array([1.0, 0.0, 0.0])
    f1 = np.array([0.0, 0.0, 1.0])
    path = convex_interpolation(f0, f1, TimeGrid(4))
    pair = constant_speed_solution_tree(path3, path)
    triple_path = _write(tmp_path, "t.json", triple_to_json(Triple(path, pair)))
    code = cli.main(["verify", "--graph", g, "--triple", triple_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out

    payload = json.loads((tmp_path / "t.json").read_text())
    payload["v"][1][0] += 0.5
    corrupted = _write(tmp_path, "bad.json", payload)
    code = cli.main(["verify", "--graph", g, "--triple", corrupted])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out
    assert "(knot 1, vertex" in out


def test_verify_analytic_threshold(tmp_path, capsys):
    example = binomial_example(steps=200)
    g = _write(tmp_path, "g.json", graph_to_json(example.graph))
    t = _write(tmp_path, "t.json", triple_to_json(example.triple))
    strict = cli.main(["verify", "--graph", g, "--triple", t])
    capsys.readouterr()
    relaxed = cli.main(["verify", "--graph", g, "--triple", t, "--analytic"])
    capsys.readouterr()
    assert strict == 3
    assert relaxed == 0


def test_verify_malformed_triple(tmp_path, capsys):
    g = _write(tmp_path, "g.json", CYCLE_JSON)
    t = _write(tmp_path, "t.json", {"steps": 2, "f": [[1, 0, 0, 0]]})
    assert cli.main(["verify", "--graph", g, "--triple", t]) == 1
    boolean = _write(tmp_path, "b.json", {
        "steps": True, "f": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "v": [[1, 0, 0, 0]], "g": [[1, 0, 0, 0]],
    })
    assert cli.main(["verify", "--graph", g, "--triple", boolean]) == 1
    assert "positive integer 'steps'" in capsys.readouterr().err
    huge = _write(tmp_path, "h.json", {
        "steps": 1, "f": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "v": [[10**400, 0, 0, 0]], "g": [[1, 0, 0, 0]],
    })
    assert cli.main(["verify", "--graph", g, "--triple", huge]) == 1
    assert "triple JSON is malformed" in capsys.readouterr().err
    valid = {
        "steps": 1, "f": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "v": [[1, 0, 0, 0]], "g": [[1, 0, 0, 0]],
    }
    for key in ("f", "v", "g"):
        for bad in ("1", True, None):
            rows = [list(row) for row in valid[key]]
            rows[0][0] = bad
            t = _write(tmp_path, "n.json", {**valid, key: rows})
            assert cli.main(["verify", "--graph", g, "--triple", t]) == 1
            assert f"triple JSON is malformed: '{key}' holds" in capsys.readouterr().err


PATH_JSON = {
    "vertices": ["0", "1", "2"],
    "edges": [{"tail": "0", "head": "1"}, {"tail": "1", "head": "2"}],
    "root": "0",
}


def test_mass_tolerance_keeps_the_solvers_feasible(tmp_path, capsys):
    # two masses each off by just under SUM_TOL still balance within the
    # solvers' 1e-9: every method answers, none ends in a solver failure
    g = _write(tmp_path, "g.json", PATH_JSON)
    methods = ("tree", "beckmann", "kantorovich", "benamou", "auto")
    for off, accepted in ((3.99e-10, True), (6e-10, False)):
        f0 = _write(tmp_path, "f0.json", _dist([1.0 + off, 0.0, 0.0]))
        f1 = _write(tmp_path, "f1.json", _dist([0.0, 0.0, 1.0 - off]))
        values = []
        for method in methods:
            code = cli.main(
                ["distance", "--graph", g, "--from", f0, "--to", f1, "--method", method]
            )
            captured = capsys.readouterr()
            if accepted:
                assert code == 0, captured.err
                values.append(float(captured.out.splitlines()[-1].split(": ")[1]))
            else:
                assert code == 1 and "sums to" in captured.err
        if accepted:
            assert max(values) - min(values) <= 1e-8
            assert values[0] == pytest.approx(2.0, abs=1e-8)
        code = cli.main(
            ["geodesic", "--graph", g, "--from", f0, "--to", f1, "--steps", "3",
             "--out", str(tmp_path / "geo.csv")]
        )
        assert code == (0 if accepted else 1)
        capsys.readouterr()


def test_unreadable_or_invalid_json_files_exit_one(cycle_files, tmp_path, capsys):
    g, f0, f1 = cycle_files
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    missing = str(tmp_path / "missing.json")
    cases = [
        (["verify", "--graph", g, "--triple", missing],
         f"cannot read triple file {missing}: "),
        (["verify", "--graph", g, "--triple", str(broken)],
         f"triple file {broken} is not valid JSON: "),
        (["distance", "--graph", g, "--from", str(broken), "--to", f1],
         f"distribution file {broken} is not valid JSON: "),
        (["distance", "--graph", str(binary), "--from", f0, "--to", f1],
         f"graph file {binary} is not valid JSON: "),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_json_integer_beyond_the_digit_limit_exits_one(cycle_files, tmp_path):
    g, f0, _ = cycle_files
    # Python's JSON parser refuses integer literals past 4300 digits
    huge = tmp_path / "huge.json"
    huge.write_text('{"values": {"0": 1' + "0" * 5000 + "}}")
    package_root = str(Path(got.__file__).resolve().parents[1])
    search = [package_root, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "got.cli", "distance", "--graph", g,
         "--from", f0, "--to", str(huge)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: distribution file {huge} is not valid JSON: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, expected",
    [("binomial", 2.5), ("square", 0.8), ("star", 2.0), ("poisson", 2.0)],
)
def test_examples_commands(name, expected, capsys):
    code = cli.main(["examples", name, "--steps", "50"])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(
        line.split(": ") for line in out.splitlines() if ": " in line
    )
    for key in ("analytic_I2", "kantorovich", "beckmann"):
        assert float(lines[key]) == pytest.approx(expected, abs=1e-6)
    assert float(lines["max_gap"]) <= 1e-6
    if name == "star":
        assert float(lines["convexity_gap"]) <= 1e-9


def test_examples_unknown_name(capsys):
    assert cli.main(["examples", "cauchy"]) == 1
    assert cli.main(["examples", "poisson", "--truncation", "2"]) == 1
    capsys.readouterr()


def test_library_checks_reach_the_command_line(cycle_files, tmp_path, capsys):
    g, f0, f1 = cycle_files
    out = str(tmp_path / "geo.csv")
    cases = [
        (["geodesic", "--graph", g, "--from", f0, "--to", f1, "--steps", "0",
          "--out", out], "time grid needs at least one step"),
        (["examples", "binomial", "--steps", "0"], "time grid needs at least one step"),
        (["examples", "binomial", "--steps", str(10**400)],
         f"time grid needs fewer than {np.iinfo(np.intp).max} steps"),
        (["examples", "cauchy"],
         "unknown example 'cauchy'; choose one of binomial, poisson, star, square"),
        (["geodesic", "--graph", g, "--from", f0, "--to", f1, "--mode",
          "beckmann-flow", "--out", out],
         "unknown mode 'beckmann-flow'; choose one of convex"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_geodesic_round_trip_through_verify(tmp_path, cycle_files, capsys):
    from got.graphs import load_graph
    from got.transport import flow_to_constant_pair, w1_beckmann

    g, f0, f1 = cycle_files
    out = tmp_path / "geo.csv"
    steps = 5
    assert cli.main(
        ["geodesic", "--graph", g, "--from", f0, "--to", f1,
         "--steps", str(steps), "--out", str(out)]
    ) == 0
    capsys.readouterr()

    # reassemble the triple from the CSV masses and the certifying pair
    graph = load_graph(g)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    samples = np.array([float(r[2]) for r in rows]).reshape(steps + 1, 4)
    _, J = w1_beckmann(
        graph, samples[0], np.array([0.09, 0.01, 0.09, 0.81])
    )
    pair = flow_to_constant_pair(J, steps)
    triple_path = _write(tmp_path, "triple.json", {
        "steps": steps,
        "f": samples.tolist(),
        "v": pair.v.tolist(),
        "g": pair.g.tolist(),
    })
    assert cli.main(["verify", "--graph", g, "--triple", triple_path]) == 0
    out_text = capsys.readouterr().out
    assert "PASS" in out_text


def test_reports_are_deterministic(cycle_files, capsys):
    g, f0, f1 = cycle_files
    args = ["distance", "--graph", g, "--from", f0, "--to", f1,
            "--method", "benamou"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_console_entry_point(tmp_path):
    g = _write(tmp_path, "g.json", CYCLE_JSON)
    f0 = _write(tmp_path, "f0.json", _dist([0.25, 0.25, 0.25, 0.25]))
    f1 = _write(tmp_path, "f1.json", _dist([0.09, 0.01, 0.09, 0.81]))
    # the child imports the package under test, installed or not
    package_root = str(Path(got.__file__).resolve().parents[1])
    search = [package_root, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "got.cli", "distance", "--graph", g,
         "--from", f0, "--to", f1, "--method", "beckmann"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))},
    )
    assert proc.returncode == 0
    assert "distance: 0.8" in proc.stdout


def test_energy_of_large_and_tiny_speeds(tmp_path, capsys):
    g = _write(tmp_path, "g.json", PATH_JSON)
    f0 = _write(tmp_path, "f0.json", _dist([1.0, 0.0, 0.0]))
    f1 = _write(tmp_path, "f1.json", _dist([0.0, 0.0, 1.0]))
    for q in ("1100", "1e308"):
        code = cli.main(["distance", "--graph", g, "--from", f0, "--to", f1,
                         "--method", "benamou", "--q", q])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "speed: 2.0\n" in captured.out and "distance: 2.0\n" in captured.out
    for speed, printed in ((1e200, "1e+200"), (1e-120, "1e-120"), (0, "0.0")):
        t = _write(tmp_path, "t.json", {
            "steps": 1, "f": [[1, 0, 0], [1, 0, 0]],
            "v": [[speed, speed]], "g": [[0.5, 0.5]],
        })
        cli.main(["verify", "--graph", g, "--triple", t, "--q", "3"])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"I_q: {printed} (q=3.0)" in captured.out
