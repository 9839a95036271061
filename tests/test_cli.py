import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prooflab
from prooflab import experiments
from prooflab.cli import cli_main
from prooflab.encoders import clique_structure, cycle_structure, encode_kconsistency_cnf
from prooflab.resolution import write_dimacs


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def run_module(cwd, argv, timeout):
    """Run `python -m prooflab.cli` in a subprocess, so that a traceback or
    a hang shows up as what a shell user would see."""
    src = str(Path(prooflab.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "prooflab.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_pc_refuted_exit_code(tmp_path, capsys):
    system = {"field": {"kind": "Q"}, "num_vars": 1, "booleanity": True,
              "polys": [[{"coef": "1", "mono": [1]}],
                        [{"coef": "1", "mono": []}, {"coef": "-1", "mono": [1]}]]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out = run(capsys, "pc", str(path), "--engine", "monpc", "--degree", "2")
    assert code == 10
    assert json.loads(out)["refuted"] is True


def test_pc_not_refuted_exit_code(tmp_path, capsys):
    system = {"field": {"kind": "Q"}, "num_vars": 1, "booleanity": True,
              "polys": [[{"coef": "1", "mono": [1]}]]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out = run(capsys, "pc", str(path), "--degree", "2")
    assert code == 11


def test_res_horn_on_dimacs(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out = run(capsys, "res", "horn", str(path))
    assert code == 10
    assert json.loads(out)["derived_units"] == [1]


def test_res_kres_verdicts(tmp_path):
    # 3-consistency refutes 2-colouring the odd cycle C5 but not the even C4
    for n, code, refuted in ((5, 10, True), (4, 11, False)):
        cnf = encode_kconsistency_cnf(cycle_structure(n), clique_structure(2), 3)
        (tmp_path / "f.cnf").write_text(write_dimacs(cnf))
        proc = run_module(tmp_path, ["res", "kres", "f.cnf", "--width", "3"], timeout=60)
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stdout) == {"refuted": refuted, "width": 3}


def test_wl_identical_graphs(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out = run(capsys, "wl", "--g", str(g), "--h", str(g), "--dim-max", "3")
    assert code == 11
    assert json.loads(out)["distinguishing_dim"] is None


def test_encode_nonreach_round_trip(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("2 1\n0 1\n")
    code, out = run(capsys, "encode", "nonreach", "--graph", str(g), "--s", "0", "--t", "1")
    assert code == 0
    assert out.startswith("p cnf")


def test_cfi_aut_dimension(capsys):
    code, out = run(capsys, "cfi", "aut", "--base", "k4", "--p", "2")
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_game_solve(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "theta": [1, 0], "start": 0}))
    code, out = run(capsys, "game", "solve", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["w0"] == [0, 1]


def test_csp_check_odd_cycle(tmp_path, capsys):
    inst = tmp_path / "c3.json"
    tmpl = tmp_path / "k2.json"
    c3 = {"n": 3, "relations": {"E": {"arity": 2,
          "tuples": [[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]]}}}
    k2 = {"n": 2, "relations": {"E": {"arity": 2, "tuples": [[0, 1], [1, 0]]}}}
    inst.write_text(json.dumps(c3))
    tmpl.write_text(json.dumps(k2))
    code, out = run(capsys, "csp", "check", "--instance", str(inst),
                    "--template", str(tmpl), "--k", "3")
    assert code == 10  # inconsistent: refuted side of the verdict convention
    assert json.loads(out)["consistent"] is False


def test_lfp_eval_and_encode(tmp_path, capsys):
    s = tmp_path / "s.json"
    phi = tmp_path / "phi.lfp"
    s.write_text(json.dumps({"n": 2, "relations": {"E": {"arity": 2, "tuples": [[0, 1]]}}}))
    phi.write_text("(lfp R (x) (or (= x s) (exists y (and (R y) (E y x)))) t)")
    code, out = run(capsys, "lfp", "eval", "--structure", str(s), "--formula", str(phi),
                    "--param", "s=0", "--param", "t=1")
    assert code == 10
    assert json.loads(out)["satisfied"] is True
    code, out = run(capsys, "lfp", "encode", "--structure", str(s), "--formula", str(phi),
                    "--param", "s=0", "--param", "t=1")
    assert code == 0
    assert out.startswith("p cnf")


def test_lfp_eval_of_a_wide_conjunction(tmp_path):
    # 3,000 parts once overflowed the recursion limit: exit 1 and a traceback
    (tmp_path / "s.json").write_text(json.dumps(
        {"n": 2, "relations": {"P": {"arity": 1, "tuples": [[1]]}}}))
    (tmp_path / "phi.lfp").write_text("(exists x (and " + " ".join(["(P x)"] * 3000) + "))")
    for action, code in (("eval", 10), ("encode", 0)):
        proc = run_module(tmp_path, ["lfp", action, "--structure", "s.json",
                                     "--formula", "phi.lfp"], timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli_main(["res", "horn", str(tmp_path / "missing.cnf")]) == 2
    assert cli_main(["nonsense"]) == 2
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert cli_main(["res", "horn", str(path)]) == 2  # non-Horn input


MALFORMED = [
    ("pc-not-json", {"sys.json": "not json"}, ["pc", "sys.json", "--degree", "2"]),
    ("pc-no-polys", {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 1})},
     ["pc", "sys.json", "--degree", "2"]),
    ("pc-bad-coef", {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 1,
                                             "polys": [[{"coef": "x", "mono": [1]}]]})},
     ["pc", "sys.json", "--degree", "2"]),
    ("pc-bad-field", {"sys.json": json.dumps({"field": {"kind": "Fp", "p": "x"}, "num_vars": 1,
                                              "polys": []})},
     ["pc", "sys.json", "--degree", "2"]),
    ("pc-field-flag", {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 1, "polys": []})},
     ["pc", "sys.json", "--field", "Fp:x"]),
    ("pc-huge-prime", {"sys.json": json.dumps({"field": {"kind": "Fp", "p": 2 ** 89 - 1},
                                               "num_vars": 1, "polys": []})},
     ["pc", "sys.json", "--degree", "2"]),
    ("pc-no-booleanity", {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 1,
                                                  "booleanity": False, "polys": []})},
     ["pc", "sys.json", "--degree", "2"]),
] + [
    # a variable id is an int, bools and floats included
    (f"pc-mono-{name}", {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 2,
                                                 "polys": [[{"coef": "1", "mono": [v]}]]})},
     ["pc", "sys.json", "--degree", "2"])
    for name, v in [("float-int", 1.0), ("float", 1.5), ("bool", True)]
] + [
    ("pc-num-vars-float", {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 2.5,
                                                   "polys": [[{"coef": "1", "mono": [1]}]]})},
     ["pc", "sys.json", "--degree", "2"]),
] + [
    # the sweep starts at k = 1, so it has no degree to try: even the constant 1 is not refuted
    (f"min-degree-k-max-{name}",
     {"sys.json": json.dumps({"field": {"kind": "Q"}, "num_vars": 1,
                              "polys": [[{"coef": "1", "mono": []}]]})},
     ["min-degree", "sys.json", "--k-max", k_max])
    for name, k_max in [("zero", "0"), ("negative", "-3")]
] + [
    ("cfi-bad-load", {}, ["cfi", "gen", "--base", "k4", "--load", "1,x"]),
    ("res-bad-token", {"f.cnf": "p cnf 2 1\n1 x 0\n"}, ["res", "kres", "f.cnf"]),
    ("lfp-not-json", {"s.json": "{", "phi.lfp": "(= x x)"},
     ["lfp", "eval", "--structure", "s.json", "--formula", "phi.lfp"]),
    ("wl-no-n", {"g.json": json.dumps({"relations": {}})},
     ["wl", "--g", "g.json", "--h", "g.json"]),
    ("wl-graph-text-bad", {"g.graph": "x y\n"}, ["wl", "--g", "g.graph", "--h", "g.graph"]),
    ("wl-graph-empty", {"g.graph": ""}, ["wl", "--g", "g.graph", "--h", "g.graph"]),
    ("wl-graph-color-str", {"g.json": json.dumps({"n": 2, "colors": [0, "a"], "relations": {}})},
     ["wl", "--g", "g.json", "--h", "g.json"]),
    ("wl-graph-vertex-float", {"g.json": json.dumps({"n": 2, "relations": {"E": [[0.0, 1]]}})},
     ["wl", "--g", "g.json", "--h", "g.json"]),
    ("cfi-base-text-bad", {"b.graph": "x y\n"}, ["cfi", "aut", "--base", "b.graph"]),
    ("csp-no-n", {"a.json": json.dumps({"relations": {}}),
                  "t.json": json.dumps({"n": 2, "relations": {}})},
     ["csp", "check", "--instance", "a.json", "--template", "t.json"]),
    ("game-no-edges", {"game.json": json.dumps({"n": 1, "theta": [0]})},
     ["game", "solve", "game.json"]),
    ("lfp-param-no-eq", {"s.json": json.dumps({"n": 1, "relations": {}}), "phi.lfp": "(= s s)"},
     ["lfp", "eval", "--structure", "s.json", "--formula", "phi.lfp", "--param", "s"]),
    ("config-bad-timeout", {"exp.cfg": "timeout=abc\n"},
     ["experiment", "csp-sweep", "--cycle-min", "3", "--cycle-max", "3", "--config", "exp.cfg"]),
    ("config-unknown-key", {"exp.cfg": "k_max=1\n"},
     ["experiment", "csp-sweep", "--cycle-min", "3", "--cycle-max", "3", "--config", "exp.cfg"]),
    ("exp-p-not-prime", {}, ["experiment", "degree-growth", "--bases", "k4", "--p", "4"]),
    ("exp-k-zero", {}, ["experiment", "csp-sweep", "--cycle-min", "3", "--cycle-max", "3",
                        "--k", "0"]),
    ("exp-workers-negative", {}, ["experiment", "csp-sweep", "--cycle-min", "3",
                                  "--cycle-max", "3", "--workers", "-1"]),
] + [
    # a term is a name, and = takes two terms, negated or not
    (f"lfp-{action}-{name}",
     {"s.json": json.dumps({"n": 2, "relations": {"E": {"arity": 2, "tuples": [[0, 1]]}}}),
      "phi.lfp": text},
     ["lfp", action, "--structure", "s.json", "--formula", "phi.lfp", "--param", "y=0"])
    for name, text in [("not-eq-one-term", "(not (= x))"),
                       ("not-eq-three-terms", "(exists x (not (= x x y)))"),
                       ("eq-list-term", "(exists x (= (E x x) x))"),
                       ("atom-list-term", "(exists x (E (x) x))"),
                       ("lfp-list-var", "(lfp R ((x)) (R x) y)"),
                       ("list-head", "(exists x ((E) x x))")]
    for action in ("eval", "encode")
]


@pytest.mark.parametrize("files,argv", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_2(tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = run_module(tmp_path, argv, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "usage error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_min_degree_command(tmp_path, capsys):
    system = {"field": {"kind": "Q"}, "num_vars": 2, "booleanity": True,
              "polys": [[{"coef": "1", "mono": [1, 2]}, {"coef": "-1", "mono": []}],
                        [{"coef": "1", "mono": [1]}]]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out = run(capsys, "min-degree", str(path), "--k-max", "4")
    assert code == 10
    assert json.loads(out)["min_degree"] == 2


def test_experiment_degree_growth_small(tmp_path, capsys):
    json_path = tmp_path / "growth.json"
    code, out = run(capsys, "experiment", "degree-growth", "--bases", "k4",
                    "--k-max", "2", "--dim-max", "1", "--timeout", "120",
                    "--out-json", str(json_path))
    assert code == 0
    (row,) = json.loads(json_path.read_text())
    assert row["base"] == "k4" and row["base_n"] == 4
    assert row["num_vars"] == 112
    assert row["min_degree"] is None and row["k_checked"] == 2  # not refuted at 2
    assert row["wl_dim"] is None  # dim 1 does not split the twisted pair
    assert row["basis_dims"] == [64, 5400]


def test_experiment_config_file(tmp_path, capsys):
    json_path = tmp_path / "rows.json"
    config = tmp_path / "exp.cfg"
    config.write_text("timeout=90\n# comment\n")
    code, _ = run(capsys, "experiment", "csp-sweep", "--cycle-min", "3",
                  "--cycle-max", "3", "--config", str(config),
                  "--out-json", str(json_path))
    assert code == 0
    (row,) = json.loads(json_path.read_text())
    assert row["cycle"] == 3 and row["agree"]


@pytest.mark.parametrize("config,flags,want", [
    ("timeout=90\n", ["--timeout", "0.3"], 0.3),  # a given flag wins
    ("timeout=90\n", [], 90.0),
    (None, [], 300.0),
], ids=["flag-wins", "config", "default"])
def test_experiment_timeout_precedence(tmp_path, capsys, monkeypatch, config, flags, want):
    seen = []
    monkeypatch.setattr(experiments, "experiment_csp_sweep",
                        lambda **kw: seen.append(kw["timeout_s"]) or [])
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        flags = flags + ["--config", str(tmp_path / "exp.cfg")]
    code, _ = run(capsys, "experiment", "csp-sweep", *flags)
    assert code == 0 and seen == [want]


def test_experiment_csp_sweep(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code, out = run(capsys, "experiment", "csp-sweep", "--cycle-min", "3",
                    "--cycle-max", "5", "--out-csv", str(csv_path),
                    "--out-json", str(json_path), "--timeout", "120")
    assert code == 0
    rows = json.loads(json_path.read_text())
    assert [r["cycle"] for r in rows] == [3, 4, 5]
    assert all(r["agree"] for r in rows)
    assert csv_path.read_text().startswith("agree,")
