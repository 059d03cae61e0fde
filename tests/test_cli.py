import json
from pathlib import Path

from flexshuffle import cli
from flexshuffle.instance import demo_instance, instance_to_text, load_instance

GOLDEN = Path(__file__).parent / "data" / "demo_transcript.golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_demo_writes_walkthrough(tmp_path, capsys):
    out = tmp_path / "demo.txt"
    code, _, _ = run(capsys, "gen", "--demo", "--out", str(out))
    assert code == cli.EXIT_OK
    assert load_instance(out) == demo_instance()
    assert out.read_text() == instance_to_text(demo_instance())


def test_gen_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--m", "4", "--n", "4", "--K", "3", "--d", "1", "--p", "0.5")
    assert code == cli.EXIT_INFEASIBLE
    assert "Infeasible" in err


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--m", "12", "--n", "6", "--K", "4", "--d", "2", "--p", "0.3", "--seed", "5"]
    assert cli.main(args + ["--out", str(a)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(b)]) == cli.EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_parameters(capsys):
    code, _, err = run(capsys, "gen", "--m", "6")
    assert code == cli.EXIT_USAGE
    assert "required" in err


def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(instance_to_text(demo_instance()))
    return path


def test_solve_demo_text(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", str(demo_file(tmp_path)))
    assert code == cli.EXIT_OK
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["uncovered"] == "3"
    assert lines["raw_broadcasts"] == "2"
    assert lines["raw_solver"] == "exact"
    assert lines["intermediate_broadcasts"] == "3"
    assert lines["coded_broadcasts"] == "2"


def test_solve_demo_json(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", str(demo_file(tmp_path)), "--format", "json")
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["uncovered"] == 3
    assert report["raw_broadcasts"] == 2
    assert report["intermediate_broadcasts"] == 3
    assert report["coded_broadcasts"] == 2
    assert report["raw_broadcast_messages"] == [1, 3]


def test_solve_p1_all_zero(tmp_path, capsys):
    path = tmp_path / "full.txt"
    assert (
        cli.main(
            ["gen", "--m", "8", "--n", "6", "--K", "4", "--d", "2", "--p", "1.0", "--out", str(path)]
        )
        == cli.EXIT_OK
    )
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", str(path))
    assert code == cli.EXIT_OK
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["uncovered"] == "0"
    assert lines["raw_broadcasts"] == "0"
    assert lines["intermediate_broadcasts"] == "0"
    assert lines["coded_broadcasts"] == "0"


def test_solve_outage_exit_code(tmp_path, capsys):
    path = tmp_path / "outage.txt"
    path.write_text(
        "flexshuffle-instance 1\n"
        "m 3\nn 2\nK 1\nd 1\n"
        "node 0\nnode 0 2\n"
        "func 0 1\n"
    )
    code, _, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_OUTAGE
    assert "Outage" in err


def test_solve_budget_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys, "solve", str(demo_file(tmp_path)), "--budget", "1", "--no-greedy-fallback"
    )
    assert code == cli.EXIT_BUDGET
    assert "BudgetExceeded" in err


def test_solve_budget_falls_back_to_greedy(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", str(demo_file(tmp_path)), "--budget", "1")
    assert code == cli.EXIT_OK
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["raw_solver"] == "greedy"
    assert lines["raw_broadcasts"] in ("2", "3")


def test_solve_cap_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "solve",
        str(demo_file(tmp_path)),
        "--assignment-cap", "5",
        "--require-coded",
    )
    assert code == cli.EXIT_CAP
    assert "CapExceeded" in err


def test_solve_cap_skips_quietly_by_default(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", str(demo_file(tmp_path)), "--assignment-cap", "5")
    assert code == cli.EXIT_OK
    assert "coded_skipped" in out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("not a real instance\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_PARSE


def test_sweep_csv_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--m", "10", "--n", "8", "--K", "3", "--d", "2",
        "--p-values", "0.2,0.6", "--trials", "40", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(b)]) == cli.EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("schema,")


def test_sweep_compare_fixed_columns(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = cli.main(
        [
            "sweep", "--m", "10", "--n", "8", "--K", "3", "--d", "2",
            "--p-values", "0.5", "--trials", "40", "--seed", "3",
            "--compare-fixed", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == cli.EXIT_OK
    header, row = out.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    flexible = float(cols["no_shuffle_fraction"])
    fixed = float(cols["fixed_no_shuffle_fraction"])
    assert fixed <= flexible


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--m", "8", "--n", "6", "--K", "2", "--d", "2",
        "--p-values", "0.5", "--trials", "20", "--format", "json",
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["points"]) == 1


def test_demo_default(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == cli.EXIT_OK
    assert "transmissions 2" in out
    assert "output 0 D" in out
    assert "output 1 A,E" in out
    assert "output 2 B,F" in out
    assert out.strip().endswith("PASS")


def test_demo_empty_plan_fails(capsys):
    code, out, _ = run(capsys, "demo", "--plan", "empty")
    assert code == cli.EXIT_DECODE
    assert "FAIL" in out
    assert sum(1 for line in out.splitlines() if line.startswith("undecodable")) == 3


def test_demo_verbose_matches_golden(capsys):
    code, out, _ = run(capsys, "demo", "--verbose")
    assert code == cli.EXIT_OK
    assert out == GOLDEN.read_text() + "PASS\n"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "K": 3, "d": 2, "p": 0.4, "seed": 9}))
    out1 = tmp_path / "one.txt"
    code = cli.main(["--config", str(config), "gen", "--out", str(out1)])
    assert code == cli.EXIT_OK
    inst = load_instance(out1)
    assert (inst.m, inst.n, inst.k) == (10, 8, 3)
    # explicit flag beats the config value
    out2 = tmp_path / "two.txt"
    code = cli.main(["--config", str(config), "gen", "--K", "2", "--out", str(out2)])
    assert code == cli.EXIT_OK
    assert load_instance(out2).k == 2
    capsys.readouterr()
