import json
import sys
from pathlib import Path

import pytest

from flexshuffle import analysis, cli, coding, coverage
from flexshuffle.instance import (
    demo_instance,
    instance_to_text,
    load_instance,
    random_instance,
    save_instance,
)

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


@pytest.mark.parametrize("d", ["0", "-1"])
def test_gen_rejects_d_below_one(capsys, d):
    code, _, err = run(capsys, "gen", "--m", "5", "--n", "5", "--K", "2", "--p", "0.5", "--d", d)
    assert code == cli.EXIT_USAGE
    assert "out of range" in err


def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(instance_to_text(demo_instance()))
    return path


@pytest.mark.parametrize("flag", ["--budget"])
def test_solve_rejects_negative_caps(tmp_path, capsys, flag):
    code, out, err = run(capsys, "solve", str(demo_file(tmp_path)), flag, "-1")
    assert code == cli.EXIT_USAGE
    assert "parameters out of range" in err
    assert out == ""


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


@pytest.mark.parametrize("extra, builds", [([], 2), (["--skip-coded"], 1)])
def test_solve_builds_one_coverage_graph_per_search(tmp_path, capsys, monkeypatch, extra, builds):
    # the raw search reports Y, so only it and the coded search build one
    calls = []
    build = coverage.build_coverage_graph

    def counted(instance):
        calls.append(instance)
        return build(instance)

    for name, module in list(sys.modules.items()):
        if name.startswith("flexshuffle") and hasattr(module, "build_coverage_graph"):
            monkeypatch.setattr(module, "build_coverage_graph", counted)
    code, _, _ = run(capsys, "solve", str(demo_file(tmp_path)), *extra)
    assert code == cli.EXIT_OK
    assert len(calls) == builds


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


def test_solve_sweep_size_reaches_greedy_at_once(tmp_path, capsys):
    # No set within the default budget hits the input pairs of all the
    # functions no node covers, so the exact search refuses at once.
    path = tmp_path / "sweep_size.txt"
    p = 0.5 * analysis.no_shuffle_threshold(100, 50)
    save_instance(random_instance(100, 100, 50, 2, p, 5, 0), path)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == cli.EXIT_OK
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["raw_solver"] == "greedy"
    assert lines["coded_skipped"].startswith("search nodes: ")


def test_solve_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coding, "MAX_NODES", 1)
    code, _, err = run(capsys, "solve", str(demo_file(tmp_path)), "--require-coded")
    assert code == cli.EXIT_CAP
    assert "CapExceeded" in err


def test_solve_cap_skips_quietly_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coding, "MAX_NODES", 1)
    code, out, _ = run(capsys, "solve", str(demo_file(tmp_path)))
    assert code == cli.EXIT_OK
    assert "coded_broadcasts None\ncoded_skipped search nodes: 2 exceeds cap 1\n" in out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("not a real instance\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_PARSE


def test_solve_negative_index_exit_code(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text(instance_to_text(demo_instance()).replace("func 3 4", "func -1 4"))
    code, out, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_PARSE
    assert "workload-index-range: function input -1 < 0" in err
    assert out == ""


def test_solve_missing_file_exit_code(tmp_path, capsys):
    code, out, err = run(capsys, "solve", str(tmp_path / "missing.txt"))
    assert code == cli.EXIT_USAGE
    assert "FileNotFoundError" in err
    assert out == ""


def test_solve_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(instance_to_text(demo_instance()).encode() + b"# caf\xe9\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_PARSE
    assert "ParseError" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "argv",
    [["gen", "--demo"],
     ["sweep", "--m", "6", "--n", "4", "--K", "2", "--p-values", "0.5", "--trials", "2"]],
    ids=["gen", "sweep"],
)
def test_out_into_missing_directory_exit_code(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "no" / "such.txt"))
    assert code == cli.EXIT_USAGE
    assert "FileNotFoundError" in err
    assert out == ""


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


@pytest.mark.parametrize(
    "key, value",
    [("budget", 8.5), ("budget", True), ("skip_coded", "false"), ("format", "xml")],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, key, value):
    inst = tmp_path / "inst.txt"
    args = ["gen", "--m", "40", "--n", "20", "--K", "10", "--p", "0.3", "--seed", "7"]
    assert cli.main(args + ["--out", str(inst)]) == cli.EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(config), "solve", str(inst)])
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert repr(key) in captured.err
    assert captured.out == ""


def test_config_supplies_required_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "K": 3, "p_values": "0.5"}))
    code, out, _ = run(capsys, "--config", str(config), "sweep", "--trials", "5")
    assert code == cli.EXIT_OK
    flags = ["--m", "10", "--n", "8", "--K", "3", "--p-values", "0.5", "--trials", "5"]
    assert run(capsys, "sweep", *flags) == (cli.EXIT_OK, out, "")
    # a required flag the file leaves out is still required
    config.write_text(json.dumps({"m": 10, "n": 8, "K": 3}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(config), "sweep", "--trials", "5"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--p-values" in capsys.readouterr().err


def test_config_values_convert_like_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget": "1", "skip_coded": True, "format": "json",
                                  "unknown_key": [1]}))
    code, out, _ = run(capsys, "--config", str(config), "solve", str(demo_file(tmp_path)))
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert "coded_broadcasts" not in report
    assert report["raw_solver"] == "greedy"  # the demo needs two broadcasts


@pytest.mark.parametrize(
    "content", [None, "{not json", '["demo"]'], ids=["missing", "not-json", "not-object"]
)
def test_config_file_failures_exit_with_usage(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(config), "gen", "--demo"])
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert str(config) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "extra", [["--trials", "0"], ["--compare-fixed", "--fixed-nodes-per-function", "0"],
              ["--compare-fixed", "--fixed-nodes-per-function", "-1"],
              ["--compare-fixed", "--fixed-nodes-per-function", "3"],  # K*C = 9 > n
              ["--p-values", "1.5,nan"], ["--p-values", "nan"], ["--p-values", "-0.1"],
              ["--m", "0"], ["--n", "0"], ["--d", "0"], ["--K", "-1"]],
)
def test_sweep_rejects_out_of_range_counts(capsys, extra):
    args = ["sweep", "--m", "10", "--n", "8", "--K", "3", "--p-values", "0.5", "--trials", "5"]
    code, out, err = run(capsys, *args, *extra)
    assert code == cli.EXIT_USAGE
    assert "parameters out of range" in err
    assert out == ""


@pytest.mark.parametrize("p_values", ["abc", ",", "0.3,,0.5"])
def test_sweep_rejects_p_values_that_are_not_floats(capsys, p_values):
    args = ["sweep", "--m", "10", "--n", "8", "--K", "3", "--trials", "5"]
    code, out, err = run(capsys, *args, "--p-values", p_values)
    assert code == cli.EXIT_USAGE
    assert "--p-values must be comma-separated floats" in err
    assert out == ""


def parser_state(parser):
    """Each action's ``required`` and ``default``, and each parser's
    ``set_defaults`` table, for the parser and every command's parser."""
    commands = parser._subparsers._group_actions[0].choices
    return [
        (name, dict(p._defaults), [(a.dest, a.required, a.default) for a in p._actions])
        for name, p in [("", parser), *commands.items()]
    ]


def test_parser_is_built_once_and_never_changed(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parsers.cache_clear()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "K": 3, "p_values": "0.5", "seed": 4}))
    flags = ["--m", "10", "--n", "8", "--K", "3", "--trials", "5"]
    code, first, _ = run(capsys, "sweep", *flags, "--p-values", "0.5")
    assert code == cli.EXIT_OK
    before = parser_state(cli._parsers()[0])
    code, seeded, _ = run(capsys, "--config", str(config), "sweep", "--trials", "5")
    assert code == cli.EXIT_OK and seeded != first
    assert parser_state(cli._parsers()[0]) == before
    # the file's p_values and seed do not outlive the call that read it
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", *flags])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--p-values" in capsys.readouterr().err
    assert run(capsys, "sweep", *flags, "--p-values", "0.5") == (cli.EXIT_OK, first, "")
    assert len(builds) == 1
