import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bittables import cli
from bittables.cli import build_parser, main
from bittables.diagnostics import SamplerDiagnostics
from bittables.table import entries_from_csv

import oracles
from test_acceptance import CLI_CASES

CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sample_ct_json_payload(capsys):
    code, out = run_cli(
        capsys, "sample-ct", "--rows", "3,4", "--cols", "2,5", "--samples", "2",
        "--seed", "9", "--validate",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    for t, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["schema"] == 1 and obj["command"] == "sample-ct"
        assert obj["index"] == t and obj["seed"] == 9
        assert obj["valid"] is True
        assert np.asarray(obj["entries"]).sum() == 7


def test_repeated_runs_are_byte_identical(capsys):
    argv = [
        "sample-ct", "--rows", "4,6,2", "--cols", "5,3,4", "--samples", "3",
        "--seed", "123", "--retain-levels",
    ]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    argv2 = ["sample-latin", "--n", "5", "--samples", "2", "--seed", "4"]
    _, a = run_cli(capsys, *argv2)
    _, b = run_cli(capsys, *argv2)
    assert a == b


def test_mask_flag_forces_zeros(capsys):
    code, out = run_cli(
        capsys, "sample-ct", "--rows", "3,3", "--cols", "3,3",
        "--mask", "0,1", "--samples", "4", "--seed", "2", "--validate",
    )
    assert code == 0
    for line in out.strip().split("\n"):
        obj = json.loads(line)
        assert obj["mask"] == [[0, 1]]
        assert obj["entries"][0][1] == 0 and obj["valid"]


def test_csv_format_round_trips(capsys):
    code, out = run_cli(
        capsys, "sample-binary", "--rows", "2,1,1", "--cols", "1,2,1",
        "--samples", "2", "--seed", "3", "--format", "csv",
    )
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        e = entries_from_csv(block)
        assert e.sum(axis=1).tolist() == [2, 1, 1]
        assert e.sum(axis=0).tolist() == [1, 2, 1]


def test_count_commands(capsys):
    code, out = run_cli(
        capsys, "count", "--binary", "--rows", "3,3,3,3,3,3", "--cols", "3,3,3,3,3,3"
    )
    assert code == 0
    assert json.loads(out)["count"] == 297200
    code, out = run_cli(capsys, "count", "--integer", "--rows", "2,2", "--cols", "2,2")
    assert json.loads(out)["count"] == 3
    code, out = run_cli(capsys, "count", "--latin", "--n", "4")
    assert json.loads(out)["count"] == 576


def test_sample_partition_payload(capsys):
    code, out = run_cli(
        capsys, "sample-partition", "--n", "12", "--distinct", "--samples", "5",
        "--seed", "8", "--validate",
    )
    assert code == 0
    for line in out.strip().split("\n"):
        obj = json.loads(line)
        parts = obj["parts"]
        assert sum(parts) == 12 and len(set(parts)) == len(parts)
        assert obj["valid"] is True


def test_latin_validate_flag(capsys):
    code, out = run_cli(
        capsys, "sample-latin", "--n", "6", "--samples", "2", "--seed", "11", "--validate"
    )
    assert code == 0
    for line in out.strip().split("\n"):
        obj = json.loads(line)
        assert obj["valid"] is True
        grid = np.asarray(obj["square"])
        assert sorted(grid[0].tolist()) == [1, 2, 3, 4, 5, 6]


def test_tail_line_is_an_alias_of_full_line(capsys):
    # same draws, same bytes; only the echoed strategy differs
    for argv in (
        ["sample-binary", "--rows", "3,2,4,1", "--cols", "2,3,2,3", "--samples", "4",
         "--seed", "8"],
        ["sample-binary", "--rows", "2,2,2,2,2", "--cols", "2,2,2,2,2", "--mask", "0,0;1,1",
         "--static-params", "--samples", "3", "--seed", "2"],
        ["sample-latin", "--n", "8", "--samples", "2", "--seed", "3"],
    ):
        code_full, full = run_cli(capsys, *argv, "--strategy", "full-line")
        code_tail, tail = run_cli(capsys, *argv, "--strategy", "tail-line")
        assert code_full == code_tail == 0
        assert full.count('"strategy":"full-line"') == len(full.splitlines())
        assert tail == full.replace('"strategy":"full-line"', '"strategy":"tail-line"')


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    assert sum(ns["parts"]) == 100
    assert ns["square"].is_valid()


def test_uniformity_command_ct(capsys):
    code, out = run_cli(
        capsys, "test-uniformity", "--kind", "ct", "--rows", "2,2", "--cols", "2,2",
        "--samples", "300", "--seed", "5",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["passed"] is True
    assert obj["report"]["categories"] == 3
    assert obj["unmatched"] == 0


def test_uniformity_command_partition(capsys):
    code, out = run_cli(
        capsys, "test-uniformity", "--kind", "partition", "--n", "6",
        "--samples", "1100", "--seed", "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["categories"] == 11
    assert obj["report"]["passed"] is True


def test_uniformity_report_names_its_strategy(capsys, monkeypatch):
    # the value given, or the kind's default when none is
    base = {"ct": ["--rows", "2,2", "--cols", "2,2"], "binary": ["--rows", "1,1", "--cols", "1,1"],
            "latin": ["--n", "2"]}
    cases = [("ct", None, "exact"), ("ct", "approx", "approx"), ("binary", None, "exact"),
             ("binary", "full-line", "full-line"), ("binary", "tail-line", "tail-line"),
             ("latin", None, "full-line"), ("latin", "exact", "exact")]
    for kind, given, want in cases:
        flag = ["--strategy", given] if given else []
        code, out = run_cli(capsys, "test-uniformity", "--kind", kind, *base[kind], *flag,
                            "--samples", "20")
        assert code == 0 and json.loads(out)["strategy"] == want, (kind, given)
    # a partition has no strategy: one given is refused before any draw
    calls = []
    monkeypatch.setattr(cli, "sample_partition", lambda *a, **k: calls.append(a))
    code = main(["test-uniformity", "--kind", "partition", "--n", "4", "--samples", "10",
                 "--strategy", "exact"])
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (1, "", [])
    assert captured.err == "error: kind partition takes no --strategy\n"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample-ct", "--rows", "1,1"])  # missing --cols
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["sample-ct", "--rows", "1,1", "--cols", "2", "--bogus"])
    assert exc.value.code == 1
    assert main(["count", "--latin"]) == 1  # missing --n
    assert main(["count", "--integer", "--rows", "2,2"]) == 1  # missing --cols
    assert main(["sample-ct", "--rows", "2,2", "--cols", "1,1"]) == 1  # unbalanced
    assert main(["sample-ct", "--rows", "2", "--cols", "2", "--mask", "5,5"]) == 1


def test_infeasible_exit_one(capsys):
    code = main(["sample-binary", "--rows", "3,1", "--cols", "2,2"])
    assert code == 1


def test_dead_state_exit_two(capsys):
    # frozen casualty: this order-13 cascade dies on its first sample
    code = main(
        ["sample-latin", "--n", "13", "--policy", "abort", "--seed", "121", "--samples", "1"]
    )
    assert code == 2
    # the default policy retries the level and succeeds on the same stream
    code, out = run_cli(capsys, "sample-latin", "--n", "13", "--seed", "121", "--validate")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_negative_restart_budget_exits_one(capsys, monkeypatch):
    argv = ["sample-ct", "--rows", "2,2", "--cols", "2,2"]
    assert main(argv + ["--max-restarts", "-1"]) == 1
    assert "error: max_restarts must be nonnegative" in capsys.readouterr().err
    monkeypatch.setenv("BITTABLES_RESTART_BUDGET", "-1")
    for cmd in (argv, ["sample-binary", "--rows", "1,1", "--cols", "1,1"]):
        assert main(cmd) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: max_restarts" in captured.err


def test_negative_samples_exit_one(capsys):
    for argv in (
        ["sample-ct", "--rows", "2,2", "--cols", "2,2"],
        ["sample-binary", "--rows", "1,1", "--cols", "1,1"],
        ["sample-latin", "--n", "3"],
        ["sample-partition", "--n", "5"],
    ):
        assert main(argv + ["--samples", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must be nonnegative, got -1\n"
        assert run_cli(capsys, *argv, "--samples", "0") == (0, "")


def test_oracle_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BITTABLES_MAX_LATIN_ORDER", "3")
    assert main(["count", "--latin", "--n", "4"]) == 1
    monkeypatch.setenv("BITTABLES_MAX_LATIN_ORDER", "4")
    code, out = run_cli(capsys, "count", "--latin", "--n", "4")
    assert code == 0 and json.loads(out)["count"] == 576


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bittables", "count", "--integer", "--rows", "2,2", "--cols", "2,2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_cli_golden_replay(capsys):
    # recorded argv, exit code, stdout and stderr pin the CLI across commits,
    # which criterion 09's reruns of one commit cannot; it holds every
    # criterion-09 command
    cases = json.loads(CLI_GOLDEN.read_text())
    assert all(list(argv) in [case["argv"] for case in cases] for argv in CLI_CASES)
    mismatched = []
    for case in cases:
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        if (code, captured.out, captured.err) != (case["exit"], case["stdout"], case["stderr"]):
            mismatched.append(" ".join(case["argv"]))
    assert not mismatched, mismatched


def test_cli_golden_replay_under_optimize():
    # invariants must hold without asserts: the first golden case of every
    # sample command, and the Latin dead state that exits 2, replay
    # byte-identical under `python -O`
    cases = json.loads(CLI_GOLDEN.read_text())
    picked = {}
    for case in cases:
        if case["argv"][0].startswith("sample-") and case["exit"] == 0:
            picked.setdefault(case["argv"][0], case)
    dead = [case for case in cases if case["exit"] == 2 and case["argv"][0] == "sample-latin"]
    assert len(picked) == 4 and len(dead) == 1
    for case in [*picked.values(), *dead]:
        proc = subprocess.run([sys.executable, "-O", "-m", "bittables", *case["argv"]],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_cli_flag_surface():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface, required = {}, {}
    for name, sp in sub.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        surface[name] = sorted(o for a in actions for o in a.option_strings)
        required[name] = sorted(o for a in actions if a.required for o in a.option_strings)
    table = ["--cols", "--mask", "--max-restarts", "--rows"]
    sampling = ["--samples", "--seed", "--validate"]
    assert surface == {
        "sample-ct": sorted(table + sampling + ["--format", "--retain-levels", "--scan",
                                                "--strategy"]),
        "sample-binary": sorted(table + sampling + ["--format", "--static-params",
                                                    "--strategy"]),
        "sample-latin": sorted(sampling + ["--budget", "--format", "--n", "--policy",
                                           "--strategy"]),
        "sample-partition": sorted(sampling + ["--distinct", "--n", "--tilt"]),
        "count": ["--binary", "--cols", "--integer", "--latin", "--mask", "--n", "--rows"],
        "test-uniformity": ["--cols", "--distinct", "--kind", "--mask", "--n", "--rows",
                            "--samples", "--seed", "--significance", "--strategy"],
    }
    assert required == {
        "sample-ct": ["--cols", "--rows"],
        "sample-binary": ["--cols", "--rows"],
        "sample-latin": ["--n"],
        "sample-partition": ["--n"],
        "count": [],
        "test-uniformity": ["--kind"],
    }


def test_validate_sets_exit_code_in_either_format(capsys, monkeypatch):
    # a sampler that breaks its column sums must fail --validate under csv too
    monkeypatch.setattr(
        cli, "sample_binary_table",
        lambda *a, **k: (np.array([[1, 1], [0, 0]]), SamplerDiagnostics()),
    )
    argv = ["sample-binary", "--rows", "1,1", "--cols", "1,1", "--validate"]
    code, out = run_cli(capsys, *argv)
    assert code == 1 and json.loads(out)["valid"] is False
    assert run_cli(capsys, *argv, "--format", "csv") == (1, "1,1\n0,0\n")
    assert run_cli(capsys, *argv[:-1], "--format", "csv") == (0, "1,1\n0,0\n")


def test_significance_checked_before_any_draw(capsys, monkeypatch):
    calls = []
    draw = cli.sample_partition

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_partition", counted)
    for bad in ("0", "1", "nan"):
        code = main(["test-uniformity", "--kind", "partition", "--n", "6", "--samples", "50",
                     "--significance", bad])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: significance must lie in (0, 1), got {float(bad)}\n"
    assert calls == []
