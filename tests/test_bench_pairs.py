"""`tools/bench_pairs.py` with `subprocess` patched, so it starts no process:
its argument rules, how it counts a run that prints no result, its verdict
against each bound, and the trees and environment the runs get."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_process(*args, **kwargs):
        raise AssertionError(f"a process was started: {args[0] if args else kwargs}")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    return module


@pytest.mark.parametrize("argv, complaint", [
    (["--workload", "props-library", "--seed", "1", "--base", "HEAD", "--pairs", "9"],
     "--pairs must be at least 10"),
    (["--workload", "props-library", "--seed", "1"],
     "the following arguments are required: --base"),
    (["--workload", "props-libary", "--seed", "1", "--base", "HEAD"],
     "unknown workload 'props-libary'; choose from conclusions-cli, pipeline-reduced, "
     "props-library"),
], ids=["pairs-9", "no-base", "unknown-workload"])
def test_bad_arguments_exit_2_before_any_process(bench_pairs, capsys, argv, complaint):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert complaint in capsys.readouterr().err


def test_run_without_a_result_line_fails_only_its_pair(bench_pairs, monkeypatch, capsys):
    # The change's first run ends on a line that is not a result, as a
    # malformed run of the benchmark does; every other run succeeds.
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"units_per_s": {"value": 10.0, "unit": "1/s"}}}
    malformed = []

    def fake_run(argv, **kwargs):
        if argv[:2] == ["git", "-C"]:  # `git diff --quiet`: the trees differ
            return subprocess.CompletedProcess(argv, 1)
        seed = int(argv[argv.index("--seed") + 1])
        last = json.dumps(result)
        if kwargs["cwd"].name.startswith("bench-pairs-change-") and seed == 1:
            last = "{not a result"
            malformed.append(seed)
        return subprocess.CompletedProcess(argv, 0, stdout=f"record: x.json\n{last}\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda into: None)
    code = bench_pairs.main(["--workload", "props-library", "--seed", "1", "--base", "HEAD"])
    out = capsys.readouterr().out
    assert code == 1
    assert malformed == [1]
    assert "its last line is not a result: {not a result" in out
    assert "pair 1 seed 1 base: correct=True" in out
    assert "pair 1 seed 1 change" not in out
    assert "props-library, 9 pairs, seeds 1-10" in out
    assert "| `units_per_s` (1/s) | 10 (10-10) | 10 (10-10) | 1.000 | 1.000 | 0/9 | ok |" in out


def units_per_s_row(bench_pairs, monkeypatch, capsys, values) -> str:
    """The `units_per_s` row of a run whose pairs read `values[side][i]`."""

    def fake_run(argv, **kwargs):
        if argv[:2] == ["git", "-C"]:  # `git diff --quiet`: the trees differ
            return subprocess.CompletedProcess(argv, 1)
        side = "change" if kwargs["cwd"].name.startswith("bench-pairs-change-") else "base"
        value = values[side][int(argv[argv.index("--seed") + 1]) - 1]
        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"units_per_s": {"value": value, "unit": "1/s"}}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda into: None)
    assert bench_pairs.main(["--workload", "props-library", "--seed", "1", "--base", "HEAD"]) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("| `units_per_s`")]
    return row


@pytest.mark.parametrize("base, change, judged", [
    ([10.0] * 10, [8.0] * 10, "ok"),  # 20% worse, within the bound of 24%
    ([10.0] * 10, [7.0] * 10, "worse"),  # 30% worse
    ([5.0, 15.0] * 5, [10.0] * 10, "unresolved"),  # base quartiles 5-15, wider than 2.4
    ([5.0, 15.0] * 5, [16.0] * 10, "ok"),  # as wide, but every change run beats every base run
], ids=["ok-within-bound", "worse", "unresolved", "ok-beats-every-run"])
def test_verdict_against_the_bound(bench_pairs, monkeypatch, capsys, base, change, judged):
    # `units_per_s` is better higher, with a bound of 0.24 in BENCHMARK.json.
    row = units_per_s_row(bench_pairs, monkeypatch, capsys, {"base": base, "change": change})
    assert row.endswith(f" | {judged} |")


def test_per_pair_ratio_cancels_a_speed_mode_that_lasts_a_pair(bench_pairs, monkeypatch,
                                                               capsys):
    # The host's speed mode (10 fast, 8 slow) flips between runs: both sides
    # read the same in each pair but pairs 5 and 6, where only the change
    # ran slow.  So the medians differ by 20%, while the median of the
    # per-pair ratios reads 1.
    values = {"base": [10.0] * 6 + [8.0] * 4, "change": [10.0] * 4 + [8.0] * 6}
    row = units_per_s_row(bench_pairs, monkeypatch, capsys, values)
    assert row == "| `units_per_s` (1/s) | 10 (8-10) | 8 (8-10) | 0.800 | 1.000 | 0/10 | ok |"


def test_both_sides_run_in_fresh_trees_writing_no_bytecode(bench_pairs, monkeypatch):
    # The change runs in a copy of the files git lists, which leaves out
    # ignored ones such as `__pycache__`, and both sides get
    # PYTHONDONTWRITEBYTECODE, so neither ever reads cached bytecode of the
    # project.  The copy skips a tracked file deleted on disk.
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"units_per_s": {"value": 10.0, "unit": "1/s"}}}
    listed = ["README.md", "tools/bench_pairs.py", "deleted.py"]
    runs = []

    def fake_run(argv, **kwargs):
        if argv[3:4] == ["ls-files"]:
            return subprocess.CompletedProcess(argv, 0, stdout="\0".join(listed).encode())
        if argv[:2] == ["git", "-C"]:  # `git diff --quiet`: the trees differ
            return subprocess.CompletedProcess(argv, 1)
        tree = kwargs["cwd"]
        files = sorted(str(path.relative_to(tree)) for path in tree.rglob("*") if path.is_file())
        runs.append((tree, kwargs["env"].get("PYTHONDONTWRITEBYTECODE"), files))
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: None)
    assert bench_pairs.main(["--workload", "props-library", "--seed", "1", "--base", "HEAD"]) == 0
    trees = {tree for tree, _, _ in runs}
    assert len(runs) == 20 and len(trees) == 2 and bench_pairs.ROOT not in trees
    assert all(flag == "1" for _, flag, _ in runs)
    copies = {tuple(files) for tree, _, files in runs if tree.name.startswith("bench-pairs-change-")}
    assert copies == {("README.md", "tools/bench_pairs.py")}
    assert not any(tree.exists() for tree in trees)
