"""Argument rules of `tools/bench_pairs.py`, checked before it starts any process."""

import importlib.util
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
], ids=["pairs-9", "no-base"])
def test_bad_arguments_exit_2_before_any_process(bench_pairs, capsys, argv, complaint):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert complaint in capsys.readouterr().err
