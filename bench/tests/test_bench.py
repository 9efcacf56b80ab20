"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest bench/tests

They are not part of the repository's test suite (its `testpaths` is
`tests/`), because they start child processes.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import reference
import run
from theorygen import DEFEASIBLE, Spec, generate

from deflog import check_well_formed, conclusions, equivalent, ground, parse, pipeline

GOLDEN = Path(run.ROOT) / "tests" / "golden"
TINY = Spec("tiny", 24, 8, 3, 0.3, 0.2, 0.3, why="test")
TINY_SCHEMA = Spec("tiny-schema", 24, 4, 4, 0.3, 0.2, 0.3, constants=3, why="test")


def engine_lines(text: str, schema: bool = False) -> list[str]:
    theory = parse(text)
    return conclusions(ground(theory) if schema else theory).lines()


def test_reference_matches_golden_example1():
    # monotreme, hasFur, laysEggs, hasBill, mammal; all over `platypus`.
    names = [f"{p}(platypus)" for p in ("monotreme", "hasFur", "laysEggs", "hasBill", "mammal")]
    mammal = 2 * 4
    rules = [(DEFEASIBLE, (0,), mammal), (DEFEASIBLE, (2,), mammal),
             (DEFEASIBLE, (4,), mammal + 1), (DEFEASIBLE, (6,), mammal + 1)]
    sets = reference.solve(range(5), [0, 2, 4, 6], rules, [(0, 2), (1, 3)])
    literal_str = lambda q: ("~" if q & 1 else "") + names[q >> 1]  # noqa: E731
    expected = GOLDEN.joinpath("example1.conclusions.txt").read_text().splitlines()
    assert reference.lines(sets, literal_str) == expected


@pytest.mark.parametrize("spec", [TINY, TINY_SCHEMA,
                                  replace(TINY, name="tiny-dense", sup=1.5, defeater=0.4)])
def test_reference_matches_engine(spec):
    for seed in range(40):
        gen = generate(spec, seed)
        assert run.Case.of(gen).lines == engine_lines(gen.text, bool(spec.constants))


def test_reference_matches_engine_on_cyclic_and_unrelated_superiority():
    for seed in range(60):
        gen = generate(TINY, seed)
        rng = random.Random(seed)
        extra = [(j, i) for i, j in gen.sup]  # every pair reversed: cycles
        extra += [(rng.randrange(len(gen.rules)), rng.randrange(len(gen.rules))) for _ in range(4)]
        extra = [(i, j) for i, j in dict.fromkeys(extra) if i != j and (i, j) not in gen.sup]
        gen.sup = gen.sup + extra
        gen.text += "".join(f"r{i} > r{j}.\n" for i, j in extra)
        assert run.Case.of(gen).lines == engine_lines(gen.text)


def test_generator_is_deterministic_and_well_formed():
    a, b = generate(run.PIPELINE_SPEC, 7), generate(run.PIPELINE_SPEC, 7)
    assert a.text == b.text and a.text != generate(run.PIPELINE_SPEC, 8).text
    theory = parse(a.text)
    assert check_well_formed(theory).ok
    assert theory.size() == a.units
    schema = generate(TINY_SCHEMA, 3)
    assert ground(parse(schema.text)).size() == schema.units


def test_corrupted_line_is_a_failure():
    gen = generate(TINY, 1)
    case = run.Case.of(gen)
    tally = run.Tally()
    assert tally.check("good", run.check_conclusions(case, {"lines": case.lines}))
    corrupted = case.lines[:-1] + [case.lines[-1] + "x"]
    assert not tally.check("bad", run.check_conclusions(case, {"lines": corrupted}))
    job = run.Job(case, 1.0, 1.0, 1)
    assert run.end_to_end([job], [0.1], tally)["ok_frac"] == 0.5


def _main(monkeypatch, capsys, workload, trace, corrupt=False):
    monkeypatch.setattr(run, "SETUPS_PER_CYCLE", 1)
    monkeypatch.setattr(run, "CONCLUSION_SPECS", (TINY, TINY_SCHEMA))
    monkeypatch.setattr(run, "PIPELINE_SPEC", replace(TINY, rules=40))
    monkeypatch.setattr(run, "PROPS_THEORIES", 6)
    monkeypatch.setattr(run, "TRACED_PROPS", 3)
    monkeypatch.setattr(run, "COVER_SPECS", (run.PROPS_SPEC, TINY_SCHEMA))
    if corrupt:
        real = run.run_child

        def corrupting(args, out):
            child = real(args, out)
            if args[-1].endswith("tiny.dfl"):
                text = out.read_text().splitlines()
                out.write_text("\n".join(["+D bogus"] + text[1:]) + "\n")
            return child

        monkeypatch.setattr(run, "run_child", corrupting)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.TIMED))
def test_workloads_are_correct_at_tiny_size(monkeypatch, capsys, workload):
    result = _main(monkeypatch, capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in contract["end_to_end"]] == list(result["metrics"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    record = json.loads((run.ROOT / ".bench_out" / f"{workload}-seed5-trace0.json").read_text())
    assert len({len(i["walls_s"]) for i in record["inputs"]}) == 1  # every input ran equally often


def test_props_jobs_get_fresh_theories(monkeypatch, tmp_path):
    import worker

    seen = []
    monkeypatch.setattr(worker, "props_traffic", lambda tr, item, theory: seen.append(theory) or {})
    items = [worker.Item(run.props_cases(3, 1)[0].worker_input())] * 2
    with open(tmp_path / "jobs.json", "w") as handle:
        worker.run_props(items, handle)
    assert worker._job(worker.props_traffic, worker.Untraced(), items[0]) == {}
    assert len(seen) == 3 and len({id(t) for t in seen}) == 3


def test_corrupted_cli_output_counts_in_ok_frac(monkeypatch, capsys):
    result = _main(monkeypatch, capsys, "conclusions-cli", 0, corrupt=True)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_traced_run_reports_every_layer(monkeypatch, capsys):
    result = _main(monkeypatch, capsys, "props-library", 1)
    assert result["correct"], result
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in contract["per_layer"]] == list(result["metrics"])
    assert result["metrics"]["engine.conclusions.py_calls"]["value"] > 0


@pytest.mark.xfail(strict=True, reason="equivalent() turns atoms back into strings and "
                   "loses their arguments, so on a grounded schema an atom that occurs "
                   "only in a defeater head is compared against an argument-less twin")
def test_equivalent_on_grounded_schema_with_defeater_only_atom():
    theory = ground(parse("f(c). r1: f(X) => g(X). r2: f(X) ~> h(X)."))
    assert equivalent(theory, pipeline(theory)[0])
