"""deflog's benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is the `deflog` package
under `src/`, run by the interpreter that runs this script, with
PYTHONHASHSEED=0 in every child process.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
full record (environment, inputs, per-input figures, failures and, when
traced, the spans) goes to `.bench_out/`.

Workloads.  Each runs one process at a time, sequential jobs in a closed
loop, for S seconds.  Inputs come from `theorygen` and the seed alone.

* `conclusions-cli`: one `deflog conclusions` process per job, cycling over
  five mixes of 2,000 rules (plain, strict-heavy, defeater-heavy,
  superiority-dense, and a schema run with `--ground`).  The main user
  command; the engine does most of the work, and the schema input is the
  only place `ground` runs.
* `pipeline-reduced`: per job, `deflog transform --stage pipeline` on a
  well-formed theory of 400 rules with superiority pairs, then
  `deflog conclusions --mode reduced --allow-generated` on its output.  The
  paper's compile-then-reason workflow: the output is about 12 times the
  input, so the parser, `print_theory`, the three passes and reduced mode
  carry the load.
* `props-library`: library calls on 100 small theories (16 rules, 6 atoms,
  defeaters and superiority), one worker process per pass over them:
  `pipeline`, `equivalent`, `conclusions`, `classify_pair` on every atom,
  `prove` and `replay` on three goals.  Each job gets a freshly parsed
  theory, so per-theory set-up is paid in every job.  The acceptance
  suite's traffic, where fixed per-call costs dominate.

Every output is checked against `reference`, which does not import deflog:
conclusion listings must equal the reference listing; on
`pipeline-reduced` the reduced-mode lines over the input's atoms must; on
`props-library` also every pair verdict, the equivalence verdict and each
goal's provability.  A non-zero exit, an exception or a wrong output is one
failed operation.

End-to-end metrics (`--trace 0`), each reported on every workload:

* `setup_s`: median wall time of fresh processes that do everything but the
  work: `deflog conclusions` on the empty theory for the CLI workloads;
  importing deflog and parsing the run's inputs for `props-library`.  Two
  run after each pass over the inputs, so they spread over the whole run.
* `units_per_s`: input units (facts + rules + superiority pairs, of the
  ground theory) over wall time, summing each input's 90th-percentile job
  time: the throughput nine jobs in ten reach or beat.
* `job_p90_s`: 90th percentile of per-job wall time.  The median,
  `job_p50_s`, is printed and recorded with the sample count but not gated:
  on a shared 2-vCPU host whose speed switches between two modes about
  1.6x apart for seconds at a time, the median follows the share of jobs
  that ran fast (10-seed IQR/median up to 0.29), while the 90th percentile
  stays with the slow mode (at most 0.16).
* `peak_rss_mb`: peak resident memory of the program's processes (largest
  per-input median), not of this harness.
* `output_units`: mean output size per input: conclusion lines on
  `conclusions-cli`, units of the `pipeline` output on the other two.
* `ok_frac`: operations that succeeded over operations attempted.

Per-layer metrics (`--trace 1`) time each call into a deflog module from
`worker.py`, in-process, over the workload's traffic plus a sweep of the
three traffics over five small theories and a small schema, so every layer
is reported on every workload.  A layer's figure sums all its calls.
`*.py_calls` and `*.peak_mb` come from two separate counting passes over
the first `COUNTED` inputs and the sweep, which must agree exactly.
`trace.overhead_s` is traced minus untraced wall time of the same calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import reference
from theorygen import Generated, Spec, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HASH_SEED = "0"
SETUPS_PER_CYCLE = 2
DEADLINE_S = 170

CONCLUSION_SPECS = (
    Spec("plain", 2000, 1000, 100, 0.3, 0.1, 0.0,
         why="the ROADMAP baseline mix: 30% strict rules, 10% defeaters"),
    Spec("strict-heavy", 2000, 1000, 100, 0.7, 0.05, 0.0,
         why="most work at the definite level"),
    Spec("defeater-heavy", 2000, 1000, 100, 0.1, 0.4, 0.0,
         why="many attacks that can block but never support"),
    Spec("superiority-dense", 2000, 1000, 100, 0.3, 0.1, 1.0,
         why="counterattack checks dominate the defeasible conditions"),
    Spec("schema", 2000, 50, 100, 0.3, 0.1, 0.2, constants=20,
         why="100 schemas over 20 constants: the only input that runs ground"),
)
PIPELINE_SPEC = Spec("well-formed", 400, 200, 20, 0.3, 0.1, 0.2,
                     why="acyclic superiority between complementary heads, "
                         "as pipeline requires")
PROPS_SPEC = Spec("small", 16, 6, 2, 0.25, 0.2, 0.25,
                  why="the acceptance suite's theory shape")
PROPS_THEORIES = 100
TRACED_PROPS = 40
COUNTED = {"conclusions": 1, "pipeline": 1, "props": 10}  # leading inputs the counting passes use
COVER_SPECS = (PROPS_SPEC,) * 5 + (
    Spec("small-schema", 40, 6, 6, 0.25, 0.2, 0.25, constants=5,
         why="puts ground into every traced run"),)


@dataclass
class Case:
    """One generated input with its reference conclusions."""

    gen: Generated
    sets: dict
    lines: list[str]
    goals: list[tuple[str, int]] = field(default_factory=list)

    @classmethod
    def of(cls, gen: Generated, goal_seed: str | None = None) -> Case:
        sets = reference.solve(gen.atoms_used, gen.facts, gen.rules, gen.sup)
        case = cls(gen, sets, reference.lines(sets, gen.literal_str))
        if goal_seed is not None:
            case.goals = _pick_goals(random.Random(goal_seed), gen, sets)
        return case

    @property
    def name(self) -> str:
        return f"{self.gen.spec.name}:{self.gen.seed}"

    def worker_input(self) -> dict:
        return {"text": self.gen.text, "ground": bool(self.gen.spec.constants),
                "goals": [[tag, self.gen.literal_str(q)] for tag, q in self.goals]}


def _pick_goals(rng: random.Random, gen: Generated, sets: dict) -> list[tuple[str, int]]:
    """Two derived tagged literals and one that is not derived."""
    candidates = [(tag, 2 * a + s) for tag in reference.TAGS
                  for a in gen.atoms_used for s in (0, 1)]
    derived = [c for c in candidates if c[1] in sets[c[0]]]
    underived = [c for c in candidates if c[1] not in sets[c[0]]]
    return rng.sample(derived, min(2, len(derived))) + rng.sample(underived, min(1, len(underived)))


# --- checks: each returns None when the output is right, else the reason --

def check_conclusions(case: Case, out: dict) -> str | None:
    if "error" in out:
        return out["error"]
    return None if out["lines"] == case.lines else "conclusions differ from the reference"


def check_reduced(case: Case, out: dict) -> str | None:
    if "error" in out:
        return out["error"]
    names = {case.gen.atom_names[a] for a in case.gen.atoms_used}
    kept = [line for line in out["lines"] if line.split(" ", 1)[1].lstrip("~") in names]
    return None if kept == case.lines else "reduced conclusions over the input's atoms differ"


def check_props(case: Case, out: dict) -> str | None:
    if "error" in out:
        return out["error"]
    if out["equivalent"] is not True:
        return "pipeline output judged not equivalent"
    if out["lines"] != case.lines:
        return "conclusions differ from the reference"
    gen = case.gen
    # Acyclic superiority admits only possible outcome pairs.
    expected = [[gen.atom_names[a], reference.outcome(case.sets, 2 * a),
                 reference.outcome(case.sets, 2 * a + 1), "Poss"]
                for a in sorted(gen.atoms_used, key=gen.atom_names.__getitem__)]
    if out["verdicts"] != expected:
        return "pair verdicts differ from the reference"
    for (tag, q), (found, replayed, ends) in zip(case.goals, out["proofs"], strict=True):
        if found != (q in case.sets[tag]) or (found and not (replayed and ends)):
            return f"proof of {tag} {gen.literal_str(q)} is wrong"
    return None


CHECKS = {"conclusions": check_conclusions, "pipeline": check_reduced, "props": check_props}


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
        return reason is None


# --- child processes --------------------------------------------------------

@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    out: Path

    def stdout(self) -> str:
        return self.out.read_text(encoding="utf-8")

    def reason(self) -> str | None:
        if self.code == 0:
            return None
        err = self.out.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        return f"exit {self.code}: {err.strip()[-300:]}"


def run_children(commands: list[tuple[list[str], Path]]) -> list[Child]:
    """Start the children together and wait for all; each one's stdout goes to
    its `out` path, and its wall time and rusage are its own."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": HASH_SEED}
    started = []
    with ExitStack() as files:
        try:
            for args, out in commands:
                stdout = files.enter_context(open(out, "wb"))
                stderr = files.enter_context(open(out.with_suffix(".err"), "wb"))
                start = time.perf_counter()
                started.append((subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=stdout,
                                                 stderr=stderr, env=env, cwd=ROOT), start, out))
            children = []
            for proc, start, out in started:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                children.append(Child(proc.returncode, time.perf_counter() - start,
                                      usage.ru_maxrss / 1024, out))
            return children
        except BaseException:
            for proc, _, _ in started:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            raise


def run_child(args: list[str], out: Path) -> Child:
    return run_children([(args, out)])[0]


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "deflog.cli", *map(str, args)]


def worker(*args) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


# --- timed runs ------------------------------------------------------------

@dataclass
class Job:
    case: Case
    wall: float
    rss_mb: float
    out_units: int


def setup_run(args: list[str], work: Path, tally: Tally) -> float:
    """Wall time of one process that does everything but the work."""
    child = run_child(args, work / "setup.out")
    tally.check("setup", child.reason() or (None if child.stdout() == "" else "unexpected output"))
    return child.wall


Timed = tuple[list[Job], list[float]]  # the jobs, and the set-up times


def loop(seconds: float, cycle, setup) -> Timed:
    """Closed loop: run `cycle` (one job per input, so percentiles weigh
    inputs alike), then SETUPS_PER_CYCLE runs of `setup`, until `seconds`
    have passed.  Returns the jobs and the set-up times.  Spreading
    the set-up runs over the whole run lets a change in the host's speed
    reach them as it reaches the jobs."""
    setup()  # compiles bytecode; not counted
    jobs, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        jobs += cycle()
        setups += [setup() for _ in range(SETUPS_PER_CYCLE)]
    return jobs, setups


def conclusions_cli(seed: int, seconds: float, work: Path, tally: Tally) -> Timed:
    cases = [Case.of(generate(spec, seed)) for spec in CONCLUSION_SPECS]
    for case in cases:
        (work / f"{case.gen.spec.name}.dfl").write_text(case.gen.text, encoding="utf-8")
    (work / "empty.dfl").write_text("", encoding="utf-8")

    def job(case: Case) -> Job:
        flags = ["--ground"] if case.gen.spec.constants else []
        child = run_child(cli("conclusions", work / f"{case.gen.spec.name}.dfl", *flags),
                          work / "job.out")
        lines = child.stdout().splitlines()
        tally.check(case.name, child.reason() or check_conclusions(case, {"lines": lines}))
        return Job(case, child.wall, child.rss_mb, len(lines))

    return loop(seconds, lambda: [job(case) for case in cases],
                lambda: setup_run(cli("conclusions", work / "empty.dfl"), work, tally))


def pipeline_reduced(seed: int, seconds: float, work: Path, tally: Tally) -> Timed:
    case = Case.of(generate(PIPELINE_SPEC, seed))
    source = work / "input.dfl"
    source.write_text(case.gen.text, encoding="utf-8")
    (work / "empty.dfl").write_text("", encoding="utf-8")
    atoms = ",".join(case.gen.atom_names[a] for a in case.gen.atoms_used)

    def job() -> Job:
        compiled = run_child(cli("transform", source, "--stage", "pipeline"), work / "pipeline.dfl")
        reduced = run_child(cli("conclusions", compiled.out, "--mode", "reduced",
                                "--allow-generated", "--atoms", atoms), work / "reduced.out")
        units = sum(1 for line in compiled.stdout().splitlines()
                    if line and not line.startswith("%"))
        tally.check(case.name, compiled.reason() or reduced.reason()
                    or check_reduced(case, {"lines": reduced.stdout().splitlines()}))
        return Job(case, compiled.wall + reduced.wall, max(compiled.rss_mb, reduced.rss_mb), units)

    return loop(seconds, lambda: [job()],
                lambda: setup_run(cli("conclusions", work / "empty.dfl"), work, tally))


def props_cases(seed: int, count: int) -> list[Case]:
    return [Case.of(generate(PROPS_SPEC, f"{seed}.{i}"), goal_seed=f"goals:{seed}.{i}")
            for i in range(count)]


def props_library(seed: int, seconds: float, work: Path, tally: Tally) -> Timed:
    cases = props_cases(seed, PROPS_THEORIES)
    spec = work / "spec.json"
    spec.write_text(json.dumps({"inputs": [c.worker_input() for c in cases]}), encoding="utf-8")
    results = work / "jobs.json"

    def cycle() -> list[Job]:
        child = run_child(worker("props", spec, results), work / "props.out")
        if not tally.check("props worker", child.reason()):
            return []
        jobs = []
        for line in results.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            case = cases[record["input"]]
            out = record["out"]
            tally.check(case.name, check_props(case, out))
            jobs.append(Job(case, record["wall"], child.rss_mb, out.get("units", 0)))
        return jobs

    return loop(seconds, cycle, lambda: setup_run(worker("setup", spec, results), work, tally))


def by_input(jobs: list[Job]) -> dict[str, list[Job]]:
    out: dict[str, list[Job]] = {}
    for j in jobs:
        out.setdefault(j.case.name, []).append(j)
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(jobs: list[Job], setups: list[float], tally: Tally) -> dict[str, float]:
    groups = by_input(jobs)
    walls = [j.wall for j in jobs]
    cycle = sum(p90([j.wall for j in js]) for js in groups.values())
    units = sum(js[0].case.gen.units for js in groups.values())
    return {
        "setup_s": statistics.median(setups),
        "units_per_s": units / cycle,
        "job_p50_s": statistics.median(walls),
        "job_p90_s": p90(walls),
        "jobs": len(jobs),
        "peak_rss_mb": max(statistics.median(j.rss_mb for j in js) for js in groups.values()),
        "output_units": statistics.mean(statistics.median(j.out_units for j in js)
                                        for js in groups.values()),
        "ok_frac": (tally.attempted - len(tally.failures)) / tally.attempted,
    }


TIMED = {
    "conclusions-cli": conclusions_cli,
    "pipeline-reduced": pipeline_reduced,
    "props-library": props_library,
}


# --- traced runs -----------------------------------------------------------

def traced_cases(workload: str, seed: int) -> tuple[str, list[Case]]:
    if workload == "conclusions-cli":
        return "conclusions", [Case.of(generate(spec, seed)) for spec in CONCLUSION_SPECS]
    if workload == "pipeline-reduced":
        return "pipeline", [Case.of(generate(PIPELINE_SPEC, seed))]
    return "props", props_cases(seed, TRACED_PROPS)


def check_pass(result: dict, traffic: str, cases: list[Case], cover: list[Case],
               tally: Tally, what: str) -> None:
    for case, out in zip(cases, result["outputs"], strict=True):
        tally.check(f"{what} {case.name}", CHECKS[traffic](case, out))
    for case, outs in zip(cover, result["cover"], strict=True):
        for name, out in outs.items():
            tally.check(f"{what} {name} {case.name}", CHECKS[name](case, out))


def traced(workload: str, seed: int, work: Path, tally: Tally) -> tuple[dict, dict]:
    traffic, cases = traced_cases(workload, seed)
    counted = COUNTED[traffic]
    cover = [Case.of(generate(spec, f"{seed}.{j}"), goal_seed=f"cover:{seed}.{j}")
             for j, spec in enumerate(COVER_SPECS)]
    spec = work / "spec.json"
    spec.write_text(json.dumps({"traffic": traffic, "counted": counted,
                                "inputs": [c.worker_input() for c in cases],
                                "cover": [c.worker_input() for c in cover]}), encoding="utf-8")
    # The timing pass runs alone; the two counting passes do not time, so they share the CPU.
    children = run_children([(worker("trace", spec, work / "trace.json"), work / "trace.out")])
    children += run_children([(worker("count", spec, work / f"count{i}.json"), work / f"count{i}.out")
                              for i in (1, 2)])
    passes = []
    for child, name in zip(children, ("trace", "count1", "count2")):
        if not tally.check(f"{name} worker", child.reason()):
            raise RuntimeError(f"{name} worker failed: {tally.failures[-1]}")
        result = json.loads((work / f"{name}.json").read_text(encoding="utf-8"))
        check_pass(result, traffic, cases if name == "trace" else cases[:counted], cover,
                   tally, name)
        passes.append(result)
    trace, count, recount = passes
    tally.check("counting passes agree",
                None if count["calls"] == recount["calls"] and count["notes"] == recount["notes"]
                else "two counting passes disagree")

    self_s: dict[str, float] = {}
    raised = 0
    for name, _, start, end, failed in trace["spans"]:
        self_s[name] = self_s.get(name, 0.0) + end - start
        raised += failed
    tally.check("spans", None if raised == 0 else f"{raised} traced calls raised")
    notes, calls, peak = trace["notes"], count["calls"], count["peak"]
    metrics = {f"{name}.self_s": seconds for name, seconds in self_s.items()}
    metrics.update({f"{name}.py_calls": n for name, n in calls.items()})
    metrics.update({f"{name}.peak_mb": n / 2**20 for name, n in peak.items()})
    metrics.update({key: value for key, value in notes.items() if not key.endswith(".bytes")})
    metrics["parser.parse.mb_per_s"] = notes["parser.parse.bytes"] / 1e6 / self_s["parser.parse"]
    metrics["trace.overhead_s"] = trace["traced_s"] - trace["untraced_s"]
    detail = {"cases": [c.gen.record() for c in cases], "cover": [c.gen.record() for c in cover],
              "untraced_s": trace["untraced_s"], "traced_s": trace["traced_s"],
              "worker_walls_s": [c.wall for c in children], "counted": counted,
              "spans": trace["spans"], "all_layer_figures": metrics}
    return metrics, detail


# --- entry point ----------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "deflog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "child_hash_seed": HASH_SEED, "commit": commit, "src_sha256": digest.hexdigest()}


def _stop(signum, frame):
    # Unwinds through run_children, which kills and reaps the running child.
    raise SystemExit(f"error: stopped by {signal.Signals(signum).name} "
                     f"(the deadline is {DEADLINE_S} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TIMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "deflog" / "__init__.py").is_file():
        print(f"error: no deflog sources under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    signal.alarm(DEADLINE_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    detail: dict = {}
    try:
        if args.trace:
            figures, detail = traced(args.workload, args.seed, work, tally)
        else:
            jobs, setups = TIMED[args.workload](args.seed, args.seconds, work, tally)
            if not jobs:
                print(f"error: no job completed: {tally.failures}", file=sys.stderr)
                return 1
            figures = end_to_end(jobs, setups, tally)
            detail = {"setup_walls_s": setups, "inputs": [
                {**js[0].case.gen.record(), "walls_s": [j.wall for j in js]}
                for js in by_input(jobs).values()]}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    ungated = {name: value for name, value in figures.items() if name not in metrics}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "failures": tally.failures[:50], **detail, "ungated": ungated, "result": result}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'])}")
    if not args.trace:
        print(f"ungated: {json.dumps(ungated)}")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
