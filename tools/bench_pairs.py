"""Alternated A/B runs of the benchmark: a base commit against the working tree.

    python3 tools/bench_pairs.py --workload W --seed N --base REF [--pairs 10]

Exits with an error, before starting any process, if `W` is not a workload
of `BENCHMARK.json`; and if the working tree's tracked files equal `REF`,
since the runs would compare the same code with itself.  Otherwise exports `REF`
with `git archive` into one temporary directory and copies the working
tree's files into another (those git tracks or would track, so no ignored
file and no `__pycache__`), then runs
`bench/run.py --workload W --seed S --seconds T` in each, one after the
other, for each pair; T is `run_seconds` of `BENCHMARK.json`, pair i uses
seed N + i on both sides, and the side that runs first alternates.  At
least 10 pairs are run.  Each side runs its own `bench/run.py` on its own
sources, and neither reads or writes the project's cached bytecode: both
trees start without any and every run gets `PYTHONDONTWRITEBYTECODE=1`, so
bytecode left in the working tree cannot make the change look faster.  (An
empty `PYTHONPYCACHEPREFIX` would do the same, but would also make every
process compile the standard library afresh: importing `deflog.cli` took
0.47 s that way against 0.11 s on 2 vCPUs with CPython 3.11.7.)  Prints
every run, then per end-to-end metric of `BENCHMARK.json` each side's
median and quartiles, the ratio of the two medians, the median of the
per-pair change/base ratios (a speed mode of the host that lasts a whole
pair moves both of its runs alike and cancels out of this one, though it
can move either side's median), the pairs the working tree won (ties count
for neither) and a verdict against the metric's `bound`, and deletes the
directories.  The verdict is `worse` if the change's median is worse than
the base median by more than `bound` times the base median; `unresolved` if
the base runs' quartiles lie further apart than that and not every change
run beats every base run; `ok` otherwise.  Exits 1 if any run failed or
reported a failed operation; a run whose last line is not a result object
counts as failed and is left out of the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
# The keys of the result object that `bench/run.py` prints as its last line.
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def export(ref: str, into: Path) -> None:
    """Write the files of commit `ref` under `into`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"error: cannot export {ref!r}")


def copy_working_tree(into: Path) -> None:
    """Copy the working tree's files that git tracks or would track under
    `into`, as they are on disk."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True)
    if listed.returncode != 0:
        raise SystemExit("error: cannot list the working tree's files")
    for name in sorted(set(listed.stdout.decode().split("\0")) - {""}):
        source, target = ROOT / name, into / name
        if source.is_file():  # a tracked file deleted on disk is left out
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in `tree`, writing no bytecode: its result object,
    or None if it failed."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed in {tree} (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        print(f"  run failed in {tree}: its last line is not a result: {lines[-1][:300]}")
        return None
    return result


def number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float, higher: bool) -> str:
    """`worse`, `unresolved` or `ok`: one metric's runs against its bound,
    as the module docstring defines them."""
    (q1, median, q3), change_median = quartiles(base), quartiles(change)[1]
    margin = bound * abs(median)
    if (median - change_median if higher else change_median - median) > margin:
        return "worse"
    beats = min(change) > max(base) if higher else max(change) < min(base)
    return "unresolved" if q3 - q1 > margin and not beats else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help=f"number of pairs, at least {MIN_PAIRS}")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = contract["end_to_end"], contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", args.base, "--"]).returncode == 0:
        parser.error(f"the working tree equals {args.base!r}: nothing to compare")

    sides = {side: Path(tempfile.mkdtemp(prefix=f"bench-pairs-{side}-"))
             for side in ("base", "change")}
    pairs: list[tuple[dict, dict]] = []
    ok = True
    try:
        export(args.base, sides["base"])
        copy_working_tree(sides["change"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            results = {side: run(sides[side], args.workload, seed, seconds)
                       for side in order}
            for side in order:
                result = results[side]
                if result is None:
                    ok = False
                    continue
                ok &= result["correct"] and result["failed"] == 0
                values = {name: m["value"] for name, m in result["metrics"].items()}
                print(f"pair {i + 1} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {json.dumps(values)}",
                      flush=True)
            if results["base"] is not None and results["change"] is not None:
                pairs.append((results["base"], results["change"]))
    finally:
        for tree in sides.values():
            shutil.rmtree(tree, ignore_errors=True)

    last = args.seed + args.pairs - 1
    print(f"\n{args.workload}, {len(pairs)} pairs, seeds {args.seed}-{last}, "
          f"{seconds:g} s runs, base {args.base}: median (quartiles); "
          "per pair = median of the change/base ratios of the pairs; "
          "won = pairs the change read better; verdict against the metric's bound")
    print("| metric | base | change | change/base | per pair | won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in pairs
                  if name in b["metrics"] and name in c["metrics"]]
        if not values:
            continue
        base, change = ([v[k] for v in values] for k in (0, 1))
        won = sum((c > b) if higher else (c < b) for b, c in values)
        base_q, change_q = quartiles(base), quartiles(change)
        ratio = f"{change_q[1] / base_q[1]:.3f}" if base_q[1] else "-"
        ratios = [c / b for b, c in values if b]
        per_pair = f"{statistics.median(ratios):.3f}" if ratios else "-"
        (b1, b2, b3), (c1, c2, c3) = map(number, base_q), map(number, change_q)
        judged = verdict(base, change, metric["bound"], higher)
        print(f"| `{name}` ({metric['unit']}) | {b2} ({b1}-{b3}) | {c2} ({c1}-{c3}) "
              f"| {ratio} | {per_pair} | {won}/{len(values)} | {judged} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
