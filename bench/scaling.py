"""One-shot scaling report for `deflog conclusions`; not a gated workload.

    python3 bench/scaling.py [--out FILE]

Runs the CLI REPEATS times on plain theories (30% strict rules, 10%
defeaters, half as many atoms as rules, one fact per 20 rules) of each of
SIZES rules, checks every output against the reference, and fits the
exponent b of `time ~ units^b` by least squares on a log-log scale.  The
fit is given for the process wall time and for the wall time minus the
median start-up on the empty theory.
ROADMAP's "near-linear growth" target means b close to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

import run
from theorygen import Spec, generate

SEED = 1
SIZES = (1000, 10000, 100000)
REPEATS = 3
STARTUP_RUNS = 7


def exponent(sizes: list[float], times: list[float]) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    tally = run.Tally()
    rows = []
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        work = Path(tmp)
        (work / "empty.dfl").write_text("", encoding="utf-8")
        empty = run.cli("conclusions", work / "empty.dfl")
        run.setup_run(empty, work, tally)  # compiles bytecode
        startup = statistics.median(run.setup_run(empty, work, tally) for _ in range(STARTUP_RUNS))
        for n in SIZES:
            spec = Spec(f"plain-{n}", n, n // 2, n // 20, 0.3, 0.1, 0.0)
            case = run.Case.of(generate(spec, SEED))
            source = work / "input.dfl"
            source.write_text(case.gen.text, encoding="utf-8")
            walls, rss = [], []
            for _ in range(REPEATS):
                child = run.run_child(run.cli("conclusions", source), work / "out.txt")
                lines = child.stdout().splitlines()
                tally.check(case.name, child.reason() or run.check_conclusions(case, {"lines": lines}))
                walls.append(child.wall)
                rss.append(child.rss_mb)
            rows.append({**case.gen.record(), "wall_s": statistics.median(walls),
                         "walls_s": walls, "peak_rss_mb": max(rss)})
            print(f"{n:>7} rules  {case.gen.units:>7} units  {rows[-1]['wall_s']:8.3f} s",
                  file=sys.stderr)

    units = [r["units"] for r in rows]
    report = {
        "environment": run.environment(),
        "seed": SEED,
        "startup_s": startup,
        "sizes": rows,
        "exponent_wall": exponent(units, [r["wall_s"] for r in rows]),
        "exponent_minus_startup": exponent(units, [r["wall_s"] - startup for r in rows]),
        "failures": tally.failures,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
