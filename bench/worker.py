"""Library side of the benchmark: runs in a child process that imports deflog.

    python3 bench/worker.py MODE SPEC.json OUT.json

MODE is one of

* `setup`: import deflog and parse every input, then exit.  The parent
  times the whole process; that is `setup_s` of `props-library`.
* `props`: run one library job on each input in turn, writing each job's
  wall time and outputs as one JSON line.  Each job starts from a theory
  parsed afresh outside its timer, so no cached state carries over.
* `trace`: after a warm-up pass, run the calls once untraced and once with
  a span around every call into a deflog module.  The calls are the
  workload's traffic, then a sweep that runs every traffic on small
  theories (a schema only through `conclusions`, the one CLI path that
  grounds), so every layer is timed on every workload.  As in `props`, each
  library job gets a fresh theory, parsed outside any span.
* `count`: the same calls, on the first `counted` inputs only, counting the
  Python-level calls and the tracemalloc peak of each one instead of timing
  it (together they slow the calls about tenfold).

The harness (`run.py`) writes SPEC.json and checks every output this process
writes against its own reference; nothing here decides correctness.  Spans
are leaves (no span encloses another), so a span's self time is its
duration; calls a deflog function makes internally are not split out.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from time import perf_counter

from deflog import (
    Literal,
    Mode,
    Tag,
    TaggedLiteral,
    check_normal,
    check_well_formed,
    classify_pair,
    conclusions,
    elim_dft,
    elim_sup,
    equivalent,
    ground,
    normal,
    parse,
    pipeline,
    print_theory,
    prove,
    replay,
)

TAGS = {tag.value: tag for tag in Tag}


class Untraced:
    """Calls straight through; used for timed runs."""

    job: object = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, key, value):
        pass


class Timing(Untraced):
    """One span per call: (name, job, start, end, raised)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        raised = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            self.spans.append((name, self.job, start, perf_counter(), raised))

    def note(self, key, value):
        self.notes[key] = self.notes.get(key, 0) + value


class Counting(Timing):
    """Per call: Python-level calls made (the callee included) and the
    tracemalloc peak above the allocation level at entry."""

    def __init__(self):
        super().__init__()
        self.calls: dict[str, int] = {}
        self.peak: dict[str, int] = {}
        self._count = 0

    def _profile(self, frame, event, arg):
        if event == "call":
            self._count += 1

    def call(self, name, fn, *args, **kwargs):
        self._count = 0
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sys.setprofile(self._profile)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
            peak = tracemalloc.get_traced_memory()[1] - base
            self.calls[name] = self.calls.get(name, 0) + self._count
            self.peak[name] = max(self.peak.get(name, 0), peak)


class Item:
    """One input: its text and its goals."""

    def __init__(self, spec: dict):
        self.text = spec["text"]
        self.ground = spec["ground"]
        self.goals = [TaggedLiteral(TAGS[tag], parse(f"{lit}.").facts[0])
                      for tag, lit in spec.get("goals", ())]

    def theory(self):
        """A new Theory object, so its cached properties start empty."""
        parsed = parse(self.text)
        return ground(parsed) if self.ground else parsed


def _parse(tr, text: str, allow_generated: bool = False):
    tr.note("parser.parse.bytes", len(text.encode()))
    return tr.call("parser.parse", parse, text, allow_generated=allow_generated)


def _read(tr, item: Item):
    theory = _parse(tr, item.text)
    if item.ground:
        theory = tr.call("core.ground", ground, theory)
        tr.note("core.ground.rules_out", len(theory.rules))
    return theory


def _conclusions(tr, theory, *args, **kwargs):
    result = tr.call("engine.conclusions", conclusions, theory, *args, **kwargs)
    tr.note("engine.conclusions.derived", len(result.plus_delta) + len(result.minus_delta)
            + len(result.plus_partial) + len(result.minus_partial))
    return tr.call("engine.lines", result.lines), result


def _transform(tr, name, fn, theory):
    result, report = tr.call(f"transform.{name}", fn, theory)
    tr.note(f"transform.{name}.units_out", report.output_size)
    return result, report


def conclusions_traffic(tr, item: Item) -> dict:
    """What `deflog conclusions [--ground]` does."""
    lines, _ = _conclusions(tr, _read(tr, item))
    return {"lines": lines}


def pipeline_traffic(tr, item: Item) -> dict:
    """What `transform --stage pipeline` then `conclusions --mode reduced`
    do, with the stages of `pipeline` also called one by one."""
    theory = _read(tr, item)
    tr.call("core.check_well_formed", check_well_formed, theory)
    normalized, _ = _transform(tr, "normal", normal, theory)
    no_defeaters, _ = _transform(tr, "elim_dft", elim_dft, normalized)
    tr.call("core.check_normal", check_normal, no_defeaters)
    tr.call("core.check_well_formed", check_well_formed, no_defeaters)
    _transform(tr, "elim_sup", elim_sup, no_defeaters)
    result, report = _transform(tr, "pipeline", pipeline, theory)
    text = tr.call("parser.print_theory", print_theory, result)
    reread = _parse(tr, text, allow_generated=True)
    lines, _ = _conclusions(tr, reread, Mode.REDUCED, extra_atoms=theory.atoms)
    return {"lines": lines, "units": report.output_size}


def props_traffic(tr, item: Item, theory) -> dict:
    """One job of the acceptance suite's kind on `theory`, a fresh parse of
    `item`."""
    result, report = _transform(tr, "pipeline", pipeline, theory)
    same = tr.call("analysis.equivalent", equivalent, theory, result)
    lines, found = _conclusions(tr, theory)
    verdicts = []
    for atom in sorted(theory.atoms, key=str):
        v = tr.call("analysis.classify_pair", classify_pair, found, Literal(atom))
        verdicts.append([str(atom), v.outcome_p.value, v.outcome_not_p.value, v.status.value])
    proofs = []
    for goal in item.goals:
        derivation = tr.call("engine.prove", prove, theory, goal)
        if derivation is None:
            proofs.append([False, False, False])
        else:
            proofs.append([True, tr.call("engine.replay", replay, theory, derivation),
                           derivation.conclusion == goal])
    return {"equivalent": same, "lines": lines, "verdicts": verdicts,
            "proofs": proofs, "units": report.output_size}


TRAFFIC = {
    "conclusions": conclusions_traffic,
    "pipeline": pipeline_traffic,
    "props": props_traffic,
}


def _guarded(job) -> dict:
    # A job that raises is reported, not fatal: the harness counts it failed.
    try:
        return job()
    except Exception as exc:  # noqa: BLE001 - boundary that must keep running
        return {"error": f"{type(exc).__name__}: {exc}"}


def _job(traffic, tr, item) -> dict:
    # Library traffic starts from a fresh theory, parsed outside any span.
    if traffic is props_traffic:
        return _guarded(lambda: traffic(tr, item, item.theory()))
    return _guarded(lambda: traffic(tr, item))


def run_props(items: list[Item], handle) -> None:
    """One job per input; the parse before each is not timed."""
    tr = Untraced()
    for i, item in enumerate(items):
        theory = item.theory()
        t0 = perf_counter()
        out = _guarded(lambda: props_traffic(tr, item, theory))
        wall = perf_counter() - t0
        handle.write(json.dumps({"input": i, "wall": wall, "out": out}) + "\n")


def run_pass(tr, spec: dict, items: list[Item], cover: list[Item]) -> dict:
    traffic = TRAFFIC[spec["traffic"]]
    outputs = []
    for i, item in enumerate(items):
        tr.job = i
        outputs.append(_job(traffic, tr, item))
    cover_outputs = []
    for j, item in enumerate(cover):
        tr.job = f"cover{j}"
        # Schemas go only where the CLI grounds them: `deflog conclusions --ground`.
        traffics = {"conclusions": conclusions_traffic} if item.ground else TRAFFIC
        cover_outputs.append({name: _job(fn, tr, item) for name, fn in traffics.items()})
    return {"outputs": outputs, "cover": cover_outputs}


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv[:3]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if mode == "count":
        tracemalloc.start()
        spec["inputs"] = spec["inputs"][:spec["counted"]]
    items = [Item(s) for s in spec["inputs"]]
    cover = [Item(s) for s in spec.get("cover", ())]
    if mode == "setup":
        for item in items:
            item.theory()
        return 0
    if mode == "props":
        with open(out_path, "w", encoding="utf-8") as handle:
            run_props(items, handle)
        return 0
    if mode == "trace":
        run_pass(Untraced(), spec, items, cover)  # warm-up, so both timed passes start alike
        t0 = perf_counter()
        run_pass(Untraced(), spec, items, cover)
        t1 = perf_counter()
        tr = Timing()
        result = run_pass(tr, spec, items, cover)
        result.update(untraced_s=t1 - t0, traced_s=perf_counter() - t1,
                      spans=tr.spans, notes=tr.notes)
    elif mode == "count":
        tr = Counting()
        result = run_pass(tr, spec, items, cover)
        result.update(calls=tr.calls, peak=tr.peak, notes=tr.notes)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
