"""Differential check of the engine against an independent oracle.

The oracle is a naive fixpoint built only from `engine._witness`, the one
transcription of the inference conditions, which `replay` checks
derivations with and `prove` picks premises with.  Over the theory's own
Literal and Rule objects it sweeps every candidate tagged literal, adding
each one whose condition holds, until a sweep adds nothing.  It shares no
code with the solver's integer tables, counters or worklist.
"""

import random
from collections import Counter

import pytest

from deflog import (
    Atom,
    ConclusionSet,
    Literal,
    Mode,
    PreconditionError,
    RuleKind,
    TaggedLiteral,
    Theory,
    conclusions,
    prove,
    replay,
)
from deflog.engine import _TAGS, _Index, _Solver, _witness


def candidates(theory: Theory, extra_atoms=()) -> list[TaggedLiteral]:
    atoms = set(theory.atoms)
    atoms.update(Atom(a) if isinstance(a, str) else a for a in extra_atoms)
    return [TaggedLiteral(tag, Literal(atom, positive))
            for atom in sorted(atoms, key=str) for positive in (True, False)
            for tag in _TAGS]


def naive_conclusions(theory: Theory, extra_atoms=()) -> ConclusionSet:
    """The general conditions' fixpoint.  Reduced mode adds no conditions of
    its own, only preconditions, so it is checked against this too."""
    have = {tag: set() for tag in _TAGS}
    index = _Index.of(theory, lambda tag, q: (tag, q) if q in have[tag] else None)
    pending = candidates(theory, extra_atoms)
    changed = True
    while changed:
        changed = False
        for tagged in pending:
            if (tagged.literal not in have[tagged.tag]
                    and _witness(index, tagged.tag, tagged.literal) is not None):
                have[tagged.tag].add(tagged.literal)
                changed = True
    return ConclusionSet(*(frozenset(have[tag]) for tag in _TAGS))


def assert_engine_matches_oracle(pool) -> int:
    """Compare on every (seed, theory, extra atoms) in both modes; return
    how many admitted reduced mode."""
    reduced = 0
    for seed, theory, extra in pool:
        expected = naive_conclusions(theory, extra)
        for mode in (Mode.FULL, Mode.REDUCED):
            try:
                found = conclusions(theory, mode, extra)
            except PreconditionError:
                assert mode == Mode.REDUCED
                continue
            reduced += mode == Mode.REDUCED
            assert found == expected, f"seed {seed}, {mode}"
    return reduced


def test_general_pool_matches_oracle(general_pool):
    assert_engine_matches_oracle([(seed, t, ()) for seed, t in enumerate(general_pool)])


def test_general_pool_with_extra_atoms_matches_oracle(general_pool):
    # The solver compiles no extra atom: one the theory lacks gets its
    # refutations after the run, and one only an antecedent mentions is
    # already among the theory's atoms.
    sample = []
    for seed in random.Random("extra atoms").sample(range(len(general_pool)), 150):
        theory = general_pool[seed]
        only_in_bodies = {a.atom for r in theory.rules for a in r.antecedent}.difference(
            {r.head.atom for r in theory.rules}, {f.atom for f in theory.facts})
        if only_in_bodies:
            sample.append((seed, theory, ("zz", min(only_in_bodies, key=str))))
    assert len(sample) >= 50
    assert_engine_matches_oracle(sample)


def test_normalized_pool_matches_oracle(normalized_pool):
    assert_engine_matches_oracle([(seed, t, ()) for seed, t in enumerate(normalized_pool)])


def test_multi_superior_pool_matches_oracle(multi_superior_pool):
    # An attack is countered by any one of several superiors, and wins only
    # once all of them are blocked.
    crowded = sum(k >= 2 for t in multi_superior_pool
                  for k in Counter(inf for _, inf in t.superiority).values())
    assert crowded >= 3 * len(multi_superior_pool)
    assert_engine_matches_oracle([(seed, t, ()) for seed, t in enumerate(multi_superior_pool)])


@pytest.mark.parametrize("pool_name", ["general_pool", "multi_superior_pool"])
def test_overrides_are_the_declared_pairs_that_can_counterattack(request, pool_name):
    # `run` reads `overrides` for the superiority relation, so it is
    # checked here, on a compiled solver that has not run, against every
    # ordered pair of rules: `t` counterattacks `s` iff `t > s` is declared,
    # `t` is not a defeater and their heads are complements; each entry
    # lists its `s` in rule order.
    pool = request.getfixturevalue(pool_name)
    kept = dropped = 0
    for seed, theory in enumerate(pool):
        rules = theory.rules
        expected = [tuple(s for s, inf in enumerate(rules)
                          if (sup.label, inf.label) in theory.superiority
                          and sup.kind is not RuleKind.DEFEATER
                          and sup.head == inf.head.complement())
                    for sup in rules]
        assert _Solver(theory).overrides == expected, f"seed {seed}"
        kept += sum(map(len, expected))
        dropped += len(theory.superiority) - sum(map(len, expected))
    # Both pools rank defeaters above rules; the general one also declares
    # pairs between non-complementary heads.
    assert kept and dropped


def test_pipeline_outputs_match_oracle_in_both_modes(pipeline_pool):
    # A seeded fifth of the pool: outputs are ~10x their inputs, and the
    # oracle re-examines every candidate on every sweep.
    seeds = random.Random("oracle").sample(range(len(pipeline_pool)), len(pipeline_pool) // 5)
    reduced = assert_engine_matches_oracle(
        [(seed, pipeline_pool[seed][1], pipeline_pool[seed][2]) for seed in seeds])
    assert reduced == len(seeds)  # every pipeline output admits reduced mode


@pytest.mark.parametrize("pool_name, size", [
    ("general_pool", 20), ("normalized_pool", 20), ("multi_superior_pool", 20),
    ("pipeline_pool", 2)])
def test_prove_agrees_with_conclusions_on_a_sample(request, pool_name, size):
    # prove() solves each theory once, for all of its goals; pipeline outputs
    # have ~500 candidate goals each.
    pool = request.getfixturevalue(pool_name)
    for seed in random.Random(pool_name).sample(range(len(pool)), size):
        theory = pool[seed][1] if pool_name == "pipeline_pool" else pool[seed]
        mode = Mode.REDUCED if pool_name == "pipeline_pool" else Mode.FULL
        found = conclusions(theory, mode)
        for goal in candidates(theory):
            derivation = prove(theory, goal, mode)
            if goal in found:
                assert derivation is not None, f"seed {seed}: no derivation of {goal}"
                assert derivation.conclusion == goal
                assert replay(theory, derivation, mode), f"seed {seed}: {goal}"
            else:
                assert derivation is None, f"seed {seed}: derivation of {goal}"
