"""Acceptance suite: one test per criterion, run with `pytest -v` to get a
pass/fail line for each.

Property criteria run over seeded generated theories; any counterexample is
written as a `.dfl` witness (to DEFLOG_FAIL_DIR if set, else `failures/`)
before the test fails.  Every conclusion computation in this suite goes
through `checked`, which layers the single-literal and pair-level sanity
properties on top of the engine's own structural validation; the final
criterion asserts how much evidence the recorder accumulated.
"""

import os

import pytest

from deflog import (
    Atom,
    Literal,
    Mode,
    Outcome,
    PairStatus,
    Tag,
    Theory,
    TheoryError,
    check_well_formed,
    classify,
    classify_pair,
    conclusions,
    dump_failure,
    elim_dft,
    elim_sup,
    normal,
    parse,
    pipeline,
    theory_union,
)
from deflog.analysis import gen_theory
from deflog.cli import main

from conftest import BE_SOURCE, DD_SOURCE, DE_SOURCE, GOLDEN, load

RECORDER = {"results": 0, "acyclic": 0}


def checked(theory: Theory, mode: Mode = Mode.FULL, extra_atoms=()):
    """conclusions() plus the single-theory sanity properties.

    The engine itself verifies the four structural set relations on every
    result.  On top of that: a literal is never defeasibly provable unless
    it is definitely provable or its complement is definitely refuted; a
    definitely refuted literal with a definitely provable complement is
    defeasibly refuted; and on acyclic theories, complementary literals are
    both defeasibly provable only when both are definitely provable.
    """
    c = conclusions(theory, mode, extra_atoms)
    atoms = set(theory.atoms)
    atoms.update(Atom(a) if isinstance(a, str) else a for a in extra_atoms)
    literals = [Literal(a, pos) for a in atoms for pos in (True, False)]
    for l in literals:
        nl = l.complement()
        if nl not in c.minus_delta and l not in c.plus_delta:
            assert l not in c.plus_partial, f"ungrounded defeasible proof of {l}"
        if nl in c.plus_delta and l in c.minus_delta:
            assert l in c.minus_partial, f"missing defeasible refutation of {l}"
    acyclic = check_well_formed(theory).acyclic
    if acyclic:
        for l in literals:
            nl = l.complement()
            if l in c.plus_partial and nl in c.plus_partial:
                assert l in c.plus_delta and nl in c.plus_delta, \
                    f"inconsistent defeasible proofs for {l} in an acyclic theory"
            if nl in c.plus_partial and l in c.minus_delta:
                assert l in c.minus_partial, \
                    f"{l} definitely refuted against a provable complement " \
                    f"yet not defeasibly refuted (acyclic theory)"
    RECORDER["results"] += 1
    RECORDER["acyclic"] += int(acyclic)
    return c


def equivalent_checked(t1: Theory, t2: Theory, sigma) -> bool:
    names = {str(a) for a in sigma}
    c1 = checked(t1, extra_atoms=names).restrict(names)
    c2 = checked(t2, extra_atoms=names).restrict(names)
    return c1 == c2


def fail_with_witness(theory: Theory, name: str, message: str):
    path = dump_failure(theory, name,
                        os.environ.get("DEFLOG_FAIL_DIR") or "failures")
    pytest.fail(f"{message} (witness: {path})")


# --- pipeline outputs (the generated pools live in conftest) ---------------

@pytest.fixture(scope="module")
def pipeline_results(pipeline_pool):
    return [(seed, t, result, sigma, checked(result, Mode.FULL, extra_atoms=sigma))
            for seed, (t, result, sigma) in enumerate(pipeline_pool)]


# --- criteria ----------------------------------------------------------------

def test_criterion_01_golden_example1(example1_ground):
    c = checked(example1_ground)
    mammal = Literal(Atom("mammal", ("platypus",)))
    assert c.has(Tag.PLUS_PARTIAL, mammal)
    assert c.has(Tag.MINUS_PARTIAL, mammal.complement())
    expected = GOLDEN.joinpath("example1.conclusions.txt").read_text().splitlines()
    assert c.lines() == expected


def test_criterion_02_golden_example2_normal(example2, capsys):
    code = main(["transform", str(GOLDEN / "example2.dfl"), "--stage", "normal"])
    out = capsys.readouterr().out
    assert code == 0
    produced = parse(out, allow_generated=True)
    assert produced == load("example2.normal.dfl", allow_generated=True)
    assert equivalent_checked(example2, produced, example2.sigma.atoms)


def test_criterion_03_golden_example3_elim_sup(example3, capsys):
    code = main(["transform", str(GOLDEN / "example3.dfl"), "--stage", "elim-sup"])
    out = capsys.readouterr().out
    assert code == 0
    produced = parse(out, allow_generated=True)
    assert produced == load("example3.elim_sup.dfl", allow_generated=True)
    c = checked(produced)
    f = Literal(Atom("f"))
    assert c.has(Tag.PLUS_PARTIAL, Literal(Atom("$im(r6)"), False))
    assert c.has(Tag.MINUS_PARTIAL, f)
    assert c.has(Tag.MINUS_PARTIAL, f.complement())
    assert equivalent_checked(example3, produced, example3.sigma.atoms)


def test_criterion_04_golden_example3_elim_dft(example3):
    produced, _ = elim_dft(example3)
    golden = load("example3.elim_dft.dfl", allow_generated=True)
    assert len(produced.rules) == 16
    assert len(produced.superiority) == 4
    assert produced == golden


def test_criterion_05_outcome_suite():
    p = Literal(Atom("p"))
    singles = [
        ("a1: p -> p.", Outcome.A),
        ("a1: => p. a2: p -> p.", Outcome.B),
        ("a1: -> p.", Outcome.C),
        ("a1: => p.", Outcome.D),
        ("a1: p => p.", Outcome.E),
        ("", Outcome.F),
    ]
    for source, expected in singles:
        c = checked(parse(source), extra_atoms=["p"])
        assert classify(c, p) == expected, f"{source!r} should classify {expected}"
    cyclic = [
        (DD_SOURCE, {Outcome.D}),
        (BE_SOURCE, {Outcome.B, Outcome.E}),
        (DE_SOURCE, {Outcome.D, Outcome.E}),
    ]
    for source, expected in cyclic:
        c = checked(parse(source))
        got = {classify(c, p), classify(c, p.complement())}
        assert got == expected, f"{source!r} realizes {got}, wanted {expected}"


def test_criterion_06_pair_table_on_acyclic_theories():
    for seed in range(1000):
        t = gen_theory(seed, num_atoms=4 + seed % 9, num_rules=6 + seed % 25,
                       num_facts=seed % 4, defeater_fraction=0.2,
                       strict_fraction=0.3, sup_density=0.08, force_acyclic=True)
        c = checked(t)
        for atom in t.atoms:
            verdict = classify_pair(c, Literal(atom))
            if verdict.status != PairStatus.POSS:
                fail_with_witness(t, f"table-{seed}",
                                  f"seed {seed}: {atom} classified {verdict}")


def test_criterion_07_transformation_correctness(general_pool, normalized_pool,
                                                 pipeline_results):
    for seed, t in enumerate(general_pool):
        sigma = t.sigma.atoms
        if not equivalent_checked(t, normal(t)[0], sigma):
            fail_with_witness(t, f"normal-{seed}", f"normal broke seed {seed}")
        if not equivalent_checked(t, elim_dft(t)[0], sigma):
            fail_with_witness(t, f"elim-dft-{seed}", f"elim_dft broke seed {seed}")
    for seed, t in enumerate(normalized_pool):
        # correctness over the full input language, generated atoms included
        if not equivalent_checked(t, elim_sup(t)[0], t.atoms):
            fail_with_witness(t, f"elim-sup-{seed}", f"elim_sup broke seed {seed}")
    for seed, t, result, sigma, c_out in pipeline_results:
        assert not result.facts
        assert not result.superiority
        assert not any(r.kind.value == "~>" for r in result.rules)
        c_in = checked(t, extra_atoms=sigma).restrict(sigma)
        if c_in != c_out.restrict(sigma):
            fail_with_witness(t, f"pipeline-{seed}", f"pipeline broke seed {seed}")


def test_criterion_08_incrementality():
    settings = dict(num_atoms=5, num_rules=6, num_facts=2, defeater_fraction=0.2,
                    strict_fraction=0.3, sup_density=0.1)
    for seed in range(200):
        d1 = gen_theory(seed, **settings, label_prefix="r")
        d2 = gen_theory(seed + 10_000, **settings, label_prefix="s")
        union = theory_union(d1, d2)
        if normal(union)[0] != theory_union(normal(d1)[0], normal(d2)[0]):
            fail_with_witness(union, f"normal-incr-{seed}",
                              f"normal not incremental on seed {seed}")
        if elim_dft(union)[0] != theory_union(elim_dft(d1)[0], elim_dft(d2)[0]):
            fail_with_witness(union, f"dft-incr-{seed}",
                              f"elim_dft not incremental on seed {seed}")
        # `elim_sup` and `pipeline` need well-formed parts; `elim_sup` also
        # normalized ones.
        w1 = gen_theory(seed, **settings, force_well_formed=True, label_prefix="r")
        w2 = gen_theory(seed + 10_000, **settings, force_well_formed=True, label_prefix="s")
        union = theory_union(w1, w2)
        if pipeline(union)[0] != theory_union(pipeline(w1)[0], pipeline(w2)[0]):
            fail_with_witness(union, f"pipeline-incr-{seed}",
                              f"pipeline not incremental on seed {seed}")
        n1, n2 = normal(w1)[0], normal(w2)[0]
        normalized = theory_union(n1, n2)
        if elim_sup(normalized)[0] != theory_union(elim_sup(n1)[0], elim_sup(n2)[0]):
            fail_with_witness(normalized, f"sup-incr-{seed}",
                              f"elim_sup not incremental on seed {seed}")


def test_criterion_09_non_modularity_regressions():
    # Splitting a strict chain from its base fact-rule flips b from definitely
    # provable to definitely refuted.
    d1 = parse("r1: a -> b.")
    d2 = parse("r2: -> a.")
    b = Literal(Atom("b"))
    assert checked(theory_union(d1, d2)).has(Tag.PLUS_DELTA, b)
    assert checked(theory_union(normal(d1)[0], d2)).has(Tag.MINUS_DELTA, b)

    # Translating a lone defeater away from its victim turns the blocked ~p
    # into a defeasibly provable one.
    d1 = parse("d1: ~> p.")
    d2 = parse("d2: => ~p.")
    not_p = Literal(Atom("p"), False)
    assert checked(theory_union(d1, d2)).has(Tag.MINUS_PARTIAL, not_p)
    assert checked(theory_union(elim_dft(d1)[0], d2)).has(Tag.PLUS_PARTIAL, not_p)

    # The bare-superiority fragment of the classic split is not even a
    # constructible theory, so the modular route is refused structurally.
    full = parse("r1: => p. r2: => ~p. r1 > r2.")
    assert checked(full).has(Tag.PLUS_PARTIAL, Literal(Atom("p")))
    with pytest.raises(TheoryError, match="unknown label"):
        Theory((), (), frozenset({("r1", "r2")}))


def test_criterion_10_size_bounds(general_pool, normalized_pool):
    for seed, t in enumerate(general_pool):
        assert normal(t)[1].growth_factor <= 3, f"normal factor blown on seed {seed}"
        assert elim_dft(t)[1].growth_factor <= 3, f"elim_dft factor blown on seed {seed}"
    for seed, t in enumerate(normalized_pool):
        assert elim_sup(t)[1].growth_factor <= 4, f"elim_sup factor blown on seed {seed}"


def test_criterion_11_reduced_mode_agreement(pipeline_results):
    for seed, _, result, sigma, c_full in pipeline_results:
        c_reduced = checked(result, Mode.REDUCED, extra_atoms=sigma)
        if c_full != c_reduced:
            fail_with_witness(result, f"reduced-{seed}",
                              f"mode disagreement on pipeline output of seed {seed}")


def test_criterion_12_engine_invariants_held_throughout():
    # The structural set relations are validated inside conclusions() on
    # every call; `checked` adds the single-literal properties and, on
    # acyclic theories, defeasible consistency.  By the time this runs, the
    # suites above have pushed thousands of results through those checks.
    assert RECORDER["results"] >= 3000
    assert RECORDER["acyclic"] >= 1500
