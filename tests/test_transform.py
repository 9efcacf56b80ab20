import os
import subprocess
import sys
from pathlib import Path

import pytest

from deflog import (
    Atom,
    Literal,
    Rule,
    RuleKind,
    Tag,
    TheoryError,
    Theory,
    TransformError,
    check_normal,
    check_well_formed,
    conclusions,
    elim_dft,
    elim_sup,
    equivalent,
    normal,
    parse,
    pipeline,
    print_theory,
    theory_union,
)
from deflog.analysis import gen_theory

from conftest import load


def generated_symbols(theory: Theory) -> set[str]:
    atoms = {str(a) for a in theory.atoms if a.generated}
    labels = {r.label for r in theory.rules if r.generated}
    return atoms | labels


class TestNormal:
    def test_example2_matches_golden(self, example2):
        out, report = normal(example2)
        golden = load("example2.normal.dfl", allow_generated=True)
        assert out == golden
        assert out.superiority == {("r4", "r3")}
        assert report.input_size == 7 and report.output_size == 13

    def test_example2_equivalent(self, example2):
        out, _ = normal(example2)
        assert equivalent(example2, out, example2.sigma.atoms)

    def test_empty_theory(self):
        out, report = normal(Theory())
        assert out == Theory()
        assert report.growth_factor == 1

    def test_single_strict_rule(self):
        out, _ = normal(parse("r: -> p."))
        assert out == parse("r$p: -> $p(p). r: => p. $b(p): $p(p) -> p.",
                            allow_generated=True)

    def test_rejects_generated_input(self, example2):
        once, _ = normal(example2)
        with pytest.raises(TransformError, match="already transformed"):
            normal(once)

    def test_output_is_normalized(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, num_facts=3,
                           defeater_fraction=0.2, strict_fraction=0.4, sup_density=0.1)
            assert check_normal(normal(t)[0]).ok

    def test_origin_map_covers_generated_symbols(self, example2):
        out, report = normal(example2)
        assert generated_symbols(out) <= set(report.origins)


class TestElimDft:
    def test_example3_matches_golden(self, example3):
        out, _ = elim_dft(example3)
        golden = load("example3.elim_dft.dfl", allow_generated=True)
        assert out == golden
        assert len(out.rules) == 16
        assert out.superiority == {
            ("r5", "r4"), ("r5$+", "r4$+"), ("r5$-", "r4$-"), ("r6", "r5$-"),
        }

    def test_example3_equivalent(self, example3):
        out, _ = elim_dft(example3)
        assert equivalent(example3, out, example3.sigma.atoms)

    def test_plain_defeasible_rule(self):
        out, _ = elim_dft(parse("r: => p."))
        assert out == parse("r$+: => $pl(p). r$-: => ~$mi(p). r: $pl(p) => p.",
                            allow_generated=True)

    def test_defeater_becomes_single_blocker(self):
        out, _ = elim_dft(parse("r: a ~> p."))
        assert out == parse("r: a => ~$mi(p).", allow_generated=True)

    def test_no_defeaters_in_output(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, defeater_fraction=0.5)
            out, _ = elim_dft(t)
            assert not any(r.kind == RuleKind.DEFEATER for r in out.rules)

    def test_facts_pass_through(self):
        out, _ = elim_dft(parse("p. r: => q."))
        assert out.facts == (Literal(Atom("p")),)

    def test_rejects_its_own_output(self, example3):
        once, _ = elim_dft(example3)
        with pytest.raises(TransformError, match="already transformed"):
            elim_dft(once)

    def test_accepts_normal_output(self, example2):
        # pipeline composition: a normalized theory still goes through
        out, _ = elim_dft(normal(example2)[0])
        assert check_normal(out).ok

    def test_derived_pairs_have_complementary_heads(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, num_facts=1,
                           defeater_fraction=0.3, strict_fraction=0.2, sup_density=0.25)
            out, _ = elim_dft(t)
            assert check_well_formed(out).complementary or not check_well_formed(t).complementary

    def test_origin_map_covers_generated_symbols(self, example3):
        out, report = elim_dft(example3)
        assert generated_symbols(out) <= set(report.origins)


class TestElimSup:
    def test_example3_matches_golden(self, example3):
        out, _ = elim_sup(example3)
        golden = load("example3.elim_sup.dfl", allow_generated=True)
        assert out == golden
        assert out.superiority == frozenset()

    def test_single_rule_no_superiority(self):
        out, _ = elim_sup(parse("r: => p."))
        assert out == parse(
            "r$a+: => ~$ip(r). r$b+: ~$ip(r) => p. r$a-: => ~$im(r). r$b-: ~$im(r) => p.",
            allow_generated=True,
        )

    def test_rejects_facts(self):
        with pytest.raises(TransformError, match="elim_sup requires normal form"):
            elim_sup(parse("p. r: => q."))

    def test_rejects_cyclic_superiority(self):
        t = parse("r1: => p. r2: => ~p. r1 > r2. r2 > r1.")
        with pytest.raises(TransformError, match="elim_sup requires acyclic superiority"):
            elim_sup(t)

    def test_rejects_strict_rule_in_superiority(self):
        t = parse("r1: -> p. r2: => ~p. r1 > r2.")
        with pytest.raises(TransformError, match="normal form"):
            elim_sup(t)

    def test_rejects_non_complementary_pair(self):
        t = normal(parse("r1: => p. r2: => q. r1 > r2."))[0]
        with pytest.raises(TransformError, match="^elim_sup requires superiority only "
                                                 "between rules with complementary heads$"):
            elim_sup(t)

    def test_defeaters_stay_defeaters_at_the_head(self, example3):
        out, _ = elim_sup(example3)
        defeaters = [r for r in out.rules if r.kind == RuleKind.DEFEATER]
        assert [r.label for r in defeaters] == ["r6$b-"]

    def test_origin_map_covers_generated_symbols(self, example3):
        out, report = elim_sup(example3)
        assert generated_symbols(out) <= set(report.origins)

    def test_modular_on_distinct_normalized_pairs(self):
        # Rewriting one half of a union of label-disjoint, well-formed,
        # normalized theories leaves the union's conclusions unchanged.
        for seed in range(40):
            d1 = gen_theory(seed, num_atoms=4, num_rules=5, strict_fraction=0.3,
                            defeater_fraction=0.2, sup_density=0.25,
                            force_well_formed=True, force_normalized=True,
                            label_prefix="r")
            d2 = gen_theory(seed + 50_000, num_atoms=4, num_rules=5,
                            strict_fraction=0.3, defeater_fraction=0.2,
                            sup_density=0.25, force_well_formed=True,
                            force_normalized=True, label_prefix="s")
            union = theory_union(d1, d2)
            modular = theory_union(d1, elim_sup(d2)[0])
            sigma = {str(a) for a in union.atoms}
            assert equivalent(union, modular, sigma), f"seed {seed}"


class TestPipeline:
    def test_example3(self, example3):
        out, _ = pipeline(example3)
        assert not out.facts
        assert not out.superiority
        assert not any(r.kind == RuleKind.DEFEATER for r in out.rules)
        assert equivalent(example3, out, example3.sigma.atoms)

    def test_empty_theory(self):
        out, _ = pipeline(Theory())
        assert out == Theory()

    def test_single_defeasible_rule(self):
        src = parse("r: => p.")
        out, _ = pipeline(src)
        c = conclusions(out)
        p = Literal(Atom("p"))
        assert c.has(Tag.PLUS_PARTIAL, p)
        assert c.has(Tag.MINUS_DELTA, p)

    def test_rejects_cyclic_input(self):
        with pytest.raises(TransformError, match="well-formed"):
            pipeline(parse("r1: => p. r2: => ~p. r1 > r2. r2 > r1."))

    @pytest.mark.parametrize("source, message", [
        # Checked once, in this order: ground, well-formed, no generated
        # symbols (see `test_rejects_transformed_input`).
        ("r: q(X) => p(X). s: => q(a).", "pipeline requires a ground theory"),
        ("r: q(X) => p(X). s: => ~p(a). r > s. s > r.", "pipeline requires a ground theory"),
        ("r1: => $p(x). r2: => ~$p(x). r1 > r2. r2 > r1.",
         "pipeline requires a well-formed theory (cyclic superiority)"),
        ("r1: => $p(x). r2: => q. r1 > r2.", "pipeline requires a well-formed theory "
         "(superiority between rules with non-complementary heads)"),
    ], ids=["schema", "cyclic-schema", "cyclic-generated", "non-complementary-generated"])
    def test_error_contract(self, source, message):
        with pytest.raises(TransformError) as error:
            pipeline(parse(source, allow_generated=True))
        assert str(error.value) == message

    @pytest.mark.parametrize("stage", [normal, elim_dft, elim_sup, pipeline])
    def test_rejects_transformed_input(self, example3, stage):
        with pytest.raises(TransformError, match="^already transformed$"):
            pipeline(stage(example3)[0])

    def test_middle_stage_holds_what_pipeline_no_longer_checks(self, pipeline_pool):
        # `pipeline` checks its input only; its stages rely on these.
        minted = ("$pl(", "$mi(")
        for seed, (theory, out, _) in enumerate(pipeline_pool):
            normalized = normal(theory)[0]
            assert not any(a.name.startswith(minted) for a in normalized.atoms), f"seed {seed}"
            middle = elim_dft(normalized)[0]
            assert middle.is_ground, f"seed {seed}"
            assert check_normal(middle).ok, f"seed {seed}"
            assert check_well_formed(middle).ok, f"seed {seed}"
            for stage in (normalized, middle, out):
                assert all(str(a) == a.name for a in stage.atoms if a.generated), f"seed {seed}"

    def test_output_passes_normal_check(self, example3):
        out, _ = pipeline(example3)
        report = check_normal(out)
        assert report.ok

    def test_merged_origins_cover_generated_symbols(self, example3):
        out, report = pipeline(example3)
        assert generated_symbols(out) == set(report.origins)
        assert not any(v == "carried over from input" for v in report.origins.values())
        for seed in range(40):
            out, report = pipeline(seeded_well_formed(seed))
            assert generated_symbols(out) == set(report.origins), f"seed {seed}"

    def test_calls_per_output_rule(self):
        # Python-level calls made by `pipeline`, counted as the benchmark's
        # traced runs count them: deterministic, unlike a timing.  Spelling
        # each minted name inline costs about 2.5 calls per output rule; a
        # helper call per name, over 4.
        theory = gen_theory(1, num_atoms=40, num_rules=200, num_facts=10,
                            defeater_fraction=0.2, strict_fraction=0.3, sup_density=0.05,
                            force_well_formed=True)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            out, _ = pipeline(theory)
        finally:
            sys.setprofile(None)
        assert count <= 3 * len(out.rules)

    def test_builds_only_the_output(self):
        # The passes compose per item: no middle theory, and a rule only for
        # each output rule.  Counted as `test_calls_per_output_rule` counts.
        theory = gen_theory(1, num_atoms=40, num_rules=200, num_facts=10,
                            defeater_fraction=0.2, strict_fraction=0.3, sup_density=0.05,
                            force_well_formed=True)
        built = {Theory.__init__.__code__: 0, Rule.__init__.__code__: 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in built:
                built[frame.f_code] += 1

        sys.setprofile(profile)
        try:
            out, _ = pipeline(theory)
        finally:
            sys.setprofile(None)
        assert built == {Theory.__init__.__code__: 1, Rule.__init__.__code__: len(out.rules)}


def seeded_well_formed(seed: int) -> Theory:
    return gen_theory(seed, num_atoms=5, num_rules=8, num_facts=2, defeater_fraction=0.2,
                      strict_fraction=0.3, sup_density=0.25, force_well_formed=True)


def render_stages() -> str:
    """Each pass's printed output and ordered origins, as `golden/stages.txt`
    holds them.  Seed 33 has facts, strict rules, defeaters and superiority
    pairs with a defeater on either side; `elim_sup` runs on its normal form."""
    seeded = seeded_well_formed(33)
    cases = (("example3", load("example3.dfl"), load("example3.dfl")),
             ("seed 33", seeded, normal(seeded)[0]))
    sections = []
    for name, theory, normalized in cases:
        for stage, (out, report) in (("normal", normal(theory)), ("elim_dft", elim_dft(theory)),
                                     ("elim_sup", elim_sup(normalized)),
                                     ("pipeline", pipeline(theory))):
            origins = "".join(f"{symbol} <- {origin}\n"
                              for symbol, origin in report.origins.items())
            sections.append(f"== {name} {stage}\n{print_theory(out)}-- origins\n{origins}")
    return "".join(sections)


def test_stages_match_golden():
    assert render_stages() == (Path(__file__).parent / "golden" / "stages.txt").read_text()


@pytest.mark.parametrize("stages", [(normal,), (normal, elim_dft), (normal, elim_dft, elim_sup),
                                    (normal, elim_sup)],
                         ids=["normal", "elim_dft", "elim_sup", "elim_sup_with_defeaters"])
def test_origins_cover_what_the_pass_minted(stages):
    # Run on generated input: the symbols the last pass finds already
    # generated came from the input and get no entry, and every entry names
    # a symbol of the output.
    for seed in range(40):
        source = seeded_well_formed(seed)
        for stage in stages[:-1]:
            source = stage(source)[0]
        out, report = stages[-1](source)
        inherited = generated_symbols(source)
        assert generated_symbols(out) - inherited <= set(report.origins), f"seed {seed}"
        assert not inherited & set(report.origins), f"seed {seed}"
        assert set(report.origins) <= generated_symbols(out), f"seed {seed}"


def test_defeater_origins_name_only_what_its_image_uses():
    assert elim_dft(parse("r: a ~> p."))[1].origins == {"$mi(p)": "rule r"}
    assert elim_dft(parse("r: a ~> ~p."))[1].origins == {"$pl(p)": "rule r"}
    # The support atom goes to the first rule whose image concludes it.
    assert elim_dft(parse("d: a ~> p. r: => p."))[1].origins["$pl(p)"] == "rule r"
    assert "$ip(d)" not in elim_sup(parse("d: a ~> p. r: => ~p."))[1].origins
    # A defeater's `$ip` occurs only in the rules of a superiority pair.
    assert elim_sup(parse("d: a ~> p. r: => ~p. d > r."))[1].origins["$ip(d)"] == "rule d"


def test_origins_order_does_not_depend_on_memory_addresses():
    """Antecedents are sets of literals, which hash by identity: `normal`
    records origins in an order of its own, not the sets' iteration order,
    so two processes that built different objects before agree on it."""
    code = """if True:
        import sys
        from deflog import Atom, normal, pipeline
        from deflog.analysis import gen_theory
        unrelated = [Atom(f"u{i}", ("c",)) for i in range(int(sys.argv[1]))]
        for seed in range(20):
            theory = gen_theory(seed, num_atoms=8, num_rules=12, num_facts=2,
                                defeater_fraction=0.2, strict_fraction=0.5,
                                sup_density=0.2, force_well_formed=True)
            for stage in (normal, pipeline):
                print(list(stage(theory)[1].origins))
    """
    src = str(Path(__file__).parent.parent / "src")
    keys = [subprocess.run([sys.executable, "-c", code, unrelated], capture_output=True,
                           text=True, check=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": src}).stdout
            for unrelated in ("0", "5000")]
    assert keys[0] == keys[1]


def test_failing_checks_do_not_depend_on_set_order():
    """`elim_dft`'s "already transformed" check scans `Theory.atoms`, which
    iterates in memory-address order, and the superiority checks of
    `check_well_formed` and `check_normal` scan string pairs, which iterate
    in string-hash order.  Each checks every element, so on input that fails
    it, its Python-level calls follow neither the hash seed nor the objects
    built before."""
    code = """if True:
        import sys
        from deflog import (Atom, Theory, TransformError, check_normal, check_well_formed,
                            elim_dft)
        from deflog.analysis import gen_theory
        unrelated = [Atom(f"u{i}", ("c",)) for i in range(int(sys.argv[1]))]
        calls = 0

        def tally(frame, event, arg):
            global calls
            calls += event == "call"

        def counted(fn, theory):
            global calls
            calls = 0
            sys.setprofile(tally)
            try:
                fn(theory)
            except TransformError:
                pass
            finally:
                sys.setprofile(None)
            return calls

        for seed in range(30):
            theory = gen_theory(seed, num_atoms=20, num_rules=40, num_facts=2,
                                defeater_fraction=0.2, strict_fraction=0.4, sup_density=0.1)
            # Well-formed but for one pair, so most pairs pass the check.
            wf = gen_theory(seed, num_atoms=4, num_rules=40, sup_density=0.2,
                            force_well_formed=True)
            first = wf.rules[0]
            other = next(r for r in wf.rules[1:] if r.head is not first.head.complement())
            mixed = Theory(wf.facts, wf.rules, wf.superiority | {(first.label, other.label)})
            print(counted(elim_dft, elim_dft(theory)[0]), counted(check_well_formed, mixed),
                  counted(check_normal, theory))
            assert not (check_well_formed(mixed).complementary
                        or check_normal(theory).no_strict_in_sup)
    """
    src = str(Path(__file__).parent.parent / "src")
    counts = {(seed, unrelated): subprocess.run(
                  [sys.executable, "-c", code, unrelated], capture_output=True, text=True,
                  check=True, timeout=120,
                  env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
              for seed in ("0", "1") for unrelated in ("0", "5000")}
    assert len(set(counts.values())) == 1, counts


class TestNonModularityRegressions:
    def test_normalization_is_not_modular(self):
        d1 = parse("r1: a -> b.")
        d2 = parse("r2: -> a.")
        b = Literal(Atom("b"))
        together = conclusions(theory_union(d1, d2))
        piecewise = conclusions(theory_union(normal(d1)[0], d2))
        assert together.has(Tag.PLUS_DELTA, b)
        assert piecewise.has(Tag.MINUS_DELTA, b)

    def test_defeater_elimination_is_not_modular(self):
        d1 = parse("d1: ~> p.")
        d2 = parse("d2: => ~p.")
        not_p = Literal(Atom("p"), False)
        together = conclusions(theory_union(d1, d2))
        piecewise = conclusions(theory_union(elim_dft(d1)[0], d2))
        assert together.has(Tag.MINUS_PARTIAL, not_p)
        assert piecewise.has(Tag.PLUS_PARTIAL, not_p)

    def test_superiority_only_fragment_is_refused(self):
        # The split that would defeat any modular superiority elimination:
        # the bare-priority fragment is not a constructible theory at all.
        full = parse("r1: => p. r2: => ~p. r1 > r2.")
        assert conclusions(full).has(Tag.PLUS_PARTIAL, Literal(Atom("p")))
        with pytest.raises(TheoryError, match="unknown label"):
            Theory((), (), frozenset({("r1", "r2")}))


class TestSizeAccounting:
    def test_growth_factors_on_examples(self, example2, example3):
        assert normal(example2)[1].growth_factor <= 3
        assert elim_dft(example3)[1].growth_factor <= 3
        assert elim_sup(example3)[1].growth_factor <= 4

    def test_minimal_superiority_case_stays_within_bound(self):
        t = parse("r1: => p. r2: => ~p. r1 > r2.")
        _, report = elim_sup(t)
        assert report.input_size == 3 and report.output_size == 10
        assert report.growth_factor <= 4
