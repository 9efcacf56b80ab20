import sys

import pytest

from deflog import (
    Atom,
    ConclusionSet,
    Literal,
    Outcome,
    PairStatus,
    RuleKind,
    Theory,
    TransformError,
    classify,
    classify_pair,
    conclusions,
    dump_failure,
    equivalent,
    ground,
    normal,
    pair_table,
    parse,
    pipeline,
    theory_union,
)
from deflog.analysis import gen_theory
from deflog.core import check_normal, check_well_formed

from conftest import BE_SOURCE, DD_SOURCE, DE_SOURCE, per_literal_restrict

P = Literal(Atom("p"))
NOT_P = P.complement()


def outcomes_of(source: str, extra=()) -> tuple[Outcome, Outcome]:
    c = conclusions(parse(source), extra_atoms=extra)
    return classify(c, P), classify(c, NOT_P)


class TestClassify:
    def test_six_single_rule_outcomes(self):
        assert outcomes_of("r: p -> p.")[0] == Outcome.A
        assert outcomes_of("r1: => p. r2: p -> p.")[0] == Outcome.B
        assert outcomes_of("r: -> p.")[0] == Outcome.C
        assert outcomes_of("r: => p.")[0] == Outcome.D
        assert outcomes_of("r: p => p.")[0] == Outcome.E
        c = conclusions(Theory(), extra_atoms=["p"])
        assert classify(c, P) == Outcome.F

    def test_cyclic_pair_witnesses(self):
        assert set(outcomes_of(DD_SOURCE)) == {Outcome.D}
        assert set(outcomes_of(BE_SOURCE)) == {Outcome.B, Outcome.E}
        assert set(outcomes_of(DE_SOURCE)) == {Outcome.D, Outcome.E}

    def test_strict_loop_attacker_demotes_e_to_f(self):
        # Without the pair shielding the strict loop, the loop rule is an
        # applicable attacker that nothing overrides, so the positive
        # literal is defeasibly refuted instead of undecided.
        weaker = BE_SOURCE.replace(" r1 > r3.", "")
        assert set(outcomes_of(weaker)) == {Outcome.B, Outcome.F}

    def test_negative_literals_classify_symmetrically(self):
        first, second = outcomes_of("r: => ~p.")
        assert (first, second) == (Outcome.F, Outcome.D)


    def test_sets_that_admit_two_outcomes_are_refused(self):
        none, only_p = frozenset(), frozenset({P})
        with pytest.raises(AssertionError, match=r"^outcomes \[<Outcome.B: 'B'>, "
                                                 r"<Outcome.F: 'F'>\] for p: not a partition$"):
            classify(ConclusionSet(none, none, only_p, only_p), P)


class TestPairTable:
    def test_spot_cells(self):
        assert pair_table(Outcome.A, Outcome.A) == PairStatus.POSS
        assert pair_table(Outcome.C, Outcome.E) == PairStatus.NP2
        assert pair_table(Outcome.D, Outcome.D) == PairStatus.NP3
        assert pair_table(Outcome.A, Outcome.F) == PairStatus.POSS
        assert pair_table(Outcome.B, Outcome.B) == PairStatus.NP1

    def test_symmetric(self):
        for a in Outcome:
            for b in Outcome:
                assert pair_table(a, b) == pair_table(b, a)

    def test_cell_census(self):
        statuses = [pair_table(a, b) for a in Outcome for b in Outcome]
        assert statuses.count(PairStatus.NP1) == 11
        assert statuses.count(PairStatus.NP2) == 2
        assert statuses.count(PairStatus.NP3) == 5
        assert statuses.count(PairStatus.POSS) == 18

    def test_f_row_all_possible(self):
        assert all(pair_table(Outcome.F, o) == PairStatus.POSS for o in Outcome)

    def test_classify_pair_wraps_table(self):
        verdict = classify_pair(conclusions(parse(DD_SOURCE)), P)
        assert verdict.outcome_p == Outcome.D
        assert verdict.outcome_not_p == Outcome.D
        assert verdict.status == PairStatus.NP3


class TestEquivalent:
    def test_reflexive(self, example3):
        assert equivalent(example3, example3, example3.sigma.atoms)

    def test_example2_and_its_normal_form(self, example2):
        out, _ = normal(example2)
        assert equivalent(example2, out, ["e", "a", "b", "c", "d"])

    def test_non_modular_pair_differs(self):
        d1 = parse("r1: a -> b.")
        d2 = parse("r2: -> a.")
        assert not equivalent(theory_union(d1, d2),
                              theory_union(normal(d1)[0], d2),
                              ["a", "b"])

    def test_restriction_hides_differences_outside_sigma(self):
        t1 = parse("r: => p.")
        t2 = parse("r: => p. s: => q.")
        assert equivalent(t1, t2, ["p"])
        assert not equivalent(t1, t2, ["p", "q"])

    def test_default_sigma_is_shared_user_language(self, example2):
        out, _ = normal(example2)
        assert equivalent(example2, out)

    def test_verdicts_match_the_per_literal_definition(self, pipeline_pool, schema_pool):
        # Each input against its own output and against the next input's
        # output, so both verdicts occur; grounded schemas bring atoms with
        # arguments, whose defeater-only heads `pipeline` drops.
        def by_definition(t1, t2, sigma=None):
            if sigma is None:
                sigma = t1.sigma.atoms | t2.sigma.atoms
            atoms = {str(a) for a in sigma}
            return (per_literal_restrict(conclusions(t1, extra_atoms=atoms), atoms)
                    == per_literal_restrict(conclusions(t2, extra_atoms=atoms), atoms))

        pairs = list(pipeline_pool)
        pairs += [(t, out, sigma) for (t, _, sigma), (_, out, _)
                  in zip(pipeline_pool, pipeline_pool[1:])]
        for schema in schema_pool:
            theory = ground(schema)
            try:
                pairs.append((theory, pipeline(theory)[0], theory.sigma.atoms))
            except TransformError:
                continue
        verdicts = []
        for t1, t2, sigma in pairs:
            verdicts.append(equivalent(t1, t2))
            assert verdicts[-1] == by_definition(t1, t2)
            assert equivalent(t1, t2, sigma) == by_definition(t1, t2, sigma)
        assert True in verdicts and False in verdicts


class TestGenerator:
    def test_deterministic(self):
        kwargs = dict(num_atoms=6, num_rules=9, num_facts=2,
                      defeater_fraction=0.2, strict_fraction=0.3, sup_density=0.2)
        assert gen_theory(7, **kwargs) == gen_theory(7, **kwargs)

    def test_force_acyclic(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, sup_density=0.4,
                           force_acyclic=True)
            assert check_well_formed(t).acyclic

    def test_force_well_formed(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, sup_density=0.4,
                           force_well_formed=True)
            assert check_well_formed(t).ok

    def test_force_normalized(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, num_facts=2,
                           strict_fraction=0.4, sup_density=0.2,
                           force_well_formed=True, force_normalized=True)
            assert check_normal(t).ok

    def test_unsatisfiable_params(self):
        with pytest.raises(ValueError, match="zero rules"):
            gen_theory(1, num_atoms=3, num_rules=0, sup_density=0.5)
        with pytest.raises(ValueError, match="num_atoms"):
            gen_theory(1, num_atoms=0, num_rules=3)
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            gen_theory(1, num_atoms=3, num_rules=-1)
        # Each fraction lies in [0, 1], but their sum may not exceed 1; it may equal 1.
        with pytest.raises(ValueError, match="^strict_fraction \\+ defeater_fraction must not "
                                             "exceed 1, not 0.7 \\+ 0.7$"):
            gen_theory(1, num_atoms=3, num_rules=3, strict_fraction=0.7, defeater_fraction=0.7)
        theory = gen_theory(1, num_atoms=3, num_rules=10, strict_fraction=0.6,
                            defeater_fraction=0.4)
        assert RuleKind.DEFEASIBLE not in {r.kind for r in theory.rules}

    @pytest.mark.parametrize("name", ["sup_density", "defeater_fraction", "strict_fraction"])
    @pytest.mark.parametrize("value", [-1.0, 1.5, float("nan")])
    def test_fractions_outside_unit_interval(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\]"):
            gen_theory(1, num_atoms=3, num_rules=3, **{name: value})

    def test_mints_only_the_atoms_it_draws(self):
        # Three rules use at most 3 * (1 + 3) atoms, however many may be drawn.
        before = len(Atom._shared)
        theory = gen_theory(1, num_atoms=10**9, num_rules=3)
        assert len(theory.rules) == 3
        assert len(Atom._shared) - before <= 12

    def test_zero_density_costs_linear_work(self):
        # Python and C calls made by `gen_theory`, counted with
        # `sys.setprofile`: deterministic, unlike a timing.  Linear work
        # grows 4x from n to 4n rules; drawing for every rule pair, 16x.
        def calls(n: int) -> int:
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event in ("call", "c_call")

            sys.setprofile(profile)
            try:
                gen_theory(1, num_atoms=50, num_rules=n)
            finally:
                sys.setprofile(None)
            return count

        assert calls(2000) <= 5 * calls(500)

    def test_cyclic_pairs_reachable_without_force_flags(self):
        seen_cycle = any(
            not check_well_formed(
                gen_theory(seed, num_atoms=4, num_rules=6, sup_density=0.5)
            ).acyclic
            for seed in range(40)
        )
        assert seen_cycle


class TestFailureDump:
    def test_writes_witness(self, tmp_path, example3):
        path = dump_failure(example3, "witness", tmp_path)
        assert path == tmp_path / "witness.dfl"
        assert parse(path.read_text()) == example3

    def test_env_var_fallback(self, tmp_path, monkeypatch, example2):
        monkeypatch.setenv("DEFLOG_FAIL_DIR", str(tmp_path / "dumps"))
        path = dump_failure(example2, "case")
        assert path is not None and path.exists()

    def test_noop_without_destination(self, monkeypatch, example2):
        monkeypatch.delenv("DEFLOG_FAIL_DIR", raising=False)
        assert dump_failure(example2, "case") is None
