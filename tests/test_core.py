import copy
import gc
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deflog import (
    Atom,
    ConclusionSet,
    Derivation,
    DerivationLine,
    GroundingError,
    Literal,
    NormalFormReport,
    Outcome,
    PairStatus,
    PairVerdict,
    Rule,
    RuleKind,
    Sigma,
    Tag,
    TaggedLiteral,
    Theory,
    TheoryError,
    TransformReport,
    WellFormedReport,
    check_normal,
    check_well_formed,
    ground,
    parse,
    print_theory,
    theory_union,
)
from deflog.analysis import gen_theory

from conftest import DD_SOURCE


def lit(name: str, positive: bool = True, args: tuple = ()) -> Literal:
    return Literal(Atom(name, args), positive)


class TestComplement:
    def test_flips_polarity(self):
        assert lit("p").complement() == lit("p", False)
        assert lit("p", False).complement() == lit("p")

    def test_involution_on_ground_atom(self):
        flies = lit("flies", args=("tweety",))
        assert flies.complement().complement() == flies

    @given(st.text(alphabet="abcdef", min_size=1), st.booleans())
    def test_involution(self, name, positive):
        l = Literal(Atom(name), positive)
        assert l.complement().complement() == l


class TestWellFormed:
    def test_cyclic_two_rule_theory(self):
        report = check_well_formed(parse(DD_SOURCE))
        assert not report.acyclic
        assert report.complementary

    def test_example1(self, example1_ground):
        report = check_well_formed(example1_ground)
        assert report.acyclic and report.complementary

    def test_non_complementary_heads(self):
        report = check_well_formed(parse("r: => p. s: => q. r > s."))
        assert report.acyclic
        assert not report.complementary

    def test_empty_superiority_is_acyclic(self):
        for seed in range(20):
            t = gen_theory(seed, num_atoms=4, num_rules=5)
            assert check_well_formed(t).acyclic

    def test_self_pair_is_cyclic(self):
        assert not check_well_formed(parse("r: => p. r > r.")).acyclic


class TestCheckNormal:
    def test_normalized_example2(self, example2):
        from deflog import normal

        report = check_normal(normal(example2)[0])
        assert report.literal_rule_condition
        assert report.no_strict_in_sup
        assert report.no_facts

    def test_example2_has_facts(self, example2):
        assert not check_normal(example2).no_facts

    def test_empty_theory(self):
        report = check_normal(Theory())
        assert report.literal_rule_condition and report.no_strict_in_sup and report.no_facts

    def test_two_strict_plus_defeasible_breaks_condition(self):
        t = parse("r1: a -> p. r2: b -> p. r3: => p.")
        assert not check_normal(t).literal_rule_condition

    def test_strict_in_superiority(self):
        t = parse("r1: -> p. r2: => ~p. r1 > r2.")
        assert not check_normal(t).no_strict_in_sup


class TestGround:
    def test_example1_instances(self, example1, example1_ground):
        assert len(example1_ground.rules) == 4
        assert len(example1_ground.facts) == 4
        assert example1_ground.superiority == {
            ("r1[platypus]", "r3[platypus]"),
            ("r2[platypus]", "r4[platypus]"),
        }

    def test_identity_on_ground_theory(self, example3):
        assert ground(example3) is example3

    def test_idempotent(self, example1):
        once = ground(example1)
        assert ground(once) == once

    def test_two_constants(self):
        t = parse("p(a). p(b). r: p(X) => q(X).")
        g = ground(t)
        assert {r.label for r in g.rules} == {"r[a]", "r[b]"}
        assert all(r.is_ground for r in g.rules)

    def test_atom_names_preserved(self, example1, example1_ground):
        schema_names = {a.name for a in example1.atoms}
        assert {a.name for a in example1_ground.atoms} <= schema_names

    def test_empty_universe(self):
        with pytest.raises(GroundingError, match="empty Herbrand universe"):
            ground(parse("r: p(X) => q(X)."))

    def test_variable_in_api_built_fact(self):
        # The parser rejects such a fact; a theory built in code reaches `ground`.
        with pytest.raises(GroundingError, match=r"^variables are not allowed in facts: p\(X\)$"):
            ground(Theory([lit("p", args=("X",))]))

    def test_shared_variables_couple_superiority(self):
        t = parse("p(a). p(b). r: p(X) => q(X). s: p(X) => ~q(X). r > s.")
        g = ground(t)
        assert g.superiority == {("r[a]", "s[a]"), ("r[b]", "s[b]")}

    def test_unshared_variables_cross_product(self):
        t = parse("p(a). p(b). r: p(X) => q(X). s: p(Y) => ~q(Y). r > s.")
        g = ground(t)
        assert g.superiority == {
            ("r[a]", "s[a]"), ("r[a]", "s[b]"), ("r[b]", "s[a]"), ("r[b]", "s[b]"),
        }

    def test_schema_pool_against_brute_force(self, schema_pool):
        """Every instance is its schema under one assignment, and instances
        of a superiority pair are ranked iff they agree on every shared
        variable, checked over all instance pairs."""
        shared_counts = set()
        for theory in schema_pool:
            g = ground(theory)
            by_label = {r.label: r for r in g.rules}
            constants = sorted({a for atom in theory.atoms for a in atom.args
                                if not a[0].isupper()})
            # Per schema label: its instances, each with its assignment.
            instances = {}
            for rule in theory.rules:
                variables = sorted({a for l in (rule.head, *rule.antecedent)
                                    for a in l.atom.args if a[0].isupper()})
                instances[rule.label] = []
                for values in itertools.product(constants, repeat=len(variables)):
                    binding = dict(zip(variables, values))

                    def bind(l: Literal) -> Literal:
                        args = tuple(binding.get(a, a) for a in l.atom.args)
                        return Literal(Atom(l.atom.name, args), l.positive)

                    label = f"{rule.label}[{','.join(values)}]" if values else rule.label
                    assert by_label[label] == Rule(label, map(bind, rule.antecedent),
                                                   rule.kind, bind(rule.head))
                    instances[rule.label].append((label, binding))
            assert len(g.rules) == sum(map(len, instances.values()))
            expected = set()
            for sup, inf in theory.superiority:
                for label1, binding1 in instances[sup]:
                    for label2, binding2 in instances[inf]:
                        shared = binding1.keys() & binding2.keys()
                        shared_counts.add(len(shared))
                        if all(binding1[v] == binding2[v] for v in shared):
                            expected.add((label1, label2))
            assert g.superiority == expected, print_theory(theory)
        assert shared_counts == {0, 1, 2, 3}

    def test_superiority_costs_linear_work(self):
        # Python-level calls made by `ground`, counted as the benchmark's
        # traced runs count them.  Two-variable schemas that share both
        # variables have 16x the instances and pairs at 4x the constants;
        # comparing every instance pair costs 256x.
        def calls(n: int) -> int:
            theory = parse(" ".join(f"p(c{i})." for i in range(n))
                           + " r1: p(X), p(Y) => q(X,Y). r2: p(X), p(Y) => ~q(X,Y). r1 > r2.")
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"

            sys.setprofile(profile)
            try:
                ground(theory)
            finally:
                sys.setprofile(None)
            return count

        assert calls(20) <= 20 * calls(5)


class TestTheory:
    def test_duplicate_label_rejected(self):
        rule = parse("r: => p.").rules[0]
        other = parse("r: => q.").rules[0]
        with pytest.raises(TheoryError, match="duplicate label"):
            Theory((), (rule, other))

    @pytest.mark.parametrize("build, message", [
        (lambda: Atom(""), "atom name must be nonempty"),
        (lambda: Rule("", (), RuleKind.STRICT, lit("p")), "rule label must be nonempty"),
    ], ids=["atom", "rule"])
    def test_empty_names_rejected(self, build, message):
        with pytest.raises(TheoryError, match=f"^{message}$"):
            build()

    def test_superiority_must_resolve(self):
        with pytest.raises(TheoryError, match="unknown label"):
            Theory((), (), frozenset({("r1", "r2")}))

    def test_structural_equality_ignores_order(self):
        t1 = parse("p. q. r1: => p. r2: => q.")
        t2 = parse("q. p. r2: => q. r1: => p.")
        assert t1 == t2

    def test_union_merges_and_dedupes(self):
        t1 = parse("p. r1: => q.")
        t2 = parse("p. r2: q => s.")
        u = theory_union(t1, t2)
        assert len(u.facts) == 1
        assert {r.label for r in u.rules} == {"r1", "r2"}

    def test_union_conflicting_label(self):
        with pytest.raises(TheoryError, match="conflicting"):
            theory_union(parse("r: => p."), parse("r: => q."))

    def test_sigma_excludes_generated(self, example2):
        from deflog import normal

        n, _ = normal(example2)
        assert {str(a) for a in n.sigma.atoms} == {"a", "b", "c", "d", "e"}
        assert all("$" not in label for label in n.sigma.labels)

    def test_size_counts_facts_rules_and_pairs(self):
        assert Theory().size() == 0
        assert parse("p. q. r1: => s. r2: => ~s. r1 > r2.").size() == 5

    @pytest.mark.parametrize("source, generated", [
        ("r: p => q. r > r.", False),
        ("r: p => $p(q).", True),
        ("r$p: p => q.", True),
    ], ids=["user", "atom", "label"])
    def test_has_generated_symbols(self, source, generated):
        assert parse(source, allow_generated=True).has_generated_symbols is generated

    def test_sigma_of_source_theory(self, example2):
        assert {str(a) for a in example2.sigma.atoms} == {"a", "b", "c", "d", "e"}
        assert example2.sigma.labels == {"r1", "r2", "r3", "r4"}


def _value_cases() -> list[tuple[object, tuple[str, ...], str]]:
    """One instance of each value type, its field names in order, and its repr."""
    p = lit("p")
    p_repr = "Literal(atom=Atom(name='p', args=()), positive=True)"
    rule = Rule("r", frozenset({p}), RuleKind.DEFEASIBLE, lit("q", False))
    rule_repr = (f"Rule(label='r', antecedent=frozenset({{{p_repr}}}), "
                 "kind=<RuleKind.DEFEASIBLE: '=>'>, "
                 "head=Literal(atom=Atom(name='q', args=()), positive=False))")
    tagged = TaggedLiteral(Tag.PLUS_DELTA, p)
    tagged_repr = f"TaggedLiteral(tag=<Tag.PLUS_DELTA: '+D'>, literal={p_repr})"
    line = DerivationLine(tagged, "fact", (), ())
    line_repr = f"DerivationLine(conclusion={tagged_repr}, clause='fact', rules=(), premises=())"
    empty = "frozenset()"
    return [
        (Atom("g", ("c",)), ("name", "args"), "Atom(name='g', args=('c',))"),
        (p, ("atom", "positive"), p_repr),
        (rule, ("label", "antecedent", "kind", "head"), rule_repr),
        (tagged, ("tag", "literal"), tagged_repr),
        (Theory((p,), (rule,)), ("facts", "rules", "superiority"),
         f"Theory(facts=({p_repr},), rules=({rule_repr},), superiority={empty})"),
        (Sigma(frozenset(), frozenset({"r"})), ("atoms", "labels"),
         f"Sigma(atoms={empty}, labels=frozenset({{'r'}}))"),
        (ConclusionSet(frozenset({p}), frozenset(), frozenset({p}), frozenset()),
         ("plus_delta", "minus_delta", "plus_partial", "minus_partial"),
         f"ConclusionSet(plus_delta=frozenset({{{p_repr}}}), minus_delta={empty}, "
         f"plus_partial=frozenset({{{p_repr}}}), minus_partial={empty})"),
        (line, ("conclusion", "clause", "rules", "premises"), line_repr),
        (Derivation((line,)), ("lines",), f"Derivation(lines=({line_repr},))"),
        (WellFormedReport(True, False), ("acyclic", "complementary"),
         "WellFormedReport(acyclic=True, complementary=False)"),
        (NormalFormReport(True, False, True),
         ("literal_rule_condition", "no_strict_in_sup", "no_facts"),
         "NormalFormReport(literal_rule_condition=True, no_strict_in_sup=False, "
         "no_facts=True)"),
        (PairVerdict(Outcome.B, Outcome.F, PairStatus.POSS),
         ("outcome_p", "outcome_not_p", "status"),
         "PairVerdict(outcome_p=<Outcome.B: 'B'>, outcome_not_p=<Outcome.F: 'F'>, "
         "status=<PairStatus.POSS: 'Poss'>)"),
        (TransformReport(1, 2, 3, 4, 5, 6, {"$p(a)": "fact a"}),
         ("input_facts", "input_rules", "input_superiority", "output_facts",
          "output_rules", "output_superiority", "origins"),
         "TransformReport(input_facts=1, input_rules=2, input_superiority=3, output_facts=4, "
         "output_rules=5, output_superiority=6, origins={'$p(a)': 'fact a'})"),
    ]


VALUE_CASES = _value_cases()


@pytest.mark.parametrize("value, names, expected_repr", VALUE_CASES,
                         ids=[type(case[0]).__name__ for case in VALUE_CASES])
class TestValueTypes:
    """The contract the value types kept from their frozen-dataclass days."""

    def test_repr(self, value, names, expected_repr):
        assert repr(value) == expected_repr

    def test_keyword_construction(self, value, names, expected_repr):
        values = tuple(getattr(value, name) for name in names)
        assert type(value)(**dict(zip(names, values))) == value
        assert type(value)(*values) == value

    def test_hash_is_the_hash_of_the_field_tuple(self, value, names, expected_repr):
        values = tuple(getattr(value, name) for name in names)
        if isinstance(value, (Atom, Literal)):
            # Hash-consed: the field tuple picks the one shared object, whose
            # hash is its identity hash (see `TestOneObjectPerValue`).
            assert type(value)(*values) is value
            assert hash(value) == object.__hash__(value) == hash(type(value)(*values))
        elif isinstance(value, TransformReport):
            with pytest.raises(TypeError):  # `origins` is a dict
                hash(value)
        elif isinstance(value, Theory):  # order-insensitive, as its equality
            assert hash(value) == hash((frozenset(value.facts), frozenset(value.rules),
                                        value.superiority))
        else:
            assert hash(value) == hash(values)

    def test_immutable(self, value, names, expected_repr):
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, names[0])

    def test_pickle_and_copy_round_trip(self, value, names, expected_repr):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value
            assert repr(twin) == expected_repr

    def test_never_equal_to_a_tuple(self, value, names, expected_repr):
        values = tuple(getattr(value, name) for name in names)
        assert value != values and values != value


class TestOneObjectPerValue:
    """Atoms and literals are hash-consed: one object per value."""

    def pool(self) -> list:
        atoms = [Atom("p"), Atom("p", ("c",)), Atom("p", ("d",)), Atom("q", ("c",))]
        return atoms + [Literal(atom, positive) for atom in atoms for positive in (True, False)]

    def test_equal_means_identical(self):
        assert Atom("p", ["c"]) is Atom("p", ("c",)) is Atom(name="p", args=iter(["c"]))
        assert Literal(Atom("p", ["c"]), False) is Literal(atom=Atom("p", ("c",)), positive=False)
        pool, twins = self.pool(), self.pool()
        for x, twin in zip(pool, twins):
            assert twin is x
            for y in pool:
                assert (x == y) == (x is y)

    def test_an_atom_is_spelled_once_when_minted(self):
        name = "".join(["spelled", "_once"])  # fresh: no other test builds it
        bare, applied = Atom(name), Atom(name, ("a", "b"))
        assert str(bare) is name  # an argument-less atom's spelling is its name
        assert str(applied) == "spelled_once(a,b)" and str(applied) is str(applied)
        assert str(Literal(applied, False)) == "~spelled_once(a,b)"

    def test_identity_hash_and_equality_run_in_c(self):
        for x in self.pool():
            assert type(x).__hash__ is object.__hash__ and type(x).__eq__ is object.__eq__
            assert not hasattr(x, "_hash")

    @pytest.mark.parametrize("first, second", [(1, True), (True, 1), (0, False), (False, 0)])
    def test_sign_is_a_bool_however_spelled(self, first, second):
        atom = Atom(f"sign_{first!r}_{second!r}")  # fresh: no other test builds it
        literal = Literal(atom, first)
        assert Literal(atom, second) is literal
        assert literal.positive is bool(first)
        assert literal.complement().positive is (not first)
        assert Literal(atom, not first) is literal.complement()

    def test_literal_of_a_non_atom_raises(self):
        for atom in ("zz", None, ("zz", ()), Literal(Atom("p"))):
            with pytest.raises(TypeError, match="must be an Atom"):
                Literal(atom)

    def test_literals_add_no_tracked_object(self):
        # An atom is built with its two literals, so asking for them, or for
        # their complements, allocates nothing the collector tracks.
        atoms = [Atom(f"untracked{i}") for i in range(1000)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            built = [x for atom in atoms for literal in (Literal(atom), Literal(atom, False))
                     for x in (literal, literal.complement())]
            added = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert len(set(built)) == 2000
        assert added <= 1  # the list `built`

    def test_pickle_and_copy_return_the_shared_object(self):
        for x in self.pool():
            for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert twin is x

    def test_threads_never_build_twins(self):
        # Eight threads build the same new literals at once, switching as
        # often as the interpreter allows; each value must get one object.
        names = [f"twin{i}" for i in range(2000)]
        results: list = [None] * 8
        start = threading.Barrier(len(results), timeout=60)

        def build(k: int) -> None:
            start.wait()
            results[k] = [Literal(Atom(name, ("c",)), k % 2 == 0).complement()
                          for name in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for k, built in enumerate(results):
            assert len(built) == len(names)
            assert all(x is y.complement() for x, y in zip(built, results[k ^ 1]))
            assert all(x is y for x, y in zip(built, results[k % 2]))


def test_distinct_transform_reports_have_distinct_origins():
    first, second = TransformReport(0, 0, 0, 0, 0, 0), TransformReport(0, 0, 0, 0, 0, 0)
    first.origins["x"] = "y"
    assert second.origins == {}


def test_theory_keeps_cached_views():
    theory = parse("p. r: p => q.")
    assert theory.atoms is theory.atoms
    assert theory.rule_map is theory.rule_map
    assert pickle.loads(pickle.dumps(theory)).atoms == theory.atoms


def test_wrong_arguments_raise_type_error():
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        Literal(Atom("p"), True, "extra")
    with pytest.raises(TypeError):
        Rule("r", frozenset(), RuleKind.STRICT, head=lit("p"), kind=RuleKind.STRICT)
