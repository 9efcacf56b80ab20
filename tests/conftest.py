import random
import weakref
from pathlib import Path

import pytest

from deflog import (Atom, ConclusionSet, Literal, Rule, RuleKind, Tag, Theory, ground, parse,
                    pipeline)
from deflog.analysis import gen_theory
from deflog.engine import _Solver

GOLDEN = Path(__file__).parent / "golden"


def load(name: str, allow_generated: bool = False) -> Theory:
    return parse(GOLDEN.joinpath(name).read_text(), allow_generated=allow_generated)


@pytest.fixture(scope="session")
def example1() -> Theory:
    return load("example1.dfl")


@pytest.fixture(scope="session")
def example1_ground(example1) -> Theory:
    return ground(example1)


@pytest.fixture(scope="session")
def example2() -> Theory:
    return load("example2.dfl")


@pytest.fixture(scope="session")
def example3() -> Theory:
    return load("example3.dfl")


# Cyclic witnesses for the pair combinations reachable only with cyclic
# superiority.  The third one needs the extra pair r1 > r3 shielding the
# strict loop; without it the strict rule is an unanswered attacker and the
# positive literal drops from E to F (see test_analysis for the contrast).
DD_SOURCE = "r1: => p. r2: => ~p. r1 > r2. r2 > r1."
DE_SOURCE = "r1: p => p. r2: => ~p. r1 > r2. r2 > r1."
BE_SOURCE = "r1: p => p. r2: => ~p. r3: ~p -> ~p. r1 > r2. r2 > r1. r1 > r3."


def per_literal_restrict(c: ConclusionSet, atoms) -> ConclusionSet:
    """`ConclusionSet.restrict` by its definition: a literal stays when the
    spelling of its atom is among the spellings of `atoms`."""
    keep = {str(a) for a in atoms}
    return ConclusionSet(*(frozenset(l for l in c._set(tag) if str(l.atom) in keep)
                           for tag in Tag))


@pytest.fixture
def solvers(monkeypatch):
    """Weak references to the `_Solver`s built while a test runs."""
    built = []
    init = _Solver.__init__

    def tracked(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(_Solver, "__init__", tracked)
    return built


# --- generated-theory pools shared by the acceptance and oracle suites ------

@pytest.fixture(scope="session")
def general_pool():
    return [
        gen_theory(seed, num_atoms=6, num_rules=10, num_facts=2,
                   defeater_fraction=0.2, strict_fraction=0.3, sup_density=0.08)
        for seed in range(500)
    ]


@pytest.fixture(scope="session")
def normalized_pool():
    return [
        gen_theory(seed, num_atoms=5, num_rules=8,
                   defeater_fraction=0.2, strict_fraction=0.3, sup_density=0.2,
                   force_well_formed=True, force_normalized=True)
        for seed in range(500)
    ]


@pytest.fixture(scope="session")
def well_formed_pool():
    return [
        gen_theory(seed, num_atoms=5, num_rules=8, num_facts=2,
                   defeater_fraction=0.2, strict_fraction=0.3, sup_density=0.2,
                   force_well_formed=True)
        for seed in range(500)
    ]


@pytest.fixture(scope="session")
def multi_superior_pool():
    # Rules crowd onto two contested atoms, and every rule with at least two
    # rules for the complement of its head ranked above it in a shuffled
    # order gets 2-4 of them as superiors: acyclic, between complementary
    # heads, with defeaters and strict rules among the superiors.
    pool = []
    for seed in range(300):
        rng = random.Random(seed)
        atoms = [Atom(name) for name in "pqab"]

        def literal(among: list[Atom]) -> Literal:
            return Literal(rng.choice(among), rng.random() < 0.5)

        kinds = rng.choices(list(RuleKind), [1, 5, 2], k=rng.randint(10, 16))
        rules = [Rule(f"r{i}", frozenset(literal(atoms) for _ in range(rng.randint(0, 2))),
                      kind, literal(atoms[:2]))
                 for i, kind in enumerate(kinds)]
        rng.shuffle(rules)
        superiority = set()
        for i, inf in enumerate(rules):
            above = [sup.label for sup in rules[:i] if sup.head == inf.head.complement()]
            if len(above) >= 2:
                for sup in rng.sample(above, min(len(above), rng.randint(2, 4))):
                    superiority.add((sup, inf.label))
        facts = [literal(atoms[2:]) for _ in range(rng.randint(0, 2))]
        pool.append(Theory(facts, rules, superiority))
    return pool


@pytest.fixture(scope="session")
def schema_pool():
    # Schemas with 1-3 of the variables X, Y, Z over 1-3 constants, with
    # superiority pairs between random schemas, so the two sides of a pair
    # share 0, 1, 2 or 3 variables.  Some heads carry a constant too.
    pool = []
    for seed in range(300):
        rng = random.Random(seed)
        constants = [f"c{i}" for i in range(rng.randint(1, 3))]
        arity = {"p": 1, "q": 2, "s": 3}

        def literal(terms: list[str]) -> Literal:
            name = rng.choice(list(arity))
            return Literal(Atom(name, tuple(rng.choice(terms) for _ in range(arity[name]))),
                           rng.random() < 0.5)

        rules = []
        for i in range(rng.randint(2, 6)):
            variables = rng.sample("XYZ", rng.randint(1, 3))
            body = [literal(variables) for _ in range(rng.randint(0, 2))]
            head = Literal(Atom("s", tuple(rng.choice(variables + constants[:1])
                                           for _ in range(3))), rng.random() < 0.5)
            rules.append(Rule(f"r{i}", body, rng.choice(list(RuleKind)), head))
        pairs = {(a.label, b.label) for a, b in (rng.sample(rules, 2)
                                                 for _ in range(rng.randint(1, 4)))}
        facts = [literal(constants) for _ in range(rng.randint(1, 3))]
        pool.append(Theory(facts, rules, pairs))
    return pool


@pytest.fixture(scope="session")
def pipeline_pool(well_formed_pool):
    # Each output comes with the input's language: an atom occurring only in
    # defeater heads disappears from the rewritten theory, but its
    # refutations remain part of the conclusions being preserved, so the
    # output's conclusions are computed over these atoms as well.
    return [(t, pipeline(t)[0], {str(a) for a in t.sigma.atoms})
            for t in well_formed_pool]
