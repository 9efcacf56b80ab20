import os
import subprocess
import sys
from pathlib import Path

import pytest

from deflog import (
    Atom,
    ConclusionSet,
    Derivation,
    DerivationLine,
    Literal,
    Mode,
    PreconditionError,
    Tag,
    TaggedLiteral,
    Theory,
    conclusions,
    elim_sup,
    equivalent,
    ground,
    normal,
    parse,
    pipeline,
    prove,
    replay,
)
from deflog.analysis import classify_pair, gen_theory
from deflog.engine import _TAGS, _Solver, _solved

from conftest import GOLDEN, per_literal_restrict


def lit(name: str, positive: bool = True, args: tuple = ()) -> Literal:
    return Literal(Atom(name, args), positive)


P = lit("p")
NOT_P = lit("p", False)


def derivation_listing(name: str, theory: Theory) -> str:
    """`str()` of the derivation of every provable goal, under a `%` header,
    with each line's premises as line numbers (`3<-1,2`)."""
    out = []
    for atom in sorted(theory.atoms, key=str):
        for literal in (Literal(atom), Literal(atom, False)):
            for tag in Tag:
                goal = TaggedLiteral(tag, literal)
                derivation = prove(theory, goal)
                if derivation is None:
                    continue
                number = {line.conclusion: i for i, line in enumerate(derivation.lines, 1)}
                premises = "".join(
                    f" {i}<-{','.join(str(number[p]) for p in line.premises)}"
                    for i, line in enumerate(derivation.lines, 1) if line.premises)
                out.append(f"% {name}: {goal}\n{derivation}\n% premises{premises}\n")
    return "\n".join(out)


def solver_log(name: str, theory: Theory) -> str:
    """The log of a fresh `_Solver` run on `theory`, one tagged literal per
    line, in the order derived, under a `%` header."""
    solver = _Solver(theory)
    solver.run()
    return "".join([f"% {name}\n", *(f"{_TAGS[x & 3].value} {solver.literals[x >> 2]}\n"
                                       for x in solver.log)])


class TestConclusions:
    def test_example1_team_defeat(self, example1_ground):
        c = conclusions(example1_ground)
        mammal = lit("mammal", args=("platypus",))
        assert c.has(Tag.PLUS_PARTIAL, mammal)
        assert c.has(Tag.MINUS_PARTIAL, mammal.complement())
        assert not c.has(Tag.PLUS_DELTA, mammal)

    def test_strict_loop_proves_nothing_about_p(self):
        c = conclusions(parse("r: p -> p."))
        assert not any(c.has(tag, P) for tag in Tag)

    def test_empty_theory_refutes_everything(self):
        c = conclusions(parse(""), extra_atoms=["p"])
        for q in (P, NOT_P):
            assert c.has(Tag.MINUS_DELTA, q)
            assert c.has(Tag.MINUS_PARTIAL, q)
        assert not c.plus_delta and not c.plus_partial

    def test_defeasible_with_strict_loop(self):
        c = conclusions(parse("r1: => p. r2: p -> p."))
        assert c.has(Tag.PLUS_PARTIAL, P)
        assert not c.has(Tag.PLUS_DELTA, P)
        assert not c.has(Tag.MINUS_DELTA, P)

    def test_elim_sup_example3_output(self, example3):
        out, _ = elim_sup(example3)
        c = conclusions(out)
        f = lit("f")
        assert c.has(Tag.MINUS_PARTIAL, f)
        assert c.has(Tag.MINUS_PARTIAL, f.complement())
        assert c.has(Tag.PLUS_PARTIAL, Literal(Atom("$im(r6)"), False))

    def test_defeater_blocks_but_never_supports(self):
        c = conclusions(parse("d: ~> p. r: => ~p."))
        assert c.has(Tag.MINUS_PARTIAL, NOT_P)
        assert not c.has(Tag.PLUS_PARTIAL, P)

    def test_requires_ground_theory(self):
        with pytest.raises(PreconditionError, match="ground"):
            conclusions(parse("r: p(X) => q(X)."))

    def test_superiority_between_non_complementary_heads_is_inert(self):
        with_pair = conclusions(parse("r1: => p. r2: => q. r1 > r2."))
        without = conclusions(parse("r1: => p. r2: => q."))
        assert with_pair == without


class TestSpelling:
    """`restrict` and `lines` read the spelling each atom keeps from its
    mint and call no `str`; both must agree with their definitions by `str`
    on every literal."""

    @staticmethod
    def cases(theories):
        # Each theory's conclusions, widened by the argument-less twin of
        # every atom with arguments (`Atom("g(c)")` beside `g(c)`) and by an
        # atom it does not mention, with selections of atoms to keep.
        for theory in theories:
            atoms = sorted(theory.atoms, key=str)
            twins = [Atom(str(a)) for a in atoms if a.args]
            c = conclusions(theory, extra_atoms=[*twins, "zz"])
            yield c, [atoms, atoms[::2], [str(a) for a in atoms[1::2]], twins,
                      [*atoms[:1], "zz", "absent", "g(c)"], []]

    @pytest.mark.parametrize("pool", ["general_pool", "multi_superior_pool", "schema_pool",
                                      "pipeline_pool"])
    def test_restrict_and_lines_match_their_definitions(self, pool, request):
        theories = request.getfixturevalue(pool)
        if pool == "schema_pool":
            theories = [ground(t) for t in theories]
        elif pool == "pipeline_pool":
            theories = [out for _, out, _ in theories]
        for c, selections in self.cases(theories):
            assert c.lines() == [f"{tag.value} {literal}" for tag in Tag
                                 for literal in sorted(map(str, c._set(tag)))]
            for atoms in selections:
                assert c.restrict(atoms) == per_literal_restrict(c, atoms)

    def test_an_argument_less_twin_matches_by_spelling(self):
        theory = ground(parse("f(c). r: f(X) => g(X)."))
        g, twin = Atom("g", ("c",)), Atom("g(c)")
        c = conclusions(theory, extra_atoms=[twin])
        both = {Literal(g), Literal(twin)}
        for atoms in ([g], [twin], ["g(c)"]):
            kept = c.restrict(atoms)
            assert kept.plus_partial == {Literal(g)}
            assert {l.atom for l in kept.minus_partial} == {g, twin}
            assert both <= kept.minus_delta
            assert kept == per_literal_restrict(c, atoms)
        # Both atoms spell `-D g(c)`, so the listing holds that line twice.
        assert c.lines().count("-D g(c)") == 2


class TestReducedMode:
    def test_rejects_facts(self):
        with pytest.raises(PreconditionError, match="reduced mode precondition"):
            conclusions(parse("p."), Mode.REDUCED)

    def test_rejects_defeaters(self):
        with pytest.raises(PreconditionError, match="reduced mode precondition"):
            conclusions(parse("d: ~> p."), Mode.REDUCED)

    def test_rejects_superiority(self):
        with pytest.raises(PreconditionError, match="reduced mode precondition"):
            conclusions(parse("r1: => p. r2: => ~p. r1 > r2."), Mode.REDUCED)

    def test_agrees_with_full_mode(self):
        for seed in range(40):
            t = gen_theory(seed, num_atoms=5, num_rules=8, strict_fraction=0.3)
            assert conclusions(t, Mode.FULL) == conclusions(t, Mode.REDUCED)


class TestInvariants:
    def test_structural_relations_hold_on_varied_theories(self):
        for seed in range(60):
            t = gen_theory(seed, num_atoms=6, num_rules=10, num_facts=2,
                           defeater_fraction=0.2, strict_fraction=0.3,
                           sup_density=0.1)
            conclusions(t).validate()  # raises on violation

    def test_strict_conclusions_are_defeasible(self):
        for seed in range(30):
            t = gen_theory(seed, num_atoms=5, num_rules=8, num_facts=2,
                           strict_fraction=0.5)
            c = conclusions(t)
            assert c.plus_delta <= c.plus_partial

    def test_derived_count_bounded(self, example3):
        c = conclusions(example3)
        literal_count = 2 * len(example3.atoms)
        total = (len(c.plus_delta) + len(c.minus_delta)
                 + len(c.plus_partial) + len(c.minus_partial))
        assert total <= 4 * literal_count

    # Which sets hold `p`, in field order.  +D and -d disjoint follows from
    # the second and third relations, so `validate` does not check it.
    @pytest.mark.parametrize("holds, message", [
        ("1000", "+D must imply +d"),
        ("0001", "-d must imply -D"),
        ("1110", "+D and -D must be disjoint"),
        ("0111", "+d and -d must be disjoint"),
    ])
    def test_validate_names_the_broken_relation(self, holds, message):
        sets = [frozenset({P}) if bit == "1" else frozenset() for bit in holds]
        with pytest.raises(AssertionError) as error:
            ConclusionSet(*sets).validate()
        assert str(error.value) == message

    def test_checks_raise_under_python_O(self):
        # `-O` strips `assert` statements; these three checks raise explicitly.
        code = """if True:
            import sys
            from deflog import (Atom, ConclusionSet, Literal, Tag, TaggedLiteral, classify,
                                parse, prove)
            from deflog.engine import _solved
            p, none = Literal(Atom("p")), frozenset()
            only_p = frozenset({p})
            theory, goal = parse("r: => p."), TaggedLiteral(Tag.PLUS_PARTIAL, p)
            print(sys.flags.optimize, prove(theory, goal) is not None)
            # `-D ~p`, the logged line `+d p` rests on, moves after it in the
            # log, so no condition holds for `+d p` (entry 2).
            _solved(theory).seq[1 << 2 | 1] = 9
            for check in (lambda: ConclusionSet(only_p, only_p, none, none).validate(),
                          lambda: classify(ConclusionSet(none, none, only_p, only_p), p),
                          lambda: prove(theory, goal)):
                try:
                    print("returned", check())
                except AssertionError as error:
                    print(error)
        """
        src = str(Path(__file__).parent.parent / "src")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.splitlines() == [
            "1 True",
            "+D must imply +d",
            "outcomes [<Outcome.B: 'B'>, <Outcome.F: 'F'>] for p: not a partition",
            "no condition holds for logged entry 2",
        ]


class TestProve:
    def test_one_line_definite_proof(self):
        d = prove(parse("r: -> p."), TaggedLiteral(Tag.PLUS_DELTA, P))
        assert d is not None
        assert len(d.lines) == 1
        assert d.conclusion == TaggedLiteral(Tag.PLUS_DELTA, P)
        assert d.lines[0].rules == ("r",)

    def test_strict_loop_refutation_unprovable(self):
        assert prove(parse("r: p -> p."), TaggedLiteral(Tag.MINUS_DELTA, P)) is None

    def test_overridden_complement_unprovable(self, example1_ground):
        goal = TaggedLiteral(Tag.PLUS_PARTIAL, lit("mammal", False, ("platypus",)))
        assert prove(example1_ground, goal) is None

    def test_unknown_atom(self, example1_ground):
        with pytest.raises(PreconditionError, match="unknown atom"):
            prove(example1_ground, TaggedLiteral(Tag.PLUS_DELTA, lit("unicorn")))

    def test_requires_ground_theory(self):
        # q(c) is an atom only of the grounded theory: the precondition is
        # what fails, not the lookup of the goal.
        goal = TaggedLiteral(Tag.PLUS_PARTIAL, lit("q", args=("c",)))
        with pytest.raises(PreconditionError, match="theory is not ground"):
            prove(parse("f(c). r: f(X) => q(X)."), goal)

    def test_agrees_with_conclusions(self, example3):
        c = conclusions(example3)
        for atom in example3.atoms:
            for q in (Literal(atom), Literal(atom, False)):
                for tag in Tag:
                    goal = TaggedLiteral(tag, q)
                    assert (prove(example3, goal) is not None) == c.has(tag, q)

    def test_proofs_replay(self, example3):
        c = conclusions(example3)
        for atom in example3.atoms:
            for tag in Tag:
                goal = TaggedLiteral(tag, Literal(atom))
                d = prove(example3, goal)
                if d is not None:
                    assert replay(example3, d)
                    assert d.conclusion == goal

    def test_derivations_match_golden(self, example3, example1_ground):
        # Every provable goal: the lines, their order, clauses, rules and
        # premises.  The generated theory has an attack that is both blocked
        # and countered, and antecedents whose order picks the premises.
        seeded = gen_theory(49, num_atoms=6, num_rules=10, num_facts=2, defeater_fraction=0.2,
                            strict_fraction=0.3, sup_density=0.08)
        produced = "\n".join([derivation_listing("example3", example3),
                               derivation_listing("example1, grounded", example1_ground),
                               derivation_listing("gen_theory seed 49", seeded)])
        assert produced == (GOLDEN / "derivations.txt").read_text()

    def test_solver_log_matches_golden(self, example1_ground):
        # The order of the log is the order `prove` picks premises from, so
        # a change to the solver may reorder neither.  Four shapes: general
        # rules with surviving superiority pairs, defeater-heavy rules, a
        # `pipeline` output (no superiority pair survives compilation) and a
        # grounded schema.
        general = gen_theory(32, num_atoms=6, num_rules=10, num_facts=2, defeater_fraction=0.2,
                             strict_fraction=0.3, sup_density=0.08)
        defeaters = gen_theory(6, num_atoms=5, num_rules=12, num_facts=1, defeater_fraction=0.5,
                               strict_fraction=0.2, sup_density=0.15)
        well_formed = gen_theory(22, num_atoms=5, num_rules=8, num_facts=2, defeater_fraction=0.2,
                                 strict_fraction=0.3, sup_density=0.2, force_well_formed=True)
        produced = "".join([solver_log("gen_theory seed 32", general),
                            solver_log("gen_theory seed 6, defeater-heavy", defeaters),
                            solver_log("pipeline of gen_theory seed 22, well-formed",
                                       pipeline(well_formed)[0]),
                            solver_log("example1, grounded", example1_ground)])
        assert produced == (GOLDEN / "solver_log.txt").read_text()

    def test_derivations_do_not_depend_on_string_hashes(self):
        """Antecedents are sets of literals, which hash by identity, so they
        iterate in an order that follows memory addresses; string sets
        follow the process's string hashes.  Neither may change the
        derivations `prove` returns, premises included, nor the Python-level
        calls that `prove` and `replay` make: not the hash seed, not objects
        allocated before, and not which call solved the theory first:
        `prove` itself, `conclusions` with extra atoms, or reduced-mode
        `conclusions` (on the theories that admit it)."""
        code = """if True:
            import hashlib, sys
            from deflog import (Atom, Literal, Mode, PreconditionError, Tag, TaggedLiteral,
                                conclusions, prove, replay)
            from deflog.analysis import gen_theory
            unrelated = [Literal(Atom(f"u{i}", ("c",)), i % 2 == 0)
                         for i in range(int(sys.argv[2]))]
            first = {"prove": lambda t: None,
                     "extras": lambda t: conclusions(t, extra_atoms=["zz", "a"]),
                     "reduced": lambda t: conclusions(t, Mode.REDUCED)}[sys.argv[1]]
            calls = 0

            def tally(frame, event, arg):
                global calls
                calls += event == "call"

            def counted(fn, *args):
                sys.setprofile(tally)
                try:
                    return fn(*args)
                finally:
                    sys.setprofile(None)

            general = dict(num_facts=2, defeater_fraction=0.2, sup_density=0.08)
            digest, count = hashlib.sha256(), 0
            for seed in range(150):
                t = gen_theory(seed, num_atoms=6, num_rules=10, strict_fraction=0.3,
                               **(general if seed < 100 else {}))
                try:
                    first(t)
                except PreconditionError:
                    pass
                # Solves, if `first` did not, outside the count.
                prove(t, TaggedLiteral(Tag.PLUS_DELTA, Literal(min(t.atoms, key=str))))
                for atom in sorted(t.atoms, key=str):
                    for tag in Tag:
                        for positive in (True, False):
                            d = counted(prove, t, TaggedLiteral(tag, Literal(atom, positive)))
                            if d is not None:
                                assert counted(replay, t, d)
                                digest.update(repr(d).encode() + b"\\0")
                                count += 1
            print(count, calls, digest.hexdigest())
        """
        src = str(Path(__file__).parent.parent / "src")
        runs = [(seed, first, "0") for seed in ("0", "1") for first in ("prove", "extras", "reduced")]
        runs += [(seed, "prove", "5000") for seed in ("0", "1")]
        outputs = {
            subprocess.run([sys.executable, "-c", code, first, unrelated], capture_output=True,
                           text=True, check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed, first, unrelated in runs
        }
        assert len(outputs) == 1, outputs


class TestOneSolvePerTheory:
    def test_a_library_job_solves_the_input_and_its_pipeline_output_once_each(self, solvers):
        # The acceptance suite's traffic on one theory: the input is solved
        # once, with Σ as extra atoms, for every later call on it.
        theory = gen_theory(3, num_atoms=6, num_rules=10, num_facts=2, defeater_fraction=0.2,
                            strict_fraction=0.3, sup_density=0.2, force_well_formed=True)
        result, _ = pipeline(theory)
        assert equivalent(theory, result)
        found = conclusions(theory)
        for atom in sorted(theory.atoms, key=str):
            classify_pair(found, Literal(atom))
        for tag in (Tag.PLUS_PARTIAL, Tag.MINUS_DELTA, Tag.MINUS_PARTIAL):
            prove(theory, TaggedLiteral(tag, Literal(min(theory.atoms, key=str))))
        assert len(solvers) == 2

    def test_both_modes_and_prove_share_one_solve(self, solvers):
        theory = gen_theory(5, num_atoms=6, num_rules=10, strict_fraction=0.3)
        full = conclusions(theory, extra_atoms=["zz"])
        assert conclusions(theory, Mode.REDUCED) == full.restrict(theory.atoms)
        for atom in theory.atoms:
            for tag in Tag:
                goal = TaggedLiteral(tag, Literal(atom))
                assert (prove(theory, goal) is not None) == (goal in full)
        assert len(solvers) == 1

    def test_extra_atoms_are_refuted_without_a_new_solve(self, solvers):
        theory = parse("r1: a => p. r2: => ~p.")
        c = conclusions(theory, extra_atoms=["zz", Atom("q", ("c",)), "a", "p"])
        for q in (lit("zz"), lit("zz", False), lit("q", True, ("c",)), lit("q", False, ("c",))):
            assert c.has(Tag.MINUS_DELTA, q) and c.has(Tag.MINUS_PARTIAL, q)
            assert not c.has(Tag.PLUS_DELTA, q) and not c.has(Tag.PLUS_PARTIAL, q)
        assert c.restrict(theory.atoms) == conclusions(theory)
        assert c.has(Tag.PLUS_PARTIAL, NOT_P)
        assert len(solvers) == 1

    def test_conclusions_do_not_read_literal_numbers(self):
        # After compilation only `prove` reads the solver's `ids`; extra
        # atoms are tested against the theory's own atoms.
        theory = parse("r1: a => p. r2: => ~p.")
        extra = ["zz", Atom("q", ("c",)), "a", "p"]
        expected = conclusions(theory, extra_atoms=extra)
        del vars(_solved(theory))["ids"]
        assert conclusions(theory, extra_atoms=extra) == expected

    def test_a_kept_solve_holds_only_the_numbering_and_the_log(self):
        # `run` takes the compile tables out as it starts; `prove` reads the
        # theory's own rules, and adds only its position map `seq`.
        theory = parse("f. r1: f -> a. r2: a => p. r3: => ~p. r2 > r3.")
        conclusions(theory)
        assert vars(_solved(theory)).keys() == {"literals", "ids", "derived", "log"}
        assert prove(theory, TaggedLiteral(Tag.PLUS_PARTIAL, P)) is not None
        assert vars(_solved(theory)).keys() == {"literals", "ids", "derived", "log", "seq"}

    def test_an_interrupted_solve_is_not_kept(self, monkeypatch, solvers):
        source = "f. r1: f -> a. r2: a => p. r3: => ~p. r2 > r3."
        theory, expected = parse(source), conclusions(parse(source))
        run = _Solver.run

        class Log(list):  # cuts the run short, as a KeyboardInterrupt would
            def append(self, entry):
                if len(self) == 2:
                    raise KeyboardInterrupt
                super().append(entry)

        def interrupted(self):
            self.log = Log()
            run(self)

        monkeypatch.setattr(_Solver, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            conclusions(theory)
        monkeypatch.setattr(_Solver, "run", run)
        assert conclusions(theory) == expected
        assert prove(theory, TaggedLiteral(Tag.PLUS_PARTIAL, P)) is not None
        assert len(solvers) == 3  # `expected`, the interrupted run, and one kept


class TestReplay:
    def test_checks_the_mode_preconditions(self):
        # `+d p` rests only on a defeater, which never supports.  Reduced mode
        # refuses the theory, as `conclusions` and `prove` do, rather than
        # read its defeater as a supporting rule.
        theory = parse("k: ~> p.")
        refuted = TaggedLiteral(Tag.MINUS_DELTA, NOT_P)
        claim = Derivation((
            DerivationLine(refuted, "not a fact, every strict rule blocked", (), ()),
            DerivationLine(TaggedLiteral(Tag.PLUS_PARTIAL, P), "supported", ("k",), (refuted,)),
        ))
        assert not replay(theory, claim)
        with pytest.raises(PreconditionError, match="reduced mode precondition"):
            replay(theory, claim, Mode.REDUCED)
        with pytest.raises(PreconditionError, match="theory is not ground"):
            replay(parse("r: q(X) => p(X)."), Derivation(()))

    def test_rejects_unsupported_refutation(self):
        bogus = Derivation((
            DerivationLine(TaggedLiteral(Tag.MINUS_DELTA, P), "claim", (), ()),
        ))
        assert not replay(parse("r: -> p."), bogus)

    def test_rejects_wrong_order(self):
        t = parse("r1: -> a. r2: a -> b.")
        a, b = lit("a"), lit("b")
        good = Derivation((
            DerivationLine(TaggedLiteral(Tag.PLUS_DELTA, a), "strict rule fires", ("r1",), ()),
            DerivationLine(TaggedLiteral(Tag.PLUS_DELTA, b), "strict rule fires", ("r2",),
                           (TaggedLiteral(Tag.PLUS_DELTA, a),)),
        ))
        assert replay(t, good)
        assert not replay(t, Derivation(tuple(reversed(good.lines))))

    def test_hand_built_bridge_derivation(self, example2):
        n, _ = normal(example2)
        e = lit("e")
        primed_e = Literal(Atom("$p(e)"))
        two_line = Derivation((
            DerivationLine(TaggedLiteral(Tag.PLUS_DELTA, primed_e),
                           "strict rule fires", ("$f(e)",), ()),
            DerivationLine(TaggedLiteral(Tag.PLUS_DELTA, e),
                           "strict rule fires", ("$b(e)",),
                           (TaggedLiteral(Tag.PLUS_DELTA, primed_e),)),
        ))
        assert replay(n, two_line)
