"""Deep and wide inputs: 10^5-rule chains through the engine, one literal
with 10^5 attackers, and a 10^5-pair superiority chain, open and closed
into a cycle, through the well-formedness check, built as Theory objects
directly so that parsing takes no part.

Each would hit Python's recursion limit, or take hours, if a step of the
solver, of `prove`, or of the cycle check recursed or rescanned the chain,
or if the solver rescanned a literal's attackers each time one is blocked.
That derivations replay is checked on smaller theories in test_oracle.
Every theory is built inside its test, so no chain stays alive for the
collector to rescan while later tests run.
"""

import sys

from deflog import (
    Atom,
    Literal,
    Mode,
    Rule,
    RuleKind,
    Tag,
    TaggedLiteral,
    Theory,
    check_well_formed,
    conclusions,
    prove,
)

N = 100_000


def links(length: int) -> list[Literal]:
    return [Literal(Atom("a", (f"c{i}",))) for i in range(length)]


def chain(kind: RuleKind, a: list[Literal]) -> list[Rule]:
    """r0: -> a[0], then r_i: a[i-1] => a[i] with arrow `kind`."""
    return [Rule("r0", frozenset(), kind, a[0])] + [
        Rule(f"r{i}", frozenset({a[i - 1]}), kind, a[i]) for i in range(1, len(a))
    ]


def test_strict_chain():
    a = links(N)
    theory = Theory((), tuple(chain(RuleKind.STRICT, a)))
    for mode in (Mode.FULL, Mode.REDUCED):
        c = conclusions(theory, mode)
        assert c.plus_delta == c.plus_partial == frozenset(a)
        assert c.minus_delta == c.minus_partial and len(c.minus_delta) == N
        assert a[-1].complement() in c.minus_delta
    derivation = prove(theory, TaggedLiteral(Tag.PLUS_DELTA, a[-1]))
    assert derivation is not None
    assert {line.conclusion.tag for line in derivation.lines} == {Tag.PLUS_DELTA}
    assert [line.conclusion.literal for line in derivation.lines] == a


def test_defeasible_chain_with_attacking_defeaters():
    # N rules: a chain of N/2 links, each attacked by a defeater.  Even
    # links override an always-applicable defeater; odd links are attacked
    # by a defeater whose antecedent is refuted.
    a = links(N // 2)
    not_a = [q.complement() for q in a]
    blocker = Literal(Atom("blocker"))
    defeaters = [
        Rule(f"k{i}", frozenset() if i % 2 == 0 else frozenset({blocker}),
             RuleKind.DEFEATER, not_a[i])
        for i in range(len(a))
    ]
    superiority = frozenset((f"r{i}", f"k{i}") for i in range(0, len(a), 2))
    theory = Theory((), tuple(chain(RuleKind.DEFEASIBLE, a) + defeaters), superiority)
    c = conclusions(theory)
    assert not c.plus_delta
    assert c.plus_partial == frozenset(a)
    assert c.minus_partial == frozenset(not_a) | {blocker, blocker.complement()}
    goal = TaggedLiteral(Tag.PLUS_PARTIAL, a[-1])
    derivation = prove(theory, goal)
    assert derivation is not None and derivation.conclusion == goal
    assert {line.conclusion.literal for line in derivation.lines
            if line.conclusion.tag == Tag.PLUS_PARTIAL} == frozenset(a)


def test_long_superiority_chain():
    heads = [Literal(Atom("p"), i % 2 == 0) for i in range(N)]
    rules = tuple(Rule(f"s{i}", frozenset(), RuleKind.DEFEASIBLE, heads[i]) for i in range(N))
    pairs = frozenset((f"s{i}", f"s{i + 1}") for i in range(N - 1))
    assert check_well_formed(Theory((), rules, pairs)).ok
    # One back edge closes the chain into a cycle through every label.
    closed = check_well_formed(Theory((), rules, pairs | {(f"s{N - 1}", "s0")}))
    assert not closed.acyclic and closed.complementary


def attacked(n: int) -> tuple[Literal, Theory]:
    """`r: => p.` against `s_i: c_i => ~p.` for i < n, with the facts `~c_i`
    listed in reverse, so the fixpoint blocks the attackers in rule order."""
    p = Literal(Atom("p"))
    c = links(n)
    rules = [Rule("r", frozenset(), RuleKind.DEFEASIBLE, p)] + [
        Rule(f"s{i}", frozenset({c[i]}), RuleKind.DEFEASIBLE, p.complement())
        for i in range(n)
    ]
    return p, Theory(tuple(q.complement() for q in reversed(c)), tuple(rules))


def test_one_literal_many_attackers():
    p, theory = attacked(N)
    # Attackers blocked in rule order, then in reverse.
    for facts in (theory.facts, theory.facts[::-1]):
        c = conclusions(Theory(facts, theory.rules))
        assert p in c.plus_partial and p.complement() in c.minus_partial


def test_attackers_cost_linear_work():
    # Python-level calls made by `conclusions`, counted as the benchmark's
    # traced runs count them: deterministic, unlike a timing.  Linear work
    # grows 4x from n to 4n attackers; a rescan per blocked attacker, 16x.
    def calls(n: int) -> int:
        theory = attacked(n)[1]
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            conclusions(theory)
        finally:
            sys.setprofile(None)
        return count

    assert calls(4000) <= 5 * calls(1000)
