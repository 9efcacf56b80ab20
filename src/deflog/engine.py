"""Fixpoint computation of definite and defeasible conclusions.

A conclusion is a tagged literal: `+D q` (definitely provable), `-D q`
(demonstrably not definitely provable), `+d q` (defeasibly provable) or
`-d q` (demonstrably not defeasibly provable).  Provability is defined by
derivations, finite sequences of tagged literals in which every line is
licensed by an inference condition evaluated against the earlier lines.
Because the conditions only ever test membership of earlier lines, the set
of derivable tagged literals equals the least fixpoint of the one-step
operator that adds every tagged literal whose condition is satisfied by the
current set, and concatenating derivations yields a derivation.  This module
computes that fixpoint; a literal is provable iff it lands in the fixpoint,
and non-membership is a decision, not a timeout.

The conditions are those of the general logic, including the superiority
relation and the restriction that defeaters may attack a conclusion but
never support one and never counterattack.  Reduced mode is a checked
contract, not a second set of conditions: it refuses input that still has
facts, defeaters or superiority pairs, and on such input the general
conditions coincide with the simplified ones (every rule supports, no
attack can be countered).

The solver follows the counter-driven, linear-time scheme of Maher,
"Propositional Defeasible Logic has Linear Complexity" (TPLP 1(6), 2001): a
ground theory is compiled once into integer tables, with every literal
numbered once (`_Solver`), and counters decide all four conditions, each
checked in constant time once one of its inputs crosses a threshold (see
`_Solver.run`, whose locals they are).  One evaluator serves both modes.

Outside the counters the conditions are written out once more, in
`_witness`, over the theory's own facts, rules and superiority pairs:
`replay` checks each line of a derivation with it, and `prove` uses it to
pick every line's premises among the lines the fixpoint logged before it,
so each logged line it uses is checked against the theory itself, not
against the compiled tables.

The candidate universe contains both polarities of every atom occurring in
the theory, so refutations of literals whose polarity is never mentioned are
still derived.  A theory is compiled and solved once, on its first engine
call, and the solver, which keeps only its literal numbering, the
conclusions and their log, is kept on the `Theory` object for every later
`conclusions` (either mode, any extra atoms) and `prove` call.  Extra atoms
are not compiled: one the theory does not mention has no fact and no rule,
so `conclusions` adds `-D` and `-d` of both its literals to the result.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, compress
from operator import and_, attrgetter, not_
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from .core import (
    Atom,
    Literal,
    PreconditionError,
    Rule,
    RuleKind,
    Tag,
    TaggedLiteral,
    Theory,
    _LITERAL_ORDER,
    _LITERALS_OF,
    _assign,
    _spellings,
    _Value,
)


class Mode(Enum):
    FULL = "full"
    REDUCED = "reduced"


# Tag codes, in the order of the four sets, which is `Tag`'s declaration
# order; a solver entry is `literal << 2 | code`.
_PD, _MD, _PP, _MP = range(4)
_TAGS = tuple(Tag)
# Read off `RuleKind` once, at import: such a read costs many times a global's.
_STRICT, _DEFEATER = RuleKind.STRICT, RuleKind.DEFEATER


class ConclusionSet(_Value):
    """The four conclusion sets of a theory.

    On every engine result the four structural relations hold:
    plus_delta is contained in plus_partial, minus_partial in minus_delta,
    and plus_delta/minus_delta and plus_partial/minus_partial are pairwise
    disjoint.  So plus_delta and minus_partial are disjoint too.
    """

    __slots__ = ("plus_delta", "minus_delta", "plus_partial", "minus_partial")
    plus_delta: frozenset[Literal]
    minus_delta: frozenset[Literal]
    plus_partial: frozenset[Literal]
    minus_partial: frozenset[Literal]

    def __init__(self, plus_delta: frozenset[Literal], minus_delta: frozenset[Literal],
                 plus_partial: frozenset[Literal], minus_partial: frozenset[Literal]) -> None:
        _assign(self, "plus_delta", plus_delta)
        _assign(self, "minus_delta", minus_delta)
        _assign(self, "plus_partial", plus_partial)
        _assign(self, "minus_partial", minus_partial)

    def has(self, tag: Tag, literal: Literal) -> bool:
        return literal in self._set(tag)

    def __contains__(self, tagged: TaggedLiteral) -> bool:
        return tagged.literal in self._set(tagged.tag)

    def _set(self, tag: Tag) -> frozenset[Literal]:
        return (self.plus_delta, self.minus_delta,
                self.plus_partial, self.minus_partial)[_TAGS.index(tag)]

    def validate(self) -> None:
        """Check the four structural relations, which also make +D and -d
        disjoint; raise AssertionError if broken."""
        for holds, message in (
                (self.plus_delta <= self.plus_partial, "+D must imply +d"),
                (self.minus_partial <= self.minus_delta, "-d must imply -D"),
                (self.plus_delta.isdisjoint(self.minus_delta), "+D and -D must be disjoint"),
                (self.plus_partial.isdisjoint(self.minus_partial), "+d and -d must be disjoint")):
            if not holds:
                raise AssertionError(message)

    def restrict(self, atoms: Iterable[Atom | str]) -> ConclusionSet:
        """Keep only literals over the given atoms, matched by the spelling
        each atom keeps from its mint: an argument-less atom named ``g(c)``
        matches the atom ``g(c)``."""
        keep = _spellings(atoms)
        return ConclusionSet(*[frozenset([l for l in s if l.atom._text in keep])
                               for s in self._values(self)])

    def lines(self) -> list[str]:
        """The serialized listing: one `<tag> <literal>` per line, sorted.

        A literal is spelled without a Python-level call, from its atom's
        spelling; lines of one tag share their prefix up to the sign, so
        sorting them sorts the literals' spellings."""
        out: list[str] = []
        for tag, literals in zip(_TAGS, self._values(self)):
            sign = (f"{tag.value} ~", f"{tag.value} ")  # indexed by `positive`
            lines = [sign[l.positive] + l.atom._text for l in literals]
            lines.sort()
            out += lines
        return out


class DerivationLine(_Value):
    """One derivation step: the conclusion, the condition branch that
    licensed it, the rules consulted, and the earlier lines it relies on."""

    __slots__ = ("conclusion", "clause", "rules", "premises")
    conclusion: TaggedLiteral
    clause: str
    rules: tuple[str, ...]
    premises: tuple[TaggedLiteral, ...]

    def __init__(self, conclusion: TaggedLiteral, clause: str, rules: tuple[str, ...],
                 premises: tuple[TaggedLiteral, ...]) -> None:
        _assign(self, "conclusion", conclusion)
        _assign(self, "clause", clause)
        _assign(self, "rules", rules)
        _assign(self, "premises", premises)


class Derivation(_Value):
    __slots__ = ("lines",)
    lines: tuple[DerivationLine, ...]

    def __init__(self, lines: tuple[DerivationLine, ...]) -> None:
        _assign(self, "lines", lines)

    @property
    def conclusion(self) -> TaggedLiteral:
        return self.lines[-1].conclusion

    def __str__(self) -> str:
        return "\n".join(
            f"{i + 1}. {line.conclusion}  [{line.clause}"
            + (f"; rules {', '.join(line.rules)}" if line.rules else "")
            + "]"
            for i, line in enumerate(self.lines)
        )


def _group(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Group ids by key: entry k is the tuple of ids paired with k, in the
    order given, which every caller makes ascending."""
    groups: dict[int, list[int]] = {}
    for k, v in pairs:
        group = groups.get(k)
        if group is None:
            groups[k] = [v]
        else:
            group.append(v)
    return _tuples(n, groups.items())


def _tuples(n: int, groups: Iterable[tuple[int, list[int]]]) -> list[tuple[int, ...]]:
    """Entry k is the group keyed k as a tuple, or the empty tuple.

    Tuples of ints drop out of the cyclic garbage collector's view, where
    one list per key would make every full collection rescan them.  Lists
    are built while grouping only for the keys that occur, one per key.
    """
    out: list[tuple[int, ...]] = [()] * n
    for k, group in groups:
        out[k] = tuple(group)
    return out


def _tally(n: int, keys: Iterable[int]) -> list[int]:
    """How often each of the keys 0..n-1 occurs."""
    out = [0] * n
    for k in keys:
        out[k] += 1
    return out


class _Solver:
    """Counter-driven worklist fixpoint over integer tables.

    Compilation numbers every literal once, in two tables that invert each
    other: `ids` maps a literal to its number ``q`` (after compilation only
    :func:`prove` reads it) and `literals` maps ``q`` back.  An atom's
    literals are ``2 * i`` (positive) and ``2 * i + 1``, so the complement of
    ``q`` is ``q ^ 1``.  Atoms are numbered in an order that does not follow
    memory addresses, so the log is the same in every process: those of
    facts and heads in theory order, then those only antecedents mention by
    (name, args).  Rules keep their theory order.
    Per literal there are `fact`, the rules with that head (`rules_for`) and
    the rules with it in their antecedent (`uses`), both ascending; per
    rule, its `head`, the `size` of its antecedent, whether it is `strict`
    and whether it `supports` (is not a defeater), and `overrides[t]`, the
    rules `t` counterattacks, ascending:
    one per declared pair ``t > s``, resolved once; a pair with a defeater
    superior or with non-complementary heads adds nothing.

    :meth:`run` takes these tables out of the solver as it starts and keeps
    its counters in locals, so only `literals`, `ids`, the four `derived`
    sets and the `log` outlive it.  Every derivation is logged in order;
    :func:`prove` explains a logged entry from the entries before it,
    through the position map `seq` built on its first call.
    """

    def __init__(self, theory: Theory):
        rules = theory.rules
        heads = [r.head for r in rules]
        atoms = dict.fromkeys([literal.atom for literal in chain(theory.facts, heads)])
        # `theory.atoms` is a set, which iterates by memory address.
        rest = sorted(theory.atoms.difference(atoms), key=attrgetter("name", "args"))
        atoms.update(dict.fromkeys(rest))
        # Literal 2 * i is the positive literal of atom i, 2 * i + 1 its complement.
        self.literals = literals = [None] * (2 * len(atoms))
        literals[::2] = [a._positive for a in atoms]
        literals[1::2] = [a._negative for a in atoms]
        n, m = len(literals), len(rules)
        self.ids = ids = dict(zip(literals, range(n)))
        self.head = head = list(map(ids.__getitem__, heads))
        self.size = [len(r.antecedent) for r in rules]
        # One walk groups the rules by head and by antecedent literal, keyed
        # by the literals themselves, which are numbered once per group.
        rules_for: dict[Literal, list[int]] = {}
        uses: dict[Literal, list[int]] = {}
        for r, rule in enumerate(rules):
            group = rules_for.get(rule.head)
            if group is None:
                rules_for[rule.head] = [r]
            else:
                group.append(r)
            for literal in rule.antecedent:
                group = uses.get(literal)
                if group is None:
                    uses[literal] = [r]
                else:
                    group.append(r)
        self.rules_for = _tuples(n, zip(map(ids.__getitem__, rules_for), rules_for.values()))
        self.uses = _tuples(n, zip(map(ids.__getitem__, uses), uses.values()))
        self.fact = bytearray(n)
        for q in map(ids.__getitem__, theory.facts):
            self.fact[q] = 1
        # Comprehensions over the rules' slots, which CPython 3.11 reads
        # faster than a map over an `attrgetter` does.
        self.strict = bytearray([r.kind is _STRICT for r in rules])
        self.supports = supports = bytearray([r.kind is not _DEFEATER for r in rules])

        number = {r.label: i for i, r in enumerate(rules)} if theory.superiority else {}
        self.overrides = _group(m, sorted([
            (t, s) for sup, inf in theory.superiority
            for t, s in [(number[sup], number[inf])]
            if supports[t] and head[t] == head[s] ^ 1]))
        self.derived = [bytearray(n) for _ in _TAGS]
        self.log: list[int] = []

    @cached_property
    def seq(self) -> dict[int, int]:
        """Entry -> position in `log`; built on the first :func:`prove`."""
        return {x: i for i, x in enumerate(self.log)}

    def run(self) -> None:
        """Derive every conclusion into `derived`, logging each in order.

        Per rule it counts `fire`, the antecedents not yet in `+d`, and sets
        `blocked` once one is in `-d`; it counts `sup_open`, the rule's
        counterattackers not yet blocked, and sets `countered` once one of
        them fires; and `delta_fire` and `delta_blocked` do the same against
        `+D`/`-D`, starting so that a rule that is not strict never fires and
        is always blocked at the definite level.  Per literal `q` it counts,
        over the rules with head `q`:

        * `delta_open`: the strict rules not yet blocked, plus one if `q` is
          a fact;
        * `can_support`: the supporting rules that fired;
        * `open_support`: the supporting rules not yet blocked;
        * `live`: the rules neither blocked nor countered;
        * `winning`: the rules that fired with every counterattacker blocked.

        The conditions read these counters.  `+D q` holds once a strict rule
        for `q` fires and `-D q` once `delta_open[q]` is 0.  `+d q` holds iff
        `+D q`, or `can_support[q] > 0`, `-D ~q` and `live[~q] == 0`.  `-d q`
        holds iff `-D q` and one of `open_support[q] == 0`, `+D ~q` or
        `winning[~q] > 0`.  Deriving a tagged literal updates the counters
        through `uses`, and through `overrides` when a supporting rule fires
        or is blocked.  A conclusion is queued only when one of its inputs
        crosses its threshold (a counter reaching 0, or 1 from 0, or a tag it
        reads being derived), so at most four times, and each check when it
        is popped is O(1).  Every counter moves at most once per antecedent
        of a rule or per superiority pair, so the run is linear in the size
        of the theory.

        `live` and `open_support` start from the number of rules for each
        literal, less the countered rules and the defeaters.  When no
        superiority pair survives compilation (every `overrides` entry is
        empty, as in every `pipeline` or `elim_sup` output), the override
        passes are skipped: `sup_open` starts at 0 and `countered` clear for
        every rule, `live[q]` counts all the rules for `q` and `winning[q]`
        those with an empty antecedent.
        """
        head, supports, uses, overrides, strict, fact, fire, rules_for = map(vars(self).pop, (
            "head", "supports", "uses", "overrides", "strict", "fact", "size", "rules_for"))
        n, m = len(fact), len(head)
        fired = [not k for k in fire]
        blocked = bytearray(m)
        countered = bytearray(m)
        live = list(map(len, rules_for))
        open_support = live.copy()
        for h in compress(head, map(not_, supports)):
            open_support[h] -= 1
        if any(overrides):
            sup_open = _tally(m, chain.from_iterable(overrides))
            for t in compress(range(m), fired):
                for s in overrides[t]:
                    if not countered[s]:
                        countered[s] = 1
                        live[head[s]] -= 1
            winners = compress(head, map(and_, fired, map(not_, sup_open)))
        else:
            sup_open = [0] * m
            winners = compress(head, fired)
        winning = _tally(n, winners)
        can_support = _tally(n, compress(head, map(and_, supports, fired)))
        delta_fire = [k + (not s) for k, s in zip(fire, strict)]
        delta_blocked = bytearray([not s for s in strict])
        delta_open = list(fact)
        for h in compress(head, strict):
            delta_open[h] += 1
        derived, log = self.derived, self.log
        plus_delta, minus_delta = derived[_PD], derived[_MD]
        # `+D`/`-D` entries are queued only once their condition holds;
        # `+d`/`-d` entries whenever an input of theirs crosses its threshold.
        stack = [q << 2 | _MD for q, k in enumerate(delta_open) if not k]
        stack += [q << 2 | _PD for q, k in enumerate(fact) if k]
        stack += [h << 2 | _PD for h, k in zip(head, delta_fire) if not k]
        push = stack.append
        while stack:
            x = stack.pop()
            code, q = x & 3, x >> 2
            done = derived[code]
            if done[q]:
                continue
            if code == _PP:
                if not (plus_delta[q] or can_support[q] and minus_delta[q ^ 1]
                        and not live[q ^ 1]):
                    continue
            elif code == _MP:
                if not (minus_delta[q] and (not open_support[q] or plus_delta[q ^ 1]
                                            or winning[q ^ 1])):
                    continue
            done[q] = 1
            log.append(x)
            if code == _PD:
                push(q << 2 | _PP)
                push((q ^ 1) << 2 | _MP)
                for r in uses[q]:
                    delta_fire[r] -= 1
                    if not delta_fire[r]:
                        push(head[r] << 2 | _PD)
            elif code == _MD:
                push(q << 2 | _MP)
                push((q ^ 1) << 2 | _PP)
                for r in uses[q]:
                    if not delta_blocked[r]:
                        delta_blocked[r] = 1
                        h = head[r]
                        delta_open[h] -= 1
                        if not delta_open[h]:
                            push(h << 2 | _MD)
            elif code == _PP:
                for r in uses[q]:
                    fire[r] -= 1
                    if fire[r]:
                        continue
                    h = head[r]
                    if supports[r]:
                        can_support[h] += 1
                        if can_support[h] == 1:
                            push(h << 2 | _PP)
                        # A rule r overrides has head ~h.
                        for s in overrides[r]:
                            if not countered[s]:
                                countered[s] = 1
                                if not blocked[s]:
                                    live[h ^ 1] -= 1
                                    if not live[h ^ 1]:
                                        push(h << 2 | _PP)
                    if not sup_open[r]:
                        winning[h] += 1
                        if winning[h] == 1:
                            push((h ^ 1) << 2 | _MP)
            else:
                for r in uses[q]:
                    if blocked[r]:
                        continue
                    blocked[r] = 1
                    h = head[r]
                    if supports[r]:
                        open_support[h] -= 1
                        if not open_support[h]:
                            push(h << 2 | _MP)
                        for s in overrides[r]:
                            sup_open[s] -= 1
                            if not sup_open[s] and not fire[s]:
                                winning[h ^ 1] += 1
                                if winning[h ^ 1] == 1:
                                    push(h << 2 | _MP)
                    if not countered[r]:
                        live[h] -= 1
                        if not live[h]:
                            push((h ^ 1) << 2 | _PP)


def _check_preconditions(theory: Theory, mode: Mode) -> None:
    if not theory.is_ground:
        raise PreconditionError("theory is not ground; expand schemas first")
    if mode == Mode.REDUCED:
        problems = [name for name, present in (
            ("facts", theory.facts),
            ("defeaters", RuleKind.DEFEATER in [r.kind for r in theory.rules]),
            ("a superiority relation", theory.superiority),
        ) if present]
        if problems:
            raise PreconditionError(
                "reduced mode precondition: theory still contains " + ", ".join(problems))


def _solved(theory: Theory) -> _Solver:
    """The run solver kept on `theory`, which :func:`conclusions` and
    :func:`prove` read: it serves both modes and any extra atoms, so the
    first of these calls on an object solves it for every later one.  It is
    kept only once its run is complete.
    """
    solver = vars(theory).get("_solver")
    if solver is None:
        solver = _Solver(theory)
        solver.run()
        vars(theory)["_solver"] = solver
    return solver


def conclusions(
    theory: Theory,
    mode: Mode = Mode.FULL,
    extra_atoms: Iterable[Atom | str] = (),
) -> ConclusionSet:
    """Compute all conclusions of a ground theory.

    `extra_atoms` widens the candidate universe with atoms that do not occur
    in the theory, so that their refutations (`-D`, `-d`) become derivable;
    the empty theory has no atoms of its own, for instance.

    Reduced mode raises :class:`PreconditionError` if the theory still has
    facts, defeaters or superiority pairs.  The structural relations between
    the four sets are verified on every result before it is returned.
    """
    _check_preconditions(theory, mode)
    solver = _solved(theory)
    found = [frozenset(compress(solver.literals, done)) for done in solver.derived]
    # An atom with no fact and no rule has both of its literals refuted at
    # both levels, and nothing else.
    extra = {Atom(a) if isinstance(a, str) else a for a in extra_atoms}
    absent = frozenset(chain.from_iterable(map(_LITERALS_OF, extra - theory.atoms)))
    if absent:
        found[_MD] |= absent
        found[_MP] |= absent
    result = ConclusionSet(*found)
    result.validate()
    return result


def prove(
    theory: Theory,
    goal: TaggedLiteral,
    mode: Mode = Mode.FULL,
) -> Derivation | None:
    """Produce a derivation ending in `goal`, or None if it is not provable.

    The returned derivation replays: every line's condition holds with
    respect to the strictly earlier lines only.  It reads the order of the
    solve kept on the theory, and picks each line's rules and premises with
    `_witness` on the theory's own rules, which raises AssertionError if no
    condition holds for a logged line.  It is the same in every process.
    """
    _check_preconditions(theory, mode)
    solver = _solved(theory)
    if goal.literal.atom not in theory.atoms:
        raise PreconditionError(f"unknown atom: {goal.literal.atom._text}")
    ids, seq = solver.ids, solver.seq
    target = ids[goal.literal] << 2 | _TAGS.index(goal.tag)
    if target not in seq:
        return None

    # Each line is explained, on the theory's own rules, by the lines logged
    # before it; bodies in literal-number order pick the same premises in
    # every process.
    before = 0

    def logged(tag: Tag, q: Literal) -> int | None:
        x = ids[q] << 2 | _TAGS.index(tag)
        return x if seq.get(x, before) < before else None

    index, literals = _Index.of(theory, logged, ids.__getitem__), solver.literals
    lines: dict[int, tuple[str, list[Rule], list[int]]] = {}
    stack = [target]
    while stack:
        x = stack.pop()
        if x not in lines:
            before = seq[x]
            witness = _witness(index, _TAGS[x & 3], literals[x >> 2])
            if witness is None:
                raise AssertionError(f"no condition holds for logged entry {x}")
            lines[x] = witness
            stack += witness[2]
    order = sorted(lines, key=seq.__getitem__)
    tagged = {x: TaggedLiteral(_TAGS[x & 3], literals[x >> 2]) for x in order}
    return Derivation(tuple(
        DerivationLine(tagged[x], clause, tuple(dict.fromkeys(r.label for r in used)),
                       tuple(map(tagged.__getitem__, dict.fromkeys(premises))))
        for x, (clause, used, premises) in zip(order, map(lines.__getitem__, order))
    ))


def replay(theory: Theory, derivation: Derivation, mode: Mode = Mode.FULL) -> bool:
    """Check a derivation line by line.

    True iff every line's inference condition holds given only the lines
    before it.  The recorded clause and rule annotations are informative;
    validity is judged against the conditions themselves.  Raises
    :class:`PreconditionError` as :func:`prove` does.
    """
    _check_preconditions(theory, mode)
    have: dict[Tag, set[Literal]] = {tag: set() for tag in _TAGS}
    index = _Index.of(theory, lambda tag, q: (tag, q) if q in have[tag] else None)
    for tagged in (line.conclusion for line in derivation.lines):
        if _witness(index, tagged.tag, tagged.literal) is None:
            return False
        have[tagged.tag].add(tagged.literal)
    return True


class _Index(NamedTuple):
    """What :func:`_witness` reads: a ground theory's facts, its rules by head
    in theory order and its superiority pairs, the key `order` an antecedent
    is sorted by when premises are picked, and the lines so far:
    `line(tag, q)` is the earlier line `tag q`, in the caller's form, or
    None."""

    facts: frozenset[Literal]
    rules: dict[Literal, list[Rule]]
    superiority: frozenset[tuple[str, str]]
    order: Callable[[Literal], Any]
    line: Callable[[Tag, Literal], Hashable | None]

    @classmethod
    def of(cls, theory: Theory, line: Callable[[Tag, Literal], Hashable | None],
           order: Callable[[Literal], Any] = _LITERAL_ORDER) -> _Index:
        """The index of `theory`, with lines kept by `line`.  Antecedents are
        sorted because `_blocked` stops at the first with a line, and set
        order follows memory addresses."""
        by_head: dict[Literal, list[Rule]] = {}
        for rule in theory.rules:
            by_head.setdefault(rule.head, []).append(rule)
        return cls(frozenset(theory.facts), by_head, theory.superiority, order, line)


def _witness(index: _Index, tag: Tag, q: Literal) -> tuple[str, list[Rule], list] | None:
    """The inference condition of `tag q`, transcribed from the paper: the
    branch that holds, the rules it consulted and the earlier lines it rests
    on, or None if no branch holds.  These are the general conditions;
    reduced mode is a precondition on the theory, which the callers check.
    """
    rules, line = index.rules.get(q, ()), index.line
    if tag is Tag.PLUS_DELTA or tag is Tag.MINUS_DELTA:
        if q in index.facts:
            return ("fact", [], []) if tag is Tag.PLUS_DELTA else None
        strict = [r for r in rules if r.kind is _STRICT]
        if tag is Tag.PLUS_DELTA:
            found, clause = _fired(index, strict, tag), "strict rule fires"
        else:
            found, clause = _blocked(index, strict, tag), "not a fact, every strict rule blocked"
        return None if found is None else (clause, *found)

    nq = q.complement()
    supporters = [r for r in rules if r.kind is not _DEFEATER]

    def counterattackers(s: Rule) -> list[Rule]:
        return [t for t in supporters if (t.label, s.label) in index.superiority]

    if tag is Tag.PLUS_PARTIAL:
        definite = line(Tag.PLUS_DELTA, q)
        if definite is not None:
            return "already definite", [], [definite]
        found, refuted = _fired(index, supporters, tag), line(Tag.MINUS_DELTA, nq)
        if found is None or refuted is None:
            return None
        used, premises = found[0], [*found[1], refuted]
        for s in index.rules.get(nq, ()):
            answer = (_blocked(index, [s], Tag.MINUS_PARTIAL)
                      or _fired(index, counterattackers(s), tag))
            if answer is None:
                return None
            used += answer[0]
            premises += answer[1]
        return ("supported, complement not definite, every attack "
                "blocked or counterattacked by a superior rule", used, premises)

    refuted = line(Tag.MINUS_DELTA, q)
    if refuted is None:
        return None
    found = _blocked(index, supporters, tag)
    if found is not None:
        return "every supporting rule blocked", found[0], [refuted, *found[1]]
    definite = line(Tag.PLUS_DELTA, nq)
    if definite is not None:
        return "complement definitely provable", [], [refuted, definite]
    for s in index.rules.get(nq, ()):
        attack = _fired(index, [s], Tag.PLUS_PARTIAL)
        countered = attack and _blocked(index, counterattackers(s), tag)
        if countered:
            return ("applicable attacker no superior rule overrides",
                    attack[0] + countered[0], [refuted, *attack[1], *countered[1]])
    return None


def _fired(index: _Index, rules: Iterable[Rule], tag: Tag) -> tuple[list[Rule], list] | None:
    """The first of `rules` with every antecedent a `tag` line, and those lines."""
    for r in rules:
        lines = [index.line(tag, a) for a in sorted(r.antecedent, key=index.order)]
        if None not in lines:
            return [r], lines
    return None


def _blocked(index: _Index, rules: list[Rule], tag: Tag) -> tuple[list[Rule], list] | None:
    """`rules`, each with a `tag` line for one of its antecedents, and those lines."""
    lines = []
    for r in rules:
        for a in sorted(r.antecedent, key=index.order):
            found = index.line(tag, a)
            if found is not None:
                lines.append(found)
                break
        else:
            return None
    return rules, lines
