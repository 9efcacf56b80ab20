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
`_witness`, over whatever literals and rules its caller keeps: `replay`
checks each line of a derivation with it on the theory's own objects, and
`prove` uses it on the solver's tables to pick every line's premises among
the lines the fixpoint logged before it.

The candidate universe contains both polarities of every atom occurring in
the theory, so refutations of literals whose polarity is never mentioned are
still derived.  A theory is compiled and solved once, on its first engine
call, and the solver, which keeps only its tables, the conclusions and
their log, is kept on the `Theory` object for every later `conclusions`
(either mode, any extra atoms) and `prove` call.  Extra atoms
are not compiled: one the theory does not mention has no fact and no rule,
so `conclusions` adds `-D` and `-d` of both its literals to the result.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Sequence

from .core import (
    Atom,
    Literal,
    PreconditionError,
    Rule,
    RuleKind,
    Tag,
    TaggedLiteral,
    Theory,
    _assign,
    _Value,
)


class Mode(Enum):
    FULL = "full"
    REDUCED = "reduced"


# Tag codes, in the order of the four sets; a solver entry is `literal << 2 | code`.
_PD, _MD, _PP, _MP = range(4)
_TAGS = (Tag.PLUS_DELTA, Tag.MINUS_DELTA, Tag.PLUS_PARTIAL, Tag.MINUS_PARTIAL)


class ConclusionSet(_Value):
    """The four conclusion sets of a theory.

    On every engine result the five structural relations hold:
    plus_delta is contained in plus_partial, minus_partial in minus_delta,
    and plus_delta/minus_delta, plus_partial/minus_partial and
    plus_delta/minus_partial are pairwise disjoint.
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
        """Check the five structural relations; raise AssertionError if broken."""
        assert self.plus_delta <= self.plus_partial, "+D must imply +d"
        assert self.minus_partial <= self.minus_delta, "-d must imply -D"
        assert not self.plus_delta & self.minus_delta, "+D and -D must be disjoint"
        assert not self.plus_partial & self.minus_partial, "+d and -d must be disjoint"
        assert not self.plus_delta & self.minus_partial, "+D and -d must be disjoint"

    def restrict(self, atoms: Iterable[Atom | str]) -> ConclusionSet:
        """Keep only literals over the given atoms."""
        keep = {str(a) for a in atoms}
        return ConclusionSet(*(frozenset(l for l in self._set(tag) if str(l.atom) in keep)
                               for tag in _TAGS))

    def lines(self) -> list[str]:
        """The serialized listing: one `<tag> <literal>` per line, sorted."""
        out: list[str] = []
        for tag in _TAGS:
            prefix = f"{tag.value} "
            out.extend(prefix + lit for lit in sorted(map(str, self._set(tag))))
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
    order given, which every caller makes ascending.

    Tuples of ints drop out of the cyclic garbage collector's view, where
    one list per key would make every full collection rescan them.  Lists
    are built while grouping only for the keys that occur.
    """
    groups: dict[int, list[int]] = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    out: list[tuple[int, ...]] = [()] * n
    for k, group in groups.items():
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
    other: `ids` maps a literal to its number ``q`` and `literals` maps ``q``
    back.  An atom's literals are ``2 * i`` (positive) and ``2 * i + 1``, so
    the complement of ``q`` is ``q ^ 1``, and both are numbered when either
    is first met: atoms of facts and heads in theory order, then those only
    antecedents mention by (name, args), so the log is the same in every
    process.  Rules keep their theory order.  Per literal there are `fact`,
    the rules with that head (`rules_for`) and the rules with it in their
    antecedent (`uses`); per rule, its `head`, its `body`, whether it is
    `strict` and whether it `supports` (is not a defeater), and
    `overrides[t]`, the rules `t` counterattacks: those with the complement
    of its head that it is declared superior to, when `t` supports.

    Only these tables, the four `derived` sets and the `log` outlive
    :meth:`run`, which keeps its counters in locals.  Every derivation is
    logged in order; :func:`prove` explains a logged entry from the entries
    before it, through the position map `seq` built on its first call.
    """

    def __init__(self, theory: Theory):
        rules = theory.rules
        heads = [r.head for r in rules]
        # Atom i has the literals 2i (positive) and 2i + 1.  Atoms are
        # numbered when first met: those of facts and heads in theory order,
        # then those only antecedents mention.
        atom_number: dict[Atom, int] = {}

        def numbered(group: Iterable[Literal]) -> dict[int, Literal]:
            return {2 * atom_number.setdefault(literal.atom, len(atom_number))
                    + (not literal.positive): literal for literal in group}

        # Each literal stands for itself as the first of its equal objects
        # met, or as a complement built here if the theory never mentions it.
        mentioned = dict.fromkeys(chain(theory.facts, heads))
        by_number = numbered(mentioned)
        rest = set().union(*(r.antecedent for r in rules)).difference(mentioned)
        # Antecedents are sets, iterated in an order that follows the
        # process's string hashes, so the atoms only they mention are
        # numbered by (name, args); the log then is the same in every process.
        for atom in sorted({literal.atom for literal in rest}.difference(atom_number),
                           key=lambda atom: (atom.name, atom.args)):
            atom_number[atom] = len(atom_number)
        by_number.update(numbered(rest))
        self.literals = literals = [by_number[q] if q in by_number else by_number[q ^ 1].complement()
                                    for q in range(2 * len(atom_number))]
        n = len(literals)
        self.ids = ids = dict(zip(literals, range(n)))
        self.head = head = list(map(ids.__getitem__, heads))
        self.body = [tuple(map(ids.__getitem__, r.antecedent)) for r in rules]
        self.fact = bytearray(n)
        for q in map(ids.__getitem__, theory.facts):
            self.fact[q] = 1
        self.strict = bytearray(r.kind == RuleKind.STRICT for r in rules)
        self.supports = supports = bytearray(r.kind != RuleKind.DEFEATER for r in rules)
        self.rules_for = _group(n, zip(head, range(len(rules))))
        self.uses = _group(n, ((a, r) for r, body in enumerate(self.body) for a in body))

        labels = [r.label for r in rules]
        superiors: dict[str, set[str]] = {}
        for sup, inf in theory.superiority:
            superiors.setdefault(inf, set()).add(sup)
        self.overrides = _group(len(rules), (
            (t, s) for s, label in enumerate(labels) if label in superiors
            for t in self.rules_for[head[s] ^ 1]
            if supports[t] and labels[t] in superiors[label]))
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
        """
        head, supports, uses, overrides = self.head, self.supports, self.uses, self.overrides
        n, m = len(self.fact), len(head)
        fire = list(map(len, self.body))
        blocked = bytearray(m)
        sup_open = _tally(m, chain.from_iterable(overrides))
        countered = bytearray(m)
        for t, k in enumerate(fire):
            if not k:
                for s in overrides[t]:
                    countered[s] = 1
        can_support = _tally(n, (h for h, sup, k in zip(head, supports, fire) if sup and not k))
        open_support = _tally(n, compress(head, supports))
        live = _tally(n, (h for h, c in zip(head, countered) if not c))
        winning = _tally(n, (h for h, k, o in zip(head, fire, sup_open) if not k and not o))
        delta_fire = [k + (not strict) for k, strict in zip(fire, self.strict)]
        delta_blocked = bytearray(not strict for strict in self.strict)
        delta_open = list(self.fact)
        for h, strict in zip(head, self.strict):
            delta_open[h] += strict
        derived, log = self.derived, self.log
        plus_delta, minus_delta = derived[_PD], derived[_MD]
        # `+D`/`-D` entries are queued only once their condition holds;
        # `+d`/`-d` entries whenever an input of theirs crosses its threshold.
        stack = [q << 2 | _MD for q, k in enumerate(delta_open) if not k]
        stack += [q << 2 | _PD for q, fact in enumerate(self.fact) if fact]
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
            ("defeaters", any(r.kind == RuleKind.DEFEATER for r in theory.rules)),
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
    extra = (Literal(Atom(a) if isinstance(a, str) else a) for a in extra_atoms)
    absent = frozenset(chain.from_iterable(
        (literal, literal.complement()) for literal in extra if literal not in solver.ids))
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
    respect to the strictly earlier lines only.  It reads the solve kept on
    the theory, and is the same in every process.
    """
    _check_preconditions(theory, mode)
    solver = _solved(theory)
    if goal.literal not in solver.ids:
        raise PreconditionError(f"unknown atom: {goal.literal.atom}")
    target = solver.ids[goal.literal] << 2 | _TAGS.index(goal.tag)
    seq = solver.seq
    if target not in seq:
        return None

    # Each line is explained, on the solver's tables, by the lines logged
    # before it; bodies in literal order pick the same premises in every process.
    before = 0

    def logged(tag: Tag, q: int) -> int | None:
        x = q << 2 | _TAGS.index(tag)
        return x if seq.get(x, before) < before else None

    def body(r: int) -> list[int]:
        return sorted(solver.body[r])

    rules = theory.rules
    index = _Index(solver.fact.__getitem__, solver.rules_for.__getitem__,
                   (1).__xor__,  # the complement of literal q is q ^ 1
                   solver.strict.__getitem__, solver.supports.__getitem__,
                   lambda t, s: (rules[t].label, rules[s].label) in theory.superiority,
                   body, logged)
    lines: dict[int, tuple[str, list[int], list[int]]] = {}
    stack = [target]
    while stack:
        x = stack.pop()
        if x not in lines:
            before = seq[x]
            witness = _witness(index, _TAGS[x & 3], x >> 2)
            assert witness is not None, f"no condition holds for logged entry {x}"
            lines[x] = witness
            stack += witness[2]
    order = sorted(lines, key=seq.__getitem__)
    tagged = {x: TaggedLiteral(_TAGS[x & 3], solver.literals[x >> 2]) for x in order}
    return Derivation(tuple(
        DerivationLine(tagged[x], clause, tuple(dict.fromkeys(rules[r].label for r in used)),
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
    """What :func:`_witness` reads: a ground theory, whose literals and rules
    are its own objects for :func:`replay` and the solver's ids for
    :func:`prove`, and the lines so far.  `line(tag, q)` is the earlier line
    `tag q`, in the caller's form, or None; `body(rule)` lists an antecedent
    in the order premises are picked in."""

    fact: Callable[[Any], object]
    rules: Callable[[Any], Sequence]  # with that head, in theory order
    complement: Callable[[Any], Any]
    strict: Callable[[Any], object]
    supports: Callable[[Any], object]  # not a defeater
    superior: Callable[[Any, Any], object]
    body: Callable[[Any], Iterable]
    line: Callable[[Tag, Any], Hashable | None]

    @classmethod
    def of(cls, theory: Theory, line: Callable[[Tag, Literal], Hashable | None]) -> _Index:
        """The index of `theory`'s own objects, with lines kept by `line`."""
        by_head: dict[Literal, list[Rule]] = {}
        for rule in theory.rules:
            by_head.setdefault(rule.head, []).append(rule)
        return cls(frozenset(theory.facts).__contains__, lambda q: by_head.get(q, ()),
                   Literal.complement, lambda r: r.kind is RuleKind.STRICT,
                   lambda r: r.kind is not RuleKind.DEFEATER,
                   lambda t, s: (t.label, s.label) in theory.superiority,
                   attrgetter("antecedent"), line)


def _witness(index: _Index, tag: Tag, q: Any) -> tuple[str, list, list] | None:
    """The inference condition of `tag q`, transcribed from the paper: the
    branch that holds, the rules it consulted and the earlier lines it rests
    on, or None if no branch holds.  These are the general conditions;
    reduced mode is a precondition on the theory, which the callers check.
    """
    rules, line = index.rules(q), index.line
    if tag is Tag.PLUS_DELTA or tag is Tag.MINUS_DELTA:
        if index.fact(q):
            return ("fact", [], []) if tag is Tag.PLUS_DELTA else None
        strict = list(filter(index.strict, rules))
        if tag is Tag.PLUS_DELTA:
            found, clause = _fired(index, strict, tag), "strict rule fires"
        else:
            found, clause = _blocked(index, strict, tag), "not a fact, every strict rule blocked"
        return None if found is None else (clause, *found)

    nq = index.complement(q)
    supporters = list(filter(index.supports, rules))

    def counterattackers(s: Any) -> list:
        return [t for t in supporters if index.superior(t, s)]

    if tag is Tag.PLUS_PARTIAL:
        definite = line(Tag.PLUS_DELTA, q)
        if definite is not None:
            return "already definite", [], [definite]
        found, refuted = _fired(index, supporters, tag), line(Tag.MINUS_DELTA, nq)
        if found is None or refuted is None:
            return None
        used, premises = found[0], [*found[1], refuted]
        for s in index.rules(nq):
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
    for s in index.rules(nq):
        attack = _fired(index, [s], Tag.PLUS_PARTIAL)
        countered = attack and _blocked(index, counterattackers(s), tag)
        if countered:
            return ("applicable attacker no superior rule overrides",
                    attack[0] + countered[0], [refuted, *attack[1], *countered[1]])
    return None


def _fired(index: _Index, rules: Iterable, tag: Tag) -> tuple[list, list] | None:
    """The first of `rules` with every antecedent a `tag` line, and those lines."""
    for r in rules:
        lines = [index.line(tag, a) for a in index.body(r)]
        if None not in lines:
            return [r], lines
    return None


def _blocked(index: _Index, rules: list, tag: Tag) -> tuple[list, list] | None:
    """`rules`, each with a `tag` line for one of its antecedents, and those lines."""
    lines = []
    for r in rules:
        for a in index.body(r):
            found = index.line(tag, a)
            if found is not None:
                lines.append(found)
                break
        else:
            return None
    return rules, lines
