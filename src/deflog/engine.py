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
"Propositional Defeasible Logic has Linear Complexity" (TPLP 1(6), 2001).
A ground theory is compiled once into integer tables: atoms are interned, a
literal is ``2 * atom + negated`` (so its complement is ``q ^ 1``) and rules
get dense ids.  Counters decide all four conditions.  Per rule they track
the antecedents not yet proved, whether one is refuted, the superior rules
not yet blocked and whether one of them fired.  Per literal they count, over
the rules with that head, the supporting rules that fired and those not yet
blocked, the rules neither blocked nor overridden, and the rules that fired
with every superior rule blocked.  Deriving a tagged literal updates the
counters of the rules that use it, and a conclusion is queued only when one
of its inputs crosses its threshold, then checked in constant time, so the
fixpoint runs in time linear in the size of the theory.  One evaluator
serves both modes.

The candidate universe contains both polarities of every atom occurring in
the theory, so refutations of literals whose polarity is never mentioned are
still derived.  A theory is compiled and solved once, on its first engine
call, and the solver is kept on the `Theory` object for every later
`conclusions` (either mode, any extra atoms) and `prove` call.  Extra atoms
are not compiled: one the theory does not mention has no fact and no rule,
so `conclusions` adds `-D` and `-d` of both its literals to the result.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import compress, groupby
from operator import itemgetter
from typing import Iterable

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
        return {
            Tag.PLUS_DELTA: self.plus_delta,
            Tag.MINUS_DELTA: self.minus_delta,
            Tag.PLUS_PARTIAL: self.plus_partial,
            Tag.MINUS_PARTIAL: self.minus_partial,
        }[tag]

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

        def flt(s: frozenset[Literal]) -> frozenset[Literal]:
            return frozenset(l for l in s if str(l.atom) in keep)

        return ConclusionSet(
            flt(self.plus_delta), flt(self.minus_delta),
            flt(self.plus_partial), flt(self.minus_partial),
        )

    def lines(self) -> list[str]:
        """The serialized listing: one `<tag> <literal>` per line, sorted."""
        out: list[str] = []
        for tag in (Tag.PLUS_DELTA, Tag.MINUS_DELTA, Tag.PLUS_PARTIAL, Tag.MINUS_PARTIAL):
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


class _Index:
    """Rules by head literal, as :func:`replay` consults them."""

    def __init__(self, theory: Theory):
        self.theory = theory
        self.facts = frozenset(theory.facts)
        self.strict: dict[Literal, list[Rule]] = {}
        self.supporters: dict[Literal, list[Rule]] = {}  # strict + defeasible
        self.all_rules: dict[Literal, list[Rule]] = {}
        for rule in theory.rules:
            self.all_rules.setdefault(rule.head, []).append(rule)
            if rule.kind == RuleKind.STRICT:
                self.strict.setdefault(rule.head, []).append(rule)
            if rule.kind != RuleKind.DEFEATER:
                self.supporters.setdefault(rule.head, []).append(rule)

    def strict_for(self, q: Literal) -> list[Rule]:
        return self.strict.get(q, [])

    def supporters_for(self, q: Literal) -> list[Rule]:
        return self.supporters.get(q, [])


# Tag codes of the solver; a queued or logged entry is `literal << 2 | code`.
_PD, _MD, _PP, _MP = range(4)
_TAGS = (Tag.PLUS_DELTA, Tag.MINUS_DELTA, Tag.PLUS_PARTIAL, Tag.MINUS_PARTIAL)


def _group(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Group ids by key: entry k is the tuple of ids paired with k.

    Tuples of ints drop out of the cyclic garbage collector's view, where
    one list per key would make every full collection rescan them.
    """
    out: list[tuple[int, ...]] = [()] * n
    for k, group in groupby(sorted(pairs), itemgetter(0)):
        out[k] = tuple(map(itemgetter(1), group))
    return out


def _tally(n: int, keys: Iterable[int]) -> list[int]:
    """How often each of the keys 0..n-1 occurs."""
    out = [0] * n
    for k in keys:
        out[k] += 1
    return out


class _Solver:
    """Counter-driven worklist fixpoint over integer tables.

    Compilation interns atoms (literal ``q`` is ``2 * atom + negated``),
    those of facts and heads in theory order and then those only antecedents
    mention by (name, args), so the log is the same in every process; rules
    keep their theory order.  Per literal there are the rules with that head
    and the rules with it in their antecedent; per rule, its head, its
    antecedent, whether it is strict and whether it supports (is not a
    defeater), and its counterattackers: the supporting rules for the
    complement of its head declared superior to it, the only rules that can
    override it.  `overrides[t]` lists the rules `t` counterattacks.

    Per rule the fixpoint keeps `fire`, the antecedents not yet in `+d`,
    and `blocked`, set once one is in `-d`; `sup_open`, its counterattackers
    not yet blocked, and `countered`, set once one of them fires; and
    `delta_fire` and `delta_blocked` against `+D`/`-D`, which start so that
    a rule that is not strict never fires and is always blocked at the
    definite level.  Per literal `q` it keeps, over the rules with head `q`:

    * `delta_open`: the strict rules not yet blocked, plus one if `q` is a
      fact;
    * `can_support`: the supporting rules that fired;
    * `open_support`: the supporting rules not yet blocked;
    * `live`: the rules neither blocked nor countered;
    * `winning`: the rules that fired with every counterattacker blocked.

    The conditions read these counters.  `+D q` holds once a strict rule for
    `q` fires and `-D q` once `delta_open[q]` is 0.  `+d q` holds iff `+D q`,
    or `can_support[q] > 0`, `-D ~q` and `live[~q] == 0`.  `-d q` holds iff
    `-D q` and one of `open_support[q] == 0`, `+D ~q` or `winning[~q] > 0`.
    Deriving a tagged literal updates the counters through the antecedent
    index, and through `overrides` when a supporting rule fires or is
    blocked.  A conclusion is queued only when one of its inputs crosses its
    threshold (a counter reaching 0, or 1 from 0, or a tag it reads being
    derived), so at most four times, and each check when it is popped is
    O(1).  Every counter moves at most once per antecedent of a rule or per
    superiority pair, so the run is linear in the size of the theory.
    Every derivation is logged in order, which is all :func:`prove` needs
    to rebuild supports; the position map `seq` is built on its first call.
    """

    def __init__(self, theory: Theory):
        self.ids: dict[tuple[str, tuple[str, ...]], int] = {}
        self.atoms: list[Atom] = []
        # The theory's own Literal objects, reused for results where present.
        self.literals: list[Literal | None] = []
        intern = self.ids.setdefault

        def lit(literal: Literal) -> int:
            atom = literal.atom
            i = intern((atom.name, atom.args), len(self.atoms))
            if i == len(self.atoms):
                self.atoms.append(atom)
                self.literals += (None, None)
            q = 2 * i + (not literal.positive)
            if self.literals[q] is None:
                self.literals[q] = literal
            return q

        facts = list(map(lit, theory.facts))
        rules = theory.rules
        self.labels = [r.label for r in rules]
        self.head = head = [lit(r.head) for r in rules]
        # Antecedents are sets, iterated in an order that follows the
        # process's string hashes, so the atoms only they mention are
        # numbered by (name, args); the log then is the same in every process.
        in_bodies = {(a.atom.name, a.atom.args): a for r in rules for a in r.antecedent}
        for key in sorted(in_bodies.keys() - self.ids.keys()):
            lit(in_bodies[key])
        self.body = [tuple(map(lit, r.antecedent)) for r in rules]
        n = 2 * len(self.atoms)

        self.fact = bytearray(n)
        for q in facts:
            self.fact[q] = 1
        self.strict = bytearray(r.kind == RuleKind.STRICT for r in rules)
        self.supports = supports = bytearray(r.kind != RuleKind.DEFEATER for r in rules)
        self.rules_for = _group(n, zip(head, range(len(rules))))
        self.uses = _group(n, ((a, r) for r, body in enumerate(self.body) for a in body))

        superiors: dict[str, set[str]] = {}
        for sup, inf in theory.superiority:
            superiors.setdefault(inf, set()).add(sup)
        self.counter: list[tuple[int, ...]] = [()] * len(rules)
        for r, label in enumerate(self.labels):
            if label in superiors:
                self.counter[r] = tuple(t for t in self.supporters_for(head[r] ^ 1)
                                        if self.labels[t] in superiors[label])
        self.overrides = _group(len(rules), ((t, s) for s, ts in enumerate(self.counter)
                                             for t in ts))

        self.fire = fire = [len(b) for b in self.body]
        self.blocked = bytearray(len(rules))
        self.sup_open = list(map(len, self.counter))
        self.countered = bytearray(len(rules))
        for t, k in enumerate(fire):
            if not k:
                for s in self.overrides[t]:
                    self.countered[s] = 1
        self.can_support = _tally(n, (h for h, sup, k in zip(head, supports, fire)
                                      if sup and not k))
        self.open_support = _tally(n, compress(head, supports))
        self.live = _tally(n, (h for h, c in zip(head, self.countered) if not c))
        self.winning = _tally(n, (h for h, k, o in zip(head, fire, self.sup_open)
                                  if not k and not o))

        self.delta_fire = [k + (not strict) for k, strict in zip(self.fire, self.strict)]
        self.delta_blocked = bytearray(not strict for strict in self.strict)
        self.delta_open = list(self.fact)
        for h, strict in zip(head, self.strict):
            self.delta_open[h] += strict
        self.derived = [bytearray(n) for _ in _TAGS]
        self.log: list[int] = []

    @cached_property
    def seq(self) -> dict[int, int]:
        """Entry -> position in `log`; built on the first :func:`prove`."""
        return {x: i for i, x in enumerate(self.log)}

    def literal(self, q: int) -> Literal:
        literal = self.literals[q]
        if literal is None:
            literal = self.literals[q] = Literal(self.atoms[q >> 1], not q & 1)
        return literal

    def strict_for(self, q: int) -> list[int]:
        return [r for r in self.rules_for[q] if self.strict[r]]

    def supporters_for(self, q: int) -> list[int]:
        return [r for r in self.rules_for[q] if self.supports[r]]

    def run(self) -> None:
        derived, head, supports, uses = self.derived, self.head, self.supports, self.uses
        fire, blocked, sup_open, countered = self.fire, self.blocked, self.sup_open, self.countered
        overrides, can_support, open_support = self.overrides, self.can_support, self.open_support
        live, winning = self.live, self.winning
        delta_fire, delta_blocked, delta_open = self.delta_fire, self.delta_blocked, self.delta_open
        plus_delta, minus_delta = derived[_PD], derived[_MD]
        log = self.log
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

    def support(self, x: int) -> tuple[str, list[int], list[int]]:
        """Why logged entry `x` holds, from entries logged before it only:
        the clause, the rules consulted and the premise entries."""
        seq = self.seq
        before = seq[x]
        code, q = x & 3, x >> 2
        nq = q ^ 1

        def earlier(entry: int) -> bool:
            return seq.get(entry, before) < before

        def body(r: int, code: int) -> list[int]:
            # In literal order: the premises picked are the same in every process.
            return [a << 2 | code for a in sorted(self.body[r])]

        def applicable(r: int, code: int) -> list[int] | None:
            premises = body(r, code)
            return premises if all(map(earlier, premises)) else None

        def blocker(r: int, code: int) -> int | None:
            return next(filter(earlier, body(r, code)), None)

        def first_applicable(rules: Iterable[int], code: int) -> tuple[int, list[int]]:
            for r in rules:
                premises = applicable(r, code)
                if premises is not None:
                    return r, premises
            raise AssertionError(f"no applicable rule for logged entry {x}")

        if code == _PD:
            if self.fact[q]:
                return "fact", [], []
            r, premises = first_applicable(self.strict_for(q), _PD)
            return "strict rule fires", [r], premises
        if code == _MD:
            rules = self.strict_for(q)
            return ("not a fact, every strict rule blocked",
                    rules, [blocker(r, _MD) for r in rules])
        if code == _PP:
            if earlier(q << 2 | _PD):
                return "already definite", [], [q << 2 | _PD]
            r, premises = first_applicable(self.supporters_for(q), _PP)
            rules = [r]
            premises.append(nq << 2 | _MD)
            for s in self.rules_for[nq]:
                w = blocker(s, _MP)
                if w is not None:
                    rules.append(s)
                    premises.append(w)
                else:
                    t, applied = first_applicable(self.counter[s], _PP)
                    rules.append(t)
                    premises.extend(applied)
            return ("supported, complement not definite, every attack "
                    "blocked or counterattacked by a superior rule", rules, premises)
        base = [q << 2 | _MD]
        supporters = self.supporters_for(q)
        witnesses = [blocker(r, _MP) for r in supporters]
        if None not in witnesses:
            return "every supporting rule blocked", supporters, base + witnesses
        if earlier(nq << 2 | _PD):
            return "complement definitely provable", [], base + [nq << 2 | _PD]
        for s in self.rules_for[nq]:
            applied = applicable(s, _PP)
            if applied is None:
                continue
            counters = [blocker(t, _MP) for t in self.counter[s]]
            if None not in counters:
                return ("applicable attacker no superior rule overrides",
                        [s, *self.counter[s]], base + applied + counters)
        raise AssertionError(f"no support for logged entry {x}")


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
    literals = list(map(solver.literal, range(len(solver.fact))))
    found = [frozenset(compress(literals, done)) for done in solver.derived]
    # An atom with no fact and no rule has both of its literals refuted at
    # both levels, and nothing else.
    absent = frozenset(
        Literal(atom, positive)
        for atom in (Atom(a) if isinstance(a, str) else a for a in extra_atoms)
        if (atom.name, atom.args) not in solver.ids for positive in (True, False))
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
    atom = goal.literal.atom
    if (atom.name, atom.args) not in solver.ids:
        raise PreconditionError(f"unknown atom: {atom}")
    q = 2 * solver.ids[atom.name, atom.args] + (not goal.literal.positive)
    target = q << 2 | _TAGS.index(goal.tag)
    seq = solver.seq
    if target not in seq:
        return None
    supports: dict[int, tuple[str, list[int], list[int]]] = {}
    stack = [target]
    while stack:
        x = stack.pop()
        if x not in supports:
            supports[x] = solver.support(x)
            stack.extend(supports[x][2])

    order = sorted(supports, key=seq.__getitem__)
    tagged = {x: TaggedLiteral(_TAGS[x & 3], solver.literal(x >> 2)) for x in order}
    return Derivation(tuple(
        DerivationLine(tagged[x], supports[x][0],
                       tuple(dict.fromkeys(solver.labels[r] for r in supports[x][1])),
                       tuple(map(tagged.__getitem__, dict.fromkeys(supports[x][2]))))
        for x in order
    ))


def replay(theory: Theory, derivation: Derivation, mode: Mode = Mode.FULL) -> bool:
    """Check a derivation line by line.

    True iff every line's inference condition holds given only the lines
    before it.  The recorded clause and rule annotations are informative;
    validity is judged against the conditions themselves.
    """
    index = _Index(theory)
    have: set[TaggedLiteral] = set()
    for line in derivation.lines:
        if not _line_holds(index, line.conclusion, have, mode):
            return False
        have.add(line.conclusion)
    return True


def _line_holds(
    index: _Index, tagged: TaggedLiteral, have: set[TaggedLiteral], mode: Mode
) -> bool:
    q = tagged.literal
    nq = q.complement()

    def holds(tag: Tag, lit: Literal) -> bool:
        return TaggedLiteral(tag, lit) in have

    def applicable(r: Rule, tag: Tag) -> bool:
        return all(holds(tag, a) for a in r.antecedent)

    def discarded(r: Rule, tag: Tag) -> bool:
        return any(holds(tag, a) for a in r.antecedent)

    if tagged.tag == Tag.PLUS_DELTA:
        return q in index.facts or any(
            applicable(r, Tag.PLUS_DELTA) for r in index.strict_for(q)
        )
    if tagged.tag == Tag.MINUS_DELTA:
        return q not in index.facts and all(
            discarded(r, Tag.MINUS_DELTA) for r in index.strict_for(q)
        )

    sup = index.theory.superiority
    if tagged.tag == Tag.PLUS_PARTIAL:
        if holds(Tag.PLUS_DELTA, q):
            return True
        supporters = (index.supporters_for(q) if mode == Mode.FULL
                      else index.all_rules.get(q, []))
        if not any(applicable(r, Tag.PLUS_PARTIAL) for r in supporters):
            return False
        if not holds(Tag.MINUS_DELTA, nq):
            return False
        for s in index.all_rules.get(nq, ()):
            if discarded(s, Tag.MINUS_PARTIAL):
                continue
            if mode == Mode.REDUCED:
                return False
            if not any(
                applicable(t, Tag.PLUS_PARTIAL) and (t.label, s.label) in sup
                for t in index.supporters_for(q)
            ):
                return False
        return True

    # minus partial
    if not holds(Tag.MINUS_DELTA, q):
        return False
    supporters = (index.supporters_for(q) if mode == Mode.FULL
                  else index.all_rules.get(q, []))
    if all(discarded(r, Tag.MINUS_PARTIAL) for r in supporters):
        return True
    if holds(Tag.PLUS_DELTA, nq):
        return True
    for s in index.all_rules.get(nq, ()):
        if not applicable(s, Tag.PLUS_PARTIAL):
            continue
        if mode == Mode.REDUCED:
            return True
        if all(
            discarded(t, Tag.MINUS_PARTIAL) or (t.label, s.label) not in sup
            for t in index.supporters_for(q)
        ):
            return True
    return False
