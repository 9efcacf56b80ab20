"""Domain types for propositional defeasible theories.

A theory is a triple of facts, labelled rules, and a superiority relation
between rule labels.  Rules come in three kinds: strict rules fire whenever
their antecedents are indisputable, defeasible rules support conclusions but
can be defeated by contrary evidence, and defeaters can only block
conclusions.  Everything in this module is immutable and hashable; theories
compare structurally, ignoring the storage order of facts and rules.  The
value types are plain classes on :class:`_Value`: slotted (except
:class:`Theory`, whose derived views are cached properties) and compared by
their fields in order.  Atoms and literals are hash-consed: constructing one
returns the single object for its fields, kept for the life of the process
in a table no other module reads, so they compare and hash by identity, in
C.  An atom is built together with its two literals and its spelling, which
every printer and matcher reads instead of spelling the atom again.

Atoms may carry arguments.  Uppercase-initial arguments are variables, which
makes the enclosing rule a schema; :func:`ground` expands schemas over the
constants occurring anywhere in the theory.

Symbols introduced by the transformation passes live in a reserved namespace
marked by ``$``, which the input grammar forbids in user identifiers, so
generated names can never collide with user names.  This module only
recognises them; :mod:`deflog.transform` spells each one where it mints it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator

GENERATED_MARKER = "$"

# Writes a field of a new instance past the `__setattr__` that refuses it.
_assign = object.__setattr__


class DeflogError(Exception):
    """Base class for all errors raised by this package."""


class TheoryError(DeflogError):
    """A theory is structurally invalid (duplicate or dangling labels)."""


class GroundingError(DeflogError):
    """A schema cannot be instantiated."""


class PreconditionError(DeflogError):
    """An operation was applied to input that violates its contract."""


def _is_variable(name: str) -> bool:
    return name[:1].isupper()


class _Value:
    """Base of the immutable value types.

    A subclass's annotated names are its fields, in order.  Instances are
    equal when they have the same class and equal fields; they hash, print
    and pickle by the field tuple, as a frozen dataclass does.  Assigning or
    deleting an attribute raises :class:`AttributeError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", cls._fields))
        if len(fields) > 1:  # `attrgetter` returns a tuple for two names or more
            cls._values = staticmethod(attrgetter(*fields))

    @staticmethod
    def _values(value: _Value) -> tuple:
        """The field tuple of `value`; called as ``value._values(value)``."""
        return tuple(map(value.__getattribute__, value._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__


class Atom(_Value):
    """A named proposition, optionally applied to arguments.

    Arguments are flat identifiers: lowercase-initial ones are constants,
    uppercase-initial ones are variables.  There are no function symbols.
    There is one atom per ``(name, args)``: equal atoms are the same object.
    """

    __slots__ = ("name", "args", "_text", "_positive", "_negative")  # spelling, literals
    name: str
    args: tuple[str, ...]
    # (name, args) -> the atom.  `setdefault` keeps the first of two atoms
    # built at once by two threads, so no atom, and no literal, has twins.
    _shared = {}  # not annotated: annotated names are fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name: str, args: Iterable[str] = ()) -> Atom:
        args = tuple(args)
        atom = cls._shared.get((name, args))
        if atom is None:
            if not name:
                raise TheoryError("atom name must be nonempty")
            atom = object.__new__(cls)
            _assign(atom, "name", name)
            _assign(atom, "args", args)
            _assign(atom, "_text", f"{name}({','.join(args)})" if args else name)
            for slot, positive in (("_positive", True), ("_negative", False)):
                literal = object.__new__(Literal)
                _assign(literal, "atom", atom)
                _assign(literal, "positive", positive)
                _assign(atom, slot, literal)
            atom = cls._shared.setdefault((name, args), atom)
        return atom

    @property
    def generated(self) -> bool:
        """True for atoms minted by a transformation pass."""
        return GENERATED_MARKER in self.name

    @property
    def is_ground(self) -> bool:
        return not any(_is_variable(a) for a in self.args)

    def __str__(self) -> str:
        return self._text


class Literal(_Value):
    """A signed atom; the unit of facts, antecedents, heads and conclusions.

    There is one literal per ``(atom, positive)``, built with its atom:
    `positive` is ``True`` or ``False`` however the sign was spelled.
    """

    __slots__ = ("atom", "positive")
    atom: Atom
    positive: bool
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, atom: Atom, positive: bool = True) -> Literal:
        if atom.__class__ is not Atom:
            raise TypeError(f"a literal's atom must be an Atom, not {type(atom).__name__}")
        return atom._positive if positive else atom._negative

    def complement(self) -> Literal:
        return self.atom._negative if self.positive else self.atom._positive

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def __str__(self) -> str:
        return self.atom._text if self.positive else "~" + self.atom._text


# An atom's two literals, positive first, read without a Python-level call.
_LITERALS_OF = attrgetter("_positive", "_negative")


def _spellings(atoms: Iterable[Atom | str]) -> set[str]:
    """The spelling of each of `atoms`, without a Python-level call: a
    string spells itself and an atom keeps its own."""
    return {a if isinstance(a, str) else a._text for a in atoms}


# Sorts literals without a Python-level call, by spelling and then sign; sort
# a set of literals by it wherever iteration order can show.
_LITERAL_ORDER = attrgetter("atom.name", "atom.args", "positive")


class RuleKind(Enum):
    """The three rule arrows."""

    STRICT = "->"
    DEFEASIBLE = "=>"
    DEFEATER = "~>"

    @property
    def arrow(self) -> str:
        return self.value


class Rule(_Value):
    """A labelled rule: finite antecedent set, arrow kind, head literal."""

    __slots__ = ("label", "antecedent", "kind", "head")
    label: str
    antecedent: frozenset[Literal]
    kind: RuleKind
    head: Literal

    def __init__(self, label: str, antecedent: Iterable[Literal], kind: RuleKind,
                 head: Literal) -> None:
        if not label:
            raise TheoryError("rule label must be nonempty")
        antecedent = frozenset(antecedent)
        _assign(self, "label", label)
        _assign(self, "antecedent", antecedent)
        _assign(self, "kind", kind)
        _assign(self, "head", head)

    @property
    def generated(self) -> bool:
        return GENERATED_MARKER in self.label

    @property
    def is_ground(self) -> bool:
        # A list, as in `Theory.is_ground`.
        return all([lit.is_ground for lit in (self.head, *self.antecedent)])

    def __str__(self) -> str:
        return _rule_line(self, str)


def _rule_line(rule: Rule, spell: Callable[[Literal], str]) -> str:
    """`rule` as a `.dfl` line without its ``.``, each literal spelled by `spell`."""
    ants = ", ".join(sorted(map(spell, rule.antecedent)))
    body = f"{ants} {rule.kind._value_}" if ants else rule.kind._value_
    return f"{rule.label}: {body} {spell(rule.head)}"


class Sigma(_Value):
    """The language of a theory: its user-visible atoms and rule labels."""

    __slots__ = ("atoms", "labels")
    atoms: frozenset[Atom]
    labels: frozenset[str]

    def __init__(self, atoms: frozenset[Atom], labels: frozenset[str]) -> None:
        _assign(self, "atoms", atoms)
        _assign(self, "labels", labels)


class Theory(_Value):
    """A defeasible theory: facts, rules and a superiority relation.

    Facts and rules keep their source order for deterministic serialization,
    but equality is order-insensitive: two theories are equal when they hold
    the same facts, the same rules and the same superiority pairs.

    Construction validates that rule labels are unique and that every label
    mentioned in the superiority relation names a rule of the theory.
    Superiority pairs between rules whose heads are not complementary are
    accepted and stored; well-formedness is a separate, advisory check.
    """

    facts: tuple[Literal, ...]
    rules: tuple[Rule, ...]
    superiority: frozenset[tuple[str, str]]

    def __init__(
        self,
        facts: Iterable[Literal] = (),
        rules: Iterable[Rule] = (),
        superiority: Iterable[tuple[str, str]] = frozenset(),
    ) -> None:
        facts = tuple(dict.fromkeys(facts))
        rules = tuple(rules)
        superiority = frozenset(superiority)
        seen = set(map(attrgetter("label"), rules))
        if len(seen) < len(rules):  # name the first duplicate
            seen = set()
            for rule in rules:
                if rule.label in seen:
                    raise TheoryError(f"duplicate label {rule.label!r}")
                seen.add(rule.label)
        for sup, inf in superiority:
            for label in (sup, inf):
                if label not in seen:
                    raise TheoryError(f"unknown label {label!r} in superiority relation")
        # No slots: the cached properties below share this `__dict__`, and
        # so does the solver of the first `engine.conclusions` or
        # `engine.prove` call, kept for every later one.
        vars(self).update(facts=facts, rules=rules, superiority=superiority)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return (
            frozenset(self.facts) == frozenset(other.facts)
            and frozenset(self.rules) == frozenset(other.rules)
            and self.superiority == other.superiority
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.facts), frozenset(self.rules), self.superiority))

    @cached_property
    def rule_map(self) -> dict[str, Rule]:
        return {r.label: r for r in self.rules}

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        """Every atom occurring in a fact, head or antecedent."""
        rules = self.rules
        literals = set(self.facts).union([r.head for r in rules], *[r.antecedent for r in rules])
        return frozenset(map(attrgetter("atom"), literals))

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.rule_map)

    @cached_property
    def sigma(self) -> Sigma:
        """The user language: non-generated atoms and labels only."""
        return Sigma(self._user_atoms,
                     frozenset(l for l in self.labels if GENERATED_MARKER not in l))

    @cached_property
    def _user_atoms(self) -> frozenset[Atom]:
        """The atoms of `sigma`, without its labels and with no Python-level
        call per atom."""
        return frozenset([a for a in self.atoms if GENERATED_MARKER not in a.name])

    @cached_property
    def is_ground(self) -> bool:
        # A list, not a generator: an early exit would make the work follow
        # the order of `atoms`, which is by memory address.
        return not any([_is_variable(arg) for atom in self.atoms for arg in atom.args])

    @property
    def has_generated_symbols(self) -> bool:
        # A list, as in `is_ground`.
        return (len(self._user_atoms) < len(self.atoms)
                or any([GENERATED_MARKER in r.label for r in self.rules]))

    def size(self) -> int:
        """Number of knowledge units: facts + rules + superiority pairs."""
        return len(self.facts) + len(self.rules) + len(self.superiority)


class WellFormedReport(_Value):
    """Advisory well-formedness flags for a theory's superiority relation."""

    __slots__ = ("acyclic", "complementary")
    acyclic: bool
    complementary: bool

    def __init__(self, acyclic: bool, complementary: bool) -> None:
        _assign(self, "acyclic", acyclic)
        _assign(self, "complementary", complementary)

    @property
    def ok(self) -> bool:
        return self.acyclic and self.complementary


def check_well_formed(theory: Theory) -> WellFormedReport:
    """Report whether the superiority relation is acyclic and only relates
    rules with complementary heads.

    Acyclicity means the transitive closure of the relation is irreflexive,
    i.e. the label graph has no directed cycle.
    """
    from graphlib import CycleError, TopologicalSorter  # not loaded by `deflog conclusions`

    graph: dict[str, list[str]] = {}
    for sup, inf in theory.superiority:
        graph.setdefault(sup, []).append(inf)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:  # a self-pair is a cycle too
        acyclic = False
    else:
        acyclic = True
    # A list, as in `Theory.is_ground`: the pairs iterate in string-hash order.
    rule_map = theory.rule_map
    heads = [(rule_map[sup].head, rule_map[inf].head) for sup, inf in theory.superiority]
    complementary = all([a.atom is b.atom and a.positive != b.positive for a, b in heads])
    return WellFormedReport(acyclic=acyclic, complementary=complementary)


class NormalFormReport(_Value):
    """Flags for the normal-form conditions.

    `literal_rule_condition`: every literal is defined solely by strict
    rules, or by at most one strict rule plus non-strict rules.
    `no_strict_in_sup`: no strict rule participates in the superiority
    relation.  `no_facts`: the fact set is empty.
    """

    __slots__ = ("literal_rule_condition", "no_strict_in_sup", "no_facts")
    literal_rule_condition: bool
    no_strict_in_sup: bool
    no_facts: bool

    def __init__(self, literal_rule_condition: bool, no_strict_in_sup: bool,
                 no_facts: bool) -> None:
        _assign(self, "literal_rule_condition", literal_rule_condition)
        _assign(self, "no_strict_in_sup", no_strict_in_sup)
        _assign(self, "no_facts", no_facts)

    @property
    def ok(self) -> bool:
        return self.literal_rule_condition and self.no_strict_in_sup and self.no_facts


def check_normal(theory: Theory) -> NormalFormReport:
    strict = RuleKind.STRICT
    strict_rules = [r for r in theory.rules if r.kind is strict]
    strict_heads = Counter([r.head for r in strict_rules])
    literal_ok = all(
        strict_heads.get(r.head, 0) <= 1
        for r in theory.rules if r.kind is not strict
    )
    strict_labels = {r.label for r in strict_rules}
    # A list, as in `check_well_formed`.
    sup_ok = all([sup not in strict_labels and inf not in strict_labels
                  for sup, inf in theory.superiority])
    return NormalFormReport(
        literal_rule_condition=literal_ok,
        no_strict_in_sup=sup_ok,
        no_facts=not theory.facts,
    )


def ground(theory: Theory) -> Theory:
    """Expand every rule schema over the constants of the theory.

    The Herbrand universe is the set of constants occurring anywhere in the
    theory.  Each schema rule yields one instance per assignment of constants
    to its variables; variable-free rules pass through unchanged.  A
    superiority pair between schemas induces pairs between instances that
    agree on the variables the two schemas share (variables are matched by
    name) and the full cross product on the remaining ones: the inferior's
    instances are indexed by their values on the shared variables, so the
    work is linear in the instances and the pairs produced.
    """
    if theory.is_ground:
        return theory
    for f in theory.facts:
        if not f.is_ground:
            raise GroundingError(f"variables are not allowed in facts: {f}")
    constants = sorted(
        {arg for atom in theory.atoms for arg in atom.args if not _is_variable(arg)}
    )
    if not constants:
        raise GroundingError("empty Herbrand universe")

    ranked = {label for pair in theory.superiority for label in pair}
    # Per rule in a superiority pair: its variables and its instances'
    # labels, in the order of `itertools.product` over their values.
    schemas: dict[str, tuple[list[str], list[str]]] = {}
    rules: list[Rule] = []
    for rule in theory.rules:
        variables = sorted({arg for lit in (rule.head, *rule.antecedent)
                            for arg in lit.atom.args if _is_variable(arg)})
        start = len(rules)
        if variables:
            rules.extend(_instances(rule, variables, constants))
        else:
            rules.append(rule)
        if rule.label in ranked:
            schemas[rule.label] = variables, [r.label for r in rules[start:]]

    superiority: set[tuple[str, str]] = set()
    for sup, inf in theory.superiority:
        (sup_vars, sup_labels), (inf_vars, inf_labels) = schemas[sup], schemas[inf]
        shared = [v for v in sup_vars if v in inf_vars]
        sup_at = [sup_vars.index(v) for v in shared]
        inf_at = [inf_vars.index(v) for v in shared]
        by_shared: dict[tuple[str, ...], list[str]] = {}
        for values, label in zip(itertools.product(constants, repeat=len(inf_vars)), inf_labels):
            by_shared.setdefault(tuple(values[i] for i in inf_at), []).append(label)
        for values, label in zip(itertools.product(constants, repeat=len(sup_vars)), sup_labels):
            key = tuple(values[i] for i in sup_at)
            superiority.update((label, other) for other in by_shared[key])

    return Theory(theory.facts, tuple(rules), frozenset(superiority))


def _instances(rule: Rule, variables: list[str], constants: list[str]) -> Iterator[Rule]:
    """The instances of schema `rule`, one per assignment of `constants` to
    its sorted `variables`, in the order of `itertools.product`.  An
    instance's label is the schema's plus its constants: ``r[a,b]``."""
    label = rule.label
    templates = [(lit.atom.name, lit.atom.args, lit.positive)
                 for lit in (rule.head, *rule.antecedent)]
    for values in itertools.product(constants, repeat=len(variables)):
        binding = dict(zip(variables, values))
        bound = [Literal(Atom(name, tuple(map(binding.get, args, args))), positive)
                 for name, args, positive in templates]
        yield Rule(f"{label}[{','.join(values)}]", bound[1:], rule.kind, bound[0])


def theory_union(*theories: Theory) -> Theory:
    """Union of theories: facts, rules and superiority pairs combined.

    Identical rules (same label and same content) collapse; a label reused
    for a different rule is an error.
    """
    facts: dict[Literal, None] = {}
    rules: dict[str, Rule] = {}
    order: list[Rule] = []
    superiority: set[tuple[str, str]] = set()
    for t in theories:
        facts.update(dict.fromkeys(t.facts))
        for r in t.rules:
            prior = rules.get(r.label)
            if prior is None:
                rules[r.label] = r
                order.append(r)
            elif prior != r:
                raise TheoryError(f"conflicting definitions for label {r.label!r}")
        superiority |= t.superiority
    return Theory(tuple(facts), tuple(order), frozenset(superiority))


class Tag(Enum):
    """The four conclusion tags: definite/defeasible, provable/refuted."""

    PLUS_DELTA = "+D"
    MINUS_DELTA = "-D"
    PLUS_PARTIAL = "+d"
    MINUS_PARTIAL = "-d"


class TaggedLiteral(_Value):
    """A literal annotated with one of the four conclusion tags."""

    __slots__ = ("tag", "literal")
    tag: Tag
    literal: Literal

    def __init__(self, tag: Tag, literal: Literal) -> None:
        _assign(self, "tag", tag)
        _assign(self, "literal", literal)

    def __str__(self) -> str:
        return f"{self.tag.value} {self.literal}"
