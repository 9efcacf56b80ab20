"""Conclusion-preserving theory transformations.

Three passes, each of which preserves all conclusions expressible in the
input's own language.  Each spells the ``$``-symbols it mints (below, for a
label ``r``, an atom ``p`` and a literal ``l``) where it mints them:

* :func:`normal` eliminates facts and separates definite from defeasible
  reasoning.  A strict rule ``r`` is duplicated into a primed copy ``r$p``
  over primed atoms ``$p(p)`` that does the definite work and a defeasible
  twin that keeps ``r``; a fact ``l`` becomes the rule ``$f(l)``; primed
  conclusions flow back through one strict bridge rule ``$b(l)`` per
  affected literal.
* :func:`elim_dft` eliminates defeaters.  Each rule's head atom gains a
  support atom ``$pl(p)`` and a block atom ``$mi(p)``; a rule ``r`` that is
  not a defeater becomes ``r$+``, ``r$-`` and a linking rule ``r``, and a
  defeater translates into a defeasible rule that attacks the one backing
  the opposite conclusion, and no other.
* :func:`elim_sup` empties the superiority relation.  Each rule ``r`` that
  is not strict gains a pair of inferiority atoms, ``$ip(r)`` usable for
  counterattack and ``$im(r)`` that also covers defeaters, and becomes
  ``r$a+``, ``r$b+`` (if defeasible), ``r$a-`` and ``r$b-``; each declared
  priority ``s > i`` becomes the rules ``$s+(s,i)`` and ``$s-(s,i)``, which
  propagate inferiority.

:func:`pipeline` composes the three in that order, yielding a theory with no
facts, no defeaters and an empty superiority relation, on which the engine's
reduced mode applies.  Each public pass checks its own preconditions;
`pipeline` checks its input once and then runs the three bodies unchecked,
since the stages in between are normal and well-formed by construction.

Each pass is a pure function returning the new theory plus a
:class:`TransformReport` with size accounting and the origin of every
symbol the pass minted, recorded as it mints it; a generated symbol with no
entry came from the input.  Sizes count facts, rules and superiority pairs
alike; on that measure growth is bounded by a factor of 3 for `normal` and
`elim_dft` and 4 for `elim_sup`.
"""

from __future__ import annotations

from .core import (
    Atom,
    Literal,
    PreconditionError,
    Rule,
    RuleKind,
    Theory,
    _LITERAL_ORDER,
    _assign,
    _Value,
    check_normal,
    check_well_formed,
)

# How the atoms `elim_dft` mints begin; its "already transformed" check reads them.
_PLUS, _MINUS = "$pl(", "$mi("


class TransformError(PreconditionError):
    """A transformation was applied to input outside its contract."""


class TransformReport(_Value):
    """Size accounting for one pass, plus the origin of each new symbol.

    `origins` maps the spelling of every atom and label the pass generated
    to the fact, source rule or superiority pair it came from.  A generated
    symbol of the output with no entry came from the input, and every entry
    of a single pass names a symbol of its output.  `normal` refuses
    generated input, so the merged origins that `pipeline` reports cover
    every generated symbol of its output, and they drop the labels of the
    middle stage that `elim_sup` renames, so every entry names a symbol of
    the output as well.  The growth factor is output size over input size,
    where size counts facts, rules and superiority pairs; an empty input
    reports 1.
    """

    __slots__ = ("input_facts", "input_rules", "input_superiority",
                 "output_facts", "output_rules", "output_superiority", "origins")
    input_facts: int
    input_rules: int
    input_superiority: int
    output_facts: int
    output_rules: int
    output_superiority: int
    origins: dict[str, str]

    def __init__(self, input_facts: int, input_rules: int, input_superiority: int,
                 output_facts: int, output_rules: int, output_superiority: int,
                 origins: dict[str, str] | None = None) -> None:
        _assign(self, "input_facts", input_facts)
        _assign(self, "input_rules", input_rules)
        _assign(self, "input_superiority", input_superiority)
        _assign(self, "output_facts", output_facts)
        _assign(self, "output_rules", output_rules)
        _assign(self, "output_superiority", output_superiority)
        _assign(self, "origins", {} if origins is None else origins)

    @property
    def input_size(self) -> int:
        return self.input_facts + self.input_rules + self.input_superiority

    @property
    def output_size(self) -> int:
        return self.output_facts + self.output_rules + self.output_superiority

    @property
    def growth_factor(self) -> float:
        if self.input_size == 0:
            return 1.0
        return self.output_size / self.input_size


def _with_report(source: Theory, result: Theory,
                 origins: dict[str, str]) -> tuple[Theory, TransformReport]:
    return result, TransformReport(
        input_facts=len(source.facts),
        input_rules=len(source.rules),
        input_superiority=len(source.superiority),
        output_facts=len(result.facts),
        output_rules=len(result.rules),
        output_superiority=len(result.superiority),
        origins=origins,
    )


def _require_ground(theory: Theory, op: str) -> None:
    if not theory.is_ground:
        raise TransformError(f"{op} requires a ground theory")


def normal(theory: Theory) -> tuple[Theory, TransformReport]:
    """Rewrite a theory into normal form: no facts, definite and defeasible
    reasoning separated, no strict rule in the superiority relation.

    Every fact becomes a strict rule concluding the primed copy of the fact.
    Every strict rule is split into a primed strict copy and a defeasible
    rule under the original label.  One bridge rule per literal that headed a
    strict rule or was a fact carries primed conclusions back to the original
    literal.  Defeasible rules and defeaters pass through unchanged, and so
    does the superiority relation, which afterwards touches no strict rule
    because all the labels it mentions now name defeasible rules.
    """
    _require_ground(theory, "normal")
    if theory.has_generated_symbols:
        raise TransformError("already transformed")
    return _with_report(theory, *_normal(theory))


def _normal(theory: Theory) -> tuple[Theory, dict[str, str]]:
    origins: dict[str, str] = {}
    rules: list[Rule] = []
    bridge_literals: dict[Literal, str] = {}

    for rule in theory.rules:
        if rule.kind is not RuleKind.STRICT:
            rules.append(rule)
            continue
        origin = f"strict rule {rule.label}"
        primed = Rule(
            f"{rule.label}$p",
            frozenset(_primed(a) for a in rule.antecedent),
            RuleKind.STRICT,
            _primed(rule.head),
        )
        rules.append(primed)
        rules.append(Rule(rule.label, rule.antecedent, RuleKind.DEFEASIBLE, rule.head))
        origins[primed.label] = origin
        # A primed atom has no arguments: its name is its spelling.
        origins.setdefault(primed.head.atom.name, origin)
        for a in sorted(primed.antecedent, key=_LITERAL_ORDER):
            origins.setdefault(a.atom.name, origin)
        bridge_literals.setdefault(rule.head, origin)

    for fact in theory.facts:
        origin = f"fact {fact}"
        fact_rule = Rule(f"$f({fact})", frozenset(), RuleKind.STRICT, _primed(fact))
        rules.append(fact_rule)
        origins[fact_rule.label] = origin
        origins.setdefault(fact_rule.head.atom.name, origin)
        bridge_literals.setdefault(fact, origin)

    for literal in sorted(bridge_literals, key=str):
        bridge = Rule(f"$b({literal})", frozenset((_primed(literal),)),
                      RuleKind.STRICT, literal)
        rules.append(bridge)
        origins[bridge.label] = bridge_literals[literal]

    return Theory((), tuple(rules), theory.superiority), origins


def _primed(literal: Literal) -> Literal:
    """Prime mapped through literals: the primed form of ~p is ~(p')."""
    atom = Atom(f"$p({literal.atom})")
    return atom._positive if literal.positive else atom._negative


def _dft_images(rule: Rule, support: Atom, block: Atom) -> list[Rule]:
    """The one-to-three rule translation that removes defeaters, given the
    support and block atoms of the rule's head atom.

    Positive and negative heads are symmetric: the support atom of the head
    atom backs the original conclusion through a linking rule, while the
    complement of the block atom is what attacks take aim at.  Defeaters
    collapse to a single defeasible rule against the block atom of the
    opposing polarity, so they keep their attacking power but lose any
    ability to support or counterattack.
    """
    label, antecedent, kind, head = rule.label, rule.antecedent, rule.kind, rule.head
    if kind is RuleKind.DEFEATER:
        target = block._negative if head.positive else support._negative
        return [Rule(label, antecedent, RuleKind.DEFEASIBLE, target)]
    plus, minus = f"{label}$+", f"{label}$-"
    if head.positive:
        return [
            Rule(plus, antecedent, kind, support._positive),
            Rule(minus, antecedent, kind, block._negative),
            Rule(label, (support._positive,), kind, head),
        ]
    return [
        Rule(minus, antecedent, kind, block._positive),
        Rule(plus, antecedent, kind, support._negative),
        Rule(label, (block._positive,), kind, head),
    ]


def elim_dft(theory: Theory) -> tuple[Theory, TransformReport]:
    """Eliminate defeaters; facts are kept and the superiority relation is
    re-targeted at conflicting pairs of translated rules.

    A declared priority between two source rules induces a priority between
    each pair of their translations whose heads are complementary; pairs with
    unrelated heads would have no effect on inference and are not emitted.
    """
    _require_ground(theory, "elim_dft")
    for atom in theory.atoms:
        if atom.name.startswith((_PLUS, _MINUS)):
            raise TransformError("already transformed")
    return _with_report(theory, *_elim_dft(theory))


def _elim_dft(theory: Theory) -> tuple[Theory, dict[str, str]]:
    origins: dict[str, str] = {}
    rules: list[Rule] = []
    images: dict[str, list[Rule]] = {}
    minted: dict[Atom, tuple[Atom, Atom]] = {}  # head atom -> its support and block atoms
    for rule in theory.rules:
        atom = rule.head.atom
        support_block = minted.get(atom)
        if support_block is None:
            support_block = minted[atom] = Atom(f"{_PLUS}{atom})"), Atom(f"{_MINUS}{atom})")
        translated = images[rule.label] = _dft_images(rule, *support_block)
        rules.extend(translated)
        origin = f"rule {rule.label}"
        for new_rule in translated:
            if new_rule.label != rule.label:
                origins[new_rule.label] = origin
            if new_rule.head.atom is not atom:  # a minted atom, without arguments
                origins.setdefault(new_rule.head.atom.name, origin)

    superiority: set[tuple[str, str]] = set()
    for sup, inf in sorted(theory.superiority):
        for sup_image in images[sup]:
            for inf_image in images[inf]:
                sup_head, inf_head = sup_image.head, inf_image.head
                if sup_head.positive != inf_head.positive and sup_head.atom is inf_head.atom:
                    superiority.add((sup_image.label, inf_image.label))

    return Theory(theory.facts, tuple(rules), frozenset(superiority)), origins


def elim_sup(theory: Theory) -> tuple[Theory, TransformReport]:
    """Empty the superiority relation of a normalized, well-formed theory.

    Every defeasible rule and defeater gets two fresh inferiority atoms.  A
    rule concludes through the complement of its inferiority atoms, and each
    declared priority becomes a pair of rules that infer the weaker rule's
    inferiority from the stronger rule's non-inferiority.  The distinction
    between the two atoms is what keeps defeaters out of counterattacks: the
    counterattack-capable atom has no rules derived from defeaters.
    """
    _require_ground(theory, "elim_sup")
    if not check_normal(theory).ok:
        raise TransformError("elim_sup requires normal form")
    wf = check_well_formed(theory)
    if not wf.acyclic:
        raise TransformError("elim_sup requires acyclic superiority")
    if not wf.complementary:
        raise TransformError(
            "elim_sup requires superiority only between rules with complementary heads"
        )
    return _with_report(theory, *_elim_sup(theory))


def _elim_sup(theory: Theory) -> tuple[Theory, dict[str, str]]:
    origins: dict[str, str] = {}
    rules: list[Rule] = [r for r in theory.rules if r.kind is RuleKind.STRICT]
    # Label of each rule that is not strict -> its `$ip` and `$im` atoms,
    # which have no arguments: their names are their spellings.
    inferiority: dict[str, tuple[Atom, Atom]] = {}

    for rule in theory.rules:
        label, antecedent, kind = rule.label, rule.antecedent, rule.kind
        if kind is RuleKind.STRICT:
            continue
        origin = f"rule {label}"
        inf_plus, inf_minus = inferiority[label] = Atom(f"$ip({label})"), Atom(f"$im({label})")
        not_inf_plus, not_inf_minus = inf_plus._negative, inf_minus._negative
        origins.setdefault(inf_minus.name, origin)
        derived: list[Rule] = []
        if kind is RuleKind.DEFEASIBLE:
            origins.setdefault(inf_plus.name, origin)
            derived += [
                Rule(f"{label}$a+", antecedent, kind, not_inf_plus),
                Rule(f"{label}$b+", (not_inf_plus,), kind, rule.head),
            ]
        derived += [
            Rule(f"{label}$a-", antecedent, RuleKind.DEFEASIBLE, not_inf_minus),
            Rule(f"{label}$b-", (not_inf_minus,), kind, rule.head),
        ]
        rules.extend(derived)
        for new_rule in derived:
            origins[new_rule.label] = origin

    for sup, inf in sorted(theory.superiority):
        origin = f"superiority {sup} > {inf}"
        (sup_plus, sup_minus), (inf_plus, inf_minus) = inferiority[sup], inferiority[inf]
        plus_rule = Rule(f"$s+({sup},{inf})", (sup_plus._negative,),
                         RuleKind.DEFEASIBLE, inf_plus._positive)
        minus_rule = Rule(f"$s-({sup},{inf})", (sup_minus._negative,),
                          RuleKind.DEFEASIBLE, inf_minus._positive)
        rules.extend((plus_rule, minus_rule))
        origins[plus_rule.label] = origin
        origins[minus_rule.label] = origin
        # A defeater's `$ip` occurs only here.
        origins.setdefault(sup_plus.name, f"rule {sup}")
        origins.setdefault(inf_plus.name, f"rule {inf}")

    return Theory((), tuple(rules), frozenset()), origins


def pipeline(theory: Theory) -> tuple[Theory, TransformReport]:
    """Normalize, eliminate defeaters, then empty the superiority relation.

    The result has no facts, no defeaters and an empty superiority relation
    while agreeing with the input on every conclusion over the input's
    atoms; the engine's reduced mode accepts it.  Input must be ground,
    well-formed and free of generated symbols, checked once, here, in that
    order.  The stages in between are not checked again, because they hold
    by construction: `normal` of such an input is normal and well-formed,
    and `elim_dft` keeps both, since it emits a priority only between
    translations with complementary heads and a cycle among its priorities
    would map onto one among those of its input.
    """
    _require_ground(theory, "pipeline")
    wf = check_well_formed(theory)
    if not wf.ok:
        problem = "cyclic superiority" if not wf.acyclic else \
            "superiority between rules with non-complementary heads"
        raise TransformError(f"pipeline requires a well-formed theory ({problem})")
    if theory.has_generated_symbols:
        raise TransformError("already transformed")

    normalized, origins_1 = _normal(theory)
    no_defeaters, origins_2 = _elim_dft(normalized)
    result, origins_3 = _elim_sup(no_defeaters)

    # `elim_sup` renames every rule that is not strict; their stage-2 labels
    # are not in the result.
    renamed = {r.label for r in no_defeaters.rules if r.kind is not RuleKind.STRICT}
    kept_2 = {symbol: origin for symbol, origin in origins_2.items() if symbol not in renamed}
    return _with_report(theory, result, {**origins_3, **kept_2, **origins_1})
