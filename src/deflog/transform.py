"""Conclusion-preserving theory transformations.

Three passes, each of which preserves all conclusions expressible in the
input's own language:

* :func:`normal` eliminates facts and separates definite from defeasible
  reasoning.  Strict rules are duplicated into a primed copy that does the
  definite work and a defeasible twin that keeps the original label; primed
  conclusions flow back through one strict bridge rule per affected literal.
* :func:`elim_dft` eliminates defeaters.  Each atom at stake gains a support
  atom and a block atom; defeaters translate into defeasible rules that can
  only attack the block atom, never support anything.
* :func:`elim_sup` empties the superiority relation.  Each rule gains a pair
  of inferiority atoms, one usable for counterattack and one that also covers
  defeaters; declared priorities become rules that propagate inferiority.

:func:`pipeline` composes the three in that order, yielding a theory with no
facts, no defeaters and an empty superiority relation, on which the engine's
reduced mode applies.

Each pass is a pure function returning the new theory plus a
:class:`TransformReport` with size accounting and the origin of every
symbol the pass minted, recorded as it mints it; a generated symbol with no
entry came from the input.  Sizes count facts, rules and superiority pairs
alike; on that measure growth is bounded by a factor of 3 for `normal` and
`elim_dft` and 4 for `elim_sup`.
"""

from __future__ import annotations

from .core import (
    Literal,
    PreconditionError,
    Rule,
    RuleKind,
    Theory,
    _LITERAL_ORDER,
    _MINUS_PREFIX,
    _PLUS_PREFIX,
    _assign,
    _Value,
    bridge_label,
    check_normal,
    check_well_formed,
    dft_label,
    elim_sup_label,
    fact_rule_label,
    inf_minus_atom,
    inf_plus_atom,
    minus_atom,
    plus_atom,
    primed_label,
    primed_literal,
    sup_rule_label,
)


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


def _make_report(source: Theory, result: Theory, origins: dict[str, str]) -> TransformReport:
    return TransformReport(
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

    origins: dict[str, str] = {}
    rules: list[Rule] = []
    bridge_literals: dict[Literal, str] = {}

    for rule in theory.rules:
        if rule.kind != RuleKind.STRICT:
            rules.append(rule)
            continue
        origin = f"strict rule {rule.label}"
        primed = Rule(
            primed_label(rule.label),
            frozenset(primed_literal(a) for a in rule.antecedent),
            RuleKind.STRICT,
            primed_literal(rule.head),
        )
        rules.append(primed)
        rules.append(Rule(rule.label, rule.antecedent, RuleKind.DEFEASIBLE, rule.head))
        origins[primed.label] = origin
        origins.setdefault(str(primed.head.atom), origin)
        for a in sorted(primed.antecedent, key=_LITERAL_ORDER):
            origins.setdefault(str(a.atom), origin)
        bridge_literals.setdefault(rule.head, origin)

    for fact in theory.facts:
        origin = f"fact {fact}"
        fact_rule = Rule(fact_rule_label(fact), frozenset(),
                         RuleKind.STRICT, primed_literal(fact))
        rules.append(fact_rule)
        origins[fact_rule.label] = origin
        origins.setdefault(str(fact_rule.head.atom), origin)
        bridge_literals.setdefault(fact, origin)

    for literal in sorted(bridge_literals, key=str):
        bridge = Rule(bridge_label(literal), frozenset((primed_literal(literal),)),
                      RuleKind.STRICT, literal)
        rules.append(bridge)
        origins[bridge.label] = bridge_literals[literal]

    result = Theory((), tuple(rules), theory.superiority)
    return result, _make_report(theory, result, origins)


def _dft_images(rule: Rule) -> list[Rule]:
    """The one-to-three rule translation that removes defeaters.

    Positive and negative heads are symmetric: the support atom of the head
    atom backs the original conclusion through a linking rule, while the
    complement of the block atom is what attacks take aim at.  Defeaters
    collapse to a single defeasible rule against the block atom of the
    opposing polarity, so they keep their attacking power but lose any
    ability to support or counterattack.
    """
    head_atom = rule.head.atom
    support = Literal(plus_atom(head_atom))
    block = Literal(minus_atom(head_atom))
    if rule.kind == RuleKind.DEFEATER:
        target = block.complement() if rule.head.positive else support.complement()
        return [Rule(rule.label, rule.antecedent, RuleKind.DEFEASIBLE, target)]
    if rule.head.positive:
        return [
            Rule(dft_label(rule.label, "+"), rule.antecedent, rule.kind, support),
            Rule(dft_label(rule.label, "-"), rule.antecedent, rule.kind, block.complement()),
            Rule(rule.label, frozenset((support,)), rule.kind, rule.head),
        ]
    return [
        Rule(dft_label(rule.label, "-"), rule.antecedent, rule.kind, block),
        Rule(dft_label(rule.label, "+"), rule.antecedent, rule.kind, support.complement()),
        Rule(rule.label, frozenset((block,)), rule.kind, rule.head),
    ]


def elim_dft(theory: Theory) -> tuple[Theory, TransformReport]:
    """Eliminate defeaters; facts are kept and the superiority relation is
    re-targeted at conflicting pairs of translated rules.

    A declared priority between two source rules induces a priority between
    each pair of their translations whose heads are complementary; pairs with
    unrelated heads would have no effect on inference and are not emitted.
    """
    _require_ground(theory, "elim_dft")
    minted = (_PLUS_PREFIX, _MINUS_PREFIX)
    for atom in theory.atoms:
        if atom.name.startswith(minted):
            raise TransformError("already transformed")

    origins: dict[str, str] = {}
    rules: list[Rule] = []
    images: dict[str, list[Rule]] = {}
    for rule in theory.rules:
        translated = _dft_images(rule)
        images[rule.label] = translated
        rules.extend(translated)
        origin = f"rule {rule.label}"
        for new_rule in translated:
            if new_rule.label != rule.label:
                origins[new_rule.label] = origin
            if new_rule.head.atom.name.startswith(minted):
                origins.setdefault(str(new_rule.head.atom), origin)

    superiority: set[tuple[str, str]] = set()
    for sup, inf in sorted(theory.superiority):
        for sup_image in images[sup]:
            for inf_image in images[inf]:
                sup_head, inf_head = sup_image.head, inf_image.head
                if sup_head.positive != inf_head.positive and sup_head.atom == inf_head.atom:
                    superiority.add((sup_image.label, inf_image.label))

    result = Theory(theory.facts, tuple(rules), frozenset(superiority))
    return result, _make_report(theory, result, origins)


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

    origins: dict[str, str] = {}
    rules: list[Rule] = [r for r in theory.rules if r.kind == RuleKind.STRICT]

    for rule in theory.rules:
        if rule.kind == RuleKind.STRICT:
            continue
        origin = f"rule {rule.label}"
        not_inf_plus = Literal(inf_plus_atom(rule.label), positive=False)
        not_inf_minus = Literal(inf_minus_atom(rule.label), positive=False)
        origins.setdefault(str(not_inf_minus.atom), origin)
        derived: list[Rule]
        if rule.kind == RuleKind.DEFEASIBLE:
            origins.setdefault(str(not_inf_plus.atom), origin)
            derived = [
                Rule(elim_sup_label(rule.label, "a+"), rule.antecedent,
                     RuleKind.DEFEASIBLE, not_inf_plus),
                Rule(elim_sup_label(rule.label, "b+"), frozenset((not_inf_plus,)),
                     RuleKind.DEFEASIBLE, rule.head),
                Rule(elim_sup_label(rule.label, "a-"), rule.antecedent,
                     RuleKind.DEFEASIBLE, not_inf_minus),
                Rule(elim_sup_label(rule.label, "b-"), frozenset((not_inf_minus,)),
                     RuleKind.DEFEASIBLE, rule.head),
            ]
        else:
            derived = [
                Rule(elim_sup_label(rule.label, "a-"), rule.antecedent,
                     RuleKind.DEFEASIBLE, not_inf_minus),
                Rule(elim_sup_label(rule.label, "b-"), frozenset((not_inf_minus,)),
                     RuleKind.DEFEATER, rule.head),
            ]
        rules.extend(derived)
        for new_rule in derived:
            origins[new_rule.label] = origin

    for sup, inf in sorted(theory.superiority):
        origin = f"superiority {sup} > {inf}"
        plus_rule = Rule(
            sup_rule_label("+", sup, inf),
            frozenset((Literal(inf_plus_atom(sup), positive=False),)),
            RuleKind.DEFEASIBLE,
            Literal(inf_plus_atom(inf)),
        )
        minus_rule = Rule(
            sup_rule_label("-", sup, inf),
            frozenset((Literal(inf_minus_atom(sup), positive=False),)),
            RuleKind.DEFEASIBLE,
            Literal(inf_minus_atom(inf)),
        )
        rules.extend((plus_rule, minus_rule))
        origins[plus_rule.label] = origin
        origins[minus_rule.label] = origin
        for label in (sup, inf):  # a defeater's `$ip` occurs only here
            origins.setdefault(str(inf_plus_atom(label)), f"rule {label}")

    result = Theory((), tuple(rules), frozenset())
    return result, _make_report(theory, result, origins)


def pipeline(theory: Theory) -> tuple[Theory, TransformReport]:
    """Normalize, eliminate defeaters, then empty the superiority relation.

    The result has no facts, no defeaters and an empty superiority relation
    while agreeing with the input on every conclusion over the input's
    atoms; the engine's reduced mode accepts it.  Input must be ground and
    well-formed.  The middle stage preserves normal form and well-formedness
    by construction, and `elim_sup` checks both on its input.
    """
    _require_ground(theory, "pipeline")
    wf = check_well_formed(theory)
    if not wf.ok:
        problem = "cyclic superiority" if not wf.acyclic else \
            "superiority between rules with non-complementary heads"
        raise TransformError(f"pipeline requires a well-formed theory ({problem})")

    normalized, report_1 = normal(theory)
    no_defeaters, report_2 = elim_dft(normalized)
    result, report_3 = elim_sup(no_defeaters)

    # `elim_sup` renames every rule it gives an `a-` image; their stage-2
    # labels are not in the result.
    kept_2 = {symbol: origin for symbol, origin in report_2.origins.items()
              if elim_sup_label(symbol, "a-") not in report_3.origins}
    origins = {**report_3.origins, **kept_2, **report_1.origins}
    return result, _make_report(theory, result, origins)
