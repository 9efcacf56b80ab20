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
`pipeline` checks its input once, since the stages in between are normal and
well-formed by construction.

Every pass is local: it maps each rule, fact and superiority pair to its
images and records the origin of each symbol it mints as it mints it; a
generated symbol with no entry came from the input.  One driver takes each
item through the passes of a run and builds only the final theory, which it
returns with a :class:`TransformReport`.  Sizes count facts, rules and
superiority pairs alike; on that measure growth is bounded by a factor of 3
for `normal` and `elim_dft` and 4 for `elim_sup`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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

_STRICT, _DEFEASIBLE, _DEFEATER = RuleKind.STRICT, RuleKind.DEFEASIBLE, RuleKind.DEFEATER
# How the atoms `elim_dft` mints begin; its "already transformed" check reads them.
_PLUS, _MINUS = "$pl(", "$mi("


class TransformError(PreconditionError):
    """A transformation was applied to input outside its contract."""


class TransformReport(_Value):
    """Size accounting for one pass, plus the origin of each new symbol.

    `origins` maps the spelling of every atom and label the pass generated
    to the fact, source rule or superiority pair it came from.  A generated
    symbol of the output with no entry came from the input, and every entry
    names a symbol of the output.  `normal` refuses generated input, so the
    origins that `pipeline` reports cover every generated symbol of its
    output.  Each entry names the item of the pass that minted the symbol,
    such as the `elim_dft` label of the rule `elim_sup` minted it for.  The
    growth factor is output size over input size, where size counts facts,
    rules and superiority pairs; an empty input reports 1.
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
        for name, value in zip(self._fields, (
                input_facts, input_rules, input_superiority, output_facts, output_rules,
                output_superiority, {} if origins is None else origins)):
            _assign(self, name, value)

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


def _require_ground(theory: Theory, op: str) -> None:
    if not theory.is_ground:
        raise TransformError(f"{op} requires a ground theory")


class _Pass(NamedTuple):
    """A pass as functions from items to their images.  `rules` maps the
    ``(label, antecedent, kind, head)`` tuples of one input rule's images to
    theirs, passing on the tuple of a rule it keeps; `facts` and `pairs` keep
    what stays and add the images of the rules the rest become to `made`."""

    rules: Callable
    facts: Callable = lambda facts, made: facts
    pairs: Callable = lambda pairs, made: pairs
    strict_first: bool = False  # whether the output lists the strict rules first


def _normal(origins: dict[str, str], earlier: dict[str, str]) -> _Pass:
    """`normal`'s images; `facts` adds the bridges last, sorted by spelling."""
    bridges: dict[Literal, str] = {}  # literal -> the origin of its bridge

    def primed(literal):  # prime maps through literals: ~p primes to ~(p')
        atom = Atom(f"$p({literal.atom._text})")
        return atom._positive if literal.positive else atom._negative

    def rules(images):
        out = []
        for image in images:
            label, antecedent, kind, head = image
            if kind is not _STRICT:
                out.append(image)
                continue
            origin, primed_label = f"strict rule {label}", f"{label}$p"
            primed_head = primed(head)
            primed_antecedent = sorted([primed(a) for a in antecedent], key=_LITERAL_ORDER)
            origins[primed_label] = origin
            for a in (primed_head, *primed_antecedent):
                origins.setdefault(a.atom._text, origin)
            bridges.setdefault(head, origin)
            out += ((primed_label, frozenset(primed_antecedent), _STRICT, primed_head),
                    (label, antecedent, _DEFEASIBLE, head))
        return out

    def facts(facts, made):
        for fact in facts:
            origin, label, head = f"fact {fact}", f"$f({fact})", primed(fact)
            origins[label] = origin
            origins.setdefault(head.atom._text, origin)
            bridges.setdefault(fact, origin)
            made.append((label, (), _STRICT, head))
        for literal in sorted(bridges, key=str):
            label = f"$b({literal})"
            origins[label] = bridges[literal]
            made.append((label, (primed(literal),), _STRICT, literal))
        return ()

    return _Pass(rules, facts)


def _elim_dft(origins: dict[str, str], earlier: dict[str, str]) -> _Pass:
    """`elim_dft`'s images: the support atom backs the original conclusion
    through the linking rule, while attacks take aim at the block atom."""
    minted: dict[Atom, tuple[Atom, Atom]] = {}  # head atom -> its support and block atoms
    translated: dict[str, list] = {}  # label -> its images

    def rules(images):
        out = []
        for label, antecedent, kind, head in images:
            atom = head.atom
            if atom not in minted:
                minted[atom] = Atom(f"{_PLUS}{atom._text})"), Atom(f"{_MINUS}{atom._text})")
            support, block = minted[atom]
            if kind is _DEFEATER:
                new = [(label, antecedent, _DEFEASIBLE,
                        block._negative if head.positive else support._negative)]
            elif head.positive:
                new = [(f"{label}$+", antecedent, kind, support._positive),
                       (f"{label}$-", antecedent, kind, block._negative),
                       (label, frozenset((support._positive,)), kind, head)]
            else:
                new = [(f"{label}$-", antecedent, kind, block._positive),
                       (f"{label}$+", antecedent, kind, support._negative),
                       (label, frozenset((block._positive,)), kind, head)]
            origin = f"rule {label}"
            for new_label, _, _, new_head in new:
                if new_label != label:
                    origins[new_label] = origin
                if new_head.atom is not atom:  # a minted atom
                    origins.setdefault(new_head.atom._text, origin)
            out += translated.setdefault(label, new)  # labels are unique: it stores `new`
        return out

    def pairs(pairs, made):
        return [(sup_label, inf_label) for sup, inf in pairs
                for sup_label, _, _, sup_head in translated[sup]
                for inf_label, _, _, inf_head in translated[inf]
                if sup_head.positive != inf_head.positive and sup_head.atom is inf_head.atom]

    return _Pass(rules, pairs=pairs)


def _elim_sup(origins: dict[str, str], earlier: dict[str, str]) -> _Pass:
    """`elim_sup`'s images; the strict rules, kept, come first."""
    inf_atoms: dict[str, tuple[Atom, Atom]] = {}  # label -> its `$ip` and `$im` atoms

    def rules(images):
        out = []
        for image in images:
            label, antecedent, kind, head = image
            if kind is _STRICT:
                out.append(image)
                continue
            earlier.pop(label, None)  # renamed here, the label is not in the output
            origin = f"rule {label}"
            inf_plus, inf_minus = inf_atoms[label] = Atom(f"$ip({label})"), Atom(f"$im({label})")
            origins.setdefault(inf_minus._text, origin)
            new = []
            if kind is _DEFEASIBLE:
                origins.setdefault(inf_plus._text, origin)
                new += [(f"{label}$a+", antecedent, kind, inf_plus._negative),
                        (f"{label}$b+", (inf_plus._negative,), kind, head)]
            new += [(f"{label}$a-", antecedent, _DEFEASIBLE, inf_minus._negative),
                    (f"{label}$b-", (inf_minus._negative,), kind, head)]
            for new_label, _, _, _ in new:
                origins[new_label] = origin
            out += new
        return out

    def pairs(pairs, made):
        for sup, inf in pairs:
            plus, minus = f"$s+({sup},{inf})", f"$s-({sup},{inf})"
            origins[plus] = origins[minus] = f"superiority {sup} > {inf}"
            (sup_plus, sup_minus), (inf_plus, inf_minus) = inf_atoms[sup], inf_atoms[inf]
            made += [(plus, (sup_plus._negative,), _DEFEASIBLE, inf_plus._positive),
                     (minus, (sup_minus._negative,), _DEFEASIBLE, inf_minus._positive)]
            # A defeater's `$ip` occurs only here.
            origins.setdefault(sup_plus._text, f"rule {sup}")
            origins.setdefault(inf_plus._text, f"rule {inf}")
        return ()

    return _Pass(rules, pairs=pairs, strict_first=True)


def _run(theory: Theory, *passes: Callable) -> tuple[Theory, TransformReport]:
    """Take each rule on its own through `passes`, then, pass by pass, the
    facts and the sorted pairs.  The passes share one origins map, which all
    but the first also get as `earlier`.  A rule no pass changes is kept."""
    origins: dict[str, str] = {}
    stages = [make(origins, origins if i else {}) for i, make in enumerate(passes)]
    strict_first = stages[-1].strict_first
    first: list[Rule] = []  # the strict rules, if the output lists them first
    rest: list[Rule] = []

    def emit(items, later, sources=()):
        for i, item in enumerate(items):
            images = (item,)
            for stage in later:
                images = stage.rules(images)
            for image in images:
                rule = sources[i] if sources and image is item else Rule(*image)
                (first if strict_first and rule.kind is _STRICT else rest).append(rule)

    emit(list(map(Rule._values, theory.rules)), stages, theory.rules)
    facts, pairs = theory.facts, theory.superiority
    for start, stage in enumerate(stages, 1):
        made: list = []
        facts = stage.facts(facts, made)
        pairs = stage.pairs(sorted(pairs), made)
        emit(made, stages[start:])
    result = Theory(facts, first + rest, pairs)
    return result, TransformReport(
        len(theory.facts), len(theory.rules), len(theory.superiority),
        len(result.facts), len(result.rules), len(result.superiority), origins)


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
    return _run(theory, _normal)


def elim_dft(theory: Theory) -> tuple[Theory, TransformReport]:
    """Eliminate defeaters; facts are kept and the superiority relation is
    re-targeted at conflicting pairs of translated rules.

    A declared priority between two source rules induces a priority between
    each pair of their translations whose heads are complementary; pairs with
    unrelated heads would have no effect on inference and are not emitted.
    """
    _require_ground(theory, "elim_dft")
    # A list: `atoms` iterates in memory-address order, so it checks every atom.
    if any([atom.name.startswith((_PLUS, _MINUS)) for atom in theory.atoms]):
        raise TransformError("already transformed")
    return _run(theory, _elim_dft)


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
    return _run(theory, _elim_sup)


def pipeline(theory: Theory) -> tuple[Theory, TransformReport]:
    """Normalize, eliminate defeaters, then empty the superiority relation.

    The result has no facts, no defeaters and an empty superiority relation
    while agreeing with the input on every conclusion over the input's
    atoms; the engine's reduced mode accepts it.  Input must be ground,
    well-formed and free of generated symbols, checked once, here, in that
    order.  The stages in between are not checked, because they hold by
    construction: `normal` of such an input is normal and well-formed, and
    `elim_dft` keeps both, since it emits a priority only between
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
    return _run(theory, _normal, _elim_dft, _elim_sup)
