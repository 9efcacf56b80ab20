"""Outcome classification, pair possibility table, conclusion equivalence,
and a seeded random-theory generator for property testing.

For a single literal the four conclusion sets admit exactly six outcomes,
named A through F.  A literal and its complement jointly admit far fewer
than 36 combinations; the possibility table records which pairs can occur,
and which of three structural properties rules out each impossible cell.
NP3 cells are special: they are impossible only when the superiority
relation is acyclic.
"""

from __future__ import annotations

import os
import random
from enum import Enum
from pathlib import Path
from typing import Iterable

from .core import Atom, Literal, RuleKind, Rule, Theory, _assign, _spellings, _Value
from .engine import ConclusionSet, Mode, conclusions
from .parser import print_theory
from .transform import normal


class Outcome(Enum):
    """The six possible provability statuses of one literal."""

    A = "A"  # neither refuted definitely nor provable defeasibly
    B = "B"  # defeasibly provable, definite level undecided
    C = "C"  # definitely provable
    D = "D"  # defeasibly provable yet definitely refuted
    E = "E"  # definitely refuted, defeasible level undecided
    F = "F"  # defeasibly refuted


class PairStatus(Enum):
    POSS = "Poss"
    NP1 = "NP1"
    NP2 = "NP2"
    NP3 = "NP3"


def classify(c: ConclusionSet, literal: Literal) -> Outcome:
    """Assign the outcome of one literal.

    The six cases partition the possibilities: exactly one matches any
    conclusion set satisfying the structural relations.  Classification is
    polarity-symmetric; negative literals are classified the same way.
    """
    in_pd = literal in c.plus_delta
    in_md = literal in c.minus_delta
    in_pp = literal in c.plus_partial
    in_mp = literal in c.minus_partial
    matches = [
        outcome
        for outcome, holds in (
            (Outcome.A, not in_md and not in_pp),
            (Outcome.B, in_pp and not in_pd and not in_md),
            (Outcome.C, in_pd),
            (Outcome.D, in_pp and in_md),
            (Outcome.E, in_md and not in_pp and not in_mp),
            (Outcome.F, in_mp),
        )
        if holds
    ]
    if len(matches) != 1:
        raise AssertionError(f"outcomes {matches} for {literal}: not a partition")
    return matches[0]


def _build_pair_table() -> dict[tuple[Outcome, Outcome], PairStatus]:
    """The 6x6 possibility table, stored as data rather than derived.

    Cells are symmetric.  NP1 cells fall to the rule that a defeasibly
    provable literal needs its complement definitely refuted; NP2 cells to
    the rule that a definitely provable complement forces defeasible
    refutation; NP3 cells are reachable only through cyclic superiority.
    """
    A, B, C, D, E, F = Outcome
    table: dict[tuple[Outcome, Outcome], PairStatus] = {
        (p, n): PairStatus.POSS for p in Outcome for n in Outcome
    }
    np1 = [(A, B), (B, B), (B, C), (B, D), (A, D), (C, D)]
    np2 = [(C, E)]
    np3 = [(D, D), (B, E), (D, E)]
    for cells, status in ((np1, PairStatus.NP1), (np2, PairStatus.NP2),
                          (np3, PairStatus.NP3)):
        for p, n in cells:
            table[(p, n)] = status
            table[(n, p)] = status
    return table


PAIR_TABLE = _build_pair_table()


def pair_table(outcome_p: Outcome, outcome_not_p: Outcome) -> PairStatus:
    """Look up the possibility status of an outcome pair."""
    return PAIR_TABLE[(outcome_p, outcome_not_p)]


class PairVerdict(_Value):
    """Outcomes of a literal and its complement, with the table status."""

    __slots__ = ("outcome_p", "outcome_not_p", "status")
    outcome_p: Outcome
    outcome_not_p: Outcome
    status: PairStatus

    def __init__(self, outcome_p: Outcome, outcome_not_p: Outcome, status: PairStatus) -> None:
        _assign(self, "outcome_p", outcome_p)
        _assign(self, "outcome_not_p", outcome_not_p)
        _assign(self, "status", status)


def classify_pair(c: ConclusionSet, literal: Literal) -> PairVerdict:
    outcome_p = classify(c, literal)
    outcome_not_p = classify(c, literal.complement())
    return PairVerdict(outcome_p, outcome_not_p, pair_table(outcome_p, outcome_not_p))


def equivalent(
    t1: Theory,
    t2: Theory,
    sigma: Iterable[Atom | str] | None = None,
) -> bool:
    """True iff the two theories draw the same conclusions over `sigma`.

    All four conclusion sets are compared after restriction to literals
    whose atoms lie in `sigma`.  When `sigma` is omitted it defaults to the
    union of both theories' non-generated atoms, which is the right language
    for judging a transformation against its input.  Atoms are matched by
    spelling: an argument-less atom named ``g(c)`` matches ``g(c)``, so an
    atom of `sigma` with arguments that only one theory mentions, such as
    a defeater-only head that `pipeline` drops, makes the result False.
    """
    if sigma is None:
        sigma = t1._user_atoms | t2._user_atoms
    words = _spellings(sigma)
    atoms = [Atom(w) for w in words]  # as `extra_atoms` reads each spelling
    c1 = conclusions(t1, Mode.FULL, extra_atoms=atoms).restrict(words)
    c2 = conclusions(t2, Mode.FULL, extra_atoms=atoms).restrict(words)
    return c1 == c2


_ATOM_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _atom_name(i: int) -> str:
    if i < len(_ATOM_ALPHABET):
        return _ATOM_ALPHABET[i]
    return f"{_ATOM_ALPHABET[i % 26]}{i // 26}"


def gen_theory(
    seed: int,
    *,
    num_atoms: int,
    num_rules: int,
    num_facts: int = 0,
    defeater_fraction: float = 0.0,
    strict_fraction: float = 0.0,
    sup_density: float = 0.0,
    force_acyclic: bool = False,
    force_well_formed: bool = False,
    force_normalized: bool = False,
    label_prefix: str = "r",
) -> Theory:
    """Generate a pseudo-random ground theory, deterministic in `seed`.

    Atoms and labels come from a fixed alphabet.  Rule kinds are drawn by
    the two fraction parameters (defeasible fills the rest), antecedents are
    small random literal sets, and superiority pairs are sampled from the
    ordered label pairs with probability `sup_density`.  `force_acyclic`
    restricts pairs to one triangular half of the label grid so the relation
    is acyclic by construction; `force_well_formed` additionally keeps only
    pairs between rules with complementary heads; `force_normalized` applies
    the normalization pass to the finished theory.  The fractions and
    `sup_density` must lie in [0, 1], and the fractions sum to at most 1; a
    ValueError says which does not.
    Only the atoms drawn are built, so `num_atoms` costs nothing by itself.
    """
    if num_atoms <= 0:
        raise ValueError("num_atoms must be positive")
    if num_rules < 0 or num_facts < 0:
        raise ValueError("rule and fact counts must be nonnegative")
    for name, fraction in (("sup_density", sup_density),
                           ("defeater_fraction", defeater_fraction),
                           ("strict_fraction", strict_fraction)):
        if not 0 <= fraction <= 1:
            raise ValueError(f"{name} must lie in [0, 1], not {fraction}")
    if strict_fraction + defeater_fraction > 1:
        raise ValueError(f"strict_fraction + defeater_fraction must not exceed 1, "
                         f"not {strict_fraction} + {defeater_fraction}")
    if sup_density > 0 and num_rules == 0:
        raise ValueError("superiority pairs requested but zero rules")

    rng = random.Random(seed)

    def random_literal() -> Literal:
        # `randrange(n)` draws as `choice` of n items does: seeds keep their theories.
        return Literal(Atom(_atom_name(rng.randrange(num_atoms))), rng.random() < 0.5)

    facts = tuple(dict.fromkeys(random_literal() for _ in range(num_facts)))

    rules = []
    strict, defeater, defeasible = RuleKind.STRICT, RuleKind.DEFEATER, RuleKind.DEFEASIBLE
    for i in range(num_rules):
        roll = rng.random()
        if roll < strict_fraction:
            kind = strict
        elif roll < strict_fraction + defeater_fraction:
            kind = defeater
        else:
            kind = defeasible
        head = random_literal()
        antecedent = frozenset(
            random_literal() for _ in range(rng.randint(0, min(3, num_atoms)))
        )
        rules.append(Rule(f"{label_prefix}{i + 1}", antecedent, kind, head))

    superiority: set[tuple[str, str]] = set()
    acyclic_only = force_acyclic or force_well_formed
    # At zero density no pair is drawn; this loop is the last use of `rng`.
    for i, sup_rule in enumerate(rules if sup_density > 0 else ()):
        for j, inf_rule in enumerate(rules):
            if i == j or (acyclic_only and i >= j):
                continue
            if force_well_formed and sup_rule.head != inf_rule.head.complement():
                continue
            if rng.random() < sup_density:
                superiority.add((sup_rule.label, inf_rule.label))

    theory = Theory(facts, tuple(rules), frozenset(superiority))
    if force_normalized:
        theory, _ = normal(theory)
    return theory


def dump_failure(theory: Theory, name: str, directory: str | Path | None = None) -> Path | None:
    """Write a failing theory to `<dir>/<name>.dfl` for reproduction.

    The directory comes from the argument or the ``DEFLOG_FAIL_DIR``
    environment variable; with neither set, nothing is written.
    """
    target = directory or os.environ.get("DEFLOG_FAIL_DIR")
    if not target:
        return None
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    out = path / f"{name}.dfl"
    out.write_text(print_theory(theory), encoding="utf-8")
    return out
