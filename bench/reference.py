"""Independent reference for the four conclusion sets of a ground theory.

A plain "loop until nothing changes" fixpoint of the four inference
conditions, transcribed from their definitions.  It imports nothing from
`deflog`, so a defect in the engine cannot hide in its own reference.

Literals are ints as in `theorygen`: `lit ^ 1` is the complement.  Rules are
`(kind, antecedent, head)` triples with kind `->`, `=>` or `~>`;
superiority pairs are `(superior, inferior)` rule indices.
"""

from __future__ import annotations

STRICT, DEFEATER = "->", "~>"
TAGS = ("+D", "-D", "+d", "-d")


def solve(atoms, facts, rules, sup) -> dict[str, set[int]]:
    """The least fixpoint of the conditions, over both polarities of `atoms`."""
    facts = set(facts)
    strict_for: dict[int, list[int]] = {}
    support_for: dict[int, list[int]] = {}
    rules_for: dict[int, list[int]] = {}
    for i, (kind, _, head) in enumerate(rules):
        rules_for.setdefault(head, []).append(i)
        if kind == STRICT:
            strict_for.setdefault(head, []).append(i)
        if kind != DEFEATER:
            support_for.setdefault(head, []).append(i)
    superior = set(sup)
    pd: set[int] = set()
    md: set[int] = set()
    pp: set[int] = set()
    mp: set[int] = set()

    def applicable(r: int) -> bool:
        return all(a in pp for a in rules[r][1])

    def discarded(r: int) -> bool:
        return any(a in mp for a in rules[r][1])

    def plus_delta(q: int) -> bool:
        return q in facts or any(all(a in pd for a in rules[r][1])
                                 for r in strict_for.get(q, ()))

    def minus_delta(q: int) -> bool:
        return q not in facts and all(any(a in md for a in rules[r][1])
                                      for r in strict_for.get(q, ()))

    def plus_partial(q: int) -> bool:
        if q in pd:
            return True
        supporters = support_for.get(q, ())
        return (any(applicable(r) for r in supporters)
                and q ^ 1 in md
                and all(discarded(s) or any(applicable(t) and (t, s) in superior
                                            for t in supporters)
                        for s in rules_for.get(q ^ 1, ())))

    def minus_partial(q: int) -> bool:
        if q not in md:
            return False
        supporters = support_for.get(q, ())
        return (all(discarded(r) for r in supporters)
                or q ^ 1 in pd
                or any(applicable(s) and all(discarded(t) or (t, s) not in superior
                                             for t in supporters)
                       for s in rules_for.get(q ^ 1, ())))

    conditions = ((pd, plus_delta), (md, minus_delta), (pp, plus_partial), (mp, minus_partial))
    literals = [2 * a + sign for a in atoms for sign in (0, 1)]
    changed = True
    while changed:
        changed = False
        for q in literals:
            for found, holds in conditions:
                if q not in found and holds(q):
                    found.add(q)
                    changed = True
    return dict(zip(TAGS, (pd, md, pp, mp)))


def lines(sets: dict[str, set[int]], literal_str) -> list[str]:
    """The `deflog conclusions` listing: tags in order, literals sorted as text."""
    out = []
    for tag in TAGS:
        out.extend(f"{tag} {s}" for s in sorted(literal_str(q) for q in sets[tag]))
    return out


def outcome(sets: dict[str, set[int]], q: int) -> str:
    """The outcome letter A-F of one literal, by its definition."""
    in_pd, in_md = q in sets["+D"], q in sets["-D"]
    in_pp, in_mp = q in sets["+d"], q in sets["-d"]
    if in_mp:
        return "F"
    if in_pd:
        return "C"
    if in_pp:
        return "D" if in_md else "B"
    return "E" if in_md else "A"

