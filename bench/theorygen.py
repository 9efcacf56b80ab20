"""Seeded, linear-time generator of `.dfl` theories for the benchmark.

The benchmark does not use `deflog.gen_theory`: its superiority loop visits
every ordered pair of rules, which is quadratic even at zero density, and its
output would shift whenever the program under test changes it.  This module
depends on nothing in `deflog`.

A generated theory is kept twice: as the `.dfl` text the program reads, and
as a ground structure the reference checker reads.  For a schema theory the
ground structure is expanded here, by the grounding rule the `.dfl` format
documents (one instance per constant; a priority between two schemas holds
between their instances on the same constant).

Literals are ints: `2 * atom + 1` for a negated atom, `2 * atom` otherwise.
Every random choice comes from `random.Random(f"{name}:{seed}")`, which is
independent of the interpreter's hash seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

STRICT, DEFEASIBLE, DEFEATER = "->", "=>", "~>"


@dataclass(frozen=True)
class Spec:
    """Generator settings for one input, and why the benchmark uses it.

    `strict` and `defeater` are shares of the rules; defeasible rules fill
    the rest.  `sup` is superiority pairs per rule.  With `constants > 0`
    the theory is a schema over unary predicates and one variable, with
    `rules` ground instances in all (`rules // constants` schemas).
    """

    name: str
    rules: int
    atoms: int
    facts: int
    strict: float
    defeater: float
    sup: float
    constants: int = 0
    why: str = ""


@dataclass
class Generated:
    spec: Spec
    seed: int | str
    text: str
    atom_names: list[str]
    facts: list[int]
    rules: list[tuple[str, tuple[int, ...], int]]  # ground (kind, antecedent, head)
    sup: list[tuple[int, int]]  # ground (superior, inferior) rule indices
    atoms_used: list[int]

    @property
    def units(self) -> int:
        """Facts + rules + superiority pairs of the ground theory."""
        return len(self.facts) + len(self.rules) + len(self.sup)

    def literal_str(self, lit: int) -> str:
        return _lit(self.atom_names, lit)

    def record(self) -> dict:
        return {"name": self.spec.name, "seed": self.seed, "units": self.units,
                "bytes": len(self.text.encode()), "rules": len(self.rules),
                "facts": len(self.facts), "superiority": len(self.sup),
                "settings": {k: v for k, v in vars(self.spec).items() if k != "why"},
                "why": self.spec.why}


def _kinds(rng: random.Random, spec: Spec, n: int) -> list[str]:
    n_strict = round(n * spec.strict)
    n_dft = round(n * spec.defeater)
    kinds = [STRICT] * n_strict + [DEFEATER] * n_dft + [DEFEASIBLE] * (n - n_strict - n_dft)
    rng.shuffle(kinds)
    return kinds


def _shape(rng: random.Random, kinds: list[str], n_atoms: int) -> list[tuple[str, tuple[int, ...], int]]:
    out = []
    for kind in kinds:
        head = rng.randrange(2 * n_atoms)
        body = tuple(sorted({rng.randrange(2 * n_atoms) for _ in range(rng.randint(0, 3))}))
        out.append((kind, body, head))
    return out


def _superiority(rng: random.Random, rules: list, target: int) -> list[tuple[int, int]]:
    """`target` pairs `i > j` with `i < j` and complementary heads.

    Pointing every pair from a lower to a higher index keeps the relation
    acyclic; requiring complementary heads makes the theory well-formed.
    """
    by_head: dict[int, list[int]] = {}
    for i, (_, _, head) in enumerate(rules):
        by_head.setdefault(head, []).append(i)
    eligible = []
    for j, (_, _, head) in enumerate(rules):
        earlier = by_head.get(head ^ 1, [])
        count = bisect_left(earlier, j)
        if count:
            eligible.append((j, earlier, count))
    pairs: dict[tuple[int, int], None] = {}
    for _ in range(8 * target):
        if len(pairs) >= target or not eligible:
            break
        j, earlier, count = rng.choice(eligible)
        pairs[(earlier[rng.randrange(count)], j)] = None
    return list(pairs)


def _facts(rng: random.Random, n: int, n_atoms: int) -> list[int]:
    return list(dict.fromkeys(rng.randrange(2 * n_atoms) for _ in range(n)))


def _used_atoms(facts: list[int], rules: list) -> list[int]:
    used = {f >> 1 for f in facts}
    for _, body, head in rules:
        used.add(head >> 1)
        used.update(a >> 1 for a in body)
    return sorted(used)


def _lit(names: list[str], lit: int) -> str:
    return f"~{names[lit >> 1]}" if lit & 1 else names[lit >> 1]


def _rule_line(label: str, body: list[str], kind: str, head: str) -> str:
    if body:
        return f"{label}: {', '.join(body)} {kind} {head}."
    return f"{label}: {kind} {head}."


def generate(spec: Spec, seed: int | str) -> Generated:
    """The theory for `spec` and `seed`, in time linear in its size."""
    rng = random.Random(f"{spec.name}:{seed}")
    if spec.constants:
        return _generate_schema(rng, spec, seed)
    names = [f"a{i}" for i in range(spec.atoms)]
    facts = _facts(rng, spec.facts, spec.atoms)
    rules = _shape(rng, _kinds(rng, spec, spec.rules), spec.atoms)
    sup = _superiority(rng, rules, round(spec.rules * spec.sup))
    lines = [f"{_lit(names, f)}." for f in facts]
    lines += [_rule_line(f"r{i}", [_lit(names, a) for a in body], kind, _lit(names, head))
              for i, (kind, body, head) in enumerate(rules)]
    lines += [f"r{i} > r{j}." for i, j in sup]
    return Generated(spec, seed, "\n".join(lines) + "\n", names, facts, rules, sup,
                     _used_atoms(facts, rules))


def _generate_schema(rng: random.Random, spec: Spec, seed: int | str) -> Generated:
    k = spec.constants
    preds = [f"p{i}" for i in range(spec.atoms)]
    consts = [f"c{j}" for j in range(k)]
    # Every constant occurs in a fact, so the Herbrand universe is all of them.
    fact_pairs = [(rng.randrange(2 * spec.atoms), j) for j in range(k)]
    fact_pairs += [(rng.randrange(2 * spec.atoms), rng.randrange(k))
                   for _ in range(max(0, spec.facts - k))]
    fact_pairs = list(dict.fromkeys(fact_pairs))
    schemas = _shape(rng, _kinds(rng, spec, spec.rules // k), spec.atoms)
    schema_sup = _superiority(rng, schemas, round(len(schemas) * spec.sup))

    def ground_lit(lit: int, j: int) -> int:
        return 2 * ((lit >> 1) * k + j) + (lit & 1)

    def schema_lit(lit: int, arg: str) -> str:
        return f"{_lit(preds, lit)}({arg})"

    names = [f"{p}({c})" for p in preds for c in consts]
    facts = [ground_lit(p, j) for p, j in fact_pairs]
    rules = [(kind, tuple(sorted(ground_lit(a, j) for a in body)), ground_lit(head, j))
             for kind, body, head in schemas for j in range(k)]
    sup = [(i * k + j, s * k + j) for i, s in schema_sup for j in range(k)]
    lines = [f"{schema_lit(p, consts[j])}." for p, j in fact_pairs]
    lines += [_rule_line(f"r{i}", [schema_lit(a, "X") for a in body], kind, schema_lit(head, "X"))
              for i, (kind, body, head) in enumerate(schemas)]
    lines += [f"r{i} > r{j}." for i, j in schema_sup]
    return Generated(spec, seed, "\n".join(lines) + "\n", names, facts, rules, sup,
                     _used_atoms(facts, rules))
