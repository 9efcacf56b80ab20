import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflog import (
    Atom, Literal, ParseError, RuleKind, Theory, elim_dft, elim_sup, ground, normal, parse,
    pipeline, print_theory,
)
from deflog.parser import parse_atoms
from deflog.analysis import gen_theory

from conftest import GOLDEN


class TestGrammar:
    def test_defeasible_rule_schema(self):
        t = parse("r4: bird(X) => flies(X).")
        (rule,) = t.rules
        assert rule.label == "r4"
        assert rule.kind == RuleKind.DEFEASIBLE
        assert str(rule.head) == "flies(X)"
        assert not rule.is_ground

    def test_defeater_with_negative_head(self):
        t = parse("r: heavy(X) ~> ~flies(X).")
        (rule,) = t.rules
        assert rule.kind == RuleKind.DEFEATER
        assert not rule.head.positive

    def test_strict_rule_and_fact(self):
        t = parse("emu(tweety). r: emu(X) -> bird(X).")
        assert len(t.facts) == 1
        assert t.rules[0].kind == RuleKind.STRICT

    def test_multi_literal_antecedent(self):
        t = parse("r: a, ~b, c(d) => e.")
        (rule,) = t.rules
        assert len(rule.antecedent) == 3

    def test_empty_antecedent(self):
        t = parse("r: => p.")
        assert t.rules[0].antecedent == frozenset()

    def test_comments_ignored(self):
        t = parse("% a comment with $ and > inside\np. % trailing\n")
        assert len(t.facts) == 1

    def test_superiority_statement(self):
        t = parse("r1: => p. r2: => ~p. r1 > r2.")
        assert t.superiority == {("r1", "r2")}


@pytest.mark.parametrize("first", ["core", "parse", "parse_atoms"])
def test_parsed_literals_are_the_shared_objects(first):
    """Whichever builds an atom first, `parse` and `parse_atoms` return the
    process's one object for each literal and atom: ~p before p, p before
    p(c), and ~p(c) last, in facts, rules and an atom list."""
    p = f"shared_{first}"  # fresh: no other test builds these atoms
    steps = {
        "core": lambda: {str(l): l for a in (Atom(p), Atom(p, ("c",)), Atom(p, ("d",)))
                         for l in (Literal(a), Literal(a, False))},
        "parse": lambda: parse(
            f"~{p}. r1: ~{p}, {p} => {p}(c). {p}(d). r2: {p}(c), {p}(d) ~> ~{p}(c)."),
        "parse_atoms": lambda: parse_atoms(f"{p}(d),{p},{p}(c)"),
    }
    made = {step: steps[step]() for step in (first, *(s for s in steps if s != first))}
    shared, theory = made["core"], made["parse"]
    parsed = [*theory.facts, *(l for r in theory.rules for l in (*r.antecedent, r.head))]
    assert len(parsed) == 8
    assert set(map(str, parsed)) == {p, f"~{p}", f"{p}(c)", f"~{p}(c)", f"{p}(d)"}
    for literal in parsed:
        assert literal is shared[str(literal)]
    assert [str(a) for a in made["parse_atoms"]] == [f"{p}(d)", p, f"{p}(c)"]
    for atom in made["parse_atoms"]:
        assert atom is shared[str(atom)].atom


class TestErrors:
    def test_unknown_label_in_superiority(self):
        with pytest.raises(ParseError, match="unknown label"):
            parse("r1: => p. r1 > r2.")

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate label"):
            parse("r: => p. r: => q.")

    def test_dollar_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("r: => $p(a).")

    def test_dollar_rejected_in_label(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("r$x: => p.")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p.\nq &.")
        assert err.value.line == 2

    def test_variable_in_fact(self):
        with pytest.raises(ParseError, match="facts"):
            parse("p(X).")

    def test_uppercase_atom_name(self):
        with pytest.raises(ParseError, match="lowercase"):
            parse("P.")

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse("r: => p")

    def test_stray_dash(self):
        with pytest.raises(ParseError, match="stray"):
            parse("r: a - b.")


_BAD_PAREN = ("malformed generated symbol: '(' groups close on their own line"
              " and nest at most 3 deep")
_BAD_BRACKET = ("malformed generated symbol: '[' groups close on their own line"
                " and nest at most 2 deep")


@pytest.mark.parametrize("source, allow_generated, message", [
    ("r: a - b.", False, "1:6: stray '-' (expected '->')"),
    ("r: a = b.", False, "1:6: stray '=' (expected '=>')"),
    ("p.\nq &.", False, "2:3: unexpected character '&'"),
    ("p.\r\nq @.", False, "2:3: unexpected character '@'"),
    ("r: => p.\fq.", False, "1:9: unexpected character '\\x0c'"),
    ("r: => $p(a).", False, "1:7: '$' is reserved for generated symbols"),
    ("r$x: => p.", False, "1:2: '$' is reserved for generated symbols"),
    ("r1[x]: => p.", False, "1:3: unexpected character '['"),
    ("r: p q => x.", False, "1:6: expected an arrow"),
    ("p(a[b]).", True, "1:3: arguments must be plain identifiers"),
    ("[x]: => p.", True, "1:1: unexpected character '['"),
    ("r: => $p(a.\nq.", True, f"1:7: {_BAD_PAREN}"),
    ("r: => $s+($f(a),r.", True, f"1:7: {_BAD_PAREN}"),
    ("r1[x: => p.", True, f"1:3: {_BAD_BRACKET}"),
    ("% a comment with $ and [ and -\n"
     "r1: => p.  % $ is fine here\n"
     "\n"
     "  r2: p\t=  q.\n", False, "4:9: stray '=' (expected '=>')"),
    ("% header\nr$a+: => p.\n  r2: => $p(q) ~\n", True, "3:16: expected '.'"),
    # Generated names nested deeper than the grammar allows, closed and
    # unterminated, fail at the `$` or `[` that opens the bad group; a
    # non-ASCII letter ends a `$`-segment.
    ("r: => $p($p($p($p(a)))) ~\n", True, f"1:7: {_BAD_PAREN}"),
    ("r: => $s-(a,$p($p($p(b))))$x((((c)))) ~", True, f"1:7: {_BAD_PAREN}"),
    ("r1[x[y[z]]] => p.", True, f"1:3: {_BAD_BRACKET}"),
    ("r$x$s+($p($p($p($p(a)))),r1[a[b[c]]]): => p.\n$p(q) > r$x.", True,
     f"1:4: {_BAD_PAREN}"),
    ("r: => $pé(a) ~", True, "1:9: unexpected character 'é'"),
    ("r: => $p($p($p($p(a))).\nq.", True, f"1:7: {_BAD_PAREN}"),
    ("r: => $p((((((a\n", True, f"1:7: {_BAD_PAREN}"),
    ("R1: => p.", False, "1:1: labels must start with a lowercase letter"),
    ("r1: => p. r1 > .", False, "1:16: expected a rule label"),
    ("r1: => p. r2: => ~p. r1 > r2 x", False, "1:30: expected '.'"),
    ("r1[x[y[z]]: => p.", True, f"1:3: {_BAD_BRACKET}"),
    ("r: => p.\n% $p(((( [[[[\nq &", True, "3:3: unexpected character '&'"),
])
def test_error_positions(source, allow_generated, message):
    with pytest.raises(ParseError) as err:
        parse(source, allow_generated=allow_generated)
    assert str(err.value) == message
    line, col = message.split(":")[:2]
    assert (err.value.line, err.value.col) == (int(line), int(col))


class TestPrint:
    def test_empty_theory_prints_empty(self):
        assert print_theory(parse("")) == ""

    def test_round_trip_example3(self):
        source = GOLDEN.joinpath("example3.dfl").read_text()
        t = parse(source)
        assert parse(print_theory(t)) == t

    def test_normal_output_contains_defeasible_twin(self):
        from deflog import normal

        source = GOLDEN.joinpath("example2.dfl").read_text()
        printed = print_theory(normal(parse(source))[0])
        assert "r1: a => b." in printed.splitlines()

    def test_rules_print_as_print_theory_prints_them(self):
        # Both write a rule line through `core._rule_line`, with different spellers.
        sections = GOLDEN.joinpath("stages.txt").read_text().split("== ")[1:]
        for section in sections:
            t = parse(section.split("\n", 1)[1].split("-- origins\n")[0], allow_generated=True)
            lines = print_theory(t).splitlines()[len(t.facts):len(t.facts) + len(t.rules)]
            assert [f"{rule}." for rule in t.rules] == lines
            assert all(f" {rule.kind.arrow} " in line for rule, line in zip(t.rules, lines))

    def test_superiority_sorted(self):
        t = parse("r2: => ~p. r1: => p. r1 > r2. r2 > r1.")
        printed = print_theory(t)
        assert printed.index("r1 > r2.") < printed.index("r2 > r1.")

    def test_generated_symbols_round_trip(self, example3):
        from deflog import elim_dft, normal, pipeline

        for stage in (normal, elim_dft, pipeline):
            out, _ = stage(example3)
            text = print_theory(out)
            with pytest.raises(ParseError):
                parse(text)  # strict mode still rejects generated symbols
            assert parse(text, allow_generated=True) == out

    def test_instance_labels_round_trip(self, example1_ground):
        text = print_theory(example1_ground)
        assert parse(text, allow_generated=True) == example1_ground

    def test_deeply_nested_generated_name(self):
        (rule,) = parse("r[a[b]]: => $p($p($p(a))).", allow_generated=True).rules
        assert rule.label == "r[a[b]]"
        assert rule.head.atom.name == "$p($p($p(a)))"
        with pytest.raises(ParseError) as err:
            parse("r[a[b[c]]]: => $p($p($p($p(a)))).", allow_generated=True)
        assert str(err.value) == f"1:2: {_BAD_BRACKET}"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_generated_theories(seed):
    t = gen_theory(seed, num_atoms=6, num_rules=8, num_facts=2,
                   defeater_fraction=0.25, strict_fraction=0.25, sup_density=0.15)
    assert parse(print_theory(t)) == t


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_print_is_stable_under_reparse(seed):
    t = gen_theory(seed, num_atoms=5, num_rules=6, sup_density=0.1)
    printed = print_theory(t)
    assert print_theory(parse(printed)) == printed


def _depth(symbol: str, opening: str, closing: str) -> int:
    depth = deepest = 0
    for char in symbol:
        depth += (char == opening) - (char == closing)
        deepest = max(deepest, depth)
    return deepest


def _assert_round_trips(theory):
    """`theory` prints, re-parses equal and prints the same again, and no
    atom or label nests groups deeper than generated names may."""
    text = print_theory(theory)
    reread = parse(text, allow_generated=True)
    assert reread == theory
    assert print_theory(reread) == text
    for symbol in [*map(str, theory.atoms), *theory.labels]:
        assert _depth(symbol, "(", ")") <= 3 and _depth(symbol, "[", "]") <= 2, symbol


def _deepest_chain(theory):
    """The pass chain that nests generated names deepest."""
    return elim_dft(elim_sup(elim_sup(normal(theory)[0])[0])[0])


def test_deepest_generated_names():
    out, _ = _deepest_chain(parse("p(c). r1: => q. r2: => ~q. r1 > r2."))
    _assert_round_trips(out)
    for name in ("$pl($p(p(c)))", "$pl($ip($s+(r1,r2)))"):
        assert Atom(name) in out.atoms and _depth(name, "(", ")") == 3
        with pytest.raises(ParseError) as err:
            parse(f"r: => $p({name}).", allow_generated=True)
        assert str(err.value) == f"1:7: {_BAD_PAREN}"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_transformed_theories(seed):
    t = gen_theory(seed, num_atoms=5, num_rules=8, num_facts=2, defeater_fraction=0.25,
                   strict_fraction=0.25, sup_density=0.2, force_well_formed=True)
    for stage in (normal, elim_dft, pipeline, _deepest_chain):
        _assert_round_trips(stage(t)[0])


@st.composite
def _schemas(draw):
    """Small well-formed schema theories over unary predicates: labels
    `s0`, `s1`, ... with variable `X`, facts over constants `a`-`c`, and
    superiority only from earlier to later rules with complementary heads."""
    literal = st.tuples(st.booleans(), st.sampled_from("pqr"))
    facts = draw(st.lists(st.tuples(literal, st.sampled_from("abc")), min_size=1, max_size=3))
    rules = draw(st.lists(st.tuples(st.lists(literal, max_size=2), st.sampled_from(["->", "=>", "~>"]),
                                    literal), min_size=1, max_size=5))

    def text(lit, arg):
        positive, name = lit
        return f"{'' if positive else '~'}{name}({arg})"

    lines = [f"{text(lit, c)}." for lit, c in facts]
    lines += [f"s{i}: {', '.join(text(a, 'X') for a in body)} {arrow} {text(head, 'X')}."
              for i, (body, arrow, head) in enumerate(rules)]
    pairs = [(i, j) for i in range(len(rules)) for j in range(i + 1, len(rules))
             if rules[i][2][1] == rules[j][2][1] and rules[i][2][0] != rules[j][2][0]]
    if pairs:
        lines += [f"s{i} > s{j}." for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(_schemas())
def test_round_trip_grounded_schemas(source):
    grounded = ground(parse(source))
    assert all("[" in rule.label for rule in grounded.rules)
    _assert_round_trips(grounded)
    for stage in (normal, elim_dft, pipeline, _deepest_chain):
        _assert_round_trips(stage(grounded)[0])


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="$[]()~-=>.,:%\n \tpqrX_1+é", max_size=40), st.booleans())
def test_arbitrary_text_gives_theory_or_parse_error(text, allow_generated):
    try:
        result = parse(text, allow_generated=allow_generated)
    except ParseError:
        return
    assert isinstance(result, Theory)
