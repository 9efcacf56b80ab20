"""Text format for defeasible theories (`.dfl`).

Grammar::

    theory      ::= { statement }
    statement   ::= fact | rule | superiority
    fact        ::= literal "."
    rule        ::= label ":" [ literal { "," literal } ] arrow literal "."
    superiority ::= label ">" label "."
    arrow       ::= "->" | "=>" | "~>"
    literal     ::= [ "~" ] atom
    atom        ::= name [ "(" arg { "," arg } ")" ]
    generated   ::= ( identifier | segment ) { segment | bracket }
    segment     ::= "$" { "a".."z" } [ "+" | "-" ] [ paren ]
    paren       ::= "(" { char but "(" ")" newline | paren } ")"     depth <= 3
    bracket     ::= "[" { char but "[" "]" newline | bracket } "]"   depth <= 2

Comments run from ``%`` to the end of the line.  Names and constant
arguments are lowercase-initial identifiers; uppercase-initial identifiers
in argument position are variables, which make the statement a schema.
The strict arrow is ``->``, the defeasible arrow ``=>``, the defeater
arrow ``~>``.

``$`` is reserved for symbols minted by the transformation passes and is
rejected in user input.  With ``allow_generated=True``, which reads
transformed theories back, labels and atom names are ``generated`` names
(``r4$a+``, ``$ip(r5)``, ``$s+(r5,r4)``, ``r1[platypus]``).  A segment
takes all its letters, its sign and the group after them; a group left open
on its line or nested deeper is a :class:`ParseError` at its segment's
``$`` or at the ``[``.  What the passes write stays within these bounds:
``$p(`` wraps only user atoms (`normal` refuses generated input), ``$pl(``
and ``$mi(`` wrap an atom once (`elim_dft` refuses its own atoms), and
``$ip(`` and ``$im(`` wrap labels of rules that are not strict, whose only
parentheses come from ``$s+(…)`` and ``$s-(…)``, minted only from the
superiority pairs that `elim_sup` empties.  ``$f(`` and ``$b(`` labels stay
on strict rules, and `ground`'s instance labels do not nest.  So
``$pl($p(p(c)))`` and ``$pl($ip($s+(r1,r2)))`` are the deepest names.

Reading is built for the large outputs of the transformation passes.  The
whole source is lexed by one ``re.findall`` call that returns the token
texts; kinds follow from the texts, and token positions are recomputed only
to report an error.  The parser then walks the statements by index.  It
looks each distinct atom up in :class:`Atom` once per parse, and finds it by
name in a table of its own after that; every literal it returns is the one
object of its value, as anywhere in the process.  :func:`parse_atoms` reads
a comma-separated list of ground atoms with the same lexer and atom rule.
"""

from __future__ import annotations

import functools
import re
from typing import Callable

from .core import (
    Atom,
    DeflogError,
    Literal,
    Rule,
    RuleKind,
    Theory,
    _LITERALS_OF,
    _is_variable,
    _rule_line,
)

_ARROWS = {kind.value: kind for kind in RuleKind}


class ParseError(DeflogError):
    """Syntax or well-formedness error in a `.dfl` source."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# One pattern per mode matches blanks and then one token or comment; the
# token text is its only capture.  (Comments are captured and dropped because
# a repeated group in front of every token makes lexing a third slower.)  A
# character no token starts with begins a match that runs to the end of the
# text, so `findall` stops there, and `_tokens` raises at that character.
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_PAREN_GROUP = r"\([^()\n]*(?:\([^()\n]*(?:\([^()\n]*\)[^()\n]*)*\)[^()\n]*)*\)"  # depth <= 3
_BRACKET_GROUP = r"\[[^\[\]\n]*(?:\[[^\[\]\n]*\][^\[\]\n]*)*\]"  # depth <= 2
_DOLLAR_SEGMENT = rf"\$[a-z]*(?![a-z])(?:[+-]|(?![+-]))(?:{_PAREN_GROUP}|(?!\())"
_GENERATED_NAME = rf"(?:{_NAME}|{_DOLLAR_SEGMENT})(?:{_DOLLAR_SEGMENT}|{_BRACKET_GROUP})*"


@functools.cache
def _lexer(allow_generated: bool) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """The token and name patterns of a mode, compiled on first use: the
    generated-name pattern is the costly one, and only reading transformed
    theories needs it."""
    name = _GENERATED_NAME if allow_generated else _NAME
    token = rf"{name}|[-=~]>|[~,:.>()]|%[^\n]*"
    return re.compile(rf"[ \t\r\n]*({token}|\Z|.+)", re.DOTALL), re.compile(name)


_SKIP = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*")
_PUNCT = frozenset(("->", "=>", "~>", "~", ",", ":", ".", ">", "(", ")", ""))
_ERRORS = {
    "-": "stray '-' (expected '->')",
    "=": "stray '=' (expected '=>')",
    "$": "'$' is reserved for generated symbols",
}
_GROUPS = {"$": ("(", 3), "[": ("[", 2)}  # the group a generated name opens, its depth


def _error_at(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _tokens(text: str, allow_generated: bool) -> list[str]:
    """Lex the whole source into token texts, ending with the empty EOF
    token.  A token's kind follows from its text: `_PUNCT` holds every
    token that is not a name.  Raises on the first character no token can
    start with."""
    pattern, name = _lexer(allow_generated)
    found = pattern.findall(text)
    if "%" in text:
        found = [token for token in found if token[:1] != "%"]
    if len(found) > 1 and not found[-2]:
        found.pop()  # a second EOF match, after trailing blanks
    last = found[-2] if len(found) > 1 else ""
    if last in _PUNCT or name.fullmatch(last):
        return found
    # `last` runs from a character no token starts with to the end.  A `$`
    # or a `[` right after a name stops a generated name only at a bad group.
    pos = len(text) - len(last)
    char = text[pos]
    if allow_generated and (char == "$" or char == "[" and pos and
                            text[pos - 1] not in " \t\r\n" and found[-3] not in _PUNCT):
        group, depth = _GROUPS[char]
        raise _error_at(text, pos, f"malformed generated symbol: {group!r} groups close"
                        f" on their own line and nest at most {depth} deep")
    raise _error_at(text, pos, _ERRORS.get(char, f"unexpected character {char!r}"))


def _reader(
    text: str, tokens: list[str],
) -> tuple[Callable[[str, int], ParseError], Callable[[int], tuple[Literal, int]]]:
    """The error and literal helpers over the tokens of `text`."""

    def error(message: str, index: int) -> ParseError:
        pos = 0  # the offset of `tokens[index]`, found by re-scanning
        for token in tokens[:index]:
            pos = _SKIP.match(text, pos).end() + len(token)
        return _error_at(text, _SKIP.match(text, pos).end(), message)

    atoms: dict = {}  # name, or name and arguments -> the atom's two literals

    def literal(i: int) -> tuple[Literal, int]:
        """The literal starting at token `i`, and the index after it."""
        name = tokens[i]
        negated = name == "~"
        if negated:
            i += 1
            name = tokens[i]
        literals = atoms.get(name)
        if literals is not None and tokens[i + 1] != "(":
            return literals[negated], i + 1
        if name in _PUNCT:
            raise error("expected an atom", i)
        if _is_variable(name):
            raise error("atom names must start with a lowercase letter", i)
        key = name
        args: tuple[str, ...] = ()
        end = i + 1
        if tokens[end] == "(":
            while True:
                end += 1
                arg = tokens[end]
                if arg in _PUNCT:
                    raise error("expected an argument", end)
                if "$" in arg or "[" in arg:
                    raise error("arguments must be plain identifiers", end)
                args += (arg,)
                end += 1
                if tokens[end] != ",":
                    break
            if tokens[end] != ")":
                raise error("expected ')'", end)
            end += 1
            key = (name, args)
            literals = atoms.get(key)
            if literals is not None:
                return literals[negated], end
        literals = atoms[key] = _LITERALS_OF(Atom(name, args))
        return literals[negated], end

    return error, literal


def parse(text: str, *, allow_generated: bool = False) -> Theory:
    """Parse a `.dfl` source into a theory.

    Raises :class:`ParseError` with a line:column position on syntax errors,
    duplicate labels, superiority statements that reference unknown labels,
    and (unless `allow_generated` is set) any use of ``$``.
    """
    tokens = _tokens(text, allow_generated)
    error, literal = _reader(text, tokens)
    facts: list[Literal] = []
    rules: list[Rule] = []
    labels: set[str] = set()
    superiority: list[tuple[str, str, int]] = []
    i = 0
    while tokens[i]:
        token = tokens[i]
        after = tokens[i + 1]
        is_name = token not in _PUNCT
        if is_name and after == ":":
            if _is_variable(token):
                raise error("labels must start with a lowercase letter", i)
            if token in labels:
                raise error(f"duplicate label {token!r}", i)
            i += 2
            antecedent: list[Literal] = []
            if tokens[i] not in _ARROWS:
                lit, i = literal(i)
                antecedent.append(lit)
                while tokens[i] == ",":
                    lit, i = literal(i + 1)
                    antecedent.append(lit)
            kind = _ARROWS.get(tokens[i])
            if kind is None:
                raise error("expected an arrow", i)
            head, i = literal(i + 1)
            if tokens[i] != ".":
                raise error("expected '.'", i)
            labels.add(token)
            rules.append(Rule(token, frozenset(antecedent), kind, head))
        elif is_name and after == ">":
            inferior = tokens[i + 2]
            if inferior in _PUNCT:
                raise error("expected a rule label", i + 2)
            if tokens[i + 3] != ".":
                raise error("expected '.'", i + 3)
            superiority.append((token, inferior, i))
            i += 3
        elif is_name or token == "~":
            fact, end = literal(i)
            if not fact.is_ground:
                raise error("variables are not allowed in facts", i)
            i = end
            if tokens[i] != ".":
                raise error("expected '.'", i)
            facts.append(fact)
        else:
            raise error("expected a fact, rule or superiority statement", i)
        i += 1

    for sup, inf, index in superiority:
        for label in (sup, inf):
            if label not in labels:
                raise error(f"unknown label {label!r}", index)
    pairs = frozenset((sup, inf) for sup, inf, _ in superiority)
    return Theory(tuple(facts), tuple(rules), pairs)


def parse_atoms(text: str, *, allow_generated: bool = False) -> list[Atom]:
    """Parse a comma-separated list of ground atoms, such as ``g(c),h(c,d),p``.

    Raises :class:`ParseError` as :func:`parse` does, and also on a
    comment, a negated or a non-ground entry.  The empty text is the empty
    list.
    """
    if "%" in text:
        raise _error_at(text, text.index("%"), "unexpected character '%'")
    tokens = _tokens(text, allow_generated)
    error, literal = _reader(text, tokens)
    atoms: list[Atom] = []
    i = 0
    while tokens[i]:
        if atoms:
            if tokens[i] != ",":
                raise error("expected ','", i)
            i += 1
        if tokens[i] == "~":
            raise error("expected an atom, not a negated literal", i)
        lit, end = literal(i)
        if not lit.is_ground:
            raise error("variables are not allowed in atoms", i)
        atoms.append(lit.atom)
        i = end
    return atoms


def print_theory(theory: Theory) -> str:
    """Serialize a theory in the grammar above.

    Facts come first in stored order, then rules in stored order, as
    `str(rule)` writes them, then superiority pairs sorted lexicographically.
    Antecedents are printed sorted, so output is deterministic.  The empty
    theory prints as the empty string; round-tripping through :func:`parse`
    reproduces the theory (generated symbols need `allow_generated=True`).
    """
    spell = functools.cache(str)  # each literal is spelled once per call
    lines = [f"{spell(fact)}." for fact in theory.facts]
    lines += [f"{_rule_line(rule, spell)}." for rule in theory.rules]
    lines.extend(f"{sup} > {inf}." for sup, inf in sorted(theory.superiority))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
