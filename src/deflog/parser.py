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

Comments run from ``%`` to the end of the line.  Names and constant
arguments are lowercase-initial identifiers; uppercase-initial identifiers
in argument position are variables, which make the statement a schema.
The strict arrow is ``->``, the defeasible arrow ``=>``, the defeater
arrow ``~>``.

``$`` is reserved for symbols minted by the transformation passes and is
rejected in user input.  Serialized transformed theories can be read back
with ``allow_generated=True``, which extends names with ``$``-segments
(``r4$a+``, ``$ip(r5)``, ``$s+(r5,r4)``) and bracketed instance suffixes
(``r1[platypus]``).
"""

from __future__ import annotations

import re

from .core import (
    Atom,
    DeflogError,
    Literal,
    Rule,
    RuleKind,
    Theory,
    _is_variable,
)

_ARROWS = {
    "->": RuleKind.STRICT,
    "=>": RuleKind.DEFEASIBLE,
    "~>": RuleKind.DEFEATER,
}


class ParseError(DeflogError):
    """Syntax or well-formedness error in a `.dfl` source."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# One token per match: leading whitespace and comments, then the token.
# Every position matches something, so the tokens are contiguous.  ERR is a
# character no token starts with: an error, except that `$` starts a
# generated name when those are allowed.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]|%[^\n]*)*
    (?:(?P<ARROW>[-=~]>)|(?P<NEG>~)|(?P<COMMA>,)|(?P<COLON>:)|(?P<DOT>\.)|(?P<GT>>)
      |(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)
      |(?P<EOF>\Z)|(?P<ERR>.))
""", re.VERBOSE | re.DOTALL)
_GROUP_STOPS = {"(": re.compile(r"[()\n]"), "[": re.compile(r"[\[\]\n]")}
_ERRORS = {
    "-": "stray '-' (expected '->')",
    "=": "stray '=' (expected '=>')",
    "$": "'$' is reserved for generated symbols",
}


def _error_at(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _tokens(text: str, allow_generated: bool) -> tuple[list[str], list[str], list[int]]:
    """Lex the whole source: token kinds, values and start offsets, ending
    with EOF.  Raises on the first character no token can start with."""
    kinds: list[str] = []
    values: list[str] = []
    starts: list[int] = []
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        pos = m.end()
        if kind == "ERR":
            if not (allow_generated and text[start] == "$"):
                raise _error_at(text, start, _ERRORS.get(
                    text[start], f"unexpected character {text[start]!r}"))
            kind, pos = "NAME", start
        if kind == "NAME" and allow_generated:
            pos = _generated_suffix_end(text, pos)
        kinds.append(kind)
        values.append(text[start:pos])
        starts.append(start)
        if kind == "EOF":
            return kinds, values, starts


def _generated_suffix_end(text: str, pos: int) -> int:
    """End of the `$`-segments and bracketed instance suffixes at `pos`: a
    segment is `$`, lowercase letters, an optional sign and an optional
    parenthesised group."""
    while text.startswith(("$", "["), pos):
        if text[pos] == "$":
            pos += 1
            while pos < len(text) and text[pos].islower():
                pos += 1
            if text.startswith(("+", "-"), pos):
                pos += 1
            if not text.startswith("(", pos):
                continue
        pos = _group_end(text, pos)
    return pos


def _group_end(text: str, pos: int) -> int:
    """End of the balanced group opening at `pos`; groups stay on one line."""
    open_ch = text[pos]
    stops = _GROUP_STOPS[open_ch]
    depth = 0
    while True:
        m = stops.search(text, pos)
        if m is None or m.group() == "\n":
            raise _error_at(text, m.start() if m else len(text),
                            f"unterminated {open_ch!r} group")
        depth += 1 if m.group() == open_ch else -1
        pos = m.end()
        if depth == 0:
            return pos


class _Parser:
    def __init__(self, text: str, allow_generated: bool):
        self.text = text
        self.kinds, self.values, self.starts = _tokens(text, allow_generated)
        self.pos = 0
        self.facts: list[Literal] = []
        self.rules: list[Rule] = []
        self.labels: set[str] = set()
        self.superiority: list[tuple[str, str, int]] = []

    def _error(self, message: str, token: int) -> ParseError:
        return _error_at(self.text, self.starts[token], message)

    def _peek(self) -> str:
        return self.kinds[self.pos]

    def _take(self, kind: str, what: str) -> int:
        """Consume a token of `kind` and return its index."""
        i = self.pos
        if self.kinds[i] != kind:
            raise self._error(f"expected {what}", i)
        self.pos = i + 1
        return i

    def parse(self) -> Theory:
        while self._peek() != "EOF":
            self._statement()
        for sup, inf, token in self.superiority:
            for label in (sup, inf):
                if label not in self.labels:
                    raise self._error(f"unknown label {label!r}", token)
        pairs = frozenset((sup, inf) for sup, inf, _ in self.superiority)
        return Theory(tuple(self.facts), tuple(self.rules), pairs)

    def _statement(self) -> None:
        kind = self._peek()
        if kind == "NEG":
            self._fact()
            return
        if kind != "NAME":
            raise self._error("expected a fact, rule or superiority statement", self.pos)
        after = self.kinds[self.pos + 1]
        if after == "COLON":
            self._rule()
        elif after == "GT":
            self._superiority()
        else:
            self._fact()

    def _fact(self) -> None:
        token = self.pos
        literal = self._literal()
        if not literal.is_ground:
            raise self._error("variables are not allowed in facts", token)
        self._take("DOT", "'.'")
        self.facts.append(literal)

    def _rule(self) -> None:
        label_token = self._take("NAME", "a rule label")
        label = self.values[label_token]
        if _is_variable(label):
            raise self._error("labels must start with a lowercase letter", label_token)
        if label in self.labels:
            raise self._error(f"duplicate label {label!r}", label_token)
        self._take("COLON", "':'")
        antecedent: list[Literal] = []
        if self._peek() != "ARROW":
            antecedent.append(self._literal())
            while self._peek() == "COMMA":
                self.pos += 1
                antecedent.append(self._literal())
        arrow = self.values[self._take("ARROW", "an arrow")]
        head = self._literal()
        self._take("DOT", "'.'")
        self.labels.add(label)
        self.rules.append(Rule(label, frozenset(antecedent), _ARROWS[arrow], head))

    def _superiority(self) -> None:
        sup_token = self._take("NAME", "a rule label")
        self._take("GT", "'>'")
        inf_token = self._take("NAME", "a rule label")
        self._take("DOT", "'.'")
        self.superiority.append((self.values[sup_token], self.values[inf_token], sup_token))

    def _literal(self) -> Literal:
        positive = True
        if self._peek() == "NEG":
            self.pos += 1
            positive = False
        return Literal(self._atom(), positive)

    def _atom(self) -> Atom:
        name_token = self._take("NAME", "an atom")
        name = self.values[name_token]
        if _is_variable(name):
            raise self._error("atom names must start with a lowercase letter", name_token)
        args: list[str] = []
        if self._peek() == "LPAREN":
            self.pos += 1
            args.append(self._arg())
            while self._peek() == "COMMA":
                self.pos += 1
                args.append(self._arg())
            self._take("RPAREN", "')'")
        return Atom(name, tuple(args))

    def _arg(self) -> str:
        token = self._take("NAME", "an argument")
        value = self.values[token]
        if "$" in value or "[" in value:
            raise self._error("arguments must be plain identifiers", token)
        return value


def parse(text: str, *, allow_generated: bool = False) -> Theory:
    """Parse a `.dfl` source into a theory.

    Raises :class:`ParseError` with a line:column position on syntax errors,
    duplicate labels, superiority statements that reference unknown labels,
    and (unless `allow_generated` is set) any use of ``$``.
    """
    return _Parser(text, allow_generated).parse()


def print_theory(theory: Theory) -> str:
    """Serialize a theory in the grammar above.

    Facts come first in stored order, then rules in stored order, then
    superiority pairs sorted lexicographically.  Antecedents are printed
    sorted, so output is deterministic.  The empty theory prints as the
    empty string; round-tripping through :func:`parse` reproduces the
    theory (generated symbols need `allow_generated=True`).
    """
    lines = [f"{fact}." for fact in theory.facts]
    lines.extend(f"{rule}." for rule in theory.rules)
    lines.extend(f"{sup} > {inf}." for sup, inf in sorted(theory.superiority))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
