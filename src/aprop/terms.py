"""Signatures, variables, terms and rewrite rules over a finite language.

Terms are immutable trees built from an ordered variable pool x0, x1, ...
and ranked function symbols.  Rank-0 symbols act as constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Language",
    "Term",
    "Var",
    "App",
    "ArrowPattern",
    "RewriteRule",
    "TermSyntaxError",
    "MAX_TERM_DEPTH",
    "parse_term",
]

# The deepest term parse_term accepts: the parser, == and hash recurse once per level.
MAX_TERM_DEPTH = 200


class TermSyntaxError(ValueError):
    """Raised on malformed term input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Language:
    """A ranked set of function symbols."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(names) != len(set(names)):
            raise ValueError("function symbol names must be pairwise distinct")
        for name, rank in self.symbols:
            if rank < 0:
                raise ValueError(f"symbol {name!r} has negative rank")
            if _is_variable_name(name):
                raise ValueError(f"symbol {name!r} clashes with the variable pool")

    @cached_property
    def rank(self) -> dict[str, int]:
        return dict(self.symbols)

    def __contains__(self, name: str) -> bool:
        return name in self.rank


def _is_variable_name(name: str) -> bool:
    return len(name) > 1 and name[0] == "x" and name[1:].isdecimal()


class Term:
    """Base class; concrete terms are Var or App.

    A term is complete when built: ``key``, (depth, string), orders terms
    smallest key first, and ``_variables`` holds the variable indices in
    first-occurrence order.  Both are computed from the children's and kept
    outside the dataclass fields, so they take no part in ==, hash or repr.
    """

    __slots__ = ()
    key: tuple[int, str]
    _variables: tuple[int, ...]

    def variables(self) -> tuple[int, ...]:
        """Variable indices in first-occurrence order."""
        return self._variables

    @property
    def rank(self) -> int:
        return len(self.variables())

    def depth(self) -> int:
        return self.key[0]

    def __str__(self) -> str:
        return self.key[1]


@dataclass(frozen=True)
class Var(Term):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be non-negative")
        object.__setattr__(self, "key", (0, f"x{self.index}"))
        object.__setattr__(self, "_variables", (self.index,))


@dataclass(frozen=True)
class App(Term):
    symbol: str
    children: tuple[Term, ...] = ()

    def __post_init__(self):
        depth, texts, variables = 0, [], ()
        for child in self.children:
            child_depth, text = child.key
            depth = max(depth, child_depth)
            texts.append(text)
            variables += child._variables
        text = f"{self.symbol}({','.join(texts)})" if texts else self.symbol
        object.__setattr__(self, "key", (depth + 1, text))
        object.__setattr__(self, "_variables", tuple(dict.fromkeys(variables)))


@dataclass(frozen=True)
class ArrowPattern:
    """A pair of terms s -> t with no variable-containment condition."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class RewriteRule:
    """A pair s ->> t where every variable of t occurs in s."""

    lhs: Term
    rhs: Term

    def __post_init__(self):
        if not set(self.rhs.variables()) <= set(self.lhs.variables()):
            raise ValueError(f"not a rewrite rule: {self.lhs} ->> {self.rhs}")

    def __str__(self) -> str:
        return f"{self.lhs} ->> {self.rhs}"


class TokenCursor:
    """A cursor over the tokens of ``text``.

    ``pattern``'s named groups are the token kinds; a match in no named group
    (whitespace, comments) is skipped.  A token is (kind, text, position),
    and the last is ("end", None, len(text)).  Every error is
    ``error(message, position)`` at the offending token's position.
    """

    def __init__(self, text: str, pattern: re.Pattern, error):
        self.error, self.i = error, 0
        self.tokens, pos = [], 0
        for m in pattern.finditer(text):
            start, end = m.span()
            if start != pos:
                break
            pos = end
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m[0], start))
        if pos != len(text):
            raise error(f"unexpected character {text[pos]!r}", pos)
        self.tokens.append(("end", None, pos))

    def peek(self) -> str | None:
        """The next token's text, or None at the end of the input."""
        return self.tokens[self.i][1]

    def fail(self, message: str, token: int | None = None) -> Exception:
        """The caller's error at token number ``token``, by default the next."""
        return self.error(message, self.tokens[self.i if token is None else token][2])

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.i]
        if token[1] is None:
            raise self.error("unexpected end of input", token[2])
        self.i += 1
        return token

    def accept(self, value: str) -> bool:
        """Consume the next token when its text is ``value``."""
        if self.tokens[self.i][1] == value:
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> None:
        kind, got, pos = self.next()
        if got != value:
            raise self.error(f"expected {value!r}, got {got!r}", pos)

    def word(self) -> str:
        kind, got, pos = self.tokens[self.i]
        if kind != "word":
            self.next()  # the end of the input is its own error
            raise self.error(f"expected identifier, got {got!r}", pos)
        self.i += 1
        return got


# Identifiers are runs of \w (what str.isalnum or "_" accepts); whitespace
# may stand between any two tokens.
_TERM_TOKEN = re.compile(r"\s+|(?P<word>\w+)|(?P<punct>[(),])")


def _term(cursor: TokenCursor, ranks: dict[str, int], depth: int) -> Term:
    start = cursor.i
    name = cursor.word()
    if _is_variable_name(name):
        return Var(int(name[1:]))
    rank = ranks.get(name)
    if rank is None:
        raise cursor.fail(f"unknown symbol {name!r}", start)
    children: tuple[Term, ...] = ()
    if cursor.accept("("):
        if depth == MAX_TERM_DEPTH:
            raise cursor.fail(f"term deeper than {MAX_TERM_DEPTH} levels", cursor.i - 1)
        args = [_term(cursor, ranks, depth + 1)]
        while cursor.accept(","):
            args.append(_term(cursor, ranks, depth + 1))
        cursor.expect(")")
        children = tuple(args)
    if len(children) != rank:
        raise cursor.fail(
            f"symbol {name!r} expects {rank} argument(s), got {len(children)}", start
        )
    return App(name, children)


def parse_term(text: str, language: Language) -> Term:
    cursor = TokenCursor(text, _TERM_TOKEN, TermSyntaxError)
    t = _term(cursor, language.rank, 0)
    if cursor.peek() is not None:
        raise cursor.fail("trailing input after term")
    return t
