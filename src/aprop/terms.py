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

# The deepest term parse_term accepts: Term.key, and so str and depth, recurse once per level.
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
    """Base class; concrete terms are Var or App."""

    __slots__ = ()

    def variables(self) -> tuple[int, ...]:
        """Variable indices in first-occurrence order."""
        return self._variables

    @property
    def rank(self) -> int:
        return len(self.variables())

    # The ordering key (depth, string) and the variables are computed once per
    # node from the children's, on first read, and kept in the instance dict,
    # outside the dataclass fields, so they take no part in ==, hash or repr.
    @cached_property
    def key(self) -> tuple[int, str]:
        """(depth, string): terms are ordered smallest key first."""
        raise NotImplementedError

    @cached_property
    def _variables(self) -> tuple[int, ...]:
        raise NotImplementedError

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

    @cached_property
    def key(self) -> tuple[int, str]:
        return (0, f"x{self.index}")

    @cached_property
    def _variables(self) -> tuple[int, ...]:
        return (self.index,)


@dataclass(frozen=True)
class App(Term):
    symbol: str
    children: tuple[Term, ...] = ()

    @cached_property
    def key(self) -> tuple[int, str]:
        if not self.children:
            return (1, self.symbol)
        keys = [c.key for c in self.children]
        return (
            1 + max(k[0] for k in keys),
            f"{self.symbol}({','.join(k[1] for k in keys)})",
        )

    @cached_property
    def _variables(self) -> tuple[int, ...]:
        if len(self.children) == 1:
            return self.children[0]._variables
        return tuple(dict.fromkeys(i for c in self.children for i in c._variables))


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
