"""Signatures, variables, terms and rewrite rules over a finite language.

Terms are immutable trees built from an ordered variable pool x0, x1, ...
and ranked function symbols.  Rank-0 symbols act as constants.
"""

from __future__ import annotations

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


class _Parser:
    def __init__(self, text: str, language: Language):
        self.text = text
        self.language = language
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise TermSyntaxError("expected identifier", start)
        return self.text[start : self.pos]

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise TermSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def term(self, depth: int = 0) -> Term:
        start = self.pos
        name = self.ident()
        if _is_variable_name(name):
            return Var(int(name[1:]))
        if name not in self.language:
            raise TermSyntaxError(f"unknown symbol {name!r}", start)
        rank = self.language.rank[name]
        children: tuple[Term, ...] = ()
        if self.peek() == "(":
            if depth == MAX_TERM_DEPTH:
                raise TermSyntaxError(f"term deeper than {MAX_TERM_DEPTH} levels", self.pos)
            self.expect("(")
            args = [self.term(depth + 1)]
            while self.peek() == ",":
                self.expect(",")
                args.append(self.term(depth + 1))
            self.expect(")")
            children = tuple(args)
        if len(children) != rank:
            raise TermSyntaxError(
                f"symbol {name!r} expects {rank} argument(s), got {len(children)}",
                start,
            )
        return App(name, children)


def parse_term(text: str, language: Language) -> Term:
    parser = _Parser(text, language)
    t = parser.term()
    parser.skip_ws()
    if parser.pos != len(text):
        raise TermSyntaxError("trailing input after term", parser.pos)
    return t
