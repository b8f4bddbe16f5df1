"""Finite algebras: operation tables, term evaluation, homomorphisms.

The text format for algebra/mapping specs is::

    algebra <name> {
      universe: e1, e2, ...;
      op <sym>/<rank>: (t1,...,tk) -> e, ...;    # unary rows may drop parens
      op <sym>/<rank> default identity: t -> e, ...;   # unary only
    }
    mapping <name> : <algA> -> <algB> { e1 -> u1, ...; }

Comments run from ``#`` to end of line.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .terms import Language, Term, TokenCursor, Var

__all__ = [
    "Element",
    "FiniteAlgebra",
    "Mapping",
    "AlgebraSpecError",
    "SpecFile",
    "parse_spec_file",
    "load_algebra",
    "evaluate",
    "is_homomorphism",
    "is_isomorphism",
    "solution_set",
    "unique_solution_elements",
]

Element = str
Assignment = dict[int, Element]


class AlgebraSpecError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteAlgebra:
    name: str
    language: Language
    universe: tuple[Element, ...]
    # symbol -> { argument tuple -> result }
    tables: dict[str, dict[tuple[Element, ...], Element]] = field(hash=False)

    def __post_init__(self):
        if not self.universe:
            raise AlgebraSpecError(f"algebra {self.name!r}: universe is empty")
        if len(set(self.universe)) != len(self.universe):
            raise AlgebraSpecError(f"algebra {self.name!r}: duplicate element")
        elems = set(self.universe)
        for sym, rank in self.language.symbols:
            table = self.tables.get(sym)
            if table is None:
                raise AlgebraSpecError(f"algebra {self.name!r}: no table for {sym}")
            for args in itertools.product(self.universe, repeat=rank):
                if args not in table:
                    raise AlgebraSpecError(
                        f"algebra {self.name!r}: missing row {sym}{args}"
                    )
                if table[args] not in elems:
                    raise AlgebraSpecError(
                        f"algebra {self.name!r}: {sym}{args} -> {table[args]}"
                        " is outside the universe"
                    )
            for args in table:
                if len(args) != rank or not elems.issuperset(args):
                    raise AlgebraSpecError(
                        f"algebra {self.name!r}: row {sym}{args} has an argument"
                        " outside the universe"
                    )

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        return self.tables[symbol][args]

    @cached_property
    def index(self) -> dict[Element, int]:
        return {e: i for i, e in enumerate(self.universe)}


@dataclass(frozen=True)
class Mapping:
    name: str
    source: FiniteAlgebra
    target: FiniteAlgebra
    table: dict[Element, Element] = field(hash=False)

    def __post_init__(self):
        for e in self.source.universe:
            if e not in self.table:
                raise AlgebraSpecError(f"mapping {self.name!r}: no image for {e!r}")
        for e, v in self.table.items():
            if e not in self.source.index:
                raise AlgebraSpecError(
                    f"mapping {self.name!r}: {e!r} is not an element of the source"
                )
            if v not in self.target.index:
                raise AlgebraSpecError(
                    f"mapping {self.name!r}: image {v!r} outside target universe"
                )

    def __call__(self, e: Element) -> Element:
        return self.table[e]


def evaluate(t: Term, alg: FiniteAlgebra, assignment: Assignment) -> Element:
    if isinstance(t, Var):
        try:
            return assignment[t.index]
        except KeyError:
            raise KeyError(f"unassigned variable x{t.index}") from None
    args = tuple(evaluate(c, alg, assignment) for c in t.children)
    return alg.apply(t.symbol, args)


def is_homomorphism(h: Mapping) -> bool:
    if h.source.language != h.target.language:
        raise AlgebraSpecError("homomorphism check requires a common language")
    for sym, rank in h.source.language.symbols:
        for args in itertools.product(h.source.universe, repeat=rank):
            mapped = tuple(h(a) for a in args)
            if h(h.source.apply(sym, args)) != h.target.apply(sym, mapped):
                return False
    return True


def is_isomorphism(h: Mapping) -> bool:
    bijective = len(set(h.table.values())) == len(h.source.universe) == len(
        h.target.universe
    )
    return bijective and is_homomorphism(h)


def term_table(
    t: Term, alg: FiniteAlgebra, variables: tuple[int, ...]
) -> tuple[Element, ...]:
    """The value table of t over assignments to ``variables``, in product order.

    Computed bottom-up by ``_table``: each variable reads its projection
    column, and each application is one mapped lookup into its op table over
    the zipped tables of its children.
    """
    if len(variables) == 1:  # the one column of the product order is the universe
        columns = {variables[0]: alg.universe}
    else:
        columns = dict(zip(variables, zip(*itertools.product(alg.universe, repeat=len(variables)))))
    return _table(t, alg.tables, columns, len(alg.universe) ** len(variables))


def _table(u: Term, tables: dict, columns: dict, size: int) -> tuple[Element, ...]:
    """The value table of u, its variables read from ``columns``, ``size`` rows long."""
    if u.__class__ is Var:
        try:
            return columns[u.index]
        except KeyError:
            raise KeyError(f"unassigned variable x{u.index}") from None
    op, children = tables[u.symbol], u.children
    if len(children) == 1:
        return tuple(map(op.__getitem__, zip(_table(children[0], tables, columns, size))))
    if not children:
        return (op[()],) * size
    return tuple(map(op.__getitem__, zip(*[_table(c, tables, columns, size) for c in children])))


def solution_set(
    s: Term,
    a: Element,
    alg: FiniteAlgebra,
    variables: tuple[int, ...] | None = None,
) -> set[tuple[Element, ...]]:
    """All assignments o over ``variables`` with s(o) = a, as value tuples."""
    if variables is None:
        variables = s.variables()
    if len(set(variables)) != len(variables):
        raise ValueError("variables must not repeat")
    if not set(s.variables()) <= set(variables):
        raise ValueError("variables must cover the variables of the term")
    assignments = itertools.product(alg.universe, repeat=len(variables))
    return {o for o, e in zip(assignments, term_table(s, alg, variables)) if e == a}


def unique_solution_elements(s: Term, alg: FiniteAlgebra) -> set[Element]:
    """Elements with exactly one solution of a = s(x) over the term's variables."""
    counts = Counter(term_table(s, alg, s.variables()))
    return {a for a, n in counts.items() if n == 1}


# --- spec file parsing -------------------------------------------------------


@dataclass
class SpecFile:
    algebras: dict[str, FiniteAlgebra]
    mappings: dict[str, Mapping]


_TOKEN = re.compile(
    r"\s+|#[^\n]*"  # whitespace and comments
    r"|(?P<word>[A-Za-z0-9_]+)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[{}():,;/])"
)


def _spec_error(message: str, position: int) -> AlgebraSpecError:
    return AlgebraSpecError(f"{message} at {position}")


class _SpecParser(TokenCursor):
    def __init__(self, text: str):
        super().__init__(text, _TOKEN, _spec_error)

    def parse(self) -> SpecFile:
        algebras: dict[str, FiniteAlgebra] = {}
        mappings: dict[str, Mapping] = {}
        while self.peek() is not None:
            start = self.i
            keyword = self.word()
            if keyword == "algebra":
                alg = self.algebra()
                if alg.name in algebras:
                    raise AlgebraSpecError(f"duplicate algebra {alg.name!r}")
                algebras[alg.name] = alg
            elif keyword == "mapping":
                m = self.mapping(algebras)
                if m.name in mappings:
                    raise AlgebraSpecError(f"duplicate mapping {m.name!r}")
                mappings[m.name] = m
            else:
                raise self.fail(f"expected 'algebra' or 'mapping', got {keyword!r}", start)
        return SpecFile(algebras, mappings)

    def algebra(self) -> FiniteAlgebra:
        name = self.word()
        self.expect("{")
        self.expect("universe")
        self.expect(":")
        universe = [self.word()]
        while self.accept(","):
            universe.append(self.word())
        self.expect(";")
        symbols: list[tuple[str, int]] = []
        tables: dict[str, dict[tuple[Element, ...], Element]] = {}
        while self.accept("op"):
            sym = self.word()
            self.expect("/")
            if not (self.peek() or "").isdigit():
                raise self.fail(f"expected rank after {sym!r}/")
            rank = int(self.word())
            default_identity = self.accept("default")
            if default_identity:
                self.expect("identity")
                if rank != 1:
                    raise self.fail("default identity is only valid for unary ops", self.i - 1)
            self.expect(":")
            table: dict[tuple[Element, ...], Element] = {}
            if default_identity:
                table = {(e,): e for e in universe}
            while True:
                args = self.op_args(rank)
                self.expect("->")
                result = self.word()
                table[args] = result
                if not self.accept(","):
                    break
            self.expect(";")
            if sym in tables:
                raise AlgebraSpecError(f"duplicate op {sym!r}")
            symbols.append((sym, rank))
            tables[sym] = table
        self.expect("}")
        try:
            language = Language(tuple(symbols))
        except ValueError as exc:  # an op named like a variable, x0, x1, ...
            raise AlgebraSpecError(f"algebra {name!r}: {exc}") from None
        return FiniteAlgebra(name, language, tuple(universe), tables)

    def op_args(self, rank: int) -> tuple[Element, ...]:
        start = self.i
        if self.accept("("):
            args = []
            if rank > 0:
                args.append(self.word())
                while self.accept(","):
                    args.append(self.word())
            self.expect(")")
        elif rank == 1:
            args = [self.word()]
        elif rank == 0:
            args = []
        else:
            raise self.fail("rows for ops of rank >= 2 need parentheses")
        if len(args) != rank:
            raise self.fail(f"expected {rank} argument(s), got {len(args)}", start)
        return tuple(args)

    def mapping(self, algebras: dict[str, FiniteAlgebra]) -> Mapping:
        name = self.word()
        self.expect(":")
        src = self.word()
        self.expect("->")
        dst = self.word()
        for ref in (src, dst):
            if ref not in algebras:
                raise AlgebraSpecError(f"mapping {name!r} references unknown algebra {ref!r}")
        self.expect("{")
        table: dict[Element, Element] = {}
        while self.peek() not in ("}", None):
            e = self.word()
            self.expect("->")
            v = self.word()
            if e in table:
                raise AlgebraSpecError(f"mapping {name!r}: duplicate entry for {e!r}")
            table[e] = v
            self.accept(",") or self.accept(";")
        self.expect("}")
        return Mapping(name, algebras[src], algebras[dst], table)


def parse_spec_file(text: str) -> SpecFile:
    return _SpecParser(text).parse()


def load_algebra(text: str) -> tuple[Language, FiniteAlgebra]:
    """Load a spec containing exactly one algebra."""
    spec = parse_spec_file(text)
    if len(spec.algebras) != 1:
        raise AlgebraSpecError("expected exactly one algebra in the spec")
    alg = next(iter(spec.algebras.values()))
    return alg.language, alg

