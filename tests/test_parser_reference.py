"""The term and spec parsers against the scanners they replaced.

``ReferenceTermParser``/``reference_parse_term`` and ``reference_tokenize``/
``ReferenceSpecParser`` are verbatim copies of the two hand-written scanners
as they were before both grammars shared one token cursor (only their names
differ).  On the fuzz generators' inputs, the bundled specs and
round-tripped terms, the parsers in use must build objects equal to the
copies' or raise an exception of the same type, and every spec error the
cursor or the spec grammar raises must name a position in the input.
"""

import re
from importlib import resources

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_fuzz import (  # noqa: E402
    FUZZ,
    RICH_SPEC,
    TERM_LANGUAGE,
    TERM_TOKENS,
    spec_texts,
    unary_specs,
)
from test_terms import L3, terms_to_depth_3  # noqa: E402

from aprop.algebras import (  # noqa: E402
    AlgebraSpecError,
    Element,
    FiniteAlgebra,
    Mapping,
    SpecFile,
    parse_spec_file,
)
from aprop.terms import (  # noqa: E402
    MAX_TERM_DEPTH,
    App,
    Language,
    Term,
    TermSyntaxError,
    Var,
    _is_variable_name,
    parse_term,
)
from aprop.verify import bundled_algebra_names  # noqa: E402


class ReferenceTermParser:
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


def reference_parse_term(text: str, language: Language) -> Term:
    parser = ReferenceTermParser(text, language)
    t = parser.term()
    parser.skip_ws()
    if parser.pos != len(text):
        raise TermSyntaxError("trailing input after term", parser.pos)
    return t


REFERENCE_TOKEN = re.compile(
    r"\s+|#[^\n]*"  # whitespace and comments
    r"|(?P<word>[A-Za-z0-9_]+)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[{}():,;/])"
)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise AlgebraSpecError(f"unexpected character {text[pos]!r} at {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class ReferenceSpecParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise AlgebraSpecError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got, pos = self.next()
        if got != value:
            raise AlgebraSpecError(f"expected {value!r}, got {got!r} at {pos}")

    def word(self) -> str:
        kind, got, pos = self.next()
        if kind != "word":
            raise AlgebraSpecError(f"expected identifier, got {got!r} at {pos}")
        return got

    def parse(self) -> SpecFile:
        algebras: dict[str, FiniteAlgebra] = {}
        mappings: dict[str, Mapping] = {}
        while self.peek() is not None:
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
                raise AlgebraSpecError(f"expected 'algebra' or 'mapping', got {keyword!r}")
        return SpecFile(algebras, mappings)

    def algebra(self) -> FiniteAlgebra:
        name = self.word()
        self.expect("{")
        self.expect("universe")
        self.expect(":")
        universe = [self.word()]
        while self.peek() and self.peek()[1] == ",":
            self.next()
            universe.append(self.word())
        self.expect(";")
        symbols: list[tuple[str, int]] = []
        tables: dict[str, dict[tuple[Element, ...], Element]] = {}
        while self.peek() and self.peek()[1] == "op":
            self.next()
            sym = self.word()
            self.expect("/")
            rank_word = self.word() if self.peek() and self.peek()[0] == "word" else None
            if rank_word is None or not rank_word.isdigit():
                raise AlgebraSpecError(f"expected rank after {sym!r}/")
            rank = int(rank_word)
            default_identity = False
            if self.peek() and self.peek()[1] == "default":
                self.next()
                self.expect("identity")
                if rank != 1:
                    raise AlgebraSpecError("default identity is only valid for unary ops")
                default_identity = True
            self.expect(":")
            table: dict[tuple[Element, ...], Element] = {}
            if default_identity:
                table = {(e,): e for e in universe}
            while True:
                args = self.op_args(rank)
                self.expect("->")
                result = self.word()
                table[args] = result
                if self.peek() and self.peek()[1] == ",":
                    self.next()
                    continue
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
        if self.peek() and self.peek()[1] == "(":
            self.next()
            args = []
            if rank > 0:
                args.append(self.word())
                while self.peek() and self.peek()[1] == ",":
                    self.next()
                    args.append(self.word())
            self.expect(")")
        elif rank == 1:
            args = [self.word()]
        elif rank == 0:
            args = []
        else:
            raise AlgebraSpecError("rows for ops of rank >= 2 need parentheses")
        if len(args) != rank:
            raise AlgebraSpecError(f"expected {rank} argument(s), got {len(args)}")
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
        while self.peek() and self.peek()[1] != "}":
            e = self.word()
            self.expect("->")
            v = self.word()
            if e in table:
                raise AlgebraSpecError(f"mapping {name!r}: duplicate entry for {e!r}")
            table[e] = v
            if self.peek() and self.peek()[1] in (",", ";"):
                self.next()
        self.expect("}")
        return Mapping(name, algebras[src], algebras[dst], table)


def reference_parse_spec_file(text: str) -> SpecFile:
    return ReferenceSpecParser(text).parse()



def outcome(parse, *args):
    """What ``parse`` makes of ``args``: ("ok", object) or ("error", type, exc)."""
    try:
        return ("ok", parse(*args))
    except Exception as exc:  # noqa: BLE001 - any type is compared
        return ("error", type(exc), exc)


def assert_terms_agree(text: str, language: Language) -> None:
    new, old = outcome(parse_term, text, language), outcome(reference_parse_term, text, language)
    assert new[:2] == old[:2], (text, new, old)


# Errors about what a well-formed spec says, raised after its syntax is read
# (a duplicate name, an unknown algebra, a table the algebra or mapping
# refuses): they name the algebra or mapping, not a position.
SEMANTIC = ("algebra '", "mapping '", "duplicate ")


def assert_specs_agree(text: str) -> None:
    new, old = outcome(parse_spec_file, text), outcome(reference_parse_spec_file, text)
    assert new[:2] == old[:2], (text, new, old)
    if new[0] == "error" and not str(new[2]).startswith(SEMANTIC):
        found = re.search(r" at (\d+)$", str(new[2]))
        assert found, (text, new[2])
        position = int(found[1])
        assert position == len(text) or not text[position].isspace(), (text, new[2])


def bundled_texts() -> list[str]:
    root = resources.files("aprop") / "data"
    return [(root / f"{name}.alg").read_text() for name in bundled_algebra_names()]


@pytest.mark.parametrize(
    "text", [*bundled_texts(), RICH_SPEC], ids=[*bundled_algebra_names(), "rich"]
)
def test_bundled_specs_and_every_truncation(text):
    """Each bundled spec, and every prefix of it that ends at a character."""
    assert outcome(parse_spec_file, text)[0] == "ok"
    for end in range(len(text) + 1):
        assert_specs_agree(text[:end])


@FUZZ
@given(spec_texts)
def test_generated_spec_texts(text):
    assert_specs_agree(text)


@FUZZ
@given(unary_specs())
def test_generated_unary_specs(text):
    assert_specs_agree(text)


@FUZZ
@given(st.lists(st.sampled_from(TERM_TOKENS), max_size=24).map("".join))
def test_generated_term_texts(text):
    assert_terms_agree(text, TERM_LANGUAGE)


def test_round_tripped_terms():
    """str(t) of every term to depth 2 and sampled ones at depth 3, also
    spaced out, and nestings at and past the depth bound."""
    for t in terms_to_depth_3():
        text = str(t)
        assert parse_term(text, L3) == t
        assert_terms_agree(text, L3)
        assert_terms_agree(" " + re.sub(r"([(),])", r" \1\t", text) + "\n", L3)
    for n in (MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1):
        assert_terms_agree("f(" * n + "x0" + ")" * n, TERM_LANGUAGE)


def test_identifiers_and_spaces_beyond_ascii():
    """Identifiers are what str.isalnum or "_" accepts, spaces what
    str.isspace accepts: an Arabic-Indic digit names a variable, and an
    ideographic or em space separates tokens."""
    language = Language((("ñ", 1), ("μ_2", 2)))
    for text in ("ñ(x0)", "μ_2(ñ(x1), x\u0663)", "\u3000ñ(\u2003x0)\u3000"):
        assert outcome(parse_term, text, language)[0] == "ok"
        assert_terms_agree(text, language)
