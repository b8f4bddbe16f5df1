"""Property tests of the input parsers and the CLI on generated input.

The spec parser may only reject its input with ``AlgebraSpecError`` and the
term parser only with ``TermSyntaxError``; the CLI answers every generated
spec with an exit code, never a traceback.  Generation is derandomized and
uses no example database, so every run tries the same inputs.
"""

import contextlib
import io
import os
import re
import tempfile
from importlib import resources

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aprop.algebras import AlgebraSpecError, parse_spec_file  # noqa: E402
from aprop.cli import main  # noqa: E402
from aprop.terms import Language, TermSyntaxError, parse_term  # noqa: E402
from aprop.verify import bundled_algebra_names  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400)

# A spec with what the bundled ones lack: a binary op, a constant, a
# default-identity op next to a full table, and a mapping.
RICH_SPEC = """
algebra Z { universe: a, b; op plus/2: (a,a) -> a, (a,b) -> b, (b,a) -> b, (b,b) -> a;
            op zero/0: () -> a; op f/1 default identity: a -> b; op g/1: a -> a, b -> a; }
algebra W { universe: a, b; op plus/2: (a,a) -> a, (a,b) -> b, (b,a) -> b, (b,b) -> a;
            op zero/0: () -> a; op f/1 default identity: b -> a; op g/1: a -> b, b -> b; }
mapping m : Z -> W { a -> a; b -> b }
"""

_SPEC_TOKEN = re.compile(r"->|[A-Za-z0-9_]+|[{}():,;/]")


def spec_tokens(text: str) -> list[str]:
    return _SPEC_TOKEN.findall(re.sub(r"#[^\n]*", "", text))


def _bundled_texts() -> list[str]:
    root = resources.files("aprop") / "data"
    return [(root / f"{name}.alg").read_text() for name in bundled_algebra_names()]


SPECS = [spec_tokens(text) for text in _bundled_texts() + [RICH_SPEC]]
SOUP = sorted({tok for toks in SPECS for tok in toks}) + [
    "x0", "x1", "0", "99", "default", "identity", "mapping", "@", "", "# note\n",
]


@st.composite
def truncations(draw):
    tokens = draw(st.sampled_from(SPECS))
    return tokens[: draw(st.integers(0, len(tokens)))]


@st.composite
def splices(draw):
    """A prefix of one spec, a slice of another, the rest of the first."""
    first, second = draw(st.sampled_from(SPECS)), draw(st.sampled_from(SPECS))
    i = draw(st.integers(0, len(first)))
    j = draw(st.integers(i, len(first)))
    k = draw(st.integers(0, len(second)))
    m = draw(st.integers(k, min(len(second), k + 12)))
    return first[:i] + second[k:m] + first[j:]


spec_texts = st.one_of(
    truncations(), splices(), st.lists(st.sampled_from(SOUP), max_size=40)
).map(" ".join)


@FUZZ
@given(spec_texts)
def test_spec_parser_raises_only_spec_errors(text):
    try:
        parse_spec_file(text)
    except AlgebraSpecError:
        pass


TERM_LANGUAGE = Language((("f", 1), ("g", 2), ("c", 0)))
TERM_TOKENS = ["f", "g", "c", "h", "x0", "x1", "x12", "x", "x²", "y", "(", ")", ",", " ", "é"]


@FUZZ
@given(st.lists(st.sampled_from(TERM_TOKENS), max_size=24).map("".join))
def test_term_parser_raises_only_syntax_errors(text):
    try:
        parse_term(text, TERM_LANGUAGE)
    except TermSyntaxError:
        pass


@st.composite
def unary_specs(draw):
    """One or two small unary algebras, maybe a mapping, maybe cut short."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    symbols = ["f", "g"][: draw(st.integers(0, 2))]
    lines = []
    for alg in draw(st.sampled_from([["P"], ["P", "Q"]])):
        if alg == "Q" and draw(st.integers(0, 3)) == 0:
            symbols = symbols[:-1] if symbols else ["f"]  # no common language
        ops = []
        for sym in symbols:
            rows = ", ".join(f"{e} -> {draw(st.sampled_from(names))}" for e in names)
            ops.append(f"op {sym}/1: {rows};")
        lines.append(f"algebra {alg} {{ universe: {', '.join(names)}; {' '.join(ops)} }}")
    if len(lines) == 2:
        pairs = ", ".join(f"{e} -> {draw(st.sampled_from(names))}" for e in names)
        lines.append(f"mapping m : P -> Q {{ {pairs} }}")
    tokens = spec_tokens("\n".join(lines))
    if draw(st.integers(0, 3)) == 0:
        tokens = tokens[: draw(st.integers(0, len(tokens)))]
    return " ".join(tokens)


ELEMENTS = st.sampled_from(["a", "b", "c", "z"])
COMMANDS = st.one_of(
    st.tuples(st.just("check"), ELEMENTS, ELEMENTS, ELEMENTS, ELEMENTS),
    st.tuples(st.just("solve"), ELEMENTS, ELEMENTS, ELEMENTS),
    st.tuples(st.just("similar"), ELEMENTS, ELEMENTS),
    st.tuples(st.just("justifications"), ELEMENTS, ELEMENTS, ELEMENTS, ELEMENTS),
    st.tuples(st.just("axioms")),
    st.tuples(st.just("compare")),
    st.tuples(st.just("iso")),
)


@settings(FUZZ, max_examples=150)
@given(unary_specs(), COMMANDS, st.sampled_from(["sim", "rw", "both"]))
def test_cli_answers_every_generated_spec(spec, command, framework):
    name, *elements = command
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.spec")
        with open(path, "w") as fh:
            fh.write(spec)
        argv = [name, path, "m"] if name == "iso" else [name, path, *elements]
        argv += ["--framework", framework, "--max-vars", "1", "--class-cap", "200"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(argv) in (0, 1, 2, 3)
