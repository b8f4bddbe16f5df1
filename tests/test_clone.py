import hashlib
import itertools
import random
import string
import weakref
from collections import Counter

import pytest

import aprop.clone
from aprop.algebras import FiniteAlgebra, load_algebra, term_table
from aprop.clone import (
    MAX_GROUP_PAIRS,
    MAX_ROWS,
    MAX_TABLE_BYTES,
    Bounds,
    ResourceLimitError,
    build_pair_context,
    generate_clone,
)
from aprop.terms import App, Language, Term, Var, parse_term
from aprop.verdicts import POLICIES
from aprop.verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    bundled_algebra,
    bundled_algebra_names,
    check_axiom,
    compare_frameworks,
    quotient_homomorphisms,
    random_algebra,
)


def all_terms(language: Language, max_vars: int, max_depth: int) -> list[Term]:
    """Every raw term over x0..x(v-1) up to the depth, no deduplication."""
    levels = [[Var(i) for i in range(max_vars)]]
    levels[0] += [App(sym) for sym, rank in language.symbols if rank == 0]
    pool = list(levels[0])
    for _ in range(max_depth):
        level = []
        for sym, rank in language.symbols:
            if rank == 0:
                continue
            for children in itertools.product(pool, repeat=rank):
                level.append(App(sym, children))
        pool += level
        levels.append(level)
    return pool


def generated_algebra(name: str) -> FiniteAlgebra:
    """CS<n>: a unary n-cycle f and the shift g(i) = min(i+1, n-1);
    Z<n>: addition modulo n; J<n>: the join (maximum) of an n-element chain;
    T<n>: the ternary t(i, j, k) = i + 2j + 3k modulo n."""
    kind = name.rstrip("0123456789")
    n = int(name[len(kind):])
    u = tuple(string.ascii_lowercase[:n])
    if kind == "CS":
        symbols = (("f", 1), ("g", 1))
        tables = {
            "f": {(u[i],): u[(i + 1) % n] for i in range(n)},
            "g": {(u[i],): u[min(i + 1, n - 1)] for i in range(n)},
        }
    elif kind == "T":
        symbols = (("t", 3),)
        tables = {"t": {
            (u[i], u[j], u[k]): u[(i + 2 * j + 3 * k) % n]
            for i, j, k in itertools.product(range(n), repeat=3)
        }}
    else:
        op = (lambda i, j: (i + j) % n) if kind == "Z" else max
        symbols = (("p", 2),)
        tables = {"p": {(u[i], u[j]): u[op(i, j)] for i in range(n) for j in range(n)}}
    return FiniteAlgebra(name, Language(symbols), u, tables)


def random_groupoid(seed: int) -> FiniteAlgebra:
    """A 3-element groupoid: one binary op ``p`` whose table, row-major over
    (a, b, c), takes one ``random.Random(seed).choice`` per cell.  Seed 2
    reads ``aaabaccbb``: 594 classes at two variables."""
    rng = random.Random(seed)
    u = ("a", "b", "c")
    table = {args: rng.choice(u) for args in itertools.product(u, repeat=2)}
    return FiniteAlgebra(f"G3r{seed}", Language((("p", 2),)), u, {"p": table})


def clone_digest(result) -> str:
    """A digest of every ``CloneResult`` field but the levels' CPU times."""
    fields = [
        result.alg_a.name, result.alg_b.name, result.bounds, result.saturated,
        result.depth_reached, [level[:3] for level in result.levels],
        [
            (c.table_a, c.table_b, c.depth_found,
             [(sorted(sup), str(t)) for sup, t in c.witnesses.items()])
            for c in result.classes
        ],
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def relation_digest(ctx) -> str:
    """A digest of every ``RelationClass`` field of a context, in order."""
    fields = [
        (sorted(rc.rel_a), sorted(rc.rel_b), [str(t) for t in rc.witness], rc.trivial,
         None if rc.rewrite_witness is None else [str(t) for t in rc.rewrite_witness])
        for rc in ctx.relations
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestGenerateClone:
    def test_empty_language_two_projections(self):
        alg = bundled_algebra("A1")
        result = generate_clone(alg, bounds=Bounds(max_vars=2))
        assert len(result.classes) == 2
        assert result.saturated
        assert result.depth_reached == 0

    def test_a2_single_variable(self):
        alg = bundled_algebra("A2")
        result = generate_clone(alg, bounds=Bounds(max_vars=1))
        assert sorted(str(c.witness) for c in result.classes) == ["f(x0)", "x0"]
        assert result.saturated

    def test_eaabb_single_variable(self):
        alg = bundled_algebra("EAABB")
        result = generate_clone(alg, bounds=Bounds(max_vars=1))
        assert sorted(str(c.witness) for c in result.classes) == ["f(x0)", "x0"]
        assert result.saturated

    def test_witness_reproduces_table(self):
        alg = bundled_algebra("A3")
        result = generate_clone(alg, bounds=Bounds(max_vars=2))
        for cls in result.classes:
            assert term_table(cls.witness, alg, (0, 1)) == cls.table_a

    def test_monotone_in_depth(self):
        alg = bundled_algebra("CPTRANS")
        previous = set()
        for depth in range(4):
            result = generate_clone(alg, bounds=Bounds(max_depth=depth, max_vars=2))
            tables = {c.table_a for c in result.classes}
            assert previous <= tables
            previous = tables

    def test_saturation_closure(self):
        alg = bundled_algebra("PTRANS")
        result = generate_clone(alg, bounds=Bounds(max_vars=2))
        assert result.saturated
        tables = {c.table_a for c in result.classes}
        assigns = list(itertools.product(alg.universe, repeat=2))
        for sym, rank in alg.language.symbols:
            for cls in result.classes:
                composed = tuple(
                    alg.apply(sym, (cls.table_a[i],)) for i in range(len(assigns))
                )
                assert composed in tables

    def test_complete_from_two_variables_on_saturated_unary_clones(self, contexts):
        for name in bundled_algebra_names():
            assert contexts(name, max_vars=2).clone.complete, name
            assert not contexts(name, max_vars=1).clone.complete, name
        cut = generate_clone(bundled_algebra("PTRANS"), bounds=Bounds(max_depth=1))
        assert not cut.saturated and not cut.complete
        z3 = generate_clone(generated_algebra("Z3"), bounds=Bounds(max_vars=2))
        assert z3.saturated and not z3.complete

    def test_class_cap(self):
        alg = bundled_algebra("PTRANS")
        with pytest.raises(ResourceLimitError) as raised:
            generate_clone(alg, bounds=Bounds(max_vars=2, class_cap=3))
        assert str(raised.value) == "class cap 3 exceeded at depth 1 on algebra 'PTRANS'"

    def test_class_cap_stops_the_level_early(self, monkeypatch):
        """Terms are built only when a level commits, so the level's runs
        (``_apply`` calls) are counted."""
        import aprop.clone

        alg = load_algebra(CONSTANTS)[1]
        built = []
        apply = aprop.clone._apply

        def counting_apply(*args):
            built.append(args)
            return apply(*args)

        monkeypatch.setattr(aprop.clone, "_apply", counting_apply)
        # Level 3 takes the clone from 150 to 2,994 classes.
        generate_clone(alg, bounds=Bounds(max_vars=2, max_depth=3))
        through_level_3 = len(built)
        built.clear()
        with pytest.raises(ResourceLimitError, match="class cap 500 exceeded at depth 3"):
            generate_clone(alg, bounds=Bounds(max_vars=2, class_cap=500))
        assert len(built) < through_level_3 / 4

    @pytest.mark.parametrize("name, max_vars", [("CPTRANS", 2), ("CG3", 1), ("Z3", 3)])
    def test_levels_add_up_to_the_clone(self, name, max_vars):
        result = generate_clone(named_algebra(name), bounds=Bounds(max_vars=max_vars))
        assert result.saturated
        assert len(result.levels) == result.depth_reached + 2  # with the level that added nothing
        assert sum(level.new_classes for level in result.levels) == len(result.classes)
        assert sum(level.new_supports for level in result.levels) == sum(
            len(c.witnesses) for c in result.classes
        )
        assert result.levels[-1].new_supports == 0
        assert all(level.cpu_s >= 0 for level in result.levels)

    def test_universe_beyond_one_byte_codes(self):
        u = tuple(f"e{i}" for i in range(257))
        alg = FiniteAlgebra(
            "U257", Language((("f", 1),)), u, {"f": {(e,): e for e in u}}
        )
        with pytest.raises(ResourceLimitError, match="at most 256 elements"):
            generate_clone(alg, bounds=Bounds(max_vars=1))

    def test_tables_beyond_the_row_limit(self):
        """2^13 rows fit and 3^13 do not, in either order of the two algebras;
        the bound is checked before any table is built, so even 10^9
        variables are refused at once."""
        small, large = (
            FiniteAlgebra(name, Language((("f", 1),)), u, {"f": {(e,): e for e in u}})
            for name, u in (("I2", ("a", "b")), ("I3", ("a", "b", "c")))
        )
        assert 2**13 <= MAX_ROWS < 3**13
        for alg_a, alg_b in ((small, large), (large, small)):
            with pytest.raises(ResourceLimitError, match="'I3': 13 variables .* over the limit"):
                generate_clone(alg_a, alg_b, Bounds(max_vars=13))
        for max_vars in (64, 10**9):
            with pytest.raises(ResourceLimitError, match="over the limit"):
                generate_clone(small, bounds=Bounds(max_vars=max_vars))

    def test_table_bytes_beyond_the_limit(self, monkeypatch):
        """A class holds one table byte per row of each algebra's table: Z2
        at three variables, 8 rows, has 3 classes at level 0, 7 after level
        1 and 8 in all.  The limit admits CS6 at two variables (5,478 classes of 36
        rows).  Level 0 is refused before its variables are built, a later
        level as its classes are found, both algebras' rows counted."""
        assert 5478 * 36 <= MAX_TABLE_BYTES
        z2 = generated_algebra("Z2")
        copy = FiniteAlgebra("Z2b", z2.language, z2.universe, z2.tables)
        for alg_b, names, length in ((z2, "'Z2'", 8), (copy, "'Z2' with 'Z2b'", 16)):
            for limit, count in ((3 * length - 1, 3), (6 * length, 7)):
                monkeypatch.setattr(aprop.clone, "MAX_TABLE_BYTES", limit)
                with pytest.raises(ResourceLimitError) as raised:
                    generate_clone(z2, alg_b, Bounds(max_vars=3))
                assert str(raised.value) == (
                    f"algebra {names}: {count} classes would hold {count * length}"
                    f" table bytes, over the limit of {limit}"
                )
            monkeypatch.setattr(aprop.clone, "MAX_TABLE_BYTES", 8 * length)
            assert len(generate_clone(z2, alg_b, Bounds(max_vars=3)).classes) == 8
        # the class cap still comes first where it is the lower bound
        monkeypatch.setattr(aprop.clone, "MAX_TABLE_BYTES", 6 * 8)
        with pytest.raises(ResourceLimitError, match="class cap 4 exceeded at depth 1"):
            generate_clone(z2, bounds=Bounds(max_vars=3, class_cap=4))

        def unbuilt(i):
            raise AssertionError("a variable was built")

        monkeypatch.setattr(aprop.clone, "Var", unbuilt)
        monkeypatch.setattr(aprop.clone, "MAX_TABLE_BYTES", 3 * 8 - 1)
        with pytest.raises(ResourceLimitError, match="3 classes would hold 24 table bytes"):
            generate_clone(z2, bounds=Bounds(max_vars=3))

    def test_a_level_beyond_the_work_limit(self, monkeypatch):
        """A level's work, |every|^rank - |old|^rank summed over the symbols,
        is known before its loop.  One binary op on one element at 20
        variables: level 1 visits 20^2 combinations and level 2 210^2 - 20^2;
        a limit of 400 admits level 1 only, on one algebra or two."""
        ops = {"p": {("o", "o"): "o"}}
        one, other = (
            FiniteAlgebra(name, Language((("p", 2),)), ("o",), ops) for name in ("O", "P")
        )
        for limit, level, work in ((399, 1, 400), (400, 2, 210**2 - 20**2)):
            monkeypatch.setattr(aprop.clone, "MAX_LEVEL_WORK", limit)
            for alg_b, names in ((one, "'O'"), (other, "'O' with 'P'")):
                with pytest.raises(ResourceLimitError) as raised:
                    generate_clone(one, alg_b, Bounds(max_vars=20))
                assert str(raised.value) == (
                    f"algebra {names}: level {level} would visit {work} support"
                    f" combinations, over the limit of {limit}"
                )

    def test_level_one_is_refused_before_level_zero(self, monkeypatch):
        """Level 0 fills v + k slots, k the distinct constant tables, so level
        1's work, (v + k)^rank per symbol, is refused before any variable is
        built.  A depth-0 class-cap refusal still comes first: level 0 has
        v + k classes, or one when every table has one row."""
        z2 = generated_algebra("Z2")
        z2c = FiniteAlgebra(
            "Z2c", Language((("p", 2), ("c", 0))), z2.universe, {**z2.tables, "c": {(): "a"}}
        )
        one = FiniteAlgebra("O", Language((("p", 2),)), ("o",), {"p": {("o", "o"): "o"}})
        monkeypatch.setattr(aprop.clone, "MAX_LEVEL_WORK", 15)  # below 4^2
        with pytest.raises(ResourceLimitError, match="class cap 3 exceeded at depth 0"):
            generate_clone(z2c, bounds=Bounds(max_vars=3, class_cap=3))
        level_0 = generate_clone(z2c, bounds=Bounds(max_vars=3, max_depth=0)).levels[0]
        assert (level_0.new_classes, level_0.new_supports) == (4, 4)

        def unbuilt(i):
            raise AssertionError("a variable was built")

        monkeypatch.setattr(aprop.clone, "Var", unbuilt)
        for alg, max_vars, class_cap in ((z2c, 3, 4), (one, 4, 1)):
            with pytest.raises(ResourceLimitError, match="level 1 would visit 16 support"):
                generate_clone(alg, bounds=Bounds(max_vars=max_vars, class_cap=class_cap))

    def test_a_level_holds_one_term_per_slot(self, monkeypatch):
        """A level keeps only the least term offered to each (class,
        occurrence set) slot.  One binary op on one element at 8 variables:
        one class and 2^8 - 1 supports, while level 3 offers 19,110 terms.
        Every term the build makes is counted while it is alive."""
        live = Counter()

        def release():
            live["now"] -= 1

        def counting_app(*args):
            term = App(*args)
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(term, release).atexit = False
            return term

        monkeypatch.setattr(aprop.clone, "App", counting_app)
        one = FiniteAlgebra("O", Language((("p", 2),)), ("o",), {"p": {("o", "o"): "o"}})
        result = generate_clone(one, bounds=Bounds(max_vars=8))
        supports = sum(level.new_supports for level in result.levels)
        assert result.saturated and supports == 2**8 - 1
        assert result.levels[3].candidates == 19_110
        assert live["peak"] <= 2 * supports

    @pytest.mark.parametrize("alg, alg_b, max_vars, digest", [
        (random_groupoid(2), None, 2,
         "9f114960694c294b5be159567d98aaef29f174e137862663195bf475d05b6f51"),
        (generated_algebra("Z4"), None, 3,
         "be19c4d47c18beb43328a418589a100cd8cc8d163d238f9b20dc5f719a2eb59a"),
        # two algebras: unary ops with a quotient, binary ops on universes of
        # different sizes, and one-byte op lanes beside two-byte relation keys
        (bundled_algebra("A3"), quotient_homomorphisms(bundled_algebra("A3"))[1].target, 2,
         "cfbad0d3954cf2fd0910f6d48cb2381c36bc51b2f7a3014655210aea95eefa0b"),
        (generated_algebra("Z4"), generated_algebra("Z3"), 2,
         "fcff0e2e85e43272c01c4f5bb3bd081d61fd2f62f50555632b05052ae5acd2af"),
        (generated_algebra("Z5"), generated_algebra("Z16"), 1,
         "3c66ad443e913c6d0eda50eb67ac315c9423c28f5638ef1ef68ef34ed85e2452"),
    ], ids=["G3r2@2", "Z4@3", "A3:collapse-1@2", "Z4:Z3@2", "Z5:Z16@1"])
    def test_build_is_pinned(self, alg, alg_b, max_vars, digest):
        """Every field but the CPU times, as the per-application enumeration
        that kept one entry per class tuple built them; the two-algebra cases
        as the build with its own two-algebra path built them."""
        assert clone_digest(generate_clone(alg, alg_b, Bounds(max_vars=max_vars))) == digest

    def test_grouping_beyond_the_pair_limit(self, monkeypatch):
        """|classes|^2 is known once the clone is built and is refused before
        the grouping.  The limit admits CS6 at two variables (5,478 classes)
        and refuses CS7 at one (11,970)."""
        assert 5478**2 <= MAX_GROUP_PAIRS < 11970**2
        z3 = generated_algebra("Z3")  # 3 classes at one variable
        copy = FiniteAlgebra("Z3b", z3.language, z3.universe, z3.tables)
        monkeypatch.setattr(aprop.clone, "MAX_GROUP_PAIRS", 8)
        for alg_b, names in ((z3, "'Z3'"), (copy, "'Z3' with 'Z3b'")):
            with pytest.raises(ResourceLimitError) as raised:
                build_pair_context(z3, alg_b, Bounds(max_vars=1))
            assert str(raised.value) == (
                f"algebra {names}: grouping would visit 9 class pairs, over the limit of 8"
            )
        monkeypatch.setattr(aprop.clone, "MAX_GROUP_PAIRS", 9)
        assert len(build_pair_context(z3, bounds=Bounds(max_vars=1)).clone.classes) == 3

    def test_dedup_against_raw_enumeration(self):
        rng = random.Random(11)
        for _ in range(8):
            alg = random_algebra(rng, max_universe=4, max_symbols=2)
            result = generate_clone(alg, bounds=Bounds(max_depth=3, max_vars=2))
            raw_tables = {
                term_table(t, alg, (0, 1))
                for t in all_terms(alg.language, 2, 3)
            }
            assert {c.table_a for c in result.classes} == raw_tables


@pytest.mark.parametrize("name", ["Z2", "Z3", "J3"])
class TestBinaryOperation:
    """The clone of one binary operation, at two variables."""

    def test_witnesses_reproduce_tables(self, name):
        alg = generated_algebra(name)
        result = generate_clone(alg, bounds=Bounds(max_vars=2))
        for cls in result.classes:
            assert term_table(cls.witness, alg, (0, 1)) == cls.table_a
            for support, term in cls.witnesses.items():
                assert term_table(term, alg, (0, 1)) == cls.table_a
                assert frozenset(term.variables()) == support

    def test_dedup_against_raw_enumeration(self, name):
        alg = generated_algebra(name)
        for depth in range(4):
            result = generate_clone(alg, bounds=Bounds(max_depth=depth, max_vars=2))
            raw = {
                (term_table(t, alg, (0, 1)), frozenset(t.variables()))
                for t in all_terms(alg.language, 2, depth)
            }
            assert {(c.table_a, sup) for c in result.classes for sup in c.witnesses} == raw

    def test_saturation_closure(self, name):
        alg = generated_algebra(name)
        result = generate_clone(alg, bounds=Bounds(max_vars=2))
        assert result.saturated
        tables = {c.table_a for c in result.classes}
        for left in result.classes:
            for right in result.classes:
                composed = tuple(
                    alg.apply("p", (x, y)) for x, y in zip(left.table_a, right.table_a)
                )
                assert composed in tables


class CountingTable(dict):
    """An op table that records each argument tuple it is asked for."""

    def __init__(self, symbol, table, asked):
        super().__init__(table)
        self.symbol, self.asked = symbol, asked

    def __getitem__(self, args):
        self.asked.append((self.symbol, args))
        return super().__getitem__(args)


@pytest.mark.parametrize("name, max_vars", [("Z3", 2), ("CG3", 1)])
def test_op_is_applied_once_per_child_class_tuple_per_level(name, max_vars, monkeypatch):
    """A combination's tables depend on its children's classes only, not on
    their occurrence sets: each level makes the result of a symbol on a tuple
    of child classes at most once.  One application (``_apply``) is one run:
    the head classes' tables, each repeated once per last class, and the last
    classes' tables joined.  Each op's own table is read only to build its
    codes, |U|^rank times per build."""
    import aprop.clone

    alg = named_algebra(name)
    rows = len(alg.universe) ** max_vars
    asked = []
    counting = FiniteAlgebra(
        alg.name, alg.language, alg.universe,
        {sym: CountingTable(sym, table, asked) for sym, table in alg.tables.items()},
    )
    op_lanes, apply = aprop.clone._op_lanes, aprop.clone._apply
    symbol_of, applied = {}, []

    def lanes(alg, sym, rank):
        op = symbol_of[sym] = op_lanes(alg, sym, rank)
        return op

    def counted(op, tables):
        *head, last = tables
        n = len(last) // rows
        assert len(last) == n * rows and all(len(table) == n * rows for table in head)
        heads = tuple(table[:rows] for table in head)
        assert all(table == part * n for table, part in zip(head, heads))
        sym = next(sym for sym, known in symbol_of.items() if known is op)
        applied.extend((sym, heads, last[k * rows:(k + 1) * rows]) for k in range(n))
        return apply(op, tables)

    monkeypatch.setattr(aprop.clone, "_op_lanes", lanes)
    monkeypatch.setattr(aprop.clone, "_apply", counted)
    reads = {sym: len(alg.universe) ** rank for sym, rank in alg.language.symbols}
    earlier = 0
    for depth in itertools.count(1):
        asked.clear()
        applied.clear()
        result = generate_clone(counting, bounds=Bounds(max_vars=max_vars, max_depth=depth))
        assert Counter(sym for sym, _ in asked) == reads
        level = applied[earlier:]  # earlier levels repeat the shallower build's applications
        assert level
        assert len(level) == len(set(level))
        earlier = len(applied)
        if result.saturated:
            break


class TestRelationClasses:
    def test_diagonal_pair(self, contexts):
        ctx = contexts("A1")
        diag = frozenset((e, e) for e in ctx.alg_a.universe)
        rels = [rc for rc in ctx.relations if rc.rel_a == diag]
        assert len(rels) == 1
        assert not rels[0].trivial

    def test_independent_pair_is_full(self, contexts):
        ctx = contexts("A1")
        full = frozenset(itertools.product(ctx.alg_a.universe, repeat=2))
        rels = [rc for rc in ctx.relations if rc.rel_a == full]
        assert len(rels) == 1
        assert rels[0].trivial

    def test_graph_of_f(self, contexts):
        ctx = contexts("A2")
        graph = frozenset((e, ctx.alg_a.apply("f", (e,))) for e in ctx.alg_a.universe)
        assert any(rc.rel_a == graph for rc in ctx.relations)

    def test_rewrite_witness_tracking(self, contexts):
        ctx = contexts("A1")
        diag = frozenset((e, e) for e in ctx.alg_a.universe)
        full = frozenset(itertools.product(ctx.alg_a.universe, repeat=2))
        for rc in ctx.relations:
            if rc.rel_a == diag:
                assert rc.has_rewrite_witness
            if rc.rel_a == full:
                # x0 -> x1 introduces a fresh variable on the right
                assert not rc.has_rewrite_witness

    def test_swapped_roundtrip(self, contexts):
        ctx = contexts("EAABB")
        mirror = ctx.swapped()
        assert mirror.swapped() is ctx
        assert ctx.swapped() is mirror
        assert mirror.clone is ctx.clone
        assert mirror.relations is ctx.relations
        for x, y in (("cont_a", "cont_b"), ("jus_a", "jus_b"), ("elem_up_a", "elem_up_b")):
            assert getattr(mirror, x) is getattr(ctx, y)
            assert getattr(mirror, y) is getattr(ctx, x)

    def test_swap_shares_indexes_between_distinct_algebras(self, monkeypatch):
        import aprop.clone

        h = quotient_homomorphisms(bundled_algebra("A3"))[0]
        for mirror_first in (True, False):
            ctx = build_pair_context(h.source, h.target, Bounds(max_vars=2))
            # swapped() copies nothing: building a class would call None
            monkeypatch.setattr(aprop.clone, "DenotationClass", None)
            monkeypatch.setattr(aprop.clone, "RelationClass", None)
            mirror = ctx.swapped()
            monkeypatch.undo()
            assert (mirror.alg_a, mirror.alg_b) == (ctx.alg_b, ctx.alg_a)
            for name in ("cont", "jus", "elem_up"):
                for x, y in (("a", "b"), ("b", "a")):
                    if mirror_first:
                        assert getattr(mirror, f"{name}_{x}") is getattr(ctx, f"{name}_{y}")
                    else:
                        assert getattr(ctx, f"{name}_{y}") is getattr(mirror, f"{name}_{x}")
            assert list(mirror.elem_up_a) == list(h.target.universe)
            assert list(mirror.cont_b) == list(itertools.product(h.source.universe, repeat=2))

    def test_one_algebra_shares_each_index_between_sides(self, contexts):
        ctx = contexts("A2")
        assert ctx.swapped() is ctx
        for name in ("cont", "jus", "elem_up"):
            assert getattr(ctx, f"{name}_b") is getattr(ctx, f"{name}_a")
            # each view decodes the one mask index, not a copy of it
            masks = getattr(ctx, f"{name}_masks")
            assert getattr(ctx, f"{name}_b").masks is masks
            assert getattr(ctx.swapped(), f"{name}_masks") is masks

    @staticmethod
    def assert_side_indexes(ctx, side: str) -> dict:
        """The ``side`` ("a" or "b") indexes of ``ctx``, views and masks,
        against a recomputation from ``rel_*`` and ``image_*`` one id at a
        time, without going through ``swapped()``; returns the recomputation."""
        u = (ctx.alg_a if side == "a" else ctx.alg_b).universe
        cont = {
            ar: frozenset(
                i for i, rc in enumerate(ctx.relations)
                if not rc.trivial and ar in getattr(rc, f"rel_{side}")
            )
            for ar in itertools.product(u, repeat=2)
        }
        jus = {
            ar: frozenset(i for i in ids if ctx.relations[i].has_rewrite_witness)
            for ar, ids in cont.items()
        }
        elem_up = {
            e: frozenset(
                i for i, c in enumerate(ctx.clone.classes)
                if not ctx.class_trivial(c) and e in getattr(c, f"image_{side}")
            )
            for e in u
        }
        owner = ctx if side == "a" else ctx.swapped()
        for name, index in (("cont", cont), ("jus", jus), ("elem_up", elem_up)):
            assert getattr(ctx, f"{name}_{side}") == index
            assert getattr(owner, f"{name}_masks") == {
                key: sum(1 << i for i in ids) for key, ids in index.items()
            }
        return {"cont": cont, "jus": jus, "elem_up": elem_up}

    def test_b_side_indexes_read_the_second_algebra(self):
        h = quotient_homomorphisms(bundled_algebra("A3"))[0]
        ctx = build_pair_context(h.source, h.target, Bounds(max_vars=2))
        index = self.assert_side_indexes(ctx, "b")
        assert all(any(ids.values()) for ids in index.values())

    def test_masks_and_views_reach_high_ids(self):
        """CS4@1 has 1,944 relation classes, so its masks carry ids far past
        one machine word; both sides are checked (one algebra: one context)."""
        ctx = build_pair_context(generated_algebra("CS4"), bounds=Bounds(max_vars=1))
        assert len(ctx.relations) == 1944
        for side in ("a", "b"):
            cont = self.assert_side_indexes(ctx, side)["cont"]
            assert max(max(ids) for ids in cont.values()) > 1800

    @pytest.mark.parametrize("names, max_vars, digest", [
        (("CS4",), 1,
         "ecb25ac4288e91aae35034217c63982d7a0d43cf2d9dfd05d6c9c4e8d70ccc60"),
        (("Z4",), 3,
         "b085fe2566493b052c788aab457e172c944bd58281ae888749a1b9d7ba5974d3"),
        (("IPTRANS",), 2,
         "ffeebbc02910f3ee5243a0c1fb7fff3049d4755a3d09ddba9742eaa444ade1fc"),
        (("G3r2",), 2,
         "aab1638853dd0558995c02691da03a04e9e16b93d6a19cc9a47881e34e551e2c"),
        (("CG3",), 1,
         "ead0fd52b34fcb5a5c0e0e915535c165dd6fabafa40cef7fc33e57fafda2f2e0"),
        (("Z5", "Z16"), 1,
         "3edd996f7d9778c72fe89b5cbb415662b9f7144071d6d6e09de29fcc17ad2ad3"),
    ], ids=["CS4@1", "Z4@3", "IPTRANS@2", "G3r2@2", "CG3@1", "Z5+Z16@1"])
    def test_relations_are_pinned(self, names, max_vars, digest):
        """Every ``RelationClass`` field, in order, as the grouping that took
        one frozenset per class pair built them.  Z4@3 and the Random(2)
        groupoid (G3r2) have relations whose rewrite witness comes from a
        later pair than their witness; IPTRANS@2 has relations whose rewrite
        witness stays open after their first pair and never changes; CG3 has
        constants; Z5 with Z16 has 281 arrows in two halves."""
        algs = [random_groupoid(2) if name == "G3r2" else named_algebra(name) for name in names]
        ctx = build_pair_context(*algs, bounds=Bounds(max_vars=max_vars))
        assert relation_digest(ctx) == digest

    def test_verdict_stable_once_saturated(self):
        from aprop.proportion_sim import proportion_sim

        alg = bundled_algebra("EAABB")
        deep = build_pair_context(alg, bounds=Bounds(max_vars=2))
        deeper = build_pair_context(alg, bounds=Bounds(max_depth=9, max_vars=2))
        for q in itertools.product(alg.universe, repeat=4):
            assert bool(proportion_sim(*q, deep)) == bool(proportion_sim(*q, deeper))


# --- reference build ----------------------------------------------------------
# A plain copy of the build before terms cached their keys: every ordering key
# is recomputed recursively, tables are computed one assignment at a time.


def fresh_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max((fresh_depth(c) for c in t.children), default=0)


def fresh_str(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.children:
        return t.symbol
    return f"{t.symbol}({','.join(fresh_str(c) for c in t.children)})"


def fresh_key(t: Term):
    return (fresh_depth(t), fresh_str(t))


def test_cached_key_matches_recursive_computation():
    language = Language((("c", 0), ("f", 1), ("g", 2)))
    for text in ("x0", "c", "f(c)", "g(f(x1),x0)", "g(c,g(x0,f(f(c))))", "f(g(x2,x2))"):
        t = parse_term(text, language)
        assert (t.depth(), str(t)) == fresh_key(t)



@pytest.mark.parametrize("name, max_vars", [("CG3", 1), ("T3", 2), ("Z3", 3)])
def test_witness_keys_match_recursive_computation(name, max_vars):
    """A witness is built with the key it was offered with, made from its
    children's strings and depths; it is the key its tree gives."""
    result = generate_clone(named_algebra(name), bounds=Bounds(max_vars=max_vars))
    for c in result.classes:
        for t in c.witnesses.values():
            assert t.key == fresh_key(t)

def reference_clone(alg: FiniteAlgebra, max_vars: int):
    """(table, {occurrence set: witness}) per class, in class order."""
    assigns = list(itertools.product(alg.universe, repeat=max_vars))
    classes: dict[tuple, dict] = {}
    found: dict[tuple, int] = {}

    def add(table, support, term, depth):
        witnesses = classes.get(table)
        if witnesses is None:
            classes[table] = {support: term}
            found[table] = depth
            return True
        if support not in witnesses:
            witnesses[support] = term
            return True
        witnesses[support] = min(witnesses[support], term, key=fresh_key)
        return False

    frontier = []
    for i in range(max_vars):
        table = tuple(o[i] for o in assigns)
        add(table, frozenset([i]), Var(i), 0)
        frontier.append((table, frozenset([i])))
    for sym, rank in alg.language.symbols:
        if rank == 0:
            table = tuple(alg.apply(sym, ()) for _ in assigns)
            if add(table, frozenset(), App(sym), 0):
                frontier.append((table, frozenset()))
    depth = 0
    while True:
        items = [(table, sup) for table, ws in classes.items() for sup in ws]
        frontier_set = set(frontier)
        candidates = []
        for sym, rank in alg.language.symbols:
            if rank == 0:
                continue
            for combo in itertools.product(items, repeat=rank):
                if not any(item in frontier_set for item in combo):
                    continue
                table = tuple(
                    alg.apply(sym, tuple(t[i] for t, _ in combo)) for i in range(len(assigns))
                )
                support = frozenset().union(*(sup for _, sup in combo))
                term = App(sym, tuple(classes[t][sup] for t, sup in combo))
                candidates.append((table, support, term))
        depth += 1
        candidates.sort(key=lambda c: fresh_key(c[2]))
        frontier = [(t, sup) for t, sup, term in candidates if add(t, sup, term, depth)]
        if not frontier:
            break
    witness = {t: min(ws.values(), key=fresh_key) for t, ws in classes.items()}
    order = sorted(classes, key=lambda t: (found[t], fresh_str(witness[t])))
    return [(t, classes[t], witness[t]) for t in order]


def reference_relations(classes, alg: FiniteAlgebra):
    """(witness, rewrite witness, trivial, relation) per relation class, in order."""

    def pair_key(pair):
        s, u = pair
        return (fresh_depth(s) + fresh_depth(u), fresh_str(s), fresh_str(u))

    def rewrite_witness(ws_s, ws_t):
        best = None
        for sup_s, s in ws_s.items():
            for sup_t, t in ws_t.items():
                if sup_t <= sup_s and (best is None or pair_key((s, t)) < pair_key(best)):
                    best = (s, t)
        return best

    full = frozenset(itertools.product(alg.universe, repeat=2))
    grouped = {}
    for table_s, ws_s, wit_s in classes:
        for table_t, ws_t, wit_t in classes:
            rel = frozenset(zip(table_s, table_t))
            witness = (wit_s, wit_t)
            rewrite = rewrite_witness(ws_s, ws_t)
            group = grouped.setdefault(rel, [witness, rewrite])
            group[0] = min(group[0], witness, key=pair_key)
            if rewrite is not None and (group[1] is None or pair_key(rewrite) < pair_key(group[1])):
                group[1] = rewrite
    ordered = sorted(grouped.items(), key=lambda item: pair_key(item[1][0]))
    return [(w, rw, rel == full, rel) for rel, (w, rw) in ordered]


def pair_strings(pair):
    return None if pair is None else (fresh_str(pair[0]), fresh_str(pair[1]))


# Constants make a term's depth exceed its level, so a witness found at one
# level can be replaced by a term of the same depth found at the next.
CONSTANTS = """
algebra CG3 {
  universe: a, b, c;
  op c/0: () -> a;
  op k/0: () -> c;
  op f/1: a -> a, b -> c, c -> a;
  op g/2: (a,a) -> c, (a,b) -> a, (a,c) -> b, (b,a) -> c, (b,b) -> b,
          (b,c) -> b, (c,a) -> b, (c,b) -> c, (c,c) -> b;
}
"""


def with_op(alg: FiniteAlgebra, sym: str, rank: int, op) -> FiniteAlgebra:
    """``alg`` with one more op ``sym`` of rank ``rank``, computed by ``op``."""
    table = {args: op(*args) for args in itertools.product(alg.universe, repeat=rank)}
    language = Language(alg.language.symbols + ((sym, rank),))
    return FiniteAlgebra(alg.name, language, alg.universe, {**alg.tables, sym: table})


def named_algebra(name: str) -> FiniteAlgebra:
    """A bundled algebra, ``CG3`` or a generated algebra, by name; ``<name>+z``
    is that algebra with a constant ``z`` naming its first element."""
    if name.endswith("+z"):
        alg = named_algebra(name[:-2])
        return with_op(alg, "z", 0, lambda: alg.universe[0])
    if name in bundled_algebra_names():
        return bundled_algebra(name)
    if name == "CG3":
        return load_algebra(CONSTANTS)[1]
    return generated_algebra(name)


@pytest.mark.parametrize(
    "name, max_vars",
    [(name, 2) for name in bundled_algebra_names()]
    # one-byte lanes for ops and keys, up to 27 rows; then two-byte lanes:
    # Z17 for its binary op and its relation keys (17^2 > 256), T7 for its
    # ternary op (7^3 > 256)
    + [("CS3", 1), ("Z2", 2), ("J3", 2), ("CG3", 1), ("Z3", 3), ("Z17", 1), ("T7", 1)]
    # unary ops with a constant: the empty occurrence set is a rewrite side
    + [("CS3+z", 2), ("PCOMM+z", 2)],
)
def test_build_matches_reference(name, max_vars):
    alg = named_algebra(name)
    ctx = build_pair_context(alg, bounds=Bounds(max_vars=max_vars))
    classes = reference_clone(alg, max_vars)

    assert [(c.table_a, fresh_str(c.witness)) for c in ctx.clone.classes] == [
        (table, fresh_str(witness)) for table, _, witness in classes
    ]
    variables = tuple(range(max_vars))
    assert all(term_table(c.witness, alg, variables) == c.table_a for c in ctx.clone.classes)
    assert [
        {sup: fresh_str(t) for sup, t in c.witnesses.items()} for c in ctx.clone.classes
    ] == [{sup: fresh_str(t) for sup, t in ws.items()} for _, ws, _ in classes]

    got = [
        (str(rc), pair_strings(rc.rewrite_witness), rc.trivial, rc.rel_a, rc.rel_b)
        for rc in ctx.relations
    ]
    want = [
        (" -> ".join(pair_strings(w)), pair_strings(rw), trivial, rel, rel)
        for w, rw, trivial, rel in reference_relations(classes, alg)
    ]
    assert got == want


def test_two_half_keys_in_wide_lanes():
    """Z5 against Z16 has 25 + 256 arrows, so its relation keys take two-byte
    lanes while both ops take one-byte lanes.  The relation classes are the
    relation pairs of all class pairs, each once, full only when both are."""
    z5, z16 = generated_algebra("Z5"), generated_algebra("Z16")
    ctx = build_pair_context(z5, z16, Bounds(max_vars=1))
    assert len(ctx.clone.classes) == 80  # k * x0 for k modulo 5 and modulo 16
    full = (
        frozenset(itertools.product(z5.universe, repeat=2)),
        frozenset(itertools.product(z16.universe, repeat=2)),
    )
    pairs = {
        (frozenset(zip(s.table_a, t.table_a)), frozenset(zip(s.table_b, t.table_b)))
        for s in ctx.clone.classes for t in ctx.clone.classes
    }
    assert len(ctx.relations) == len(pairs)
    assert {((rc.rel_a, rc.rel_b), rc.trivial) for rc in ctx.relations} == {
        (pair, pair == full) for pair in pairs
    }


@pytest.mark.parametrize(
    "name, max_vars",
    [(name, 2) for name in bundled_algebra_names()] + [("CS3", 1), ("CG3", 1)],
)
def test_one_algebra_build_keeps_one_half(name, max_vars):
    """Built alone, an algebra groups on its own arrows and shares ``rel_a`` as
    ``rel_b``; built against an equal but distinct copy, it takes the two-half
    path.  Both builds give the same classes, relation classes and reports."""
    alg = named_algebra(name)
    copy = FiniteAlgebra(alg.name, alg.language, alg.universe, alg.tables)
    bounds = Bounds(max_vars=max_vars)
    one = build_pair_context(alg, bounds=bounds)
    two = build_pair_context(alg, copy, bounds)
    assert two.alg_b is not two.alg_a
    assert one.clone.classes == two.clone.classes
    assert one.relations == two.relations  # every field, rel_a and rel_b included
    assert all(rc.rel_b is rc.rel_a for rc in one.relations)
    for policy in POLICIES:
        assert compare_frameworks(one, policy) == compare_frameworks(two, policy)
        for schema, framework in itertools.product(AXIOM_SCHEMATA, FRAMEWORKS):
            assert check_axiom(schema, one, framework, policy) == check_axiom(
                schema, two, framework, policy
            ), (schema, framework, policy)
