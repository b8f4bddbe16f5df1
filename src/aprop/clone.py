"""Level-wise enumeration of term denotations over a pair of finite algebras.

Every term over variables x0..x(v-1) induces a pair of tables (one per
algebra).  Terms are deduplicated by that joint table; each class remembers
which variable-occurrence sets are achievable by its member terms, so the
rewrite-rule filter (variables of the right term contained in the left term)
stays decidable after the quotient.

Ordered pairs of classes are further deduplicated by the binary relations
they induce on the two universes; all justification-set queries are answered
on those relation classes.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
import time
import weakref
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .algebras import AlgebraSpecError, Element, FiniteAlgebra
from .terms import App, Term, Var

__all__ = [
    "Bounds",
    "DenotationClass",
    "LevelStats",
    "CloneResult",
    "RelationClass",
    "PairContext",
    "ResourceLimitError",
    "generate_clone",
    "build_pair_context",
]

DEFAULT_CLASS_CAP = 100_000
# The most rows a table may have: |U|^max_vars for each algebra.  It admits
# the default of two variables on the largest universe, 256 elements.
MAX_ROWS = 2**20
# The most table bytes the classes may hold: one per row of a class's key,
# its A table followed, on two algebras, by its B table.  A class keeps
# about 9 bytes per such row in all.  It admits CS6 (a 6-cycle and a shift)
# at two variables, 5,478 classes of 36 rows.
MAX_TABLE_BYTES = 2**23
# The most (class, occurrence set) combinations one level may visit, summed
# over the symbols.  It admits a random 3-element groupoid at two variables,
# about 4.5 million at its largest level.
MAX_LEVEL_WORK = 2**24
# The most supports level 0 may fill, one per variable and distinct constant
# table.  Only one-element algebras reach it (MAX_ROWS bounds the variables
# on larger ones); each support costs about 1.2 KB through a check.
MAX_LEVEL_ZERO = 2**19
# The most class pairs the relation grouping may visit, |classes|^2.  It
# admits CS6 (a 6-cycle and a shift) at two variables, about 30 million.
MAX_GROUP_PAIRS = 2**25
# The most rows, summed over its class pairs, one pass of the relation
# grouping takes.  A pass holds a few bytes per row and per 8 arrows: a
# larger one takes fewer Python steps per pair and more transient memory.
_PASS_ROWS = 2**12
# The one-hot byte of each bit position, for one 8-arrow plane.
_BITS = bytes(1 << k for k in range(8))
# Each 8-arrow plane's table: a code's one-hot byte, 0 outside the plane.
_ONE_HOT = [bytes(low) + _BITS + bytes(248 - low) for low in range(0, 256, 8)]
_KEYS = type({}.keys())  # its isdisjoint, mapped over two lists of key views
# "0" and "1" to 0 and 1, for reading a relation int's binary digits.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# Per bit position k, each byte to the digit "1" when it has bit k, else "0".
_DIGITS = [bytes(48 + (byte >> k & 1) for byte in range(256)) for k in range(8)]


class ResourceLimitError(RuntimeError):
    """Class-count cap exceeded before saturation, a universe too large for
    the clone's one-byte element codes, tables longer than ``MAX_ROWS``,
    classes whose tables would take more than ``MAX_TABLE_BYTES``, a level 0
    of more than ``MAX_LEVEL_ZERO`` supports, a level that would visit more
    than ``MAX_LEVEL_WORK`` combinations or a grouping that would visit more
    than ``MAX_GROUP_PAIRS`` class pairs."""


@dataclass(frozen=True)
class Bounds:
    max_depth: int | None = None
    max_vars: int = 2
    class_cap: int = DEFAULT_CLASS_CAP

    def __post_init__(self):
        if self.max_vars < 1:
            raise ValueError("max_vars must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.class_cap < 1:
            raise ValueError("class_cap must be >= 1")


@dataclass
class DenotationClass:
    """Terms up to their pair of tables; ``*_a`` is always the first algebra
    of the build, also when the class is read through ``swapped()``."""

    table_a: tuple[Element, ...]
    table_b: tuple[Element, ...]
    depth_found: int
    # variable-occurrence set -> minimal witness term with that occurrence set
    witnesses: dict[frozenset[int], Term] = field(default_factory=dict)

    @cached_property
    def supports(self) -> tuple[tuple[frozenset[int], Term], ...]:
        """(occurrence set, witness) pairs, smallest witness key first.

        Fixed on first read, so it is read only once the clone is built.
        """
        return tuple(sorted(self.witnesses.items(), key=lambda item: item[1].key))

    @property
    def witness(self) -> Term:
        return self.supports[0][1]

    @cached_property
    def image_a(self) -> frozenset[Element]:
        return frozenset(self.table_a)

    @cached_property
    def image_b(self) -> frozenset[Element]:
        return frozenset(self.table_b)


class LevelStats(NamedTuple):
    """One level of a clone build: the terms offered to its slots after
    pruning, the classes and (class, occurrence set) supports it added, and
    its CPU time."""

    candidates: int
    new_classes: int
    new_supports: int
    cpu_s: float


@dataclass
class CloneResult:
    alg_a: FiniteAlgebra
    alg_b: FiniteAlgebra
    bounds: Bounds
    classes: list[DenotationClass]
    saturated: bool
    depth_reached: int
    # Level 0 (variables and constants), then one entry per level built; a
    # saturated build ends with the level that added nothing.
    levels: list[LevelStats] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether the relation classes, and so every verdict, are those of
        every variable count: every op has rank at most 1, ``max_vars`` is at
        least 2 and the clone saturated (README, "Library", gives the argument)."""
        return (
            self.saturated
            and self.bounds.max_vars >= 2
            and all(rank <= 1 for _, rank in self.alg_a.language.symbols)
        )

    @cached_property
    def _arrows(self) -> _Arrows:
        """The arrow numbering of the relation ints over these algebras."""
        return _Arrows(self.alg_a, self.alg_b)


# Inside ``generate_clone`` a table is ``bytes``, one element code
# (``alg.index``) per row.  An int whose lanes of ``width`` bytes each hold
# one row's value lets one C-level int operation act on every row at once.
_ORDER = sys.byteorder
_FORMAT = {1: "B", 2: "H", 4: "I"}  # lane width -> unsigned array/memoryview format


def _width(limit: int) -> int:
    """The narrowest lane width that holds every value below ``limit``."""
    return 1 if limit <= 256 else 2 if limit <= 65536 else 4


def _pack(values: list[int], width: int) -> int:
    """``values`` as one int of ``width``-byte lanes, one value per lane."""
    return int.from_bytes(array(_FORMAT[width], values), _ORDER)


def _op_lanes(alg: FiniteAlgebra, sym: str, rank: int) -> tuple[int, int, bytes]:
    """``sym`` on ``alg`` as ``_apply`` reads it: (|U|, lane width, codes).

    ``codes`` holds the result code of each argument tuple at its combined
    index sum(k_p * |U|^(rank-1-p)), the product order of the tuples, padded
    to 256 codes for ``bytes.translate``.  The lane holds every index below
    |U|^rank.  This is the only read of the op's table in a build.
    """
    size, op, index = len(alg.universe), alg.tables[sym], alg.index
    codes = bytes(index[op[args]] for args in itertools.product(alg.universe, repeat=rank))
    return size, _width(size**rank), codes.ljust(256, b"\0")


def _apply(op: tuple[int, int, bytes], tables: tuple[bytes, ...]) -> bytes:
    """The code table of an op applied row by row to its children's tables.

    Horner's rule over the children, one int of lanes each, leaves each row's
    combined index in its lane; it stays below |U|^rank, which the lane
    holds, so no row carries into the next.  The indexes are then read back
    and mapped through the op's codes.  A clone level passes a whole run at
    once: each head child's table repeated once per last child, then the
    last children's tables concatenated; the result is every application of
    the run, concatenated in the same order.
    """
    size, width, codes = op
    total = 0
    for table in tables:
        total = total * size + (
            int.from_bytes(table, _ORDER) if width == 1 else _pack(list(table), width)
        )
    lanes = total.to_bytes(len(tables[0]) * width, _ORDER)
    if width == 1:
        return lanes.translate(codes)
    return bytes(map(codes.__getitem__, memoryview(lanes).cast(_FORMAT[width])))


def _halves(alg_a: FiniteAlgebra, alg_b: FiniteAlgebra) -> tuple[FiniteAlgebra, ...]:
    """The algebras of a build's halves: A on one algebra (it stands for B), A and B on two."""
    return (alg_a,) if alg_b is alg_a else (alg_a, alg_b)


def _names(alg_a: FiniteAlgebra, alg_b: FiniteAlgebra) -> str:
    """The algebras of a build, as its refusals name them."""
    return " with ".join(repr(alg.name) for alg in _halves(alg_a, alg_b))


def generate_clone(
    alg_a: FiniteAlgebra,
    alg_b: FiniteAlgebra | None = None,
    bounds: Bounds = Bounds(),
) -> CloneResult:
    """Enumerate joint denotation classes by depth levels to a fixpoint.

    A slot is a (class, occurrence set) pair.  A level keeps only the least
    term offered to each slot, then commits its slots smallest term first; a
    known slot keeps the smaller of its witness and the offer.  Saturation
    means one full level added no new slot; the class set is then closed
    under every operation of the language and represents the full term
    universe over v variables.

    A class is keyed by its tables over the build's halves (``_halves``):
    one algebra, A, or two, A and B; one path serves both.  A level visits
    each tuple of child classes that holds a fresh support once: the first
    class with one sits at position p, and only classes without one come
    before it.  The head classes (all but the last) are taken in product
    order, and each head tuple is one run: one ``_apply`` per half gives its
    results with every class of the last pool, and only that run's results
    are held.  A slot keeps (term key, symbol, children); the term itself is
    built when it commits.
    """
    start = time.process_time()
    if alg_b is None:
        alg_b = alg_a
    if alg_a.language != alg_b.language:
        raise AlgebraSpecError("joint clone requires a common language")
    v = bounds.max_vars
    halves = _halves(alg_a, alg_b)
    for alg in halves:
        size = len(alg.universe)
        if size > 256:
            raise ResourceLimitError(f"algebra {alg.name!r}: the clone takes at most 256 elements")
        # checked before any table is built; from 2 elements up, the capped
        # exponent already exceeds MAX_ROWS, so no huge power is computed
        if size ** min(v, MAX_ROWS.bit_length()) > MAX_ROWS:
            raise ResourceLimitError(
                f"algebra {alg.name!r}: {v} variables make tables of {size}^{v} rows,"
                f" over the limit of {MAX_ROWS}"
            )
    # Per half: the rows of its table, and the bytes of a key that hold it.
    rows = [len(alg.universe) ** v for alg in halves]
    cuts = list(map(slice, itertools.accumulate(rows, initial=0), itertools.accumulate(rows)))
    length = sum(rows)  # a class's table bytes
    # the class count past which the class cap or the table bytes refuse
    most = min(bounds.class_cap, MAX_TABLE_BYTES // length)
    symbols = [(sym, rank) for sym, rank in alg_a.language.symbols if rank > 0]
    ops = {sym: [_op_lanes(alg, sym, rank) for alg in halves] for sym, rank in symbols}
    decoders = [(alg.universe.__getitem__, cut) for alg, cut in zip(halves, cuts)]

    # A class's key is its halves' tables joined: A's, then B's on two algebras.
    classes: dict[bytes, DenotationClass] = {}
    # key -> {occurrence set: its witness's depth}, what pruning reads
    depths: dict[bytes, dict[frozenset[int], int]] = {}
    levels: list[LevelStats] = []
    # One object per occurrence set, so that dict lookups compare identities.
    occurrence_sets: dict[frozenset[int], frozenset[int]] = {}

    def interned(support: frozenset[int]) -> frozenset[int]:
        return occurrence_sets.setdefault(support, support)

    def overfilled(count: int, depth: int) -> ResourceLimitError:
        if count > bounds.class_cap:
            return ResourceLimitError(
                f"class cap {bounds.class_cap} exceeded at depth {depth}"
                f" on algebra {_names(alg_a, alg_b)}"
            )
        return ResourceLimitError(
            f"algebra {_names(alg_a, alg_b)}: {count} classes would hold {count * length}"
            f" table bytes, over the limit of {MAX_TABLE_BYTES}"
        )

    def overworked(level: int, work: int) -> ResourceLimitError:
        return ResourceLimitError(
            f"algebra {_names(alg_a, alg_b)}: level {level} would visit {work} support"
            f" combinations, over the limit of {MAX_LEVEL_WORK}"
        )

    def commit(least: dict, depth: int) -> set:
        """Record each slot's least term, smallest first; return the new slots.

        A slot (key, occurrence set) holds (term key, symbol, children), or
        at level 0 (term key, term, None).
        """
        new = set()
        for slot, (term_key, sym, children) in sorted(least.items(), key=lambda item: item[1][0]):
            key, support = slot
            cls = classes.get(key)
            if cls is None:
                # one tuple per half; on one algebra that one is table_a and table_b
                tables = [tuple(map(get, key[cut])) for get, cut in decoders]
                cls = classes[key] = DenotationClass(tables[0], tables[-1], depth)
                depths[key] = {}
            known = cls.witnesses.get(support)
            if known is None:
                new.add(slot)
            if known is None or term_key < known.key:
                cls.witnesses[support] = sym if children is None else App(sym, children)
                depths[key][support] = term_key[0]
        return new

    # Level 0: the constants, then the variables.
    offers = []
    for sym, rank in alg_a.language.symbols:
        if rank == 0:
            key = b"".join(bytes([alg.index[alg.apply(sym, ())]]) * r
                           for alg, r in zip(halves, rows))
            offers.append((App(sym), key, interned(frozenset())))
    # Level 0 fills v + k slots, k the distinct constant tables, so level 1
    # would visit (v + k)^rank combinations per symbol.  That is refused here,
    # before the v variables are built, unless level 0 exceeds the class cap
    # first: it has v + k classes, or one when every table has one row.
    slots = v + len({key for _, key, _ in offers})
    work = sum(slots ** rank for _, rank in symbols)
    if (work > MAX_LEVEL_WORK and bounds.max_depth != 0
            and (slots <= bounds.class_cap or max(rows) == 1)):
        raise overworked(1, work)
    if slots > MAX_LEVEL_ZERO:
        raise ResourceLimitError(
            f"algebra {_names(alg_a, alg_b)}: level 0 would fill {slots} supports,"
            f" over the limit of {MAX_LEVEL_ZERO}"
        )
    # Its classes are its slots, or one when every table has one row, and
    # so take a few bytes; their tables are refused before they are built.
    if slots * length > MAX_TABLE_BYTES:
        raise overfilled(slots, 0)
    # the variables' tables, per half: columns of the assignments' codes in product order
    columns = [zip(*itertools.product(range(len(alg.universe)), repeat=v)) for alg in halves]
    offers += [(Var(i), bytes(itertools.chain(*codes)), interned(frozenset([i])))
               for i, codes in enumerate(zip(*columns))]
    least: dict = {}
    for term, key, support in offers:
        slot = (key, support)
        if slot not in least or term.key < least[slot][0]:
            least[slot] = (term.key, term, None)
    offered = len(offers)

    depth, saturated = 0, False
    while True:
        known_classes = len(classes)
        frontier = commit(least, depth)
        # Later levels are refused while they are enumerated, before this.
        if len(classes) > most:
            raise overfilled(len(classes), depth)
        levels.append(LevelStats(
            offered, len(classes) - known_classes, len(frontier), time.process_time() - start
        ))
        if not frontier:
            saturated = True
            depth -= 1
            break
        if bounds.max_depth is not None and depth >= bounds.max_depth:
            break
        start = time.process_time()
        # Each class as this level reads it, before it commits anything:
        # (key, children), a child being (occurrence set, depth, string,
        # witness, fresh).  A fresh child is a new support.
        fresh, old = [], []  # the classes with and without a fresh child
        for key, cls in classes.items():
            children, new = [], False
            for support, term in cls.witnesses.items():
                is_new = (key, support) in frontier
                children.append((support, *term.key, term, is_new))
                new |= is_new
            (fresh if new else old).append((key, children))
        everyone = old + fresh
        # The class tuples visited hold the support combinations with a fresh
        # child: a symbol of rank r visits |every|^r - |old|^r of them.
        every = sum(map(len, depths.values()))
        stale = every - len(frontier)
        work = sum(every ** rank - stale ** rank for _, rank in symbols)
        if work > MAX_LEVEL_WORK:
            raise overworked(depth + 1, work)
        least, offered = {}, 0
        new_keys = set()  # each becomes a class when the level commits
        for sym, rank in symbols:
            # The head's children combined, one entry per combination:
            # (occurrence set, depth, "sym(s_1,...,s_k,", children, fresh).
            no_head = [(interned(frozenset()), 0, sym + "(", (), False)]
            for p in range(rank):
                pools = [old] * p + [fresh] + [everyone] * (rank - p - 1)
                last_keys, last_members = zip(*pools.pop())
                # per half: its op, its cut, its rows and the last pool's tables joined
                lasts = [(op, cut, r, b"".join([key[cut] for key in last_keys]))
                         for op, cut, r in zip(ops[sym], cuts, rows)]
                n = len(last_members)
                for head in itertools.product(*pools):
                    heads = no_head
                    for _, children in head:
                        heads = [
                            (
                                interned(support | s), max(deep, d), text + t + ",",
                                terms + (w,), new or f,
                            )
                            for support, deep, text, terms, new in heads
                            for s, d, t, w, f in children
                        ]
                    # one application per half; each result's key joins its halves
                    keys = None
                    for op, cut, r, last in lasts:
                        results = _apply(op, (*[key[cut] * n for key, _ in head], last))
                        starts = range(0, n * r, r)
                        keys = ([results[k:k + r] for k in starts] if keys is None else
                                [key + results[k:k + r] for key, k in zip(keys, starts)])
                    for head_support, head_deep, text, head_terms, head_new in heads:
                        # a last child's occurrence set -> its union with the head's
                        unions: dict[frozenset[int], frozenset[int]] = {}
                        for key, known, children in zip(keys, map(depths.get, keys), last_members):
                            if known is None and key not in new_keys:
                                new_keys.add(key)
                                if len(classes) + len(new_keys) > most:
                                    raise overfilled(len(classes) + len(new_keys), depth + 1)
                            for support, deep, last_text, term, new in children:
                                if not (head_new or new):
                                    continue
                                joined = unions.get(support)
                                if joined is None:
                                    joined = unions[support] = interned(head_support | support)
                                if head_deep > deep:
                                    deep = head_deep
                                # A deeper term never replaces a known witness.
                                if known is not None and known.get(joined, deep + 1) <= deep:
                                    continue
                                offered += 1
                                term_key = (deep + 1, f"{text}{last_text})")
                                best = least.get((key, joined))
                                if best is None or term_key < best[0]:
                                    least[key, joined] = (term_key, sym, head_terms + (term,))
        depth += 1

    ordered = sorted(classes.values(), key=lambda c: (c.depth_found, str(c.witness)))
    return CloneResult(alg_a, alg_b, bounds, ordered, saturated, depth, levels)


class _Arrows:
    """The arrow numbering of a build as its halves, each (algebra, arrows in
    bit order, first bit): arrow (x, y) of A is bit x * |A| + y and, on two
    algebras, arrow (x, y) of B is bit |A|^2 + x * |B| + y of a relation int.
    On one algebra there is one half, A's, and it stands for B too."""

    def __init__(self, alg_a: FiniteAlgebra, alg_b: FiniteAlgebra):
        self.halves, self.count = [], 0  # count: the bits of a relation int
        for alg in _halves(alg_a, alg_b):
            pairs = list(itertools.product(alg.universe, repeat=2))
            self.halves.append((alg, pairs, self.count))
            self.count += len(pairs)

    def decode(self, key: int) -> tuple[frozenset, frozenset]:
        """The (A, B) relations of ``key``; on one algebra one set, twice."""
        bits = bin(key)[:1:-1].encode().translate(_BIT_BYTES)  # byte i: bit i, 0 or 1
        rels = [
            frozenset(itertools.compress(pairs, bits[first:])) for _, pairs, first in self.halves
        ]
        return rels[0], rels[-1]

    def encode(self, rel_a: frozenset, rel_b: frozenset) -> int:
        """The int of a pair of relations, ``decode``'s inverse."""
        return sum(
            1 << k
            for (_, pairs, first), rel in zip(self.halves, (rel_a, rel_b))
            for k, pair in enumerate(pairs, first) if pair in rel
        )


class RelationClass:
    """An arrow generalization s -> t up to its induced binary relations.

    ``rel_a`` is always the relation in the first algebra of the build, also
    when the class is read through ``swapped()``; on one algebra it is ``rel_b``.
    A class that ``build_pair_context`` makes keeps the two as one int,
    ``key``, over the build's arrow numbering (``_Arrows``), and decodes
    ``rel_a`` and ``rel_b`` on their first read.  A class built from the two
    sets has no key (None); its context encodes the sets when it builds its
    masks.  Classes compare equal when every field, read as sets, is equal.
    """

    __slots__ = ("key", "_arrows", "_rel_a", "_rel_b", "witness", "trivial", "rewrite_witness")

    def __init__(
        self,
        rel_a: frozenset[tuple[Element, Element]],
        rel_b: frozenset[tuple[Element, Element]],
        witness: tuple[Term, Term],
        trivial: bool,
        rewrite_witness: tuple[Term, Term] | None = None,
    ):
        self.key, self._arrows, self._rel_a, self._rel_b = None, None, rel_a, rel_b
        self.witness, self.trivial, self.rewrite_witness = witness, trivial, rewrite_witness

    @classmethod
    def _of_key(cls, key: int, arrows: _Arrows, witness, trivial, rewrite_witness) -> RelationClass:
        """A class holding its relations as ``key``, decoded by ``arrows`` on read."""
        rc = cls.__new__(cls)
        rc.key, rc._arrows, rc._rel_a, rc._rel_b = key, arrows, None, None
        rc.witness, rc.trivial, rc.rewrite_witness = witness, trivial, rewrite_witness
        return rc

    @property
    def rel_a(self) -> frozenset[tuple[Element, Element]]:
        if self._rel_a is None:
            self._rel_a, self._rel_b = self._arrows.decode(self.key)
        return self._rel_a

    @property
    def rel_b(self) -> frozenset[tuple[Element, Element]]:
        if self._rel_b is None:
            self._rel_a, self._rel_b = self._arrows.decode(self.key)
        return self._rel_b

    def _fields(self) -> tuple:
        return self.rel_a, self.rel_b, self.witness, self.trivial, self.rewrite_witness

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationClass):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = ("rel_a", "rel_b", "witness", "trivial", "rewrite_witness")
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._fields()))
        return f"RelationClass({fields})"

    @property
    def has_rewrite_witness(self) -> bool:
        return self.rewrite_witness is not None

    def __str__(self) -> str:
        s, t = self.witness
        return f"{s} -> {t}"


def _pair_key(s: Term, t: Term) -> tuple[int, str, str]:
    """Term pairs are ordered by (depth s + depth t, str s, str t)."""
    (depth_s, str_s), (depth_t, str_t) = s.key, t.key
    return (depth_s + depth_t, str_s, str_t)


def _columns(keys: list[int], size: int, lo: int, hi: int) -> list[int]:
    """Bits lo to hi - 1 of keys below 2^``size``, each as one int whose bit i
    is that bit of ``keys[i]``: columns of a bit matrix with one key per row.

    The keys, last first, are laid out as bytes, ceil(size / 8) per key, so
    byte q of every key is one strided slice: a plane of 8 bits.  Each bit of
    a plane becomes binary digits by one ``translate`` and one int by one
    parse: linear in the key count per bit, where or-ing in bits is quadratic.
    """
    width = -(-size // 8)
    lanes = b"".join(map(
        int.to_bytes, reversed(keys), itertools.repeat(width), itertools.repeat("little")
    ))
    planes = {q: lanes[q::width] for q in range(lo >> 3, -(-hi // 8))}
    return [int(planes[k >> 3].translate(_DIGITS[k & 7]), 2) for k in range(lo, hi)]


class _IdView(Mapping):
    """A mask index read as key -> frozenset of ids, decoded on each read."""

    def __init__(self, masks: dict):
        self.masks = masks

    def __getitem__(self, key) -> frozenset[int]:
        return frozenset(i for i, bit in enumerate(bin(self.masks[key])[:1:-1]) if bit == "1")

    def __iter__(self):
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)


@dataclass
class PairContext:
    """Everything needed to decide similarity and proportion queries on (A, B).

    The indexes map an element or arrow of one side to ids: positions in
    ``clone.classes`` (``elem_up_*``) or ``relations`` (``cont_*``, ``jus_*``).
    Each is computed once, on first use, as int masks (``*_masks``, bit i for
    id i) that the kernel reads: each mask is one bit column of the relation
    ints (``RelationClass.key``), or of the classes' images as ints, read
    across all ids at once.  ``cont_a``, ``jus_a`` and ``elem_up_a`` are
    read-only views of them, decoded to frozensets per read.  ``swapped()`` is
    the context on (B, A): on one algebra the context itself, with one memo;
    on two a mirror owned by the side that built it, sharing ``clone`` and
    ``relations``.  Each B-side index is the A-side one of ``swapped()``.
    """

    alg_a: FiniteAlgebra
    alg_b: FiniteAlgebra
    clone: CloneResult
    relations: list[RelationClass]
    # swapped() on two algebras: the mirror this side built, or a weakref to its builder.
    _partner: PairContext | weakref.ref | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # The verdict layer's memo of this side, not shared with a mirror:
    # (arrow relation, policy) -> {(x, y, z, w): code of x->y against z->w}.
    arrow_codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Beside it, the quadruple tables of this side read by the sweeps:
    # (arrow relation, policy) -> one int of (c, d) bits per row (a, b).
    quad_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The holding quadruple verdicts of this side, not shared with a mirror:
    # (policy, first witness id or -1) -> the one ProportionVerdict built for
    # it.  A verdict holds strings, ints and bools only, so it references no context.
    holding_verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The premise facts of ``proportion_rw.uniqueness_lemma_check`` on this
    # side, not shared with a mirror, as they are read in (A, B) order:
    # rule string -> (rule string, facts on A, facts on B), built by
    # ``term_table`` on the first check of the rule.  They hold elements, sets
    # and the string only, so they reference no context.
    rule_facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def saturated(self) -> bool:
        return self.clone.saturated

    @property
    def bounds(self) -> Bounds:
        return self.clone.bounds

    @cached_property
    def cont_masks(self) -> dict[tuple[Element, Element], int]:
        """Arrow -> bit i set for each non-trivial relation class i containing it in A.

        One bit column of the relation ints per arrow of the build (see
        ``_columns``); the A side reads the first half, the B side the second.
        """
        arrows = self.clone._arrows
        keys = [
            0 if rc.trivial else arrows.encode(rc.rel_a, rc.rel_b) if rc.key is None else rc.key
            for rc in self.relations
        ]
        for alg, pairs, first in arrows.halves:
            if alg is self.alg_a:
                return dict(zip(pairs, _columns(keys, arrows.count, first, first + len(pairs))))

    @cached_property
    def arrows(self) -> list[tuple[Element, Element]]:
        """The arrows of A in bit order, (x, y) at x * |A| + y: the keys of
        ``cont_masks``, held by the build's arrow numbering.  On the mirror
        they are the competitors of every ``sim`` row."""
        for alg, pairs, _ in self.clone._arrows.halves:
            if alg is self.alg_a:
                return pairs

    @cached_property
    def arrow_rows(self) -> dict[Element, list[tuple[Element, Element]]]:
        """Element x -> the arrows x -> y of A in bit order, the slice of
        ``arrows`` for row x.  On the mirror they are the competitors of every
        ``rw`` row whose third element is x."""
        n = len(self.alg_a.universe)
        return {x: self.arrows[k * n : (k + 1) * n] for k, x in enumerate(self.alg_a.universe)}

    @cached_property
    def jus_masks(self) -> dict[tuple[Element, Element], int]:
        """``cont_masks`` restricted to the rewrite-witnessed relation classes."""
        (rewritten,) = _columns([rc.has_rewrite_witness for rc in self.relations], 1, 0, 1)
        return {ar: mask & rewritten for ar, mask in self.cont_masks.items()}

    @cached_property
    def elem_up_masks(self) -> dict[Element, int]:
        """Element -> bit i set for each non-trivial class i whose A-image contains it."""
        image = "image_a" if self.alg_a is self.clone.alg_a else "image_b"
        bit = {e: 1 << k for k, e in enumerate(self.alg_a.universe)}
        keys = [
            0 if self.class_trivial(c) else sum(map(bit.__getitem__, getattr(c, image)))
            for c in self.clone.classes
        ]
        return dict(zip(self.alg_a.universe, _columns(keys, len(bit), 0, len(bit))))

    @cached_property
    def cont_a(self) -> Mapping[tuple[Element, Element], frozenset[int]]:
        return _IdView(self.cont_masks)

    @cached_property
    def cont_b(self) -> Mapping[tuple[Element, Element], frozenset[int]]:
        return self.swapped().cont_a

    @cached_property
    def jus_a(self) -> Mapping[tuple[Element, Element], frozenset[int]]:
        return _IdView(self.jus_masks)

    @cached_property
    def jus_b(self) -> Mapping[tuple[Element, Element], frozenset[int]]:
        return self.swapped().jus_a

    @cached_property
    def elem_up_a(self) -> Mapping[Element, frozenset[int]]:
        return _IdView(self.elem_up_masks)

    @cached_property
    def elem_up_b(self) -> Mapping[Element, frozenset[int]]:
        return self.swapped().elem_up_a

    def class_trivial(self, cls: DenotationClass) -> bool:
        """Whether the class generalizes every element of both algebras."""
        # An image lies in its universe, so it covers it when the sizes match.
        return (
            len(cls.image_a) == len(self.clone.alg_a.universe)
            and len(cls.image_b) == len(self.clone.alg_b.universe)
        )

    def swapped(self) -> PairContext:
        """The same context with the roles of the two algebras exchanged: the
        context itself on one algebra.  On two, the first call builds and keeps
        the mirror, which holds its builder weakly and builds a new one if it is gone."""
        if self.alg_b is self.alg_a:
            return self
        partner = self._partner
        if isinstance(partner, weakref.ref):
            partner = partner()
        if partner is None:
            partner = PairContext(self.alg_b, self.alg_a, self.clone, self.relations)
            partner._partner, self._partner = weakref.ref(self), partner
        return partner


def _relation_keys(sources: bytes, targets: bytes, rows: int, width: int, arrows: int) -> list[int]:
    """The relation of each class pair of a grouping pass, as an int whose
    bit i is set when arrow i is among the pair's codes.

    ``sources`` and ``targets`` hold ``rows`` lanes of ``width`` bytes per
    pair, the pairs one after another; one int add of the two gives each
    row's arrow code, carry-free as every code fits its lane.  Each 8-arrow
    plane is one ``translate`` of the codes' low bytes to one-hot bytes,
    and-ed, above 256 arrows, with whether the codes' higher bytes are those
    of the plane's block.  A pair's rows are or-ed into its first row by
    doubling spans; a span reads past its pair only at rows no pair is read
    at.  The planes are then interleaved into 64-bit words, plane q as byte q
    of its pair's words.
    """
    codes = (int.from_bytes(sources, _ORDER) + int.from_bytes(targets, _ORDER)).to_bytes(
        len(sources), _ORDER
    )
    size = len(codes) // width  # rows of the pass
    count = size // rows  # pairs
    words = -(-arrows // 64)
    # byte k of every code, least significant first
    digits = [codes[k::width] for k in range(width)][:: 1 if _ORDER == "little" else -1]
    planes = []  # one byte per pair and 8 arrows, plane after plane
    for block in range(0, arrows, 256):
        tables = _ONE_HOT[:-(-min(256, arrows - block) // 8)]  # the block's planes
        bits = int.from_bytes(b"".join(map(digits[0].translate, tables)), "little")
        for k, digit in enumerate(digits[1:], 1):
            high = block >> 8 * k & 255
            bits &= int.from_bytes(
                digit.translate(bytes(high) + b"\xff" + bytes(255 - high)) * len(tables),
                "little",
            )
        span = 1
        while 2 * span <= rows:
            bits |= bits >> 8 * span
            span *= 2
        bits |= bits >> 8 * (rows - span)
        planes.append(bits.to_bytes(len(tables) * size, "little")[::rows])
    planes = b"".join(planes)
    lanes = bytearray(8 * words * count)
    for q in range(len(planes) // count):
        lanes[q if _ORDER == "little" else q ^ 7::8 * words] = planes[q * count:(q + 1) * count]
    values = memoryview(lanes).cast("Q").tolist()
    keys = values[words - 1::words]
    for w in range(words - 2, -1, -1):
        keys = list(map(operator.or_, map(operator.lshift, keys, itertools.repeat(64)),
                        values[w::words]))
    return keys


def build_pair_context(
    alg_a: FiniteAlgebra,
    alg_b: FiniteAlgebra | None = None,
    bounds: Bounds = Bounds(),
) -> PairContext:
    """Generate the joint clone and group class pairs by induced relations.

    A term pair (s, t) is ordered by (depth s + depth t, str s, str t).  A
    relation class takes the least pair of class witnesses that induces it,
    and as rewrite witness the least pair of occurrence-set witnesses (s, t)
    with the variables of t among those of s.  Relation classes are listed
    in the order of their witnesses.  On one algebra (``alg_b`` is ``alg_a``
    or None) pairs are grouped on A's arrows only, and ``rel_b`` is ``rel_a``.

    A pair's relation is keyed as one int, bit i for arrow i of the halves
    of ``_Arrows`` (see ``_relation_keys``).  The pairs are visited in
    witness-pair order, in passes of at most ``_PASS_ROWS`` rows that each
    key all their pairs at once, so a relation's first pair is its witness.
    ``dict.fromkeys`` dedupes a pass in that order, and one scan records the
    first pair of each relation not seen before.  A relation is settled
    there when the right witness's variables lie among the left's (then the
    witness pair is the rewrite witness); any other starts with none.  One
    rewrite scan then runs Python for the pairs, first or later, of the
    relations not yet settled, but only those with a rewrite pair at all,
    picked out at C level.  Each relation class keeps its int.

    The right sides t are found per class: a map from each occurrence set of
    the clone to the least witness whose variables lie in that set.  Each
    support reaches the occurrence sets that contain it, the intersection of
    the sets that hold each of its variables (every set, for the empty
    support).  The supports are walked least witness first, and each writes
    only the sets no smaller one reached.  A support that some smaller one
    already reached is skipped: that smaller support lies inside it, so it
    reaches every set this one does.
    """
    clone = generate_clone(alg_a, alg_b, bounds)
    alg_b = clone.alg_b
    classes = clone.classes
    pairs = len(classes) ** 2
    if pairs > MAX_GROUP_PAIRS:
        raise ResourceLimitError(
            f"algebra {_names(alg_a, alg_b)}: grouping would visit {pairs} class pairs,"
            f" over the limit of {MAX_GROUP_PAIRS}"
        )

    # Rewrite sides, per class: occurrence set -> the least witness whose
    # variables lie in it, filled as the docstring says.
    occurrence_sets = {sup for c in classes for sup in c.witnesses}
    holding: dict[int, set[frozenset[int]]] = {}  # variable -> the sets holding it
    for occ in occurrence_sets:
        for x in occ:
            holding.setdefault(x, set()).add(occ)
    rights: list[dict[frozenset[int], Term]] = [{} for _ in classes]
    for c, right in zip(classes, rights):
        for sup, t in c.supports:
            if sup not in right:
                reached = occurrence_sets.intersection(*map(holding.__getitem__, sup))
                right.update(dict.fromkeys(reached.difference(right), t))

    def rewrite(i: int, j: int):
        """The least rewrite pair of classes i, j as (pair key, s, t), or None."""
        best = None
        for sup, s in classes[i].supports:
            t = rights[j].get(sup)
            if t is not None:
                key = _pair_key(s, t)
                if best is None or key < best[0]:
                    best = (key, s, t)
        return best

    # The relation of a class pair as one int over the arrows numbered by
    # ``_Arrows``.  Each class holds its rows in lanes wide enough for every
    # arrow code, as sources (x * |A|, or |A|^2 + x * |B|) and as targets
    # (y), so that a source plus a target is the arrow code of one row.
    numbering = clone._arrows
    arrows = numbering.count
    width = _width(arrows)

    def half(alg: FiniteAlgebra, tables: list, first: int) -> tuple[list, list]:
        """Per class, the lanes of first + |U| * x and of x, x being each
        row's element code in ``alg``, for one table of each class."""
        codes = bytes(map(alg.index.__getitem__, itertools.chain.from_iterable(tables)))
        lanes, ones = bytearray(width * len(codes)), bytearray(width * len(codes))
        lane = 0 if _ORDER == "little" else width - 1  # a lane's least significant byte
        lanes[lane::width], ones[lane::width] = codes, b"\1" * len(codes)
        targets = bytes(lanes)
        sources = (int.from_bytes(targets, _ORDER) * len(alg.universe)
                   + int.from_bytes(ones, _ORDER) * first).to_bytes(len(targets), _ORDER)
        step = width * len(tables[0])
        cut = range(0, len(targets), step)
        return [sources[k:k + step] for k in cut], [targets[k:k + step] for k in cut]

    # A's rows, then on two algebras B's: one half per table of a class.
    sources = targets = [b""] * len(classes)
    for (alg, _, first), table in zip(numbering.halves, ("table_a", "table_b")):
        sources_half, targets_half = half(alg, [getattr(c, table) for c in classes], first)
        sources = list(map(bytes.__add__, sources, sources_half))
        targets = list(map(bytes.__add__, targets, targets_half))
    rows = len(sources[0]) // width
    stride = rows * width  # the bytes of one class's lanes

    # Visit class pairs in increasing witness-pair order, so the first pair
    # of a relation is its witness: by total depth, then left string, then
    # right string.  One segment is a left class and the right classes at the
    # matching depth, whose targets are joined once per depth.
    witnesses = [c.witness for c in classes]
    depths = [w.depth() for w in witnesses]
    strings = list(map(str, witnesses))
    by_string = sorted(range(len(classes)), key=strings.__getitem__)
    at_depth: dict[int, list[int]] = {}
    for i in by_string:
        at_depth.setdefault(depths[i], []).append(i)
    joined = {d: b"".join(map(targets.__getitem__, js)) for d, js in at_depth.items()}
    del targets

    # The segments in visit order, as left class, depth of the right classes
    # and pair count, and the pair count up to the end of each.
    seg_i, seg_d = zip(*[
        (i, d) for total in range(2 * max(depths) + 1) for i in by_string
        if (d := total - depths[i]) in at_depth
    ])
    lengths = list(map(len, map(at_depth.__getitem__, seg_d)))
    ends = list(itertools.accumulate(lengths))

    def passes():
        """The pairs in visit order cut into passes of at most
        ``_PASS_ROWS`` rows, and one pair at least: (left ids, right ids,
        relation ints) per pass.  A pass's sources are the left classes'
        repeated over their segments, its targets the joined right classes';
        its first and last segments may be cut."""
        most = max(1, _PASS_ROWS // rows)
        for lo in range(0, ends[-1], most):
            hi = min(lo + most, ends[-1])
            # segments a to b - 1 hold pairs lo to hi - 1: the pass skips the
            # first pairs of segment a and keeps the first of segment b - 1
            a, b = bisect.bisect_right(ends, lo), bisect.bisect_left(ends, hi) + 1
            skip, keep = lo - ends[a] + lengths[a], hi - ends[b - 1] + lengths[b - 1]
            counts, right_codes = lengths[a:b], [joined[d] for d in seg_d[a:b]]
            ids = [at_depth[d] for d in seg_d[a:b]]
            counts[-1], ids[-1] = keep, ids[-1][:keep]
            right_codes[-1] = right_codes[-1][:keep * stride]
            counts[0] -= skip
            right_codes[0], ids[0] = right_codes[0][skip * stride:], ids[0][skip:]
            yield (
                list(itertools.chain.from_iterable(map(itertools.repeat, seg_i[a:b], counts))),
                list(itertools.chain.from_iterable(ids)),
                _relation_keys(
                    b"".join(map(bytes.__mul__, map(sources.__getitem__, seg_i[a:b]), counts)),
                    b"".join(right_codes), rows, width, arrows,
                ),
            )

    # Python runs only for a relation's first pair and, while its rewrite
    # witness may still be lowered, its pairs with a rewrite pair.  A rewrite
    # pair is never smaller than the witness pair of its classes, and equal
    # only when it is that pair; so a pair whose witness pair is not below
    # the relation's rewrite witness so far settles it.
    n = len(classes)
    supports = [c.witnesses.keys() for c in classes]
    occurrences = [c.supports[0][0] for c in classes]  # each witness's variables
    grouped: dict[int, int] = {}  # relation -> its first pair, i * n + j
    # Relation -> its least rewrite pair so far as (pair key, s, t), or None,
    # for the relations whose first pair is not a rewrite pair.
    later: dict[int, tuple | None] = {}
    unsettled: set[int] = set()  # those of them a pair may still lower
    for left_ids, right_ids, keys in passes():
        # the new relations in order of their first pairs, which are found by
        # one scan of the pass from left to right
        p = 0
        for key in itertools.filterfalse(grouped.__contains__, dict.fromkeys(keys)):
            p = keys.index(key, p)
            i, j = left_ids[p], right_ids[p]
            grouped[key] = i * n + j
            # a witness pair that is a rewrite pair is the least one: settled
            if not occurrences[j] <= occurrences[i]:
                later[key] = None
                unsettled.add(key)
        if not unsettled:
            continue
        # Only a pair with a rewrite pair can lower a rewrite witness: one
        # whose left class has a witness with an occurrence set in the right
        # class's rewrite sides.  First and later pairs alike, in pass order.
        visits = list(itertools.compress(range(len(keys)), map(unsettled.__contains__, keys)))
        disjoint = map(_KEYS.isdisjoint,
                       map(supports.__getitem__, map(left_ids.__getitem__, visits)),
                       map(rights.__getitem__, map(right_ids.__getitem__, visits)))
        for p in itertools.compress(visits, map(operator.not_, disjoint)):
            key, i, j = keys[p], left_ids[p], right_ids[p]
            best = later[key]
            if best is not None and best[0] <= (depths[i] + depths[j], strings[i], strings[j]):
                unsettled.discard(key)
                continue
            found = rewrite(i, j)
            if found is not None and (best is None or found[0] < best[0]):
                later[key] = found
    # Each relation class keeps its int, decoded to element pairs on read.
    full = (1 << arrows) - 1
    relations = []
    for key, pair in grouped.items():
        i, j = divmod(pair, n)
        witness = (witnesses[i], witnesses[j])
        if key in later:
            found = later[key]
            rewrite_witness = None if found is None else found[1:]
        else:
            rewrite_witness = witness  # its first pair is a rewrite pair
        relations.append(
            RelationClass._of_key(key, numbering, witness, key == full, rewrite_witness)
        )
    return PairContext(alg_a, alg_b, clone, relations)
