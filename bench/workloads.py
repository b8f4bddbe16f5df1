"""The four benchmark workloads: inputs drawn from a seed, the timed
operations of one round, and the checks on every output.

A workload object is created once per set-up (that creation is part of
``setup_s``).  ``run_round`` then builds fresh contexts and runs the queries
and sweep steps on them, reporting each operation to a ``Recorder``.  Every
round of one run does the same work on the same inputs in the same order.

The seed only renames elements (through ``aprop.verify.random_relabeling``)
and draws orders and samples, so the shape counts of a workload do not
depend on it.
Verdicts on relabeled algebras are mapped back through the inverse
relabeling and compared with a reference recorded on the canonical algebras
(``reference/stress.json``); bundled outputs are compared with a reference
recorded from the engine's own output (``reference/bundled.json``).  Both
files are written by ``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import time
import traceback
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Every measured interval is CPU time of this single-threaded process.  The
# engine does no I/O while timed (CLI output goes to a buffer), so CPU time is
# its work; wall time also counts the periods in which a shared host runs
# other tenants on this CPU: with two busy processes beside it, the wall time
# of an axiom sweep rose by half while its CPU time did not move.
clock = time.process_time

# A round times ``calibrate`` this many times (after one untimed warm-up run)
# at its start and then whenever this much CPU time has passed since the last
# such block, so the calibration samples the round's time evenly.
CALIBRATE_RUNS = 3
CALIBRATE_EVERY_S = 0.25

# One letter per verdict reason, used in the reference verdict tables.
REASON_CODES = {
    "all-trivial": "a",
    "maximal": "m",
    "conjunct-failed": "c",
    "empty-intersection": "e",
    "dominated": "d",
}
CODE_REASONS = {code: reason for reason, code in REASON_CODES.items()}
POLICIES = ("literal", "all")
FRAMEWORKS = ("sim", "rw")

# Stress algebras by reference key "<name>@<max_vars>".
UNARY_WIDE = {"full": ["CS4@1"], "tiny": ["CS3@1"]}
BINARY_DEEP = {"full": ["Z3@3", "Z4@3", "Z2@4", "J3@3"], "tiny": ["Z2@2", "J3@2"]}
BUNDLED_TINY = ["A1", "EAABB"]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def quadruples(universe):
    return itertools.product(universe, repeat=4)


def verdict_codes(m, ctx) -> str:
    """Three reason letters per quadruple (sim literal, sim all, rw)."""
    out = []
    for q in quadruples(ctx.alg_a.universe):
        out.append(REASON_CODES[m.proportion_sim.proportion_sim(*q, ctx, "literal").reason])
        out.append(REASON_CODES[m.proportion_sim.proportion_sim(*q, ctx, "all").reason])
        out.append(REASON_CODES[m.proportion_rw.proportion_rw(*q, ctx).reason])
    return "".join(out)


def codes_at(ref: dict, q) -> str:
    """Reference letters (sim literal, sim all, rw) for a canonical quadruple."""
    u = ref["universe"]
    index = 0
    for e in q:
        index = index * len(u) + u.index(e)
    return ref["verdicts"][3 * index: 3 * index + 3]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(m, argv):
    """``aprop`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sweep_argv(command: str, policy: str, name: str) -> list[str]:
    """The bundled sweep commands whose stdout the reference pins."""
    extra = ["--framework", "both"] if command == "axioms" else []
    return [command, *extra, "--competitors", policy, "--format", "machine", name]


def shape_of(ctx) -> dict:
    return {
        "classes": len(ctx.clone.classes),
        "supports": sum(len(c.witnesses) for c in ctx.clone.classes),
        "levels": ctx.clone.depth_reached,
        "relation_classes": len(ctx.relations),
        "quadruples": len(ctx.alg_a.universe) ** 4,
    }


def touch_indexes(ctx) -> None:
    """Force the lazy justification indexes on both sides and on the swap."""
    for side in (ctx, ctx.swapped()):
        side.cont_a, side.cont_b, side.jus_a, side.jus_b


# --- generated stress algebras -------------------------------------------------


def stress_algebra(m, key: str):
    """The canonical algebra and variable bound named by a reference key.

    CS<n>: a unary n-cycle f and the saturating shift g(i) = min(i+1, n-1).
    Z<n>:  addition modulo n.
    J<n>:  the join (maximum) of an n-element chain.
    """
    name, max_vars = key.split("@")
    kind, n = name[:-1], int(name[-1])
    u = tuple("abcdefgh"[:n])
    if kind == "CS":
        symbols = (("f", 1), ("g", 1))
        tables = {
            "f": {(u[i],): u[(i + 1) % n] for i in range(n)},
            "g": {(u[i],): u[min(i + 1, n - 1)] for i in range(n)},
        }
    elif kind in ("Z", "J"):
        op = (lambda i, j: (i + j) % n) if kind == "Z" else max
        sym = "p" if kind == "Z" else "j"
        symbols = ((sym, 2),)
        tables = {sym: {(u[i], u[j]): u[op(i, j)] for i in range(n) for j in range(n)}}
    else:
        raise ValueError(f"unknown stress algebra {key!r}")
    alg = m.algebras.FiniteAlgebra(name, m.terms.Language(symbols), u, tables)
    return alg, int(max_vars)


def depth2_rules(m, language):
    """All rewrite rules over x0, x1 with both sides of depth at most two."""
    pool = [m.terms.Var(0), m.terms.Var(1)]
    for _ in range(2):
        pool = pool + [
            m.terms.App(sym, (t,)) for sym, rank in language.symbols if rank == 1 for t in pool
        ]
    rules = {}
    for s in pool:
        for t in pool:
            if set(t.variables()) <= set(s.variables()):
                rules[(str(s), str(t))] = m.terms.RewriteRule(s, t)
    return list(rules.values())


# --- recording operations --------------------------------------------------------


class Recorder:
    """Times operations and counts attempts and failures.

    An operation fails when it raises (``ResourceLimitError`` included) or
    when its check returns a message.  Checks run outside the timed interval.
    """

    def __init__(self):
        self.tracer = None  # set while a round is traced
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {message}")

    def op(self, label: str, fn, check):
        """Run ``fn()``; return (result, seconds), result None on failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
        start = clock()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = clock() - start
            last = traceback.extract_tb(exc.__traceback__)[-1]
            self.fail(label, f"{type(exc).__name__}: {exc} ({last.filename}:{last.lineno})")
            return None, seconds
        seconds = clock() - start
        message = check(result)
        if message:
            self.fail(label, message)
            return None, seconds
        return result, seconds


class RoundResult:
    def __init__(self):
        self.build_s: list[float] = []  # one total per build of every context
        self.sweep_s = 0.0
        self.query_s: list[float] = []
        self.rule_checks = 0
        self.calibrate_s: list[float] = []
        self.shape: dict[str, int] = {}

    def add_shape(self, shape: dict) -> None:
        for key, value in shape.items():
            self.shape[key] = self.shape.get(key, 0) + value


class Op:
    """One timed operation of a round: what it measures, and how to check it."""

    __slots__ = ("kind", "context", "label", "fn", "check")

    def __init__(self, kind: str, context: str, label: str, fn, check):
        self.kind = kind  # build, query, sweep or rule (a sweep step of rule-sweep)
        self.context = context
        self.label = label
        self.fn = fn
        self.check = check


# --- machine speed ------------------------------------------------------------------

_calibration_rng = random.Random(0)
CALIBRATION_SETS = [frozenset(_calibration_rng.sample(range(2000), 40)) for _ in range(100)]


def calibrate() -> int:
    """A fixed pure-Python task that shares no code with the engine.

    The CPU time of the same engine work drifts by a quarter over minutes on
    a shared host (cache and memory contention from other tenants), and the
    time of this task drifts with it: over windows of a few seconds, the
    ratio of the two spread half as much as the engine time alone, or less.
    Timed between the engine's operations, it lets the benchmark report
    engine times at one nominal machine speed.  It does what the engine does
    most (set intersections, tuple keys, dict stores) on a small working set,
    and runs with the collector off, so the engine's heap adds no
    collections to it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sets, table = CALIBRATION_SETS, {}
        for i in range(1500):
            common = sets[i % 100] & sets[(i * 7 + 3) % 100]
            table[i & 255, len(common)] = tuple(sorted(common))
        return len(table)
    finally:
        if was_enabled:
            gc.enable()


class Calibration:
    """The timed ``calibrate`` runs of one round (not engine operations:
    neither attempted nor traced)."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = None

    def tick(self, force: bool = False) -> None:
        if not force and self.last is not None and clock() - self.last < CALIBRATE_EVERY_S:
            return
        calibrate()  # warm: the time should not depend on what the engine evicted
        for _ in range(CALIBRATE_RUNS):
            start = clock()
            calibrate()
            self.samples.append(clock() - start)
        self.last = clock()


# --- workloads ----------------------------------------------------------------------


class Workload:
    """Shared round structure: build every context, then query and sweep."""

    name = ""
    build_repeats = 1
    passes = 1  # times every query and sweep step runs in a round

    def __init__(self, m, seed: int, tiny: bool):
        self.m = m
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def contexts_spec(self):
        """(label, algebra, bounds, reference entry) per context."""
        raise NotImplementedError

    def draw_queries(self, universe, count):
        return [tuple(self.rng.choice(universe) for _ in range(4)) for _ in range(count)]

    def run_round(self, rec: Recorder) -> RoundResult:
        """Build every context once, then run every other operation.

        The other operations (further builds, queries, sweep steps) run in
        one order shuffled by the seed, the same in every round.  The
        machine's speed changes from one fraction of a second to the next,
        and a phase run as one block lands in a single such period; mixed,
        every phase samples the whole round.  Calibration blocks run between
        the operations, so that ``run.py`` can scale the round's times to a
        nominal machine speed.
        """
        res = RoundResult()
        calibration = Calibration()
        builds: dict[str, list[float]] = {}
        ops: list[Op] = []
        for label, alg, bounds, ref in self.contexts_spec():
            calibration.tick()
            build = self.build_op(label, alg, bounds, ref)
            ctx, seconds = rec.op(build.label, build.fn, build.check)
            builds[label] = [seconds]
            if ctx is None:
                continue
            res.add_shape(shape_of(ctx))
            ops += [build] * (self.build_repeats - 1)
            ops += (self.query_ops(label, ctx, ref) + self.sweep_ops(label, ctx, ref)) * self.passes
        ops += self.global_ops()
        random.Random(f"{self.name}:order:{self.seed}").shuffle(ops)
        for op in ops:
            calibration.tick()
            _, seconds = rec.op(op.label, op.fn, op.check)
            if op.kind == "build":
                builds[op.context].append(seconds)
            elif op.kind == "query":
                res.query_s.append(seconds)
            else:
                res.sweep_s += seconds
                res.rule_checks += op.kind == "rule"
        calibration.tick(force=True)
        res.sweep_s /= self.passes
        res.build_s = [sum(times) for times in zip(*builds.values())]
        res.calibrate_s = calibration.samples
        return res

    def build_op(self, label, alg, bounds, ref) -> Op:
        def build():
            ctx = self.m.clone.build_pair_context(alg, bounds=bounds)
            touch_indexes(ctx)
            return ctx

        def check(ctx):
            if not ctx.saturated:
                return "clone did not saturate"
            got = shape_of(ctx)
            want = {key: ref[key] for key in got}
            return None if got == want else f"shape {got} != reference {want}"

        return Op("build", label, f"build {label}", build, check)

    def query_ops(self, label, ctx, ref) -> list[Op]:
        """One `check --framework both` verdict per quadruple of the context."""
        sim = self.m.proportion_sim
        rw = self.m.proportion_rw

        def op(q):
            def check(verdicts):
                codes = self.reference_codes(ref, q)
                got = REASON_CODES[verdicts[0].reason] + REASON_CODES[verdicts[1].reason]
                want = codes[0] + codes[2]
                return None if got == want else f"verdict codes {got} != reference {want}"

            return Op(
                "query", label, f"query {label} {q}",
                lambda: (sim.proportion_sim(*q, ctx, "literal"), rw.proportion_rw(*q, ctx)),
                check,
            )

        return [op(q) for q in quadruples(ctx.alg_a.universe)]

    def reference_codes(self, ref, q) -> str:
        return codes_at(ref, q)

    def sweep_ops(self, label, ctx, ref) -> list[Op]:
        return []

    def global_ops(self) -> list[Op]:
        return []


class BundledAlgebras(Workload):
    """The bundled algebras (two of them when tiny) at the default bounds."""

    # All twelve build in about 0.03 s: one build per round is too short a
    # sample to be steady, so the contexts are built this many times.
    build_repeats = 10

    def __init__(self, m, seed, tiny):
        super().__init__(m, seed, tiny)
        self.ref = load_reference("bundled")
        self.names = BUNDLED_TINY if tiny else self.ref["names"]
        self.algebras = {name: m.verify.bundled_algebra(name) for name in self.names}

    def contexts_spec(self):
        bounds = self.m.clone.Bounds()
        for name in self.names:
            yield name, self.algebras[name], bounds, self.ref["algebras"][name]


class BundledSweeps(BundledAlgebras):
    """All bundled algebras through the in-process CLI, as CLI users run them."""

    name = "bundled-sweeps"

    def __init__(self, m, seed, tiny):
        super().__init__(m, seed, tiny)
        # one seeded `check` and one seeded `solve` command per algebra
        self.checks = {
            name: (self.rng.choice(POLICIES), self.draw_queries(alg.universe, 1)[0])
            for name, alg in self.algebras.items()
        }
        self.solves = {
            name: (self.rng.choice(POLICIES), tuple(self.rng.choice(alg.universe) for _ in range(3)))
            for name, alg in self.algebras.items()
        }

    def cli_op(self, name, argv, want_code, want_sha256) -> Op:
        """One CLI command whose stdout bytes must match the reference."""

        def check(got):
            code, out, err = got
            if err:
                return f"stderr {err.strip()!r}"
            if code != want_code:
                return f"exit {code} != reference {want_code}"
            return None if digest(out) == want_sha256 else "stdout differs from reference"

        return Op("sweep", name, " ".join(argv), lambda: run_cli(self.m, argv), check)

    def sweep_ops(self, name, ctx, ref):
        ops = []
        for policy in POLICIES:
            for command in ("compare", "axioms"):
                argv = sweep_argv(command, policy, name)
                want = self.ref["cli"][" ".join(argv)]
                ops.append(self.cli_op(name, argv, want["exit"], want["sha256"]))

        policy, q = self.checks[name]
        argv = ["check", "--framework", "both", "--competitors", policy,
                "--format", "machine", name, *q]
        codes = self.reference_codes(ref, q)
        lines, code = [], 0
        for fw, letter in (("sim", codes[POLICIES.index(policy)]), ("rw", codes[2])):
            word = "holds" if letter in "am" else "fails"
            code = code if letter in "am" else 1
            lines.append(
                f"{fw} {q[0]}:{q[1]} ~ {q[2]}:{q[3]} {word} reason={CODE_REASONS[letter]}"
                f" exact={ref['exact']} vars={ref['vars']} depth={ref['depth']}\n"
            )
        ops.append(self.cli_op(name, argv, code, digest("".join(lines))))

        policy, (a, b, c) = self.solves[name]
        argv = ["solve", "--framework", "both", "--competitors", policy,
                "--format", "machine", name, a, b, c]
        lines = [
            f"{fw} {d}\n"
            for fw, slot in (("sim", POLICIES.index(policy)), ("rw", 2))
            for d in ref["universe"]
            if self.reference_codes(ref, (a, b, c, d))[slot] in "am"
        ]
        ops.append(self.cli_op(name, argv, 0 if lines else 1, digest("".join(lines))))
        return ops

    def global_ops(self):
        want = self.ref["cli"]["vectors"]
        argv = ["--format", "machine", "vectors"]
        return [self.cli_op("all", argv, want["exit"], digest(want["stdout"]))]


class StressSweeps(Workload):
    """Generated algebras, relabeled by the seed, swept through the library."""

    sizes: dict[str, list[str]] = {}

    def __init__(self, m, seed, tiny):
        super().__init__(m, seed, tiny)
        ref = load_reference("stress")
        self.entries = []
        for key in self.sizes["tiny" if tiny else "full"]:
            alg, max_vars = stress_algebra(m, key)
            target, inverse = self.relabel(alg, seed)
            bounds = m.clone.Bounds(max_vars=max_vars)
            self.entries.append((key, target, bounds, dict(ref[key], inverse=inverse)))

    def relabel(self, alg, seed):
        """The algebra under a seeded renaming of its elements, and the inverse.

        ``random_relabeling`` permutes the operation tables over the same
        universe order.  The universe order is carried along with the names
        here, so the engine walks the same structure in the same order for
        every seed.  A verdict stops at its first dominating competitor, and
        without this the query and sweep times of ``binary-deep`` moved by a
        quarter from seed to seed.
        """
        h = self.m.verify.random_relabeling(alg, self.rng, name=f"seed{seed}")
        target = self.m.algebras.FiniteAlgebra(
            h.target.name,
            alg.language,
            tuple(h.table[e] for e in alg.universe),
            h.target.tables,
        )
        return target, {v: e for e, v in h.table.items()}

    def contexts_spec(self):
        return self.entries

    def reference_codes(self, ref, q):
        """Reference letters of the canonical quadruple behind a relabeled one."""
        inverse = ref["inverse"]
        return codes_at(ref, tuple(inverse[e] for e in q))

    def sweep_ops(self, key, ctx, ref):
        m = self.m
        inverse = ref["inverse"]
        u = ctx.alg_a.universe
        ops = []

        for slot, policy in enumerate(POLICIES):
            def check_compare(diffs, slot=slot):
                got = {tuple(inverse[e] for e in q): (s, r) for q, s, r in diffs}
                want = {}
                for q in quadruples(ref["universe"]):
                    codes = codes_at(ref, q)
                    s, r = codes[slot] in "am", codes[2] in "am"
                    if s != r:
                        want[q] = (s, r)
                return None if got == want else "differing quadruples != reference"

            ops.append(Op(
                "sweep", key, f"compare {key} {policy}",
                lambda policy=policy: m.verify.compare_frameworks(ctx, policy),
                check_compare,
            ))

        for fw in FRAMEWORKS:
            for policy in POLICIES:
                for schema in m.verify.AXIOM_SCHEMATA:
                    want = ref["axioms"][f"{fw} {policy} {schema}"]
                    ops.append(Op(
                        "sweep", key, f"axiom {key} {fw} {policy} {schema}",
                        lambda schema=schema, fw=fw, policy=policy: m.verify.check_axiom(
                            schema, ctx, framework=fw, policy=policy
                        ),
                        lambda rep, want=want: None
                        if rep.holds == want and rep.exact
                        else f"holds={rep.holds} exact={rep.exact}, reference holds={want}",
                    ))

        for a, b, c in itertools.product(u, repeat=3):
            want = tuple(
                [d for d in u if self.reference_codes(ref, (a, b, c, d))[slot] in "am"]
                for slot in (0, 2)
            )
            ops.append(Op(
                "sweep", key, f"solve {key} {a} {b} {c}",
                lambda a=a, b=b, c=c: (m.proportion_sim.solve_sim(a, b, c, ctx),
                                       m.proportion_rw.solve_rw(a, b, c, ctx)),
                lambda got, want=want: None if got == want
                else f"solutions {got} != reference {want}",
            ))

        def check_similar(got):
            mapped = {(inverse[x], inverse[y]): flag for (x, y), flag in got.items()}
            flags = "".join(
                "1" if mapped[pair] else "0"
                for pair in itertools.product(ref["universe"], repeat=2)
            )
            want = ref["similar"]
            return None if flags == want else f"similar flags {flags} != reference {want}"

        ops.append(Op(
            "sweep", key, f"similar {key}",
            lambda: {
                (a, b): bool(m.similarity.similar(a, b, ctx))
                for a, b in itertools.product(u, repeat=2)
            },
            check_similar,
        ))
        return ops


class UnaryWide(StressSweeps):
    """Many classes and relation classes: grouping and large id-set verdicts."""

    name = "unary-wide"
    sizes = UNARY_WIDE


class BinaryDeep(StressSweeps):
    """Binary ops at three and four variables: clone enumeration."""

    # The builds take about 5.5 s of a round and its queries and sweep steps
    # about 0.35 s, so one pass of them sampled the machine's speed for too
    # short a time: sweep_s spread by 0.12 to 0.17 between runs.
    passes = 3

    name = "binary-deep"
    sizes = BINARY_DEEP


class RuleSweep(BundledAlgebras):
    """Depth-2 rewrite rules times quadruples on the bundled algebras."""

    name = "rule-sweep"
    quads_per_rule = {"full": 40, "tiny": 4}

    def __init__(self, m, seed, tiny):
        super().__init__(m, seed, tiny)
        per_rule = self.quads_per_rule["tiny" if tiny else "full"]
        self.instances = {}
        self.rules = 0
        for name, alg in self.algebras.items():
            rules = depth2_rules(m, alg.language)
            self.rules += len(rules)
            self.instances[name] = [
                (rule, q) for rule in rules for q in self.draw_queries(alg.universe, per_rule)
            ]

    def sweep_ops(self, name, ctx, ref):
        rw = self.m.proportion_rw
        alg = self.algebras[name]

        def instance(rule, a, b, c, d):
            direct = rw.rule_in_jus(rule, (a, b), alg) and rw.rule_in_jus(rule, (c, d), alg)
            via = rw.jus_membership_via_solutions(rule.lhs, rule.rhs, a, b, c, d, alg, alg)
            report = rw.uniqueness_lemma_check(rule, a, b, c, d, ctx)
            return direct, via, report.violation

        def check(got):
            direct, via, violation = got
            if direct != via:
                return f"direct membership {direct} != solution-set membership {via}"
            return "uniqueness lemma violated" if violation else None

        return [
            Op("rule", name, f"rule {name} {rule} {q}",
               lambda rule=rule, q=q: instance(rule, *q), check)
            for rule, q in self.instances[name]
        ]


WORKLOADS = {cls.name: cls for cls in (BundledSweeps, UnaryWide, BinaryDeep, RuleSweep)}
