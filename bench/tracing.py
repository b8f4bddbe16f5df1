"""Spans and counters around calls into the aprop modules.

The tracer wraps, from outside, every public function defined in each
``aprop`` module, plus the lazy justification indexes of ``PairContext``.
Each wrapped module attribute that refers to an original function is
replaced, so calls made from inside the package are seen too.  Nothing
under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is (id, name, start, end, parent id, operation id).  Spans are kept
in memory up to ``SPAN_CAP`` and written out by ``write``; self time (a
span's duration minus that of its child spans) and call counts are
aggregated for every call, whether or not its span was kept.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

SPAN_CAP = 100_000

# Called once per term node: counted, not timed, so the wrapper stays cheap
# and the time stays with the caller (solution_set, rule_in_jus, ...).
COUNT_ONLY = {"algebras.evaluate"}
INDEX_PROPERTIES = ("cont_a", "cont_b", "jus_a", "jus_b", "elem_up_a", "elem_up_b")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.span_count = 0
        self.stack: list[list] = []  # open spans: [span id, child seconds]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.arrow_keys = {"proportion_sim": set(), "proportion_rw": set()}
        self.context_ids: dict[int, int] = {}
        self.contexts: list = []  # keeps traced contexts alive, so ids stay unique
        self.op = 0
        self._restore: list[tuple] = []
        self._hooks = {
            "clone.generate_clone": self._on_clone,
            "clone.build_pair_context": self._on_group,
            "proportion_sim.arrow_lesssim": self._on_arrow_sim,
            "proportion_rw.arrow_proportion_rw": self._on_arrow_rw,
            "proportion_sim.proportion_sim": self._on_quad,
            "proportion_rw.proportion_rw": self._on_quad,
            "verify.check_axiom": self._on_axiom,
        }

    def begin_op(self) -> None:
        self.op += 1

    # --- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn):
        tracer, clock, stack = self, time.perf_counter, self.stack
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.active[name] += 1
            parent = stack[-1][0] if stack else None
            tracer.span_count += 1
            frame = [tracer.span_count, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.active[name] -= 1
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], name, start, end, parent, tracer.op))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` (the aprop submodules)."""
        wrapped = {}
        for module in modules:
            short = module.__name__.split(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    make = self._counted if name in COUNT_ONLY else self._timed
                    wrapped[obj] = make(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        pair_context = next(m for m in modules if m.__name__.endswith(".clone")).PairContext
        for attr in INDEX_PROPERTIES:
            original = pair_context.__dict__[attr]
            prop = functools.cached_property(self._timed(f"clone.index.{attr}", original.func))
            prop.__set_name__(pair_context, attr)
            self._restore.append((pair_context, attr, original))
            setattr(pair_context, attr, prop)
        original = pair_context.__dict__["swapped"]
        self._restore.append((pair_context, "swapped", original))
        pair_context.swapped = self._timed("clone.index.swapped", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- hooks on results ---------------------------------------------------------

    def _context_id(self, ctx) -> int:
        key = id(ctx)
        if key not in self.context_ids:
            self.context_ids[key] = len(self.context_ids)
            self.contexts.append(ctx)
        return self.context_ids[key]

    def _on_clone(self, args, kwargs, clone) -> None:
        self.counts["clone.classes"] += len(clone.classes)
        self.counts["clone.supports"] += sum(len(c.witnesses) for c in clone.classes)
        self.counts["clone.levels"] += clone.depth_reached
        self.counts["clone.saturated"] += int(clone.saturated)

    def _on_group(self, args, kwargs, ctx) -> None:
        self.counts["clone.class_pairs"] += len(ctx.clone.classes) ** 2
        self.counts["clone.relation_classes"] += len(ctx.relations)

    def _on_arrow_sim(self, args, kwargs, verdict) -> None:
        ar1, ar2, ctx = args[:3]
        policy = args[3] if len(args) > 3 else kwargs.get("policy", "literal")
        self.arrow_keys["proportion_sim"].add((self._context_id(ctx), ar1, ar2, policy))
        self.counts["proportion_sim.competitors_scanned"] += len(verdict.comparisons)

    def _on_arrow_rw(self, args, kwargs, verdict) -> None:
        ar1, ar2, ctx = args[:3]
        self.arrow_keys["proportion_rw"].add((self._context_id(ctx), ar1, ar2))
        self.counts["proportion_rw.competitors_scanned"] += len(verdict.comparisons)

    def _on_quad(self, args, kwargs, verdict) -> None:
        if self.active["verify.check_axiom"]:
            self.counts["verify.axiom_quad_calls"] += 1

    def _on_axiom(self, args, kwargs, report) -> None:
        self.counts["verify.axiom_instances"] += report.instances

    # --- results ----------------------------------------------------------------------

    def self_time(self, *prefixes: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(prefixes))

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names listed in BENCHMARK.json."""
        c, calls, st = self.counts, self.calls, self.self_time
        out = {
            "clone.generate_s": st("clone.generate_clone"),
            "clone.classes": c["clone.classes"],
            "clone.supports": c["clone.supports"],
            "clone.levels": c["clone.levels"],
            "clone.saturated": c["clone.saturated"],
            "clone.group_s": st("clone.build_pair_context"),
            "clone.class_pairs": c["clone.class_pairs"],
            "clone.relation_classes": c["clone.relation_classes"],
            "clone.group_yield": _ratio(c["clone.relation_classes"], c["clone.class_pairs"]),
            "clone.index_s": st("clone.index."),
        }
        for module, arrow, quad in (
            ("proportion_sim", "arrow_lesssim", "proportion_sim"),
            ("proportion_rw", "arrow_proportion_rw", "proportion_rw"),
        ):
            arrow_calls = calls[f"{module}.{arrow}"]
            out.update({
                f"{module}.arrow_calls": arrow_calls,
                f"{module}.arrow_s": st(f"{module}.{arrow}"),
                f"{module}.arrow_distinct_ratio": _ratio(len(self.arrow_keys[module]), arrow_calls),
                f"{module}.competitors_scanned": c[f"{module}.competitors_scanned"],
                f"{module}.quad_calls": calls[f"{module}.{quad}"],
                f"{module}.quad_s": st(f"{module}.{quad}", f"{module}.solve_"),
            })
        out.update({
            "verify.axioms_s": st("verify.check_axiom"),
            "verify.compare_s": st("verify.compare_frameworks"),
            "verify.vectors_s": st("verify.run_paper_vectors"),
            "verify.quad_cache_hit_ratio": _ratio(
                c["verify.axiom_instances"] - c["verify.axiom_quad_calls"],
                c["verify.axiom_instances"],
            ),
            "similarity.lesssim_calls": calls["similarity.lesssim"],
            "similarity.similar_s": st("similarity.similar", "similarity.lesssim"),
            "algebras.evaluate_calls": calls["algebras.evaluate"],
            "algebras.solution_set_calls": calls["algebras.solution_set"],
            "algebras.solution_set_s": st(
                "algebras.solution_set", "algebras.unique_solution_elements"
            ),
            "proportion_rw.rule_in_jus_calls": calls["proportion_rw.rule_in_jus"],
            "proportion_rw.rule_in_jus_s": st("proportion_rw.rule_in_jus"),
            "proportion_rw.uniqueness_s": st("proportion_rw.uniqueness_lemma_check"),
            "algebras.parse_s": st("algebras.parse_spec_file", "algebras.load_algebra"),
            "cli.main_s": st("cli."),
        })
        return out

    def count_signature(self) -> dict:
        """Every count this tracer made; equal inputs must give equal counts."""
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.arrow_keys.items()},
        }

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=self.span_count, kept=len(self.spans))) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
