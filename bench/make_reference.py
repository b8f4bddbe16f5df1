"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, on a commit whose verdicts are trusted:

    python3 bench/make_reference.py

It writes ``bench/reference/bundled.json`` (the machine output of the
bundled sweep commands, the vector suite's output verbatim, and every
quadruple's verdict reasons) and ``bench/reference/stress.json`` (shape,
verdicts, axiom outcomes and similarity of the canonical stress algebras).
A change that alters any of these outputs is a change of behaviour: the
benchmark reports it as failed operations, and the reference is only
re-recorded when the new output has been shown to be right.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as w  # noqa: E402


def context_entry(m, ctx) -> dict:
    return dict(
        w.shape_of(ctx),
        universe=list(ctx.alg_a.universe),
        exact=int(ctx.saturated),
        vars=ctx.bounds.max_vars,
        depth=ctx.clone.depth_reached,
        verdicts=w.verdict_codes(m, ctx),
    )


def bundled(m) -> dict:
    names = m.verify.bundled_algebra_names()
    algebras, cli = {}, {}
    for name in names:
        ctx = m.clone.build_pair_context(m.verify.bundled_algebra(name))
        algebras[name] = context_entry(m, ctx)
        for policy in w.POLICIES:
            for command in ("compare", "axioms"):
                argv = w.sweep_argv(command, policy, name)
                code, out, err = w.run_cli(m, argv)
                if err:
                    raise SystemExit(f"{' '.join(argv)}: {err}")
                cli[" ".join(argv)] = {
                    "exit": code, "sha256": w.digest(out), "lines": len(out.splitlines())
                }
    code, out, err = w.run_cli(m, ["--format", "machine", "vectors"])
    if err:
        raise SystemExit(f"vectors: {err}")
    cli["vectors"] = {"exit": code, "stdout": out}
    return {"names": names, "algebras": algebras, "cli": cli}


def stress(m) -> dict:
    out = {}
    for sizes in (w.UNARY_WIDE, w.BINARY_DEEP):
        for key in sizes["full"] + sizes["tiny"]:
            alg, max_vars = w.stress_algebra(m, key)
            ctx = m.clone.build_pair_context(alg, bounds=m.clone.Bounds(max_vars=max_vars))
            entry = context_entry(m, ctx)
            entry["axioms"] = {
                f"{fw} {policy} {schema}": m.verify.check_axiom(
                    schema, ctx, framework=fw, policy=policy
                ).holds
                for fw in w.FRAMEWORKS
                for policy in w.POLICIES
                for schema in m.verify.AXIOM_SCHEMATA
            }
            entry["similar"] = "".join(
                "1" if m.similarity.similar(a, b, ctx) else "0"
                for a, b in itertools.product(alg.universe, repeat=2)
            )
            out[key] = entry
            print(f"{key}: {w.shape_of(ctx)}", flush=True)
    return out


def main() -> None:
    m = run.fresh_import()
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, data in (("bundled", bundled(m)), ("stress", stress(m))):
        path = w.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(BENCH_DIR.parent)}")


if __name__ == "__main__":
    main()
