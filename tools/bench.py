#!/usr/bin/env python3
"""Run the benchmark on a parent and a changed checkout; write one BENCH JSON file.

    python3 tools/bench.py BEFORE AFTER --seeds 1-10 --seconds 40 [--out BENCH_<n>.json]

For every seed and every workload BENCHMARK.json lists, each checkout runs
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` from its
own root, one run at a time; which checkout goes first alternates from seed
to seed.  The last stdout line of each run, its JSON result, is kept as it
is.  The output also gives each checkout's commit (``git describe --always
--dirty``), the lines of its ``src/slens`` and how many of them are code
(not blank, not a comment, not part of a docstring), in all and per
module (also printed to stderr), per workload and metric the median and
quartiles over the seeds, and the number of seeds on which AFTER read
better than BEFORE.

A run failed when it exited non-zero, printed ``"correct": false`` or
counted a failed operation.  Each failed run gets one stderr line, followed
by why it failed: the ``FAIL`` lines its stderr holds, or its last
TAIL_LINES stderr lines when it printed none.  The output lists the failed
runs' seeds under ``failed_runs`` and those lines under ``failure_lines``
(side, workload, seed), and the tool then exits 1.  A run that printed no
result line ends the tool with those lines.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TAIL_LINES = 20
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment and are
    not part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def source_size(checkout: Path) -> dict[str, int]:
    """Lines of ``src/slens``, its code lines, and each module's code lines
    as ``src.code_lines.<module>``."""
    root = checkout / "src" / "slens"
    texts = {".".join(f.relative_to(root).with_suffix("").parts): f.read_text()
             for f in sorted(root.rglob("*.py"))}
    modules = {f"src.code_lines.{m}": code_lines(t) for m, t in texts.items()}
    return {"src.lines": sum(len(t.splitlines()) for t in texts.values()),
            "src.code_lines": sum(modules.values()), **modules}


def failure_lines(stderr: str) -> list[str]:
    """Why a run failed: the ``FAIL`` lines of its stderr, or its last
    TAIL_LINES lines when it printed none."""
    lines = stderr.splitlines()
    return [line for line in lines if line.startswith("FAIL ")] or lines[-TAIL_LINES:]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One run's JSON result, with its exit status under ``exit``, and its
    stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        why = "\n".join(failure_lines(proc.stderr))
        raise SystemExit(f"error: {workload} seed {seed} printed nothing "
                         f"(exit {proc.returncode}); its stderr ended:\n{why}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result, proc.stderr


def failed(result: dict) -> bool:
    """Whether a run exited non-zero, was not correct or counted a failure."""
    return (result["exit"] != 0 or result.get("correct") is False
            or result.get("failed", 0) > 0)


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(before: list[dict], after: list[dict], metric: str, better: str) -> int:
    """Seeds on which ``after`` read better than ``before``; ties count for
    neither."""
    n = 0
    for b, a in zip(before, after):
        x, y = b["metrics"][metric]["value"], a["metrics"][metric]["value"]
        n += x != y and (y < x) == (better == "lower")
    return n


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", type=Path, help="the parent's checkout")
    ap.add_argument("after", type=Path, help="the change's checkout")
    ap.add_argument("--seeds", type=seeds, default=seeds("1"), help="N or N-M")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = [args.before, args.after]
    why = {name: {w: {} for w in workloads} for name in ("before", "after")}

    sides = []
    for checkout in checkouts:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                                stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
        sides.append({"commit": commit, **source_size(checkout),
                      "runs": {w: [] for w in workloads}})
        print(f"{commit}: src/slens {sides[-1]['src.lines']} lines, "
              f"{sides[-1]['src.code_lines']} of them code", file=sys.stderr)
        for key, n in sides[-1].items():
            if key.startswith("src.code_lines."):
                print(f"  {key[len('src.code_lines.'):]}: {n}", file=sys.stderr)
    for i, seed in enumerate(args.seeds):
        for w in workloads:
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                result, stderr = run_once(checkouts[k], w, seed, args.seconds)
                sides[k]["runs"][w].append({"seed": seed, **result})
                print(f"{w} seed {seed} {sides[k]['commit']}: "
                      f"wall_s {result['metrics']['wall_s']['value']:.3f} "
                      f"runs {result['metrics']['runs']['value']}", file=sys.stderr)
                if failed(result):
                    print(f"FAILED: {w} seed {seed} {sides[k]['commit']}: exit "
                          f"{result['exit']}, correct {result.get('correct')}, "
                          f"failed {result.get('failed')}", file=sys.stderr)
                    lines = failure_lines(stderr)
                    why[("before", "after")[k]][w][seed] = lines
                    for line in lines:
                        print(f"  {line}", file=sys.stderr)

    for side in sides:
        side["summary"] = {
            w: {m: summary([r["metrics"][m]["value"] for r in runs])
                for m in runs[0]["metrics"]}
            for w, runs in side["runs"].items()}
    before, after = sides
    failed_runs = {name: {w: [r["seed"] for r in runs if failed(r)]
                          for w, runs in side["runs"].items()}
                   for name, side in zip(("before", "after"), sides)}
    out = {"seconds": args.seconds, "seeds": args.seeds, "checkouts": sides,
           "failed_runs": failed_runs, "failure_lines": why,
           "after_better": {
               w: {m: wins(before["runs"][w], after["runs"][w], m, better.get(m, "lower"))
                   for m in before["summary"][w]}
               for w in workloads}}
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if any(any(by_workload.values()) for by_workload in failed_runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
