#!/usr/bin/env python3
"""The slens benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every input is generated from the
seed, under ``.bench_work/`` in the checkout (the harness's run workdirs
too, through TMPDIR).  With ``--trace 0`` the timed passes run the package
untouched and the end-to-end metrics are printed; with ``--trace 1`` the
direct per-layer measurements of micro.py run in a fresh process, then one
untraced pass is followed by passes with span wrappers installed (see
spans.py), and the per-layer metrics are printed.  The last stdout line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (all load comes from this one process, parallelism 1):

    analyze-hot     one generated batch app whose runs make 900 traced
                    cheap syscalls and fork+exec an unlisted helper that
                    makes the same calls untraced; default AnalysisConfig.
    analyze-fleet   ten generated short-lived apps, one forking and one
                    interacting pair; default AnalysisConfig, fresh db root.
                    Not listed in BENCHMARK.json: too noisy on a shared
                    host (FINDINGS.md section 5); it runs by hand.
    analyze-server  an echo server with port readiness, driven by a bash
                    client; replicas=1, perf_runs=0.
    plan-db         100 synthetic confirmed profiles; `slens plan`,
                    `slens compare --order` and `slens importance`, all
                    with --json, through cli.main.

Every verdict, plan, curve and importance table is checked against an
oracle that is exact by construction (apps.py, dbgen.py).  A wrong class,
a wrong ``confirmed``, a raised analysis, an invalid plan, a non-zero exit,
a surviving process or a leftover run workdir counts as a failed
operation, and any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs": "count",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "interposer.session_ms.p50": "ms",
    "interposer.session_ms.p95": "ms",
    "interposer.syscalls_per_run": "count",
    "interposer.us_per_syscall.allow": "us",
    "interposer.us_per_syscall.stub": "us",
    "interposer.us_per_syscall.fake": "us",
    "interposer.native_us_per_syscall": "us",
    "interposer.launch_ms": "ms",
    "interposer.warnings": "count",
    "interposer.app_call_us": "us",
    "harness.run_ms.p50": "ms",
    "harness.run_ms.p95": "ms",
    "harness.noop_run_ms": "ms",
    "harness.noop_tracer_faults": "count",
    "harness.runs.script_ok": "count",
    "harness.runs.script_fail": "count",
    "harness.runs.crash": "count",
    "harness.runs.timeout": "count",
    "harness.runs.tracer_fault": "count",
    "harness.timeout_s": "s",
    "orchestrator.discover_s": "s",
    "orchestrator.probe_s": "s",
    "orchestrator.confirm_s": "s",
    "orchestrator.runs.discovery": "count",
    "orchestrator.runs.baseline": "count",
    "orchestrator.runs.probe": "count",
    "orchestrator.runs.confirmation": "count",
    "orchestrator.runs.retry": "count",
    "orchestrator.runs_per_feature": "ratio",
    "orchestrator.busy_ratio": "ratio",
    "orchestrator.regression_flags": "count",
    "store.save_ms.p50": "ms",
    "store.saves": "count",
    "store.load_db_s": "s",
    "store.profiles_loaded": "count",
    "store.import_os_csv_ms": "ms",
    "planner.generate_plan_s": "s",
    "planner.compare_strategies_self_s": "s",
    "planner.api_importance_s": "s",
    "planner.plan_steps": "count",
    "planner.implemented_total": "count",
    "cli.plan_s": "s",
    "cli.compare_s": "s",
    "cli.importance_s": "s",
    "self_s.interposer": "s",
    "self_s.harness": "s",
    "self_s.orchestrator": "s",
    "self_s.store": "s",
    "self_s.planner": "s",
    "self_s.cli": "s",
    "proc.cpu_s": "s",
    "src.lines": "count",
    "trace.overhead_s": "s",
}


def import_slens() -> None:
    """Import the package from this checkout's src/, or exit with an error."""
    if not (SRC / "slens" / "__init__.py").is_file():
        sys.exit(f"error: no slens package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import slens

    if Path(slens.__file__).resolve().parent != SRC / "slens":
        sys.exit(f"error: imported slens from {slens.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    """One timed execution of a workload, and what the oracle made of it."""

    wall: float = 0.0
    units: dict[str, float] = field(default_factory=dict)  # wall time per app or command
    refs: dict[str, float] = field(default_factory=dict)  # reference.seconds() around a unit
    runs: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        self.problems.append(problem)


class AnalyzeWorkload:
    def __init__(self, builder: str, config_kwargs: dict):
        self.builder = builder  # name of the apps.build_* function
        self.config_kwargs = config_kwargs

    def setup(self, rng: random.Random, d: Path):
        import apps

        built = getattr(apps, self.builder)(rng, d, apps.copy_scripts(d))
        return built if isinstance(built, list) else [built]

    def run(self, env, d: Path) -> Pass:
        from slens import AnalysisConfig, Orchestrator

        config = AnalysisConfig(**self.config_kwargs)
        p = Pass()
        t0 = time.perf_counter()
        profiles = []
        for app in env:
            orch = Orchestrator(app.spec, config)
            t_app = time.perf_counter()
            try:
                profiles.append((app, orch.full_analysis(db_root=str(d / "db"))))
            except Exception as exc:  # noqa: BLE001 - a raised analysis is a failure
                profiles.append((app, exc))
            p.units[app.spec.name] = time.perf_counter() - t_app
            p.runs += orch.executions
        p.wall = time.perf_counter() - t0
        for app, profile in profiles:
            self.check(app, profile, p)
        return p

    @staticmethod
    def check(app, profile, p: Pass) -> None:
        from slens.orchestrator import feature_label

        name = app.spec.name
        if isinstance(profile, Exception):
            p.attempted += len(app.expected) + 1
            p.fail(len(app.expected) + 1, f"{name}: analysis raised {profile!r}")
            return
        features = set(app.expected) | set(profile.classes)
        p.attempted += len(features) + 1
        for f in sorted(features):
            want, got = app.expected.get(f), profile.classes.get(f)
            if want != got:
                p.fail(1, f"{name}: {feature_label(f)} is {got}, expected {want}")
        if profile.confirmed != app.confirmed:
            p.fail(1, f"{name}: confirmed={profile.confirmed}, expected {app.confirmed}")


class PlanWorkload:
    def setup(self, rng: random.Random, d: Path):
        import dbgen

        return dbgen.generate(rng, d)

    def run(self, db, d: Path) -> Pass:
        import dbgen
        import slens.cli

        base = ["--db", str(db.root)]
        plan_args = base + ["--os-support", str(db.os_csv), "--json"]
        commands = [
            ("plan", ["plan", *plan_args], dbgen.check_plan),
            ("compare", ["compare", *plan_args, "--order", str(db.order)],
             dbgen.check_curves),
            ("importance", ["importance", *base, "--json"], dbgen.check_importance),
        ]
        p = Pass()
        outputs = {}
        for name, argv, _ in commands:
            sink = io.StringIO()
            ref = reference.seconds()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = slens.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed command
                rc = repr(exc)
            p.units[name] = time.perf_counter() - t0
            p.refs[name] = (ref + reference.seconds()) / 2
            p.wall += p.units[name]
            outputs[name] = (rc, sink.getvalue())
        p.runs = len(commands)
        for name, _, check in commands:
            rc, text = outputs[name]
            p.attempted += 1
            if rc != 0:
                p.fail(1, f"{name}: exit {rc}")
                continue
            out = json.loads(text)
            problems = check(db, out)
            if problems:
                p.fail(1, f"{name}: {'; '.join(problems)}")
            if name == "plan":
                p.counts["plan_steps"], p.counts["implemented_total"] = dbgen.plan_counts(out)
        return p


WORKLOADS = {
    "analyze-hot": lambda: AnalyzeWorkload("build_hot", {}),
    "analyze-fleet": lambda: AnalyzeWorkload("build_fleet", {}),
    "analyze-server": lambda: AnalyzeWorkload("build_server", {"replicas": 1, "perf_runs": 0}),
    "plan-db": PlanWorkload,
}


# ---------------------------------------------------------------------------
# Isolation


def _proc_link(pid: str, what: str) -> str:
    try:
        return os.readlink(f"/proc/{pid}/{what}").removesuffix(" (deleted)")
    except OSError:
        return ""


def _survivors(scope: Path) -> list[int]:
    """Live pids other than ours that descend from us, or whose executable
    or cwd lies under ``scope``.  A leaked tracer is a fork of this process;
    a leaked app may have been reparented away from it.  Zombies have ended:
    those that are our children (orphans reparent to us when we are pid 1
    of a namespace) are reaped, the others are skipped."""
    me = str(os.getpid())
    prefix = str(scope) + "/"
    parents = {}
    zombies = set()
    for pid in os.listdir("/proc"):
        if pid.isdigit() and pid != me:
            with contextlib.suppress(OSError):
                stat = Path(f"/proc/{pid}/stat").read_text()
                state, ppid = stat.rsplit(")", 1)[1].split()[:2]
                parents[pid] = ppid
                if state == "Z":
                    zombies.add(pid)
                    if ppid == me:
                        with contextlib.suppress(ChildProcessError):
                            os.waitpid(int(pid), os.WNOHANG)

    def descends(pid: str) -> bool:
        seen = set()
        while pid in parents and pid not in seen:
            seen.add(pid)
            pid = parents[pid]
            if pid == me:
                return True
        return False

    return [int(pid) for pid in parents
            if pid not in zombies
            and (descends(pid)
                 or any(_proc_link(pid, w).startswith(prefix) for w in ("exe", "cwd")))]


def check_isolation(scope: Path, tmp: Path, p: Pass) -> None:
    """One operation: no process of the pass survives, no workdir is left."""
    p.attempted += 1
    deadline = time.monotonic() + 2.0
    survivors = _survivors(scope)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = _survivors(scope)
    for pid in survivors:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    left = sorted(tmp.glob("slens-run-*"))
    for d in left:
        shutil.rmtree(d, ignore_errors=True)
    if survivors or left:
        p.fail(1, f"isolation: {len(survivors)} surviving processes, "
                  f"{len(left)} leftover workdirs")


# ---------------------------------------------------------------------------
# Measurement


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed_passes(workload, env, run_dir: Path, tmp: Path, seconds: float,
                 first: int = 0) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        d = run_dir / f"pass{first + len(passes)}"
        d.mkdir()
        p = workload.run(env, d)
        check_isolation(run_dir, tmp, p)
        shutil.rmtree(d, ignore_errors=True)
        passes.append(p)
        print(f"pass {first + len(passes) - 1}: wall {p.wall:.3f} s, {p.runs} runs, "
              f"{p.failed}/{p.attempted} failed", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if elapsed + median([q.wall for q in passes]) > seconds:
            return passes


def pass_wall(passes: list[Pass]) -> float:
    """The wall time of one pass: the sum over its units (analysed apps on
    analyze-*, CLI commands on plan-db) of each unit's median time.

    The host runs Python up to 2x slower for minutes at a time.  plan-db is
    Python computation alone, so each command is timed between runs of a
    fixed reference routine, and its sum is scaled to the reference's
    nominal speed.  The analyze-* passes wait on process launches, ptrace
    stops and timeouts, which that routine does not track; they are not
    scaled."""
    total = sum(median([p.units[u] for p in passes]) for u in passes[0].units)
    if passes[0].refs:
        total *= reference.NOMINAL_S / median([r for p in passes for r in p.refs.values()])
    return total


def end_to_end(setups: list[float], passes: list[Pass]) -> dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": median(setups),
        "wall_s": pass_wall(passes),
        "runs": median([p.runs for p in passes]),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def micro(d: Path, p: Pass) -> dict[str, float]:
    """The direct measurements of micro.py, taken in a fresh process."""
    d.mkdir()
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("micro.py")), str(d)],
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        p.attempted += 1
        p.fail(1, f"micro: {'timed out' if proc is None else proc.stderr[-2000:]}")
        return {}
    result = json.loads(proc.stdout.splitlines()[-1])
    p.attempted += result["attempted"]
    for problem in result["problems"]:
        p.fail(1, problem)
    return result["metrics"]


def run_phase(span) -> str:
    """The protocol phase of an ``orchestrator.run`` span, from its label."""
    label = span.attrs["label"]
    if label.endswith("/retry"):
        return "retry"
    return label if label in ("discovery", "baseline", "confirmation", "custom") else "probe"


def per_layer(tracer, passes: list[Pass], untraced: Pass, cpu: float,
              micro_metrics: dict[str, float]) -> dict[str, float]:
    from spans import self_times

    n = len(passes)
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    runs = named("harness.run_workload")
    analyses = named("orchestrator.full_analysis")
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(micro_metrics)

    sessions = [s.duration for s in named("interposer.session")]
    out["interposer.session_ms.p50"] = median(sessions) * 1e3
    out["interposer.session_ms.p95"] = percentile(sessions, 95) * 1e3
    out["interposer.syscalls_per_run"] = (
        statistics.fmean(s.attrs.get("observed", 0) for s in runs) if runs else 0.0)
    out["interposer.warnings"] = sum(s.attrs.get("warnings", 0) for s in runs) / n
    perf = [v for a in analyses for v in a.attrs.get("app_perf", ())]
    out["interposer.app_call_us"] = median(perf) / 1e3

    run_times = [s.duration for s in runs]
    out["harness.run_ms.p50"] = median(run_times) * 1e3
    out["harness.run_ms.p95"] = percentile(run_times, 95) * 1e3
    for reason in ("script_ok", "script_fail", "crash", "timeout", "tracer_fault"):
        out[f"harness.runs.{reason}"] = sum(s.attrs.get("reason") == reason for s in runs) / n
    out["harness.timeout_s"] = sum(s.duration for s in runs
                                   if s.attrs.get("reason") == "timeout") / n

    # Runs by protocol phase, from the label the orchestrator gives each run.
    labelled = named("orchestrator.run")
    for kind in ("discovery", "baseline", "probe", "confirmation", "retry"):
        out[f"orchestrator.runs.{kind}"] = sum(run_phase(s) == kind for s in labelled) / n
    out["orchestrator.discover_s"] = sum(s.duration for s in named("orchestrator.discover")) / n
    out["orchestrator.probe_s"] = sum(s.duration for s in named("orchestrator.probe_feature")) / n
    out["orchestrator.confirm_s"] = sum(
        s.duration for s in labelled if s.attrs["label"].startswith("confirmation")) / n
    features = sum(a.attrs.get("features", 0) for a in analyses)
    analysed_runs = [s for s in runs if parent_name(s) == "orchestrator.run"]
    out["orchestrator.runs_per_feature"] = len(analysed_runs) / features if features else 0.0
    span_total = sum(a.duration for a in analyses)
    out["orchestrator.busy_ratio"] = (
        sum(s.duration for s in analysed_runs) / span_total if span_total else 0.0)
    out["orchestrator.regression_flags"] = sum(
        a.attrs.get("regression_flags", 0) for a in analyses) / n

    saves = [s.duration for s in named("store.save_profile")]
    out["store.save_ms.p50"] = median(saves) * 1e3
    out["store.saves"] = len(saves) / n
    loads = named("store.load_db")
    out["store.load_db_s"] = median([s.duration for s in loads])
    out["store.profiles_loaded"] = median([s.attrs.get("profiles", 0) for s in loads])
    out["store.import_os_csv_ms"] = median(
        [s.duration for s in named("store.import_os_csv")]) * 1e3

    out["planner.generate_plan_s"] = sum(s.duration for s in named("planner.generate_plan")) / n
    compares = named("planner.compare_strategies")
    nested = sum(s.duration for s in named("planner.generate_plan")
                 if parent_name(s) == "planner.compare_strategies")
    out["planner.compare_strategies_self_s"] = (sum(s.duration for s in compares) - nested) / n
    out["planner.api_importance_s"] = sum(s.duration for s in named("planner.api_importance")) / n
    out["planner.plan_steps"] = median([p.counts.get("plan_steps", 0) for p in passes])
    out["planner.implemented_total"] = median([p.counts.get("implemented_total", 0)
                                               for p in passes])
    for cmd in ("plan", "compare", "importance"):
        out[f"cli.{cmd}_s"] = sum(s.duration for s in named("cli.main")
                                  if s.attrs.get("command") == cmd) / n

    for layer, t in self_times(spans).items():
        out[f"self_s.{layer}"] = t / n
    out["proc.cpu_s"] = cpu / n
    out["src.lines"] = sum(len(f.read_text().splitlines())
                           for f in (SRC / "slens").rglob("*.py"))
    out["trace.overhead_s"] = median([p.wall for p in passes]) - untraced.wall
    return out


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_slens()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    # Isolation: apps read fd 0 when accept is faked, so it must not depend
    # on how the benchmark was started.
    devnull = os.open(os.devnull, os.O_RDONLY)
    if devnull != 0:  # 0 when the benchmark was started with stdin closed
        os.dup2(devnull, 0)
        os.close(devnull)

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None

    workload = WORKLOADS[args.workload]()
    try:
        setups = []
        env = None
        for i in range(1 if args.trace else SETUPS):
            d = run_dir / f"setup{i}"
            d.mkdir()
            t0 = time.perf_counter()
            env = workload.setup(random.Random(args.seed), d)
            setups.append(time.perf_counter() - t0)
            print(f"setup {i}: {setups[-1]:.3f} s", file=sys.stderr)

        if not args.trace:
            passes = timed_passes(workload, env, run_dir, tmp, args.seconds)
            metrics = end_to_end(setups, passes)
            units = END_TO_END
        else:
            from spans import Tracer

            t0 = time.perf_counter()
            extra = Pass()
            micro_metrics = micro(run_dir / "micro", extra)
            untraced = timed_passes(workload, env, run_dir, tmp, 0)[0]
            cpu0 = cpu_seconds()
            with Tracer() as tracer:
                passes = timed_passes(workload, env, run_dir, tmp,
                                      args.seconds - (time.perf_counter() - t0), first=1)
            cpu = cpu_seconds() - cpu0
            tracer.write(WORK / "spans" / f"{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(tracer, passes, untraced, cpu, micro_metrics)
            passes = [extra, untraced, *passes]
            units = PER_LAYER
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes))
    for p in passes:
        for problem in p.problems:
            print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
