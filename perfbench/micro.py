"""Direct per-layer measurements on the noop and loop apps.

    python3 perfbench/micro.py DIR

run.py starts this in a fresh process, so the figures do not depend on the
heap a workload's passes left behind: every trace session forks the
calling Python process.  It builds the apps under DIR and prints one JSON
object: ``{"metrics": {...}, "attempted": n, "problems": [...]}``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import import_slens, median


def measure(d: Path) -> tuple[dict[str, float], int, list[str]]:
    import apps
    from slens import (STUB, AppSpec, Command, FeatureId, Limits, Policy, Whitelist,
                       fake, run_workload, syscalls, trace_run)
    from slens.harness import REASON_TRACER_FAULT

    m = apps.build_micro(d, apps.copy_scripts(d))
    limits = Limits(timeout=60)
    attempted = 0
    problems: list[str] = []

    def traced(binary: Path, policy: Policy) -> tuple[float, int]:
        nonlocal attempted
        cmd = Command(argv=(str(binary),), cwd=str(d), stdout_path=str(d / "micro.out"))
        t0 = time.perf_counter()
        trace = trace_run(cmd, policy, Whitelist(), limits)
        dt = time.perf_counter() - t0
        attempted += 1
        if trace.exit_code != 0:
            problems.append(f"micro: {binary.name} exited {trace.exit_code}/{trace.signaled}")
        return dt, sum(trace.observed.values())

    out = {}
    launch = median([traced(m.noop, Policy.allow_all())[0] for _ in range(10)])
    out["interposer.launch_ms"] = launch * 1e3
    getppid = FeatureId(syscalls.name_to_nr("getppid"))
    for name, policy in (("allow", Policy.allow_all()),
                         ("stub", Policy.single(getppid, STUB)),
                         ("fake", Policy.single(getppid, fake(0)))):
        samples = [traced(m.loop, policy) for _ in range(3)]
        calls = median([n for _, n in samples])
        out[f"interposer.us_per_syscall.{name}"] = (
            (median([t for t, _ in samples]) - launch) / calls * 1e6)
    native = [int(apps.run_native([str(m.loop)], d / "native-loop")) for _ in range(3)]
    out["interposer.native_us_per_syscall"] = median(native) / 1e3

    # A tracer fault is retried once, as run_workload's contract asks of its
    # callers and as the orchestrator does; the faults are counted.
    spec = AppSpec(name="noop", app_command=(str(m.noop),), test_script=m.pass_script)
    walls = []
    faults = 0
    for _ in range(10):
        for _ in range(2):
            t0 = time.perf_counter()
            outcome, _ = run_workload(spec, Policy.allow_all(), Limits())
            if outcome.reason != REASON_TRACER_FAULT:
                break
            faults += 1
        walls.append(time.perf_counter() - t0)
        attempted += 1
        if not outcome.success:
            problems.append(f"micro: noop run {outcome.reason}")
    out["harness.noop_run_ms"] = median(walls) * 1e3
    out["harness.noop_tracer_faults"] = faults
    return out, attempted, problems


if __name__ == "__main__":
    import_slens()
    metrics, attempted, problems = measure(Path(sys.argv[1]).resolve())
    print(json.dumps({"metrics": metrics, "attempted": attempted, "problems": problems}))
