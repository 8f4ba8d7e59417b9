"""Workload harness behavior: outcomes, metrics, resources, teardown."""

import os
import signal
import subprocess
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from slens.harness import (
    AppSpec,
    Limits,
    Readiness,
    ScriptMissing,
    judge,
    run_workload,
)
from slens.interposer import (
    KILL_GRACE,
    STUB,
    Command,
    FeatureId,
    LaunchFailure,
    Policy,
    ResourceSample,
    RunTrace,
    Whitelist,
    sample_resources,
    trace_run,
)
from slens.syscalls import name_to_nr

LIMITS = Limits(timeout=5.0)


def test_successful_batch_run(fixtures, app_spec_factory):
    outcome, trace = run_workload(app_spec_factory("writer"),
                                  Policy.allow_all(), LIMITS)
    assert outcome.success and outcome.reason == "script_ok"
    assert outcome.perf_metric is None
    assert name_to_nr("write") in {f.syscall_nr for f in trace.observed}


def test_script_failure(fixtures, app_spec_factory):
    spec = app_spec_factory("writer", script="fail.sh")
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert not outcome.success and outcome.reason == "script_fail"


def test_app_crash_wins_over_script_verdict(fixtures, app_spec_factory):
    """An abnormal app exit before script completion classifies as crash."""
    spec = app_spec_factory("prctl_abort")  # script waits for the app to exit
    policy = Policy.single(FeatureId(name_to_nr("prctl")), STUB)
    outcome, trace = run_workload(spec, policy, LIMITS)
    assert not outcome.success and outcome.reason == "crash"
    assert trace.exit_code == 2


def test_timeout_reason(fixtures, app_spec_factory):
    spec = app_spec_factory("sleeper", script="hang.sh")
    outcome, _ = run_workload(spec, Policy.allow_all(), Limits(timeout=0.6))
    assert not outcome.success and outcome.reason == "timeout"


def test_readiness_timeout_is_not_a_crash(fixtures, app_spec_factory):
    """A server that never listens on the polled port times out.  The
    harness's deadline is the run's only clock, and only trace_run sets
    ``timed_out``."""
    spec = app_spec_factory("sleeper", script="pass.sh", readiness=Readiness(port=0))

    def run(_):
        outcome, trace = run_workload(spec, Policy.allow_all(), Limits(timeout=0.3))
        return outcome.reason, trace.timed_out

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(run, range(10))) == [("timeout", False)] * 10


def test_clean_exit_under_port_readiness_is_a_crash_at_once(fixtures, app_spec_factory):
    """Once no process is left, no port can open: the run does not wait
    out its timeout."""
    spec = app_spec_factory("noop", script="pass.sh", readiness=Readiness(port=0))
    t0 = time.monotonic()
    outcome, trace = run_workload(spec, Policy.allow_all(), Limits(timeout=2.0))
    assert (outcome.reason, trace.exit_code) == ("crash", 0)
    assert time.monotonic() - t0 < 0.5


def test_crash_during_readiness_delay_ends_the_wait(fixtures, app_spec_factory):
    spec = app_spec_factory("prctl_abort", readiness=Readiness(delay=3.0))
    policy = Policy.single(FeatureId(name_to_nr("prctl")), STUB)
    t0 = time.monotonic()
    outcome, trace = run_workload(spec, policy, LIMITS)
    assert (outcome.reason, trace.exit_code) == ("crash", 2)
    assert time.monotonic() - t0 < 1.0


def _trace(exit_code, signaled, root_exit_at, timed_out=False):
    return RunTrace(observed=Counter(), exit_code=exit_code, signaled=signaled,
                    whitelisted_pids_seen=1, timed_out=timed_out,
                    root_exit_at=root_exit_at)


ENDED = 100.0  # when the harness stopped waiting on the app
TERM = _trace(None, signal.SIGTERM, 100.1)  # alive until teardown


@pytest.mark.parametrize("trace,ready,script_rc,reason", [
    (TERM, True, 0, "script_ok"),
    (_trace(0, None, 99.0), True, 0, "script_ok"),  # a batch app
    (TERM, True, 1, "script_fail"),
    (_trace(0, None, 99.0), True, 3, "script_fail"),
    (_trace(2, None, 99.0), True, 0, "crash"),
    (_trace(None, signal.SIGSEGV, 99.0), True, 1, "crash"),
    (_trace(2, None, 99.0), True, None, "crash"),  # before the script timed out
    (_trace(0, None, 99.0), False, None, "crash"),  # exited 0, never listened
    (_trace(2, None, 99.0), False, None, "crash"),
    (_trace(2, None, 100.1), True, 0, "script_ok"),  # exited 2 after the script
    (_trace(None, signal.SIGSEGV, 100.1), True, 1, "script_fail"),
    (TERM, True, None, "timeout"),  # the script ran out of time
    (TERM, False, None, "timeout"),  # never ready
    (_trace(None, None, None), False, None, "timeout"),  # root never reaped
])
def test_judge_sets_the_reason_from_the_final_trace(trace, ready, script_rc, reason):
    assert judge(trace, ready, script_rc, ENDED) == reason


def test_server_exiting_at_once_is_a_crash(fixtures):
    binary = fixtures.binary("echo_server")
    spec = AppSpec(
        name="echo", app_command=(binary, "{port}"),
        test_script=fixtures.script("echo_client.sh"),
        readiness=Readiness(port=0),
        whitelist=Whitelist.of_paths([binary]),
    )
    policy = Policy.single(FeatureId(name_to_nr("socket")), STUB)
    outcome, trace = run_workload(spec, policy, LIMITS)
    assert outcome.reason == "crash"
    assert trace.exit_code == 10 and not trace.timed_out


def test_short_runs_do_not_wait_for_long_ones(fixtures, app_spec_factory):
    """Runs overlap.  Each tracer closes the descriptors it inherits; one it
    kept could be another run's pipe, and that run would then wait for this
    tracer to end."""
    long_spec = app_spec_factory("sleeper", script="hang.sh")
    short_spec = app_spec_factory("writer")

    def long_runs(_):
        for _ in range(3):
            run_workload(long_spec, Policy.allow_all(), Limits(timeout=1.0))

    def short_runs(_):
        seen = []
        for _ in range(15):
            t0 = time.monotonic()
            outcome, _ = run_workload(short_spec, Policy.allow_all(), LIMITS)
            seen.append((outcome.reason, time.monotonic() - t0 < 0.8))
        return seen

    with ThreadPoolExecutor(max_workers=4) as pool:
        longs = [pool.submit(long_runs, i) for i in range(2)]
        shorts = [pool.submit(short_runs, i) for i in range(2)]
        seen = [s for f in shorts for s in f.result()]
        for f in longs:
            f.result()
    assert seen == [("script_ok", True)] * 30


def test_missing_script_raises(fixtures):
    spec = AppSpec(name="x", app_command=(fixtures.binary("noop"),),
                   test_script="/nonexistent/script.sh")
    with pytest.raises(ScriptMissing):
        run_workload(spec, Policy.allow_all(), LIMITS)


def test_perf_metric_round_trip(fixtures, app_spec_factory):
    """The metric equals the number the script printed, parsed as a real."""
    spec = app_spec_factory("noop", script="const_metric.sh")
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.success
    assert outcome.perf_metric == 42.5


def test_fresh_state_between_runs(fixtures, app_spec_factory):
    """Two identical runs of a deterministic fixture match exactly."""
    spec = app_spec_factory("writer")
    first_outcome, first_trace = run_workload(spec, Policy.allow_all(), LIMITS)
    second_outcome, second_trace = run_workload(spec, Policy.allow_all(), LIMITS)
    assert first_outcome.success == second_outcome.success
    assert set(first_trace.observed) == set(second_trace.observed)


def test_peak_fd_count(fixtures, app_spec_factory):
    """The fd-holding fixture keeps 100 files + stdio open while sampled."""
    spec = app_spec_factory("fd_hold")  # script holds until app exit
    outcome, trace = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.peak_fds >= 103
    assert trace.peak_fds == outcome.peak_fds


def test_peak_rss(fixtures, app_spec_factory):
    """The 64 MiB buffer must show up in the high-water RSS."""
    spec = app_spec_factory("mem_hold")  # script holds until app exit
    outcome, trace = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.peak_rss >= 64 * 1024 * 1024
    assert trace.peak_rss == outcome.peak_rss


def test_sigkilled_app_reads_its_memory_or_nothing(fixtures, app_spec_factory):
    """An app that its test script SIGKILLs after touching 64 MiB is read
    at its exit stop, or not at all (0, which flags leave out): never as the
    few KB of a freshly exec'd image."""
    spec = app_spec_factory("mem_hold", script="kill_app.sh")
    outcome, trace = run_workload(spec, Policy.allow_all(), LIMITS)
    assert trace.signaled == signal.SIGKILL
    assert outcome.peak_rss >= 64 * 1024 * 1024 or outcome.peak_rss == 0


def _threads() -> int:
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))


def test_run_adds_no_thread_to_its_caller(fixtures, app_spec_factory):
    """While the test script runs, its caller has as many threads as after
    the run: the session is read in the calling thread, and the tracer takes
    the resource readings.  (Counted after, not before: a thread that the
    previous test ended may still be exiting when this one starts.)"""
    spec = app_spec_factory("sleeper", script="caller_threads.sh")
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.success, outcome
    assert outcome.perf_metric == _threads()


def _children() -> set[int]:
    """This process's children, zombies included."""
    kids = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                if int(f.read().rsplit(")", 1)[1].split()[1]) == os.getpid():
                    kids.add(int(pid))
        except OSError:
            continue
    return kids


def test_failed_launch_leaves_no_child(app_spec_factory, tmp_path):
    """A launch the tracer refuses before announcing it (a file without
    execute permission) raises LaunchFailure, and the tracer is reaped."""
    app = tmp_path / "not_executable"
    app.write_text("")
    spec = app_spec_factory("noop", command=(str(app),))
    before = _children()
    with pytest.raises(LaunchFailure):
        run_workload(spec, Policy.allow_all(), LIMITS)
    assert _children() <= before


def test_failed_exec_runs_no_test_script(tmp_path):
    """The launch is known only at the app's exec, so a missing binary
    raises LaunchFailure before the test script could run once."""
    marker = tmp_path / "marker"
    script = tmp_path / "mark.sh"
    script.write_text(f"#!/bin/sh\necho ran >> {marker}\n")
    script.chmod(0o755)
    spec = AppSpec(name="missing", app_command=("/nonexistent/binary",),
                   test_script=str(script))
    with pytest.raises(LaunchFailure, match="^exec of /nonexistent/binary failed"):
        run_workload(spec, Policy.allow_all(), LIMITS)
    assert not marker.exists()


def test_teardown_leaves_no_survivors(fixtures, app_spec_factory):
    """After run_workload returns, the whole tree is gone."""
    binary = fixtures.binary("sleeper")

    def survivors() -> list[int]:
        alive = []
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                if os.readlink(f"/proc/{pid}/exe") == binary:
                    alive.append(int(pid))
            except OSError:
                continue
        return alive

    assert survivors() == []
    spec = app_spec_factory("sleeper", script="pass.sh")
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.success  # script passed while the app kept sleeping
    assert survivors() == []


def test_setsid_daemon_ends_with_the_run(fixtures, app_spec_factory):
    """A daemon that left the app's process group is ended with the rest
    of the tree, at once: the passing run is judged script_ok."""
    sleeper = fixtures.binary("sleeper")
    # The delay lets the shell exit before the script passes.
    spec = app_spec_factory("sleeper", script="pass.sh",
                            command=("/bin/sh", "-c", f"setsid {sleeper} & exit 0"),
                            readiness=Readiness(delay=0.3))
    t0 = time.monotonic()
    outcome, trace = run_workload(spec, Policy.allow_all(), Limits(timeout=3))
    assert (outcome.reason, trace.exit_code) == ("script_ok", 0)
    assert time.monotonic() - t0 < 2
    assert fixtures.running("sleeper") == []


def test_workload_ignoring_sigterm_is_killed_after_the_grace(fixtures, app_spec_factory):
    sleeper = fixtures.binary("sleeper")
    command = ("/bin/sh", "-c", f"trap '' TERM; exec {sleeper}")
    # The delay lets the shell ignore SIGTERM before the script passes.
    spec = app_spec_factory("sleeper", script="pass.sh", command=command,
                            readiness=Readiness(delay=0.3))
    t0 = time.monotonic()
    outcome, trace = run_workload(spec, Policy.allow_all(), LIMITS)
    elapsed = time.monotonic() - t0
    assert (outcome.reason, trace.signaled) == ("script_ok", signal.SIGKILL)
    assert KILL_GRACE <= elapsed < KILL_GRACE + 1.5
    assert fixtures.running("sleeper") == []

    trace = trace_run(Command(argv=command), Policy.allow_all(), Whitelist(),
                      Limits(timeout=0.4))
    assert (trace.timed_out, trace.signaled) == (True, signal.SIGKILL)


def test_workdir_is_isolated_and_cleaned(fixtures, app_spec_factory, tmp_path):
    before = set(os.listdir("/tmp"))
    outcome, _ = run_workload(app_spec_factory("writer"),
                              Policy.allow_all(), LIMITS)
    assert outcome.success
    leftovers = [d for d in set(os.listdir("/tmp")) - before
                 if d.startswith("slens-run-")]
    assert leftovers == []


def test_workdir_template_is_copied(fixtures, tmp_path):
    template = tmp_path / "template"
    template.mkdir()
    (template / "seed.txt").write_text("seeded")
    script = tmp_path / "check_seed.sh"
    script.write_text("#!/bin/sh\ntest \"$(cat seed.txt)\" = seeded\n")
    script.chmod(0o755)
    spec = AppSpec(
        name="seeded", app_command=(fixtures.binary("noop"),),
        test_script=str(script),
        whitelist=Whitelist.of_paths([fixtures.binary("noop")]),
        workdir_template=str(template),
    )
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.success


def test_echo_server_health_check(fixtures):
    """Server fixture: port readiness then one request/response."""
    binary = fixtures.binary("echo_server")
    spec = AppSpec(
        name="echo", app_command=(binary, "{port}"),
        test_script=fixtures.script("echo_client.sh"),
        readiness=Readiness(port=0),
        whitelist=Whitelist.of_paths([binary]),
    )
    outcome, trace = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.success, outcome
    observed = {f.syscall_nr for f in trace.observed}
    assert name_to_nr("accept") in observed
    assert name_to_nr("bind") in observed


# -- sample_resources


def test_sample_empty_pid_set():
    s = sample_resources([])
    assert (s.rss, s.fd_count) == (0, 0)


def test_sample_dead_pid_skipped():
    s = sample_resources([2**22 - 1])
    assert (s.rss, s.fd_count) == (0, 0)


def test_sample_sums_over_pids(fixtures, tmp_path):
    """Two identical processes yield the sum of their individual samples."""
    binary = fixtures.binary("mem_hold")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
    procs = [subprocess.Popen([binary], cwd=str(d)) for d in dirs]
    try:
        deadline = time.monotonic() + 10
        while (not all((d / "out.txt").exists() for d in dirs)
               and time.monotonic() < deadline):
            time.sleep(0.02)  # buffers fully touched once the marker appears
        singles = [sample_resources([p.pid]) for p in procs]
        combined = sample_resources([p.pid for p in procs])
        assert combined.rss == singles[0].rss + singles[1].rss
        assert combined.fd_count == singles[0].fd_count + singles[1].fd_count
        assert combined.rss >= 2 * 64 * 1024 * 1024
    finally:
        for p in procs:
            p.kill()
            p.wait()


def test_sample_reads_each_process_once():
    """A thread's tid names its whole process: listed beside the pid, it
    adds neither memory nor descriptors."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        both = sample_resources([os.getpid(), thread.native_id])
        after = sample_resources([os.getpid()])
    finally:
        done.set()
        thread.join()
    assert both.fd_count == after.fd_count
    assert 0 < both.rss <= after.rss  # VmHWM never falls


def test_resource_sample_validation():
    with pytest.raises(ValueError):
        ResourceSample(timestamp=0.0, rss=-1, fd_count=0)


def test_workload_hash_changes_with_script(fixtures, app_spec_factory, tmp_path):
    spec = app_spec_factory("writer")
    base = spec.workload_hash()
    assert base == spec.workload_hash()  # stable
    other = app_spec_factory("writer", script="pass.sh")
    assert other.workload_hash() != base
