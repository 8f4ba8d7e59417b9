"""Workload harness behavior: outcomes, metrics, resources, teardown."""

import os
import signal
import socket
import subprocess
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from slens import harness
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
    RunTrace,
    Whitelist,
    sample_resources,
    trace_run,
)
from slens.syscalls import name_to_nr

from conftest import children, thread_tracer

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


def _background_sleep(fixtures, tmp_path, tail: str,
                      background: str = "sleep 600") -> tuple[AppSpec, Path]:
    """A spec whose script runs ``background`` in the background, writes its
    pid to the returned file and then runs ``tail``."""
    pidfile = tmp_path / "sleep.pid"
    script = tmp_path / "background.sh"
    script.write_text(f"#!/bin/sh\n{background} &\necho $! > {pidfile}\n{tail}\n")
    script.chmod(0o755)
    return AppSpec(name="background", app_command=(fixtures.binary("sleeper"),),
                   test_script=str(script)), pidfile


def _gone(pid: int, within: float = 1.0) -> bool:
    """Whether ``pid`` has no /proc entry, or is a zombie, within ``within`` s."""
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as f:
                gone = f.read().rsplit(")", 1)[1].split()[0] == "Z"
        except FileNotFoundError:
            gone = True
        if gone or time.monotonic() > deadline:
            return gone
        time.sleep(0.02)


def test_script_exit_is_not_held_by_its_children(fixtures, tmp_path):
    """The run waits for the script's exit, not for its stdout to close:
    a background child that keeps the stdout open delays nothing, and it
    ends with the run."""
    spec, pidfile = _background_sleep(fixtures, tmp_path, "echo 42")
    outcome, _ = run_workload(spec, Policy.allow_all(), Limits(timeout=5.0))
    assert (outcome.reason, outcome.perf_metric) == ("script_ok", 42.0)
    assert outcome.duration < 2.0
    assert _gone(int(pidfile.read_text()))


def test_script_timeout_ends_its_children(fixtures, tmp_path):
    spec, pidfile = _background_sleep(fixtures, tmp_path, "wait")
    outcome, _ = run_workload(spec, Policy.allow_all(), Limits(timeout=0.6))
    assert outcome.reason == "timeout"
    assert _gone(int(pidfile.read_text()))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10 step A: a script child that "
                   "calls setsid leaves the process group that the run kills")
def test_setsid_script_child_ends_with_the_run(fixtures, tmp_path):
    """A script child in a session of its own ends with the run too.  The
    script waits until the child has left its group, so the group kill
    cannot catch it first."""
    spec, pidfile = _background_sleep(
        fixtures, tmp_path,
        'until [ "$(cut -d" " -f6 /proc/$!/stat)" = "$!" ]; do sleep 0.01; done',
        background="setsid sleep 600")
    try:
        outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
        assert outcome.reason == "script_ok"
        assert _gone(int(pidfile.read_text()))
    finally:
        if pidfile.exists() and not _gone(int(pidfile.read_text()), within=0):
            os.kill(int(pidfile.read_text()), signal.SIGKILL)


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


@pytest.mark.parametrize("readiness,reason", [
    (Readiness(port=0), "timeout"),
    (Readiness(delay=0.5), "script_ok"),
], ids=["port", "delay"])
def test_ready_timeout_bounds_the_port_wait_only(fixtures, app_spec_factory,
                                                  readiness, reason):
    """``ready_timeout`` ends a port wait early; a readiness delay is always
    waited out in full."""
    spec = app_spec_factory("sleeper", script="pass.sh", readiness=readiness)
    outcome, _ = run_workload(spec, Policy.allow_all(),
                              Limits(timeout=5.0, ready_timeout=0.2))
    assert outcome.reason == reason
    if reason == "timeout":
        assert outcome.ready_s is None and 0.2 <= outcome.duration < 0.5
    else:
        assert outcome.ready_s >= 0.5


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


def test_readiness_checks_back_off_from_1_ms_to_20_ms(monkeypatch):
    """The pause between port checks starts at no more than 2 ms, never
    shrinks, and never exceeds 20 ms."""
    pauses = []

    def sleep(seconds):
        pauses.append(seconds)
        time.sleep(seconds)

    class Running:  # a session whose app runs on and never opens its port
        def finished(self):
            return False

        def root_status(self):
            return None

    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=time.monotonic,
                                                         sleep=sleep))
    with socket.socket() as closed:  # bound, not listening: refuses at once
        closed.bind(("127.0.0.1", 0))
        now = time.monotonic()
        assert not harness._wait_ready(closed.getsockname()[1], now, now + 0.25, Running())
    assert pauses and pauses[0] <= 0.002
    assert pauses == sorted(pauses) and max(pauses) <= 0.02


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
    (replace(TERM, runaway=True), True, 0, "runaway"),  # past the hit cap
    (replace(_trace(2, None, 99.0), runaway=True), False, None, "runaway"),
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


def test_relative_script_is_the_one_validated(fixtures, tmp_path, monkeypatch):
    """A relative test script names a file under the caller's cwd, where
    ``validate`` found it, not under the run's working directory."""
    script = tmp_path / "check.sh"
    script.write_text("#!/bin/sh\necho 7\n")
    script.chmod(0o755)
    monkeypatch.chdir(tmp_path)
    spec = AppSpec(name="relative", app_command=(fixtures.binary("noop"),),
                   test_script="check.sh")
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert (outcome.reason, outcome.perf_metric) == ("script_ok", 7.0)


@pytest.mark.parametrize("text,error", [
    ("exit 0\n", "Exec format error"),
    ("#!/nonexistent/sh\nexit 0\n", "No such file or directory"),
], ids=["no-shebang", "missing-interpreter"])
def test_script_the_kernel_cannot_exec_raises(fixtures, tmp_path, text, error):
    """An executable script that exec refuses raises ScriptMissing naming
    it, and the run's tree is still ended: the run was read to its result,
    and no child is left but the thread's idle tracer."""
    script = tmp_path / "check.sh"
    script.write_text(text)
    script.chmod(0o755)
    spec = AppSpec(name="noexec", app_command=(fixtures.binary("sleeper"),),
                   test_script=str(script))
    before = children()
    with pytest.raises(ScriptMissing, match=f"^test script {script} cannot be executed: "
                                            f"{error}$"):
        run_workload(spec, Policy.allow_all(), LIMITS)
    assert fixtures.running("sleeper") == []
    tracer = thread_tracer()
    assert tracer is not None  # the session gave it back to the thread
    assert children() <= before | {tracer.pid}


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


def test_failed_launch_leaves_no_child(app_spec_factory, tmp_path):
    """A launch the tracer refuses before announcing it (a file without
    execute permission) raises LaunchFailure, and the tracer is reaped."""
    app = tmp_path / "not_executable"
    app.write_text("")
    spec = app_spec_factory("noop", command=(str(app),))
    before = children()
    with pytest.raises(LaunchFailure):
        run_workload(spec, Policy.allow_all(), LIMITS)
    assert children() <= before


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


def test_workdir_is_isolated_and_cleaned(fixtures, app_spec_factory, tmp_path,
                                        monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outcome, _ = run_workload(app_spec_factory("writer"),
                              Policy.allow_all(), LIMITS)
    assert outcome.success
    assert not list(tmp_path.glob("slens-run-*"))


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


def test_workdir_stays_private_with_a_template(fixtures, tmp_path):
    """Copying a 0755 template leaves the run directory 0700."""
    template = tmp_path / "template"
    template.mkdir()
    template.chmod(0o755)
    script = tmp_path / "check_mode.sh"
    script.write_text("#!/bin/sh\ntest \"$(stat -c %a .)\" = 700\n")
    script.chmod(0o755)
    spec = AppSpec(name="private", app_command=(fixtures.binary("noop"),),
                   test_script=str(script), workdir_template=str(template))
    outcome, _ = run_workload(spec, Policy.allow_all(), LIMITS)
    assert outcome.success


def test_missing_template_leaves_no_workdir(fixtures, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec = AppSpec(name="untemplated", app_command=(fixtures.binary("noop"),),
                   test_script=fixtures.script("pass.sh"),
                   workdir_template=str(tmp_path / "missing"))
    with pytest.raises(FileNotFoundError):
        run_workload(spec, Policy.allow_all(), LIMITS)
    assert not list(tmp_path.glob("slens-run-*"))


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
    assert sample_resources([]) == (0, 0)


def test_sample_dead_pid_skipped():
    assert sample_resources([2**22 - 1]) == (0, 0)


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
        (rss_a, fds_a), (rss_b, fds_b) = [sample_resources([p.pid]) for p in procs]
        rss, fds = sample_resources([p.pid for p in procs])
        assert rss == rss_a + rss_b
        assert fds == fds_a + fds_b
        assert rss >= 2 * 64 * 1024 * 1024
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
        both_rss, both_fds = sample_resources([os.getpid(), thread.native_id])
        after_rss, after_fds = sample_resources([os.getpid()])
    finally:
        done.set()
        thread.join()
    assert both_fds == after_fds
    assert 0 < both_rss <= after_rss  # VmHWM never falls


def test_workload_hash_changes_with_script(fixtures, app_spec_factory, tmp_path):
    spec = app_spec_factory("writer")
    base = spec.workload_hash()
    assert base == spec.workload_hash()  # stable
    other = app_spec_factory("writer", script="pass.sh")
    assert other.workload_hash() != base


def test_workload_hash_is_pinned(tmp_path):
    """Stored profiles are keyed by this hash: a change to what it covers
    moves every stored key, so its value for a fixed spec is a literal."""
    script = tmp_path / "pinned.sh"
    script.write_bytes(b"#!/bin/sh\nexit 0\n")
    script.chmod(0o755)
    spec = AppSpec(name="pinned", app_command=("/bin/true", "{port}"),
                   test_script=str(script), readiness=Readiness(port=0))
    assert spec.workload_hash() == "6b48857748757408"
