"""Trace engine behavior on compiled fixtures."""

import errno
import gc
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import slens._ptrace
import slens.interposer
from slens.interposer import (
    ALLOW,
    MAX_TIMEOUT,
    Command,
    FeatureId,
    LaunchFailure,
    Limits,
    Policy,
    STUB,
    TraceSession,
    TracerFault,
    Whitelist,
    fake,
    trace_run,
)
from slens.syscalls import name_to_nr

from conftest import children, thread_tracer
from reference_tracer import LAUNCH_SYSCALLS, traced_syscall_set

LIMITS = Limits(timeout=5.0)

EXIT_GROUP = name_to_nr("exit_group")
WRITE = name_to_nr("write")
UNAME = name_to_nr("uname")
OPENAT = name_to_nr("openat")
GETPID = name_to_nr("getpid")
PRCTL = name_to_nr("prctl")
IOCTL = name_to_nr("ioctl")
FORK = name_to_nr("fork")


def within(seconds, condition):
    """Whether ``condition()`` holds within ``seconds``."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


def run_fixture(fixtures, name, policy=None, whitelist=None, cwd=None, argv=(),
                discovery=True):
    binary = fixtures.binary(name)
    return trace_run(
        Command(argv=(binary, *argv), cwd=cwd),
        policy or Policy.allow_all(),
        whitelist if whitelist is not None else Whitelist.of_paths([binary]),
        LIMITS,
        discovery=discovery,
    )


def syscall_set(trace) -> set[int]:
    return {f.syscall_nr for f in trace.observed}


def test_noop_fixture_observes_exit_group(fixtures):
    trace = run_fixture(fixtures, "noop")
    assert EXIT_GROUP in syscall_set(trace)
    assert trace.exit_code == 0
    assert trace.signaled is None
    assert not trace.timed_out
    assert trace.whitelisted_pids_seen == 1


def test_run_ending_at_once_is_read(fixtures):
    """The tracer reads a measured process at its exit stop, so a run far
    shorter than any sampling period still has its memory read."""
    trace = run_fixture(fixtures, "noop")
    assert trace.exit_code == 0
    assert trace.peak_rss > 0


def test_static_fixture_reads_the_same_every_run(fixtures, tmp_path):
    """The tracee runs without address-space randomisation, so a static
    fixture's stack covers the same pages and its reading repeats."""
    traces = [run_fixture(fixtures, "writer", cwd=tmp_path) for _ in range(20)]
    if any("randomisation" in w for t in traces for w in t.warnings):
        pytest.skip("this host refuses personality(ADDR_NO_RANDOMIZE)")
    assert len({t.peak_rss for t in traces}) == 1


def test_threaded_process_is_read_at_its_last_exit():
    """Threads that end early free nothing; a process is read when its last
    thread exits, here by exit_group while four threads sleep."""
    code = ("import os, threading, time\n"
            "for _ in range(4):\n"
            "    t = threading.Thread(target=time.sleep, args=(0,)); t.start(); t.join()\n"
            "for _ in range(4):\n"
            "    threading.Thread(target=time.sleep, args=(60,), daemon=True).start()\n"
            "buf = b'x' * (32 << 20)\n"
            "os._exit(0)\n")
    exe = os.path.realpath(sys.executable)
    trace = trace_run(Command(argv=(exe, "-c", code)), Policy.allow_all(),
                      Whitelist.of_paths([exe]), LIMITS, discovery=False)
    assert trace.exit_code == 0
    assert trace.peak_rss >= 32 << 20


def test_exec_from_a_thread_is_read(fixtures):
    """A thread that execs takes over its process's pid; the tracer drops
    the thread's old tid, so the new image is read at its exit."""
    names = ("thread_exec", "noop")
    trace = run_fixture(fixtures, "thread_exec", cwd=fixtures.bindir,
                        whitelist=Whitelist.of_paths([fixtures.binary(n) for n in names]))
    assert trace.exit_code == 0
    assert trace.peak_rss > 0


@pytest.mark.parametrize("discovery", [True, False])
def test_genuine_sigtrap_is_delivered(discovery):
    """A SIGTRAP the workload sends itself kills it, as it does natively."""
    trace = trace_run(Command(argv=("/bin/sh", "-c", "kill -TRAP $$; echo survived")),
                      Policy.allow_all(), Whitelist(), LIMITS, discovery=discovery)
    assert trace.signaled == signal.SIGTRAP
    assert trace.exit_code is None


def test_exact_footprint_of_static_fixture(fixtures):
    trace = run_fixture(fixtures, "uname_write")
    assert syscall_set(trace) == {UNAME, WRITE, EXIT_GROUP}
    assert all(count == 1 for count in trace.observed.values())


def test_cross_check_against_independent_tracer(fixtures):
    """The engine's observed set must match an independent ptrace stepper.

    The reference set additionally contains the launch plumbing (execve of
    the image, the SIGSTOP handshake kill) that the engine deliberately
    excludes by starting at the first exec event.
    """
    binary = fixtures.binary("uname_write")
    reference = traced_syscall_set([binary])
    engine = syscall_set(run_fixture(fixtures, "uname_write"))
    assert engine == reference - LAUNCH_SYSCALLS


def test_exit_code_propagates(fixtures, tmp_path):
    allow = run_fixture(fixtures, "prctl_abort", cwd=str(tmp_path))
    assert allow.exit_code == 0
    stubbed = run_fixture(fixtures, "prctl_abort",
                          policy=Policy.single(FeatureId(PRCTL), STUB),
                          cwd=str(tmp_path))
    assert stubbed.exit_code == 2


def test_decisions_equal_policy_lookup(fixtures):
    policy = Policy(overrides={FeatureId(WRITE): STUB, FeatureId(UNAME): fake()})
    trace = run_fixture(fixtures, "uname_write", policy=policy)
    assert all(c >= 1 for c in trace.observed.values())


def test_suppression_prevents_kernel_execution(fixtures, tmp_path):
    """Stubbed openat must never reach the kernel: no file appears."""
    trace = run_fixture(fixtures, "writer",
                        policy=Policy.single(FeatureId(OPENAT), STUB),
                        cwd=str(tmp_path))
    assert not (tmp_path / "out.txt").exists()
    assert trace.exit_code == 0  # the fixture itself tolerates the failure
    allow = run_fixture(fixtures, "writer", cwd=str(tmp_path))
    assert (tmp_path / "out.txt").read_text() == "OK"
    assert allow.exit_code == 0


def test_injected_return_values(fixtures, tmp_path):
    """A stubbed call returns -ENOSYS, a faked one returns the success code."""

    def returned(policy):
        run_fixture(fixtures, "errno_echo", policy=policy, cwd=str(tmp_path))
        return (tmp_path / "ret.txt").read_text()

    assert returned(Policy.allow_all()) == "0"
    assert returned(Policy.single(FeatureId(UNAME), STUB)) == "-38"
    assert returned(Policy.single(FeatureId(UNAME), fake())) == "0"
    assert returned(Policy.single(FeatureId(UNAME), fake(5))) == "5"


def test_non_discovery_run_observes_only_trapped_calls(fixtures):
    """Outside discovery only the overridden syscalls stop: the fake uname
    is hit once, write and exit_group run untrapped, and an allow-all run
    makes no stop at all.  A default action other than allow traps every
    syscall."""
    faked = run_fixture(fixtures, "uname_write",
                        policy=Policy.single(FeatureId(UNAME), fake()),
                        discovery=False)
    assert faked.observed == Counter({FeatureId(UNAME): 1})
    assert faked.exit_code == 0
    baseline = run_fixture(fixtures, "uname_write", discovery=False)
    assert baseline.observed == Counter()
    assert baseline.exit_code == 0
    default_stub = Policy(overrides={FeatureId(WRITE): ALLOW, FeatureId(EXIT_GROUP): ALLOW},
                          default_action=STUB)
    stubbed = run_fixture(fixtures, "uname_write", policy=default_stub, discovery=False)
    assert stubbed.observed == Counter({FeatureId(nr): 1 for nr in (UNAME, WRITE, EXIT_GROUP)})
    assert stubbed.exit_code == 0


def test_failed_filter_install_names_the_step(fixtures, monkeypatch):
    """The forked tracer and its child inherit the patched install."""

    def refuse(prog):
        raise OSError(errno.EPERM, "refused")

    monkeypatch.setattr(slens._ptrace, "install_seccomp", refuse)
    with pytest.raises(LaunchFailure, match=r"^seccomp filter install .* \(errno 1\)$"):
        run_fixture(fixtures, "noop")


@pytest.mark.parametrize("command,step", [
    (Command(argv=("/bin/true",), cwd="/nonexistent-dir"), "chdir to /nonexistent-dir"),
    (Command(argv=("/bin/true",), stdout_path="/nonexistent-dir/out.log"),
     "open of /nonexistent-dir/out.log"),
    (Command(argv=("/bin/true",), stderr_path="/nonexistent-dir/err.log"),
     "open of /nonexistent-dir/err.log"),
], ids=["cwd", "stdout", "stderr"])
def test_failed_launch_names_the_step(command, step):
    """Two failures before the exec are told apart from a failed exec."""
    with pytest.raises(LaunchFailure) as info:
        trace_run(command, Policy.allow_all(), Whitelist(), LIMITS)
    assert str(info.value) == f"{step} failed: No such file or directory (errno 2)"


def test_timeout_kills_tree(fixtures):
    binary = fixtures.binary("sleeper")
    trace = trace_run(Command(argv=(binary,)), Policy.allow_all(),
                      Whitelist.of_paths([binary]),
                      Limits(timeout=0.4))
    assert trace.timed_out
    assert trace.signaled == signal.SIGTERM


def test_hit_cap_ends_a_spinning_tree(fixtures, tmp_path):
    """A faked write makes the spinner retry forever.  The call past the cap
    makes the tracer's own stop request: one reading, SIGTERM to the tree,
    and no process left."""
    binary = fixtures.binary("spinner")
    trace = trace_run(Command(argv=(binary,), cwd=str(tmp_path)),
                      Policy.single(FeatureId(WRITE), fake()),
                      Whitelist.of_paths([binary]), Limits(timeout=5.0, hit_cap=10),
                      discovery=False)
    assert trace.runaway and not trace.timed_out
    assert trace.observed == Counter({FeatureId(WRITE): 11})
    assert trace.signaled == signal.SIGTERM and trace.peak_rss > 0
    assert fixtures.running("spinner") == []


def test_signal_right_after_launch_is_traced(fixtures):
    """A signal sent as soon as app_pid is known reaches a traced child.

    The pid is announced only once the child has exec'd under ptrace, so
    the signal is forwarded and ends the run as signaled, never as a tracer
    fault from a child killed before PTRACE_TRACEME.
    """
    binary = fixtures.binary("sleeper")
    for _ in range(20):
        session = TraceSession.start(Command(argv=(binary,)), Policy.allow_all(),
                                     Whitelist.of_paths([binary]))
        assert session.app_pid > 0
        session.stop()
        trace = session.wait(timeout=30)
        assert (trace.exit_code, trace.signaled, trace.timed_out) == (
            None, signal.SIGTERM, False)


def test_killed_caller_leaves_no_survivors(fixtures):
    """The caller's death is a stop request (PR_SET_PDEATHSIG), so its run
    does not outlive it until some timeout."""
    code = ("import sys\n"
            "from slens.interposer import Command, Limits, Policy, Whitelist, trace_run\n"
            "trace_run(Command(argv=(sys.argv[1],)), Policy.allow_all(), Whitelist(),\n"
            "          Limits(timeout=60))\n")
    src = str(Path(slens._ptrace.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    caller = subprocess.Popen([sys.executable, "-c", code, fixtures.binary("sleeper")],
                              env=env)
    try:
        assert within(10, lambda: fixtures.running("sleeper"))
    finally:
        caller.kill()
        caller.wait(timeout=10)
    assert within(3, lambda: not fixtures.running("sleeper"))


def test_interrupted_tracer_does_not_unwind_the_caller(fixtures):
    """A SIGINT to the tracer (a terminal's Ctrl-C reaches the whole process
    group) ends the tracer only: the forked copy of the caller's stack is
    never unwound, so the caller's ``finally`` runs once, in the caller.
    The caller first restores Python's SIGINT handler, which a background
    job of a non-interactive shell starts without (SIGINT ignored)."""
    code = ("import os, signal, sys\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from slens.interposer import (Command, Policy, TraceSession,\n"
            "                              TracerFault, Whitelist)\n"
            "try:\n"
            "    session = TraceSession.start(Command(argv=(sys.argv[1],)),\n"
            "                                 Policy.allow_all(), Whitelist())\n"
            "    session.app_pid\n"
            "    os.kill(session._tracer_pid, signal.SIGINT)\n"
            "    try:\n"
            "        session.wait(timeout=10)\n"
            "    except TracerFault:\n"
            "        pass\n"
            "finally:\n"
            "    print('finally', os.getpid(), flush=True)\n")
    src = str(Path(slens._ptrace.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    caller = subprocess.Popen([sys.executable, "-c", code, fixtures.binary("sleeper")],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    out, err = caller.communicate(timeout=30)
    assert out.splitlines() == [f"finally {caller.pid}"], err
    assert caller.returncode == 0, err


def test_result_larger_than_the_pipe_survives_stop(fixtures):
    """The result may wait for a reader.  A tree that ended by itself, with
    a result larger than the pipe holds, is still returned whole by stop(),
    whose SIGTERM reaches the tracer while it waits in that write."""
    binary = fixtures.binary("many_ioctls")
    session = TraceSession.start(Command(argv=(binary,)), Policy.allow_all(),
                                 Whitelist.of_paths([binary]))
    deadline = time.monotonic() + 10
    while session.root_status() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.5)  # the tracer encodes the result and fills the pipe
    trace = session.stop()
    assert trace.exit_code == 0
    assert len(pickle.dumps(trace)) > 65536  # a Linux pipe's default capacity
    assert sum(f.syscall_nr == IOCTL for f in trace.observed) == 4000


def test_stop_request_after_the_result_spares_the_next_run(fixtures):
    """A thread's tracer serves its next run too.  A stop request that
    reaches it after its run's result does nothing, so the next run, of an
    app that exits 0 by itself, is neither stopped nor signalled."""
    noop, ioctls = fixtures.binary("noop"), fixtures.binary("many_ioctls")
    session = TraceSession.start(Command(argv=(noop,)), Policy.allow_all(), Whitelist())
    assert session.wait(timeout=10).exit_code == 0
    os.kill(session._tracer_pid, signal.SIGTERM)
    nxt = TraceSession.start(Command(argv=(ioctls,)), Policy.allow_all(),
                             Whitelist.of_paths([ioctls]))
    trace = nxt.wait(timeout=30)
    assert nxt._tracer_pid == session._tracer_pid
    assert (trace.exit_code, trace.signaled) == (0, None)


def test_a_session_gets_the_callers_current_environment_and_cwd(fixtures, tmp_path,
                                                                 monkeypatch):
    """The thread's tracer outlives the caller's state at its fork: each run
    gets the environment and working directory the caller has at its
    start."""
    noop = fixtures.binary("noop")
    trace_run(Command(argv=(noop,)), Policy.allow_all(), Whitelist(), LIMITS)
    monkeypatch.setenv("SLENS_TEST_VALUE", "later")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.txt"
    script = 'printf "%s %s" "$SLENS_TEST_VALUE" "$(pwd -P)"'
    trace = trace_run(Command(argv=("/bin/sh", "-c", script), stdout_path=str(out)),
                      Policy.allow_all(), Whitelist(), LIMITS)
    assert trace.exit_code == 0
    assert out.read_text() == f"later {tmp_path.resolve()}"


def test_a_session_started_while_another_is_open_gets_its_own_tracer(fixtures):
    """A thread may hold two open sessions.  The second gets a new tracer,
    which becomes the thread's; the first keeps its tracer to the end of
    its run and then retires it."""
    noop, sleeper = fixtures.binary("noop"), fixtures.binary("sleeper")
    first = TraceSession.start(Command(argv=(sleeper,)), Policy.allow_all(), Whitelist())
    second = TraceSession.start(Command(argv=(noop,)), Policy.allow_all(), Whitelist())
    assert second._tracer_pid != first._tracer_pid
    assert second.wait(timeout=10).exit_code == 0
    assert first.stop().signaled == signal.SIGTERM
    with pytest.raises(ChildProcessError):
        os.waitpid(first._tracer_pid, os.WNOHANG)
    third = TraceSession.start(Command(argv=(noop,)), Policy.allow_all(), Whitelist())
    assert third.wait(timeout=10).exit_code == 0
    assert third._tracer_pid == second._tracer_pid


def test_a_threads_tracer_ends_with_the_thread(fixtures):
    """A thread's idle tracer is killed and reaped when the thread ends,
    before ``join`` returns: no one has to retire it."""
    noop = fixtures.binary("noop")
    traces = []
    thread = threading.Thread(target=lambda: traces.append(
        trace_run(Command(argv=(noop,)), Policy.allow_all(), Whitelist(), LIMITS)))
    thread.start()
    thread.join()
    assert traces[0].exit_code == 0
    assert children() == set()


def test_a_new_tracer_spares_the_other_threads_tracers(fixtures):
    """A fork frees the other threads' thread-local storage in the child as
    well, so the new tracer frees their idle tracers' holders too.  It must
    not retire those tracers: only the process that holds one does."""
    noop = fixtures.binary("noop")

    def run():
        return trace_run(Command(argv=(noop,)), Policy.allow_all(), Whitelist(),
                         LIMITS).exit_code

    with ThreadPoolExecutor(max_workers=1) as other:
        assert other.submit(run).result() == 0  # its thread now holds a tracer
        assert run() == 0  # this thread forks a tracer of its own
        assert other.submit(run).result() == 0


@pytest.mark.parametrize("failure", ["launch", "launch_wait", "fault", "crash", "kill"])
def test_a_failure_retires_the_thread_tracer(fixtures, tmp_path, monkeypatch, failure):
    """Consecutive sessions of one thread share its tracer.  A failed
    launch, a launch never announced, a tracer fault (reported, or a tracer
    that died) and a stop that needed SIGKILL each retire it: it is killed
    and reaped, and the thread's next session forks a new one."""
    noop, sleeper = fixtures.binary("noop"), fixtures.binary("sleeper")

    def start(binary, tables=slens.interposer.DEFAULT_TABLES, **kwargs):
        return TraceSession.start(Command(argv=(binary,), **kwargs), Policy.allow_all(),
                                  Whitelist(), tables)

    first = start(noop)
    first.wait(timeout=10)
    second = start(noop)
    second.wait(timeout=10)
    assert second._tracer_pid == first._tracer_pid
    if failure == "launch":
        with pytest.raises(LaunchFailure):
            start("/nonexistent/binary")
    elif failure == "launch_wait":
        os.mkfifo(tmp_path / "fifo")  # the child blocks opening it for its stdout
        monkeypatch.setattr(slens.interposer, "_LAUNCH_WAIT", 0.5)
        with pytest.raises(LaunchFailure):
            start("/bin/true", stdout_path=str(tmp_path / "fifo"))
    elif failure == "fault":
        session = start(noop, tables=None)  # the engine fails at the first trapped call
        with pytest.raises(TracerFault, match="^AttributeError"):
            session.wait(timeout=10)
    elif failure == "crash":
        session = start(sleeper)
        os.kill(session._tracer_pid, signal.SIGINT)  # KeyboardInterrupt ends the tracer
        with pytest.raises(TracerFault, match="without a result"):
            session.wait(timeout=10)
    else:
        monkeypatch.setattr(slens.interposer, "KILL_GRACE", 0.1)
        monkeypatch.setattr(slens.interposer, "_KILL_WAIT", 0.1)
        session = start(sleeper)
        os.kill(session._tracer_pid, signal.SIGSTOP)  # deaf to stop requests
        with pytest.raises(TracerFault, match="did not end after SIGKILL"):
            session.stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    after = start(noop)
    assert after.wait(timeout=10).exit_code == 0
    assert after._tracer_pid != first._tracer_pid


def test_a_dropped_session_ends_its_run(fixtures):
    """A session is its tracer's one holder while the run goes on.  Dropped
    unread, it frees the tracer, which is retired, and PTRACE_O_EXITKILL
    takes the app with it."""
    session = TraceSession.start(Command(argv=(fixtures.binary("sleeper"),)),
                                 Policy.allow_all(), Whitelist())
    tracer_pid = session._tracer_pid
    del session
    with pytest.raises(ChildProcessError):
        os.waitpid(tracer_pid, os.WNOHANG)
    assert within(3, lambda: not fixtures.running("sleeper"))


def test_a_finished_session_lets_its_tracer_go(fixtures):
    """A session read to its result holds its tracer no more, so a caller
    that keeps the session, as a traceback or a record may, does not keep
    the tracer: it still ends with its thread."""
    noop = fixtures.binary("noop")
    sessions = []

    def run():
        session = TraceSession.start(Command(argv=(noop,)), Policy.allow_all(), Whitelist())
        session.wait(timeout=10)
        sessions.append(session)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and len(sessions) == 1
    assert children() == set()


def test_a_tracer_whose_fork_failed_is_freed_quietly(monkeypatch):
    """A failed fork raises from ``start`` once; the half-made tracer then
    has no process to retire, and freeing it reports nothing."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(BlockingIOError):
        TraceSession.start(Command(argv=("/bin/true",)), Policy.allow_all(), Whitelist())
    gc.collect()
    assert unraisable == []
    assert thread_tracer() is None


def test_the_app_gets_the_default_signal_dispositions(tmp_path):
    """CPython ignores SIGPIPE and SIGXFSZ, and an ignored signal stays
    ignored across exec.  The app gets them at their defaults, as under
    ``subprocess``, so a write to a closed pipe kills it as it would
    natively."""
    script = "grep SigIgn /proc/self/status"
    out = tmp_path / "out.txt"
    trace = trace_run(Command(argv=("/bin/sh", "-c", script), stdout_path=str(out)),
                      Policy.allow_all(), Whitelist(), LIMITS)
    assert trace.exit_code == 0
    native = subprocess.run(["/bin/sh", "-c", script], capture_output=True,
                            text=True, check=True)
    assert out.read_text() == native.stdout


def test_a_tracee_killed_between_its_stops_reads_killed(fixtures, monkeypatch):
    """A tracee SIGKILLed while it waits at a trapped call leaves that stop
    for its exit stop; until it reaches it, the tracer's next request fails
    with ESRCH, as here.  The run reads as killed, not as a tracer fault."""

    def kill_then_esrch(pid, regs):
        os.kill(pid, signal.SIGKILL)
        raise slens._ptrace.PtraceError(errno.ESRCH, f"ptrace GETREGS pid={pid}")

    monkeypatch.setattr(slens._ptrace, "getregs", kill_then_esrch)
    trace = run_fixture(fixtures, "noop")
    assert (trace.exit_code, trace.signaled) == (None, signal.SIGKILL)
    assert trace.observed == Counter()


def test_a_tracee_killed_at_its_stop_reads_killed(fixtures, monkeypatch):
    """Once the killed tracee is at its exit stop, ptrace requests succeed
    again: the register read finds the call it was stopped at, which counts
    once, and the run still reads as killed.  That exit stop still takes the
    process's exit reading."""
    getregs = slens._ptrace.getregs

    def kill_then_getregs_at_exit_stop(pid, regs):
        os.kill(pid, signal.SIGKILL)
        # WNOWAIT leaves the exit stop's report for the engine.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WSTOPPED | os.WNOWAIT)
        getregs(pid, regs)

    monkeypatch.setattr(slens._ptrace, "getregs", kill_then_getregs_at_exit_stop)
    trace = run_fixture(fixtures, "noop")
    assert (trace.exit_code, trace.signaled) == (None, signal.SIGKILL)
    assert trace.observed == Counter({FeatureId(EXIT_GROUP): 1})
    assert trace.peak_rss > 0 and trace.peak_fds > 0


def test_follow_fork_observes_child(fixtures, tmp_path):
    trace = run_fixture(fixtures, "forker", cwd=str(tmp_path))
    assert (tmp_path / "out.txt").read_text() == "OK"
    observed = syscall_set(trace)
    assert FORK in observed
    assert OPENAT in observed and WRITE in observed  # the child's work
    assert trace.whitelisted_pids_seen == 2


def test_follow_vfork_observes_child_under_the_policy(fixtures):
    """The vfork child is followed (``PTRACE_EVENT_VFORK``): each of its
    calls and its parent's is seen once, and a stubbed getppid reaches the
    child, whose exit status the parent passes on."""
    trace = run_fixture(fixtures, "vforker")
    assert trace.observed == Counter({FeatureId(name_to_nr(name)): 1 for name in
                                      ("vfork", "getppid", "exit", "wait4", "exit_group")})
    assert trace.whitelisted_pids_seen == 2
    assert trace.exit_code == 0
    stubbed = run_fixture(fixtures, "vforker", Policy.single(
        FeatureId(name_to_nr("getppid")), STUB), discovery=False)
    assert stubbed.exit_code == 1


def test_launch_failure_for_missing_binary():
    with pytest.raises(LaunchFailure):
        trace_run(Command(argv=("/nonexistent/binary",)), Policy.allow_all(),
                  Whitelist(), LIMITS)


def test_app_pid_of_a_failed_exec_raises():
    """The pid is announced only at the root's exec, so a launch whose exec
    fails never has one: ``start`` raises, and the tracer has ended and
    been reaped."""
    with pytest.raises(LaunchFailure, match=r"^exec of /nonexistent/binary failed: "
                                            r"No such file or directory \(errno 2\)$"):
        TraceSession.start(Command(argv=("/nonexistent/binary",)),
                           Policy.allow_all(), Whitelist())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_launch_that_never_comes_is_killed(tmp_path, monkeypatch):
    """A child that never reaches its exec, here blocked opening a FIFO for
    its stdout, is waited for _LAUNCH_WAIT seconds only: ``start`` kills
    the tracer, reaps it and raises LaunchFailure."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(slens.interposer, "_LAUNCH_WAIT", 0.5)
    t0 = time.monotonic()
    with pytest.raises(LaunchFailure):
        TraceSession.start(Command(argv=("/bin/true",), stdout_path=str(fifo)),
                           Policy.allow_all(), Whitelist())
    assert time.monotonic() - t0 < 1.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_timeout_past_one_poll_is_refused():
    """One poll(2) waits at most 2**31 - 1 ms, so a longer run timeout is
    refused up front, not met as an OverflowError in the run."""
    assert Limits(timeout=MAX_TIMEOUT).timeout == MAX_TIMEOUT
    with pytest.raises(ValueError):
        Limits(timeout=3e6)


def test_relative_binary_is_found_from_the_command_cwd(fixtures, tmp_path):
    """The child execs argv[0] after changing to Command.cwd, so a relative
    path that exists only there runs."""
    (tmp_path / "app").write_bytes(Path(fixtures.binary("noop")).read_bytes())
    (tmp_path / "app").chmod(0o755)
    trace = trace_run(Command(argv=("./app",), cwd=str(tmp_path)),
                      Policy.allow_all(), Whitelist(), LIMITS)
    assert trace.exit_code == 0
    assert EXIT_GROUP in syscall_set(trace)


def test_stdout_redirection(fixtures, tmp_path):
    out = tmp_path / "captured.log"
    binary = fixtures.binary("uname_write")
    trace_run(Command(argv=(binary,), stdout_path=str(out)),
              Policy.allow_all(), Whitelist.of_paths([binary]), LIMITS)
    assert out.read_text() == "ok\n"


# -- whitelist semantics over a two-binary tree


def _wrapper_command(fixtures):
    a = fixtures.binary("main_a")
    b = fixtures.binary("sentinel_b")
    return ("/bin/sh", "-c", f"{a} && {b}"), a, b


def test_whitelist_excludes_other_binaries(fixtures, tmp_path):
    command, a, b = _wrapper_command(fixtures)
    sentinel = name_to_nr("sysinfo")
    trace = trace_run(Command(argv=command, cwd=str(tmp_path)),
                      Policy.allow_all(), Whitelist.of_paths([a]), LIMITS)
    observed = syscall_set(trace)
    assert sentinel not in observed  # B's marker
    assert OPENAT in observed  # A writes its file
    assert GETPID in observed  # A's own marker


def test_whitelist_union_equals_unfiltered_run(fixtures, tmp_path):
    """Whitelist soundness: complementary runs union to the unfiltered run."""
    command, a, b = _wrapper_command(fixtures)
    sh = os.path.realpath("/bin/sh")

    def observe(paths):
        trace = trace_run(Command(argv=command, cwd=str(tmp_path)),
                          Policy.allow_all(), Whitelist.of_paths(paths), LIMITS)
        return syscall_set(trace)

    only_a = observe([a])
    inverted = observe([b, sh])
    unfiltered = observe([a, b, sh])
    assert only_a | inverted == unfiltered


def test_unmeasured_process_runs_trapped_calls_unaltered(fixtures, tmp_path):
    """The shell hands the filter down to A, so A's writes stop too; A is
    not measured, so they run unaltered and go unrecorded."""
    command, a, b = _wrapper_command(fixtures)
    trace = trace_run(Command(argv=command, cwd=str(tmp_path)),
                      Policy.single(FeatureId(WRITE), STUB),
                      Whitelist.of_paths([b]), LIMITS, discovery=False)
    assert (tmp_path / "out.txt").read_text() == "OK"
    assert FeatureId(WRITE) not in trace.observed
    assert trace.exit_code == 0


def test_empty_whitelist_measures_initial_image_only(fixtures, tmp_path):
    """With no whitelist, a wrapper's children are excluded: only the first
    exec'd image (the shell) is measured.

    The shell produces no output of its own here, so the children's
    distinctive syscalls (B's sysinfo marker, A's write) must be absent
    while the shell's activity still registers.
    """
    command, a, b = _wrapper_command(fixtures)
    sentinel = name_to_nr("sysinfo")
    trace = trace_run(Command(argv=command, cwd=str(tmp_path)),
                      Policy.allow_all(), Whitelist(), LIMITS)
    observed = syscall_set(trace)
    assert observed  # the wrapper itself was measured
    assert sentinel not in observed
    assert WRITE not in observed
    assert trace.exit_code == 0


def test_pseudofile_feature_observed_end_to_end(fixtures, tmp_path):
    trace = run_fixture(fixtures, "urandom_fallback", cwd=str(tmp_path))
    dev_openat = FeatureId(OPENAT, pseudofile="/dev")
    assert dev_openat in trace.observed
    assert (tmp_path / "out.txt").read_text() == "RND"

    stubbed = run_fixture(fixtures, "urandom_fallback",
                          policy=Policy.single(dev_openat, STUB),
                          cwd=str(tmp_path))
    assert (tmp_path / "out.txt").read_text() == "FBK"
    assert stubbed.exit_code == 0
    # Ordinary file opens were untouched by the /dev-classed override.
    assert FeatureId(OPENAT) in stubbed.observed


def test_subfeature_observed_end_to_end(fixtures, tmp_path):
    trace = run_fixture(fixtures, "ioctl_tcgets", cwd=str(tmp_path))
    ioctl = name_to_nr("ioctl")
    assert FeatureId(ioctl, subfeature=0x5401) in trace.observed
