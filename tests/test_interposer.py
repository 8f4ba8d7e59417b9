"""Trace engine behavior on compiled fixtures."""

import errno
import os
import pickle
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import slens._ptrace
from slens.interposer import (
    ALLOW,
    Command,
    FeatureId,
    LaunchFailure,
    Limits,
    Policy,
    STUB,
    TraceSession,
    Whitelist,
    fake,
    trace_run,
)
from slens.syscalls import name_to_nr

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


def test_timeout_kills_tree(fixtures):
    binary = fixtures.binary("sleeper")
    trace = trace_run(Command(argv=(binary,)), Policy.allow_all(),
                      Whitelist.of_paths([binary]),
                      Limits(timeout=0.4))
    assert trace.timed_out
    assert trace.signaled == signal.SIGTERM


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

    def within(seconds, condition):
        deadline = time.monotonic() + seconds
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.02)
        return condition()

    try:
        assert within(10, lambda: fixtures.running("sleeper"))
    finally:
        caller.kill()
        caller.wait(timeout=10)
    assert within(3, lambda: not fixtures.running("sleeper"))


def test_interrupted_tracer_does_not_unwind_the_caller(fixtures):
    """A SIGINT to the tracer (a terminal's Ctrl-C reaches the whole process
    group) ends the tracer only: the forked copy of the caller's stack is
    never unwound, so the caller's ``finally`` runs once, in the caller."""
    code = ("import os, signal, sys\n"
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


def test_follow_fork_observes_child(fixtures, tmp_path):
    trace = run_fixture(fixtures, "forker", cwd=str(tmp_path))
    assert (tmp_path / "out.txt").read_text() == "OK"
    observed = syscall_set(trace)
    assert FORK in observed
    assert OPENAT in observed and WRITE in observed  # the child's work
    assert trace.whitelisted_pids_seen == 2


def test_launch_failure_for_missing_binary():
    with pytest.raises(LaunchFailure):
        trace_run(Command(argv=("/nonexistent/binary",)), Policy.allow_all(),
                  Whitelist(), LIMITS)


def test_app_pid_of_a_failed_exec_raises():
    """The pid is announced only at the root's exec, so a launch whose exec
    fails never has one; the tracer has ended and been reaped."""
    session = TraceSession.start(Command(argv=("/nonexistent/binary",)),
                                 Policy.allow_all(), Whitelist())
    with pytest.raises(LaunchFailure, match=r"^exec of /nonexistent/binary failed: "
                                            r"No such file or directory \(errno 2\)$"):
        session.app_pid
    with pytest.raises(ChildProcessError):
        os.waitpid(session._tracer_pid, os.WNOHANG)


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
