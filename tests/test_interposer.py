"""Trace engine behavior on compiled fixtures."""

import os
import signal

import pytest

from slens.interposer import (
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
FORK = name_to_nr("fork")


def run_fixture(fixtures, name, policy=None, whitelist=None, cwd=None, argv=()):
    binary = fixtures.binary(name)
    return trace_run(
        Command(argv=(binary, *argv), cwd=cwd),
        policy or Policy.allow_all(),
        whitelist if whitelist is not None else Whitelist.of_paths([binary]),
        LIMITS,
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


def test_timeout_kills_tree(fixtures):
    binary = fixtures.binary("sleeper")
    trace = trace_run(Command(argv=(binary,)), Policy.allow_all(),
                      Whitelist.of_paths([binary]),
                      Limits(timeout=0.4))
    assert trace.timed_out
    assert trace.signaled == signal.SIGKILL


def test_signal_right_after_launch_is_traced(fixtures):
    """A signal sent as soon as app_pid is known reaches a traced child.

    The pid is announced only after the child stopped under ptrace, so the
    signal is forwarded and ends the run as signaled, never as a tracer
    fault from a child killed before PTRACE_TRACEME.
    """
    binary = fixtures.binary("sleeper")
    for _ in range(20):
        session = TraceSession.start(Command(argv=(binary,)), Policy.allow_all(),
                                     Whitelist.of_paths([binary]), LIMITS)
        assert session.app_pid > 0
        session.signal_tree(signal.SIGTERM)
        trace = session.wait(timeout=30)
        assert (trace.exit_code, trace.signaled, trace.timed_out) == (
            None, signal.SIGTERM, False)


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
