"""System-call interposition engine.

Launches a target command under ptrace, follows the whole process tree,
and stops a process only at the syscalls a run traps: a seccomp filter,
installed in the launched child before its exec and inherited by every
descendant, returns SECCOMP_RET_TRACE for them and lets every other call
run at native speed.  A discovery run traps every syscall; any other run
traps only the syscall numbers its policy overrides, so a run under the
allow-all policy makes no syscall stop at all.  At each such stop (one per
trapped call) the tracer classifies the call into a feature, counts it in
``RunTrace.observed`` and applies the policy (allow / stub / fake): one
register update sets a suppressed call's syscall number to -1, so the
kernel skips it, and its return register to the injected value.  An
executable whitelist checked at every exec decides which processes are
measured.

Feature granularity: a feature is a syscall number, optionally narrowed by a
sub-feature selector argument (vectored syscalls such as ioctl) or by a
pseudo-file path class (/proc, /dev, /sys) for the open family.

Policy only applies to whitelisted processes, and only after their first
exec event: syscalls issued by the launcher before exec are neither recorded
nor interfered with.  Non-whitelisted processes run unmodified and
unrecorded.  The filter cannot tell measured from unmeasured processes,
though: unmeasured ones stop on the trapped syscalls too and are resumed at
once, so in a discovery run every syscall of theirs stops.

One tracer per thread, one holder per tracer: a thread holds at most one
idle tracer process, which serves its runs one at a time.
``TraceSession.start`` takes it from the thread, or forks one if the
thread has none, and sends it the run's command, the caller's current
environment and working directory, policy, whitelist, tables, discovery
flag and hit cap; the tracer builds a fresh engine (its own filter, its own
fork of the app) for every run.  The session alone holds the tracer until
it reads the run's result, then puts it back in the thread's slot, or
retires it (kills and reaps it) if the slot holds another, and lets it go.
A tracer that failed (a failed or unannounced launch, a fault, a stop that
needed SIGKILL) is retired, and the thread's next session forks a new one.
A tracer whose holder lets it go unretired is retired when CPython frees
it: a thread's idle tracer ends with its thread, before ``join`` returns,
and a session dropped before its result retires its tracer, and
PTRACE_O_EXITKILL takes the run's tree with it.  ``retire_tracer`` retires
the calling thread's idle tracer at once.

Ending a run: the tracer alone signals the application's tree and keeps no
clock.  A stop request is a SIGTERM to the tracer (an unreaped child, so
its pid is not reused): on the first the tracer sends SIGTERM to every
process it follows, on any later one SIGKILL, and it reports the result
once none is left; ``TraceSession.stop`` sends the second KILL_GRACE
seconds after the first, and sends none once the result has arrived.
Between runs the tracer's SIGTERM handler does nothing, so a request that
comes after its run ended cannot stop the next one.  The tracer makes the
first request itself, and the trace says ``runaway``, once the measured
processes' trapped calls pass the run's hit cap.  So no process outlives
its run: not a daemon that left the process group, nor one whose caller
died, since the PR_SET_PDEATHSIG of the tracer and of the launched child is
SIGKILL and PTRACE_O_EXITKILL takes the tree with the tracer.  That signal
follows the thread that forked, so the thread that starts a session must
outlive it.

Resource readings sum VmHWM and open descriptors over the measured
processes, each process once however many threads it has.  The tracer
reads when the last thread of a measured process stops at its exit
(PTRACE_EVENT_EXIT: the process still holds its memory and descriptors)
and at the first stop request.  A measured thread killed while it waits
at a trapped call may be at that exit stop when the tracer resumes it from
the call; the tracer checks for that before the resume, so the reading is
lost only to a kill between that check and the resume, or to a group exit
with status 0, whose exit stop the check cannot tell from the call's stop.
VmHWM only grows, so ``RunTrace.peak_rss`` is the measured processes'
peak for a run of any length, except for an image that a measured process
replaced by a later exec, and for a process that skips its exit stop and
is gone at the stop request (on Linux 6.18 even SIGKILL does not skip
it).  ``peak_fds`` is the largest count at those events.  The tree runs without address-space randomisation
(ADDR_NO_RANDOMIZE, as under gdb), so a deterministic program's readings
repeat from run to run; where the kernel refuses, the run warns.

A thread and its tracer talk over one duplex ``multiprocessing.Pipe``.
The session sends each run's request on it, and the tracer answers with
``(event, value)`` pairs sent with ``Connection.send``: ``("launched",
pid)`` at the root's first exec, ``("root_exit", (exit_code, signal))``
when the tracer reaps the root, ``("result", RunTrace)`` once no process
is left, and ``("error", LaunchFailure | TracerFault)``.  The launched
child holds the pipe until its exec closes it (O_CLOEXEC) and reports a
failed launch step on it as a LaunchFailure; the tracer reports a fault of
its own in place of the result, and exits.  The first error wins.  Only
slens code writes to the pipe, the workload never, so each side may
unpickle what it reads.

A session exists only once launched: ``TraceSession.start`` returns when
the root has exec'd the command, and raises the run's error, with the
tracer retired, when it does not.  A session starts no thread: one thread
uses it, and reads the pipe only inside its calls.  That is safe because
at most two small messages come before the result: the child's ``error``
or ``launched``, then ``root_exit``.  So the tracer never waits for a
reader while the run goes on; the result may wait until ``wait`` or
``stop`` reads it, and every caller calls one.  A session never leaves a
message of its run in the pipe: it reads through to its result, or it
retires the tracer.  A session started while another of its thread is
open finds no idle tracer, so it forks one of its own.

Caveat: the filter requires no_new_privs, which is inherited and cannot be
unset, so setuid and setgid binaries (and file capabilities) confer no
privileges inside the workload.

Known blind spot: calls served by the vDSO (clock_gettime, gettimeofday,
time, getcpu on common platforms) never enter the kernel and are therefore
not interceptable by any syscall-level tracer.  They are never observed and
never classified; treat their absence from results accordingly.
"""

from __future__ import annotations

import errno as _errno
import functools
import logging
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from multiprocessing import Pipe
from typing import Callable, Iterable, Mapping

from . import SlensError
from . import _ptrace as pt
from .config import (DEFAULT_TABLES, OPEN_FAMILY, InterposerTables, check_int,
                     check_register)

log = logging.getLogger(__name__)

ENOSYS = 38
STUB_RETURN = -ENOSYS

_MAX_WARNINGS = 200

KILL_GRACE = 2.0  # seconds from the stop request's SIGTERM to SIGKILL
_KILL_WAIT = 10.0  # seconds from SIGKILL until a stop gives the tracer up
_LAUNCH_WAIT = 30.0  # seconds the parent waits for the launch announcement
# Seconds: the longest wait that one poll(2) call takes (2**31 - 1 ms), for
# a session's pipe and for the harness's test script.
MAX_TIMEOUT = (2**31 - 1) / 1000


def check_timeout(timeout: float) -> None:
    """Refuse a run timeout that is not a number in (0, MAX_TIMEOUT]."""
    if not 0 < timeout <= MAX_TIMEOUT:
        raise ValueError(f"timeout must be a number in (0, {MAX_TIMEOUT}] seconds")


class LaunchFailure(SlensError):
    """The target command could not be executed."""


class TracerFault(SlensError):
    """The tracing facility returned an unexpected state; the run is unusable."""


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class FeatureId:
    """Identity of an interceptable OS feature.

    ``subfeature`` is the value of the selector argument for vectored
    syscalls; ``pseudofile`` is the matching path-prefix class for the open
    family.  At most one of the two is set.
    """

    syscall_nr: int
    subfeature: int | None = None
    pseudofile: str | None = None

    def sort_key(self) -> tuple:
        return (
            self.syscall_nr,
            self.subfeature is not None,
            self.subfeature or 0,
            self.pseudofile is not None,
            self.pseudofile or "",
        )

    def __lt__(self, other: "FeatureId") -> bool:
        return self.sort_key() < other.sort_key()

    def bare(self) -> "FeatureId":
        return FeatureId(self.syscall_nr)

    def to_json(self) -> dict:
        return {
            "syscall_nr": self.syscall_nr,
            "subfeature": self.subfeature,
            "pseudofile": self.pseudofile,
        }

    @staticmethod
    def from_json(d: Mapping) -> "FeatureId":
        """The feature ``d`` names: one shared object per distinct value.
        Raises ValueError for a syscall number or sub-feature that is not
        an integer, a pseudo-file that is not a string, or both set."""
        return _shared_feature(d["syscall_nr"], d.get("subfeature"), d.get("pseudofile"))


# A database repeats a few hundred distinct features thousands of times, so
# loading it builds and checks each once; the bound keeps the memory fixed
# however many distinct features it holds.  ``typed``: 1, 1.0 and True are
# distinct values here, and only the first is a syscall number or sub-feature.
@functools.lru_cache(maxsize=1 << 14, typed=True)
def _shared_feature(syscall_nr, subfeature, pseudofile) -> FeatureId:
    check_int(syscall_nr, "syscall_nr")
    if subfeature is not None:
        check_int(subfeature, "subfeature")
    if not (pseudofile is None or type(pseudofile) is str):
        raise ValueError(f"pseudofile {pseudofile!r} is not a string")
    if subfeature is not None and pseudofile is not None:
        raise ValueError("a feature has a subfeature or a pseudofile, not both")
    return FeatureId(syscall_nr, subfeature, pseudofile)


@dataclass(frozen=True)
class Action:
    """What to do with a feature at its seccomp stop.

    ``allow`` runs the call unchanged.  ``stub`` and ``fake`` suppress the
    kernel execution (the syscall number is rewritten to -1) and set the
    return register to ``return_value`` in the same update: always -ENOSYS
    for a stub, a success code (0 unless overridden) for a fake.
    """

    kind: str  # "allow" | "stub" | "fake"
    return_value: int = 0

    def __post_init__(self):
        if self.kind not in ("allow", "stub", "fake"):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == "stub" and self.return_value != STUB_RETURN:
            raise ValueError("stub actions must return -ENOSYS")
        check_register(self.return_value, f"{self.kind} return value")

    @property
    def suppresses(self) -> bool:
        return self.kind != "allow"

    def to_json(self) -> dict:
        return {"kind": self.kind, "return_value": self.return_value}

    @staticmethod
    def from_json(d: Mapping) -> "Action":
        default = STUB_RETURN if d["kind"] == "stub" else 0
        return Action(d["kind"], check_int(d.get("return_value", default), "return_value"))


ALLOW = Action("allow")
STUB = Action("stub", STUB_RETURN)


def fake(return_value: int = 0) -> Action:
    return Action("fake", return_value)


@dataclass(frozen=True)
class Policy:
    """Per-feature decision table applied at each trapped syscall."""

    overrides: Mapping[FeatureId, Action] = field(default_factory=dict)
    default_action: Action = ALLOW

    def action_for(self, feature: FeatureId) -> Action:
        """Look up the exact feature first, then its bare syscall."""
        act = self.overrides.get(feature)
        if act is not None:
            return act
        if feature.subfeature is not None or feature.pseudofile is not None:
            act = self.overrides.get(feature.bare())
            if act is not None:
                return act
        return self.default_action

    @staticmethod
    def allow_all() -> "Policy":
        return Policy()

    def trapped_syscalls(self) -> frozenset[int] | None:
        """The syscalls a non-discovery run traps: the overridden ones, or
        all (None) when the default action is not allow."""
        return None if self.default_action.suppresses else frozenset(
            f.syscall_nr for f in self.overrides)

    @staticmethod
    def single(feature: FeatureId, action: Action) -> "Policy":
        return Policy(overrides={feature: action})

    def to_json(self) -> dict:
        return {
            "default": self.default_action.to_json(),
            "overrides": [
                {"feature": f.to_json(), "action": a.to_json()}
                for f, a in sorted(self.overrides.items(), key=lambda kv: kv[0].sort_key())
            ],
        }

    @staticmethod
    def from_json(d: Mapping) -> "Policy":
        return Policy(
            overrides={
                FeatureId.from_json(o["feature"]): Action.from_json(o["action"])
                for o in d.get("overrides", ())
            },
            default_action=Action.from_json(d.get("default", {"kind": "allow"})),
        )


@dataclass(frozen=True)
class Whitelist:
    """Binary paths whose processes are measured.

    Empty means: measure only the initially exec'd binary.  Paths are
    canonicalized (symlinks resolved) at load time.
    """

    binary_paths: frozenset[str] = frozenset()

    @staticmethod
    def of_paths(paths: Iterable[str]) -> "Whitelist":
        canon = set()
        for p in paths:
            if not os.path.isabs(p):
                raise ValueError(f"whitelist path must be absolute: {p!r}")
            canon.add(os.path.realpath(p))
        return Whitelist(frozenset(canon))


def resolve_exec(image_path: str | None, whitelist: Whitelist, first_exec: bool) -> bool:
    """Decide whether the process that just exec'd ``image_path`` is measured.

    With a non-empty whitelist, only listed binaries are measured.  With an
    empty whitelist, only the first exec in the tree (the initially exec'd
    binary) is.  Unresolvable paths are never measured.
    """
    if whitelist.binary_paths:
        if image_path is None:
            return False
        return os.path.realpath(image_path) in whitelist.binary_paths
    return first_exec


def classify_feature(
    syscall_nr: int,
    args: tuple[int, ...],
    tables: InterposerTables,
    read_string: Callable[[int], str | None] | None = None,
) -> FeatureId:
    """Map a syscall entry (number + raw argument registers) to a FeatureId.

    For the open family, the dereferenced path argument is matched against
    the configured pseudo-file prefixes; for vectored syscalls the selector
    argument value becomes the sub-feature.  ``read_string`` returns None for
    unreadable addresses (the caller records the warning); the feature then
    degrades to the bare syscall.
    """
    if tables.pseudo_prefixes and read_string is not None:
        arg_idx = OPEN_FAMILY.get(syscall_nr)
        if arg_idx is not None:
            path = read_string(args[arg_idx])
            if path is not None and path.startswith("/"):
                for prefix in tables.pseudo_prefixes:
                    if path == prefix or path.startswith(prefix + "/"):
                        return FeatureId(syscall_nr, pseudofile=prefix)
            return FeatureId(syscall_nr)
    sel_idx = tables.subfeature_selectors.get(syscall_nr)
    if sel_idx is not None:
        return FeatureId(syscall_nr, subfeature=pt.to_signed(args[sel_idx]))
    return FeatureId(syscall_nr)


def _read_status(pid: int) -> tuple[int, int] | None:
    """(Tgid, VmHWM in bytes) of ``pid``; None if it has no memory (gone,
    zombie)."""
    tgid = 0
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Tgid:"):
                    tgid = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    return tgid, int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def sample_resources(pids: Iterable[int],
                     on_warning: Callable[[str], None] | None = None) -> tuple[int, int]:
    """(rss, fds): the sum of high-water RSS (VmHWM, in bytes) and of open
    descriptor counts over the processes of ``pids``, each once however
    many of its threads are listed.

    Pids without memory are skipped silently; unreadable fd tables of live
    ones are skipped and reported through ``on_warning``.
    """
    rss = 0
    fds = 0
    seen: set[int] = set()
    for pid in pids:
        status = _read_status(pid)
        if status is None or status[0] in seen:
            continue  # no memory, or its process already read
        tgid, hwm = status
        seen.add(tgid)
        rss += hwm
        try:
            fds += len(os.listdir(f"/proc/{pid}/fd"))
        except OSError as exc:
            if on_warning:
                on_warning(f"pid {pid}: cannot read fd table: {exc}")
    return rss, fds


@dataclass
class RunTrace:
    """Everything one traced run produced.

    The tracer's engine creates it when the run starts and fills it in
    place, so each fact of a run is kept here once; a harness outcome
    carries it (``harness.WorkloadOutcome.trace``).  ``observed`` counts
    the features of the trapped calls of measured processes: of every call
    in a discovery run, of the calls to the policy's overridden syscalls
    otherwise.  ``root_exit_at`` is the CLOCK_MONOTONIC time
    (``time.monotonic()``) at which the tracer reaped the root, or None if
    it never did.  ``peak_rss`` (bytes) and ``peak_fds`` are the tracer's
    largest readings (see the module docstring); ``peak_rss`` 0 means the
    run was never read, as when it is stopped before its first measured
    exec.  ``runaway``: the tracer ended the run at its hit cap.  Only
    ``trace_run`` sets ``timed_out``: the tracer keeps no clock.  The
    tracer sends the whole object to its session pickled, so a new field
    needs no codec.
    """

    observed: Counter = field(default_factory=Counter)  # FeatureId -> trapped calls
    exit_code: int | None = None
    signaled: int | None = None
    whitelisted_pids_seen: int = 0
    timed_out: bool = False
    warnings: tuple[str, ...] = ()
    root_exit_at: float | None = None
    peak_rss: int = 0
    peak_fds: int = 0
    runaway: bool = False


@dataclass(frozen=True)
class Command:
    """A command to launch: argv and working directory.  The launched
    command gets the caller's environment, and its working directory when
    ``cwd`` is None, as they are at ``TraceSession.start``.  Its umask and
    resource limits are those of the tracer: the caller's when its thread
    forked it.

    ``stdout_path``/``stderr_path`` redirect the tree's standard streams to
    files; None inherits the caller's streams.  A relative ``argv[0]`` is
    found from ``cwd``: the child execs it after changing directory.
    """

    argv: tuple[str, ...]
    cwd: str | None = None
    stdout_path: str | None = None
    stderr_path: str | None = None

    def __post_init__(self):
        if not self.argv:
            raise ValueError("empty argv")


@dataclass(frozen=True)
class Limits:
    """Run limits: the caller stops the run ``timeout`` seconds (at most
    MAX_TIMEOUT) after it started the session (see ``trace_run`` and
    ``harness.run_workload``).
    None sets no ``hit_cap`` (the most trapped calls of measured processes)
    or ``ready_timeout`` (the harness's longest port wait)."""

    timeout: float = 10.0
    hit_cap: int | None = None
    ready_timeout: float | None = None

    def __post_init__(self):
        check_timeout(self.timeout)


# ---------------------------------------------------------------------------
# Tracer process


@dataclass
class _Proc:
    tgid: int  # the thread group (process) this tid belongs to
    traced: bool = False
    attach_pending: bool = False  # auto-attach SIGSTOP not yet consumed
    exiting: bool = False  # reached its exit stop


class _Engine:
    """Single-threaded tracer event loop owning one run's process tree.

    Runs inside its thread's tracer process, a fresh engine for every run,
    and reports to the run's session through ``emit(event, value)`` (see
    the module docstring).  It records the run in ``trace``, which ``run``
    returns; its other attributes are working state.
    """

    def __init__(self, command: Command, env: dict[str, str], policy: Policy,
                 whitelist: Whitelist, tables: InterposerTables, discovery: bool,
                 hit_cap: int | None, emit):
        self.command = command
        self.env = env
        self.policy = policy
        self.discovery = discovery
        self.hits_left = float("inf") if hit_cap is None else hit_cap
        self.whitelist = whitelist
        self.tables = tables
        self.emit = emit
        self.procs: dict[int, _Proc] = {}
        self.pending_stops: set[int] = set()  # stopped before their fork event
        self.trace = RunTrace()  # filled in place, and returned by ``run``
        self.warnings: list[str] = []
        self.ever_traced: set[int] = set()
        self.first_exec_done = False
        self.root_pid = 0
        self.kill_signal: int | None = None  # last signal sent to the tree
        self._regs = pt.UserRegs()

    # -- helpers

    def warn(self, message: str) -> None:
        if len(self.warnings) < _MAX_WARNINGS:
            self.warnings.append(message)

    def _read_string(self, pid: int):
        def reader(addr: int) -> str | None:
            try:
                return pt.read_tracee_string(pid, addr)
            except OSError as exc:
                self.warn(f"pid {pid}: unreadable path argument: {exc}")
                return None
        return reader

    # -- launch

    def _launch(self) -> None:
        argv = list(self.command.argv)
        # Built before the fork, so the child only installs it.
        prog = pt.seccomp_filter(None if self.discovery else self.policy.trapped_syscalls())
        if not pt.disable_aslr():  # inherited by the child forked below
            self.warn("address-space randomisation stays on: resource "
                      "readings may vary by a page from run to run")
        tracer = os.getpid()
        pid = os.fork()
        if pid == 0:
            # The child reports a failed step, named by ``step``, on the
            # session's pipe, which its exec closes (O_CLOEXEC), and never
            # returns.
            step = f"launch of {argv[0]}"
            try:
                # The tracer's SIGTERM handler is _idle; CPython ignores
                # SIGPIPE and SIGXFSZ, and an ignored signal stays ignored
                # across exec.
                for sig in (signal.SIGTERM, signal.SIGPIPE, signal.SIGXFSZ):
                    signal.signal(sig, signal.SIG_DFL)
                pt.set_pdeathsig(signal.SIGKILL)
                if os.getppid() != tracer:
                    os._exit(127)  # the tracer died before the line above
                os.setpgid(0, 0)
                if self.command.cwd:
                    step = f"chdir to {self.command.cwd}"
                    os.chdir(self.command.cwd)
                for target, path in ((1, self.command.stdout_path),
                                     (2, self.command.stderr_path)):
                    if path:
                        step = f"open of {path}"
                        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                        os.dup2(fd, target)
                        os.close(fd)
                step = f"ptrace attach of {argv[0]}"
                pt.traceme()
                os.kill(os.getpid(), signal.SIGSTOP)
                step = f"seccomp filter install for {argv[0]}"
                pt.install_seccomp(prog)
                step = f"exec of {argv[0]}"
                os.execve(argv[0], argv, self.env)
            except OSError as exc:
                err = exc.errno or 0
                self.emit("error", LaunchFailure(
                    f"{step} failed: "
                    f"{os.strerror(err) if err else 'unknown error'} (errno {err})"))
            finally:
                os._exit(127)
        self.root_pid = pid
        self.procs[pid] = _Proc(tgid=pid)

        # First stop is the child's own SIGSTOP; set options there, before
        # the child installs its filter (a trapped call with no tracer
        # listening for seccomp stops fails with ENOSYS).  Only then take
        # stop requests: a signal sent before the child reached
        # PTRACE_TRACEME would kill it untraced.  The pid is announced at
        # the child's exec (``_on_exec``).
        _, status = os.waitpid(pid, pt.WALL)
        if not os.WIFSTOPPED(status):
            raise TracerFault(f"unexpected initial status {status:#x}")
        pt.setoptions(pid, pt.PTRACE_O_TRACESECCOMP | pt.PTRACE_O_TRACEFORK
                      | pt.PTRACE_O_TRACEVFORK | pt.PTRACE_O_TRACECLONE
                      | pt.PTRACE_O_TRACEEXEC | pt.PTRACE_O_TRACEEXIT
                      | pt.PTRACE_O_EXITKILL)
        signal.signal(signal.SIGTERM, self._on_stop_request)
        pt.resume_cont(pid)

    # -- event handling

    def _on_exec(self, pid: int) -> None:
        # An exec from a non-leader thread ends the leader (after its exit
        # stop) and moves the caller to the leader's pid: drop its old tid.
        former = pt.geteventmsg(pid)
        if former != pid:
            self.procs.pop(former, None)
        proc = self.procs[pid]
        proc.exiting = False
        try:
            image = os.readlink(f"/proc/{pid}/exe")
        except OSError as exc:
            image = None
            self.warn(f"pid {pid}: cannot resolve exec image: {exc}")
        first = not self.first_exec_done
        self.first_exec_done = True
        proc.traced = resolve_exec(image, self.whitelist, first)
        if proc.traced:
            self.ever_traced.add(pid)
        if first:  # the root's exec: the command has launched
            self.emit("launched", pid)

    def _on_child(self, parent_pid: int, child_pid: int, tgid: int) -> None:
        parent = self.procs.get(parent_pid)
        child = self.procs.setdefault(child_pid, _Proc(tgid=tgid))
        child.traced = bool(parent and parent.traced)
        child.attach_pending = True
        if self.kill_signal is not None:  # forked after the tree was signalled
            self._kill(child_pid, self.kill_signal)
        if child.traced:
            self.ever_traced.add(child_pid)
        if child_pid in self.pending_stops:
            self.pending_stops.remove(child_pid)
            # The child stopped before we learned about it: that stop is its
            # auto-attach SIGSTOP; consume it now.
            child.attach_pending = False
            pt.resume_cont(child_pid)

    def _on_seccomp_stop(self, pid: int) -> None:
        """A measured process is about to make a trapped call: count its
        feature and apply the policy.  Syscall number -1 makes the kernel
        skip the call and return the value left in rax."""
        pt.getregs(pid, self._regs)
        nr = pt.to_signed(self._regs.orig_rax)
        feature = classify_feature(nr, self._regs.syscall_args(),
                                   self.tables, self._read_string(pid))
        self.trace.observed[feature] += 1
        self.hits_left -= 1
        if self.hits_left < 0 and self.kill_signal is None:
            self.trace.runaway = True
            self._on_stop_request(signal.SIGTERM, None)
        action = self.policy.action_for(feature)
        if action.suppresses:
            self._regs.orig_rax = pt.to_unsigned(-1)
            self._regs.rax = pt.to_unsigned(action.return_value)
            pt.setregs(pid, self._regs)

    def _on_exit(self, pid: int, status: int) -> None:
        self.procs.pop(pid, None)
        self.pending_stops.discard(pid)
        if pid == self.root_pid:
            trace = self.trace
            trace.root_exit_at = time.monotonic()
            if os.WIFEXITED(status):
                trace.exit_code = os.WEXITSTATUS(status)
            elif os.WIFSIGNALED(status):
                trace.signaled = os.WTERMSIG(status)
            self.emit("root_exit", (trace.exit_code, trace.signaled))

    def _on_exit_stop(self, pid: int, proc: _Proc) -> None:
        """``pid`` is at its exit stop.  The last thread of a process to
        exit still holds its memory and descriptors, so it is read; an
        earlier thread's exit frees neither."""
        proc.exiting = True
        if proc.traced and not any(p.tgid == proc.tgid and not p.exiting
                                   for p in self.procs.values()):
            self._sample(pid)

    def _handle_stop(self, pid: int, status: int) -> None:
        sig = os.WSTOPSIG(status)
        event = status >> 16
        proc = self.procs.get(pid)
        if proc is None:
            # A child stopped before its fork event arrived.
            self.pending_stops.add(pid)
            return
        if event in (pt.PTRACE_EVENT_FORK, pt.PTRACE_EVENT_VFORK,
                     pt.PTRACE_EVENT_CLONE):
            child = pt.geteventmsg(pid)
            # A clone may make a thread of the same process.
            info = _read_status(child) if event == pt.PTRACE_EVENT_CLONE else None
            # The parent first: if it is gone, the child is one whose fork
            # event never came (see ``run``).
            pt.resume_cont(pid)
            self._on_child(pid, child, info[0] if info else child)
        elif event == pt.PTRACE_EVENT_EXEC:
            self._on_exec(pid)
            pt.resume_cont(pid)
        elif event == pt.PTRACE_EVENT_SECCOMP:
            # A tracee SIGKILLed at this stop may sit at its exit stop by
            # now, whose message is its exit status, not the filter's data
            # (0); resuming would consume that stop's report.
            if proc.traced:
                self._on_seccomp_stop(pid)
                if pt.geteventmsg(pid):
                    self._on_exit_stop(pid, proc)
            pt.resume_cont(pid)
        elif event == pt.PTRACE_EVENT_EXIT:
            self._on_exit_stop(pid, proc)
            pt.resume_cont(pid)
        elif sig == signal.SIGSTOP and proc.attach_pending:
            proc.attach_pending = False
            pt.resume_cont(pid)
        else:
            pt.resume_cont(pid, sig)  # forward genuine signals

    # -- readings and kill: the stop request's handler only reads /proc and
    # sends signals, so the event loop's waitpid resumes after it and reaps
    # until no process is left.

    def _sample(self, exiting: int | None = None) -> None:
        # One thread per process: ``exiting``, or one not yet at its exit.
        reps = {p.tgid: pid for pid, p in self.procs.items()
                if p.traced and not p.exiting}
        if exiting is not None:
            reps[self.procs[exiting].tgid] = exiting
        rss, fds = sample_resources(reps.values(), self.warn)
        self.trace.peak_rss = max(self.trace.peak_rss, rss)
        self.trace.peak_fds = max(self.trace.peak_fds, fds)

    def _on_stop_request(self, signum, frame) -> None:
        """SIGTERM from the caller: the first takes a last reading and sends
        SIGTERM to the tree, any later one SIGKILL."""
        if self.kill_signal is None:
            self._sample()
            self._kill_tree(signal.SIGTERM)
        else:
            self._kill_tree(signal.SIGKILL)

    def _kill_tree(self, sig: int) -> None:
        """Send ``sig`` to every followed process (none reaped, so no pid
        reused).  A child that joins later gets it in ``_on_child``;
        PTRACE_O_EXITKILL kills one never reported."""
        self.kill_signal = sig
        for pid in list(self.procs):
            self._kill(pid, sig)

    @staticmethod
    def _kill(pid: int, sig: int) -> None:
        try:
            os.kill(pid, sig)
        except OSError:
            pass

    # -- main loop

    def run(self) -> RunTrace:
        self._launch()
        while self.procs or self.pending_stops:
            if not self.procs:
                # Their fork events never came: the parents died first.  The
                # tracer outlives the run, so PTRACE_O_EXITKILL cannot end them.
                for pid in self.pending_stops:
                    self._kill(pid, signal.SIGKILL)
            try:
                pid, status = os.waitpid(-1, pt.WALL)
            except ChildProcessError:
                break
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                self._on_exit(pid, status)
            elif os.WIFSTOPPED(status):
                try:
                    self._handle_stop(pid, status)
                except pt.PtraceError as exc:
                    if exc.errno != _errno.ESRCH:
                        raise
                    # A tracee SIGKILLed at its stop: waitpid reports its exit.
        self.trace.whitelisted_pids_seen = len(self.ever_traced)
        self.trace.warnings = tuple(self.warnings)
        return self.trace


def _idle(signum, frame) -> None:
    """The tracer's SIGTERM handler between runs: a stop request that came
    after its run ended does nothing.  (Not SIG_IGN, which the app would
    keep across its exec.)"""


def _tracer_process(parent: int, conn) -> None:
    """Entry point of a forked tracer process: serve its thread's runs, one
    at a time, until the pipe ends.  Never returns."""
    signal.signal(signal.SIGTERM, _idle)
    pt.set_pdeathsig(signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)  # the parent died before the line above

    def emit(event: str, value) -> None:
        try:
            conn.send((event, value))
        except OSError:
            pass  # the session is gone

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            os._exit(0)  # the caller's end is closed
        engine = _Engine(*request, emit)
        try:
            trace = engine.run()
        except Exception as exc:  # noqa: BLE001 - report anything as a tracer fault
            emit("error", TracerFault(f"{type(exc).__name__}: {exc}"))
            engine._kill_tree(signal.SIGKILL)
            os._exit(1)  # closes the pipe
        signal.signal(signal.SIGTERM, _idle)  # before the result, which ends the run
        emit("result", trace)


class _Tracer:
    """A tracer process and the caller's end of its pipe.  It serves one
    thread's runs, one at a time, and has one holder: its thread's
    ``_ThreadState.tracer`` while it is idle, the run's session while a run
    goes on.  A tracer whose holder lets it go unretired is retired when
    CPython frees it: the idle one of a thread that ended, or the one of a
    session dropped before its result (PTRACE_O_EXITKILL takes the run's
    tree with it)."""

    pid = 0  # until the fork succeeds

    def __init__(self):
        self.conn, child = Pipe()
        self.parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            # Other threads may be starting runs of their own, so this child
            # must touch no lock another thread may hold: it never logs, and
            # writes only with its pipe's os.write.  It also closes every
            # inherited descriptor but stdio and its own pipe, since one it
            # kept could be another tracer's pipe or a test script's output,
            # whose reader would then wait for this tracer.  Whatever
            # escapes, such as KeyboardInterrupt, must not unwind the
            # caller's stack in this copy of it.
            try:
                fd = child.fileno()
                os.closerange(3, fd)
                os.closerange(max(3, fd + 1), os.sysconf("SC_OPEN_MAX"))
                _tracer_process(self.parent, child)
            finally:
                os._exit(1)
        child.close()

    def retire(self) -> None:
        """Kill the tracer, and the tree of any run it serves
        (PTRACE_O_EXITKILL), and reap it.  Idempotent."""
        if self.conn.closed:
            return
        os.kill(self.pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
        self.conn.close()
        os.waitpid(self.pid, 0)

    def __del__(self):
        # A fork frees the other threads' thread-local storage in the child
        # too, so only the process that forked the tracer retires it.
        if self.pid and os.getpid() == self.parent:
            self.retire()


class _ThreadState(threading.local):
    tracer: _Tracer | None = None  # the thread's idle tracer, set per thread


_thread = _ThreadState()


def retire_tracer() -> None:
    """Kill and reap the calling thread's idle tracer, if it has one; the
    thread's next session forks a new one."""
    tracer, _thread.tracer = _thread.tracer, None
    if tracer is not None:
        tracer.retire()


# ---------------------------------------------------------------------------
# Parent-side session


class TraceSession:
    """Handle to a launched run executing under a tracer that the session
    alone holds until it reads the run's result; then it lets the tracer
    go (see the module docstring), and no method touches it again.  A
    session dropped before its result retires its tracer, and
    PTRACE_O_EXITKILL takes the run's tree with it.

    The tracer owns all tracee interactions; this object only reads the
    run's messages (see the module docstring) and can ask the tracer to end
    the run (``stop``).  ``app_pid`` is the pid of the application root,
    which has exec'd the command, and also its process-group id.  The
    session starts no thread: one thread uses it, and each call reads the
    pipe in that thread.  A session ends with ``wait`` or ``stop``, which
    read through to the run's result or else retire the tracer, so the
    pipe holds no message of this run for the thread's next session.
    """

    def __init__(self, tracer: _Tracer):
        self._tracer = tracer
        self._tracer_pid = tracer.pid
        self.app_pid: int | None = None
        self._root_status: tuple[int | None, int | None] | None = None
        self._trace: RunTrace | None = None
        self._error: LaunchFailure | TracerFault | None = None

    @classmethod
    def start(cls, command: Command, policy: Policy, whitelist: Whitelist,
              tables: InterposerTables = DEFAULT_TABLES,
              discovery: bool = True, hit_cap: int | None = None) -> "TraceSession":
        """Launch ``command`` under the calling thread's idle tracer, or
        under a new one if the thread has none, and return once the root
        has exec'd it.  The run gets the caller's current environment and
        working directory (see ``Command``).  The session holds the tracer
        until it reads the run's result, then gives it back to the thread
        (see the module docstring).  A thread may hold several open
        sessions, each with a tracer of its own.

        A ``discovery`` run traps, and so observes, every syscall; any
        other run traps only the syscalls that ``policy`` overrides.  A run
        past ``hit_cap`` trapped calls ends (see the module docstring).  The
        calling thread must outlive the session: its exit is a stop request.

        A command that does not launch raises the run's LaunchFailure or
        TracerFault, with the tracer retired.  A tracer that has not
        announced the launch within _LAUNCH_WAIT seconds is retired too;
        PTRACE_O_EXITKILL and the child's PR_SET_PDEATHSIG take the child
        with it.
        """
        if not command.cwd:
            command = replace(command, cwd=os.getcwd())
        tracer, _thread.tracer = _thread.tracer or _Tracer(), None
        session = cls(tracer)
        try:
            tracer.conn.send((command, dict(os.environ), policy, whitelist, tables,
                              discovery, hit_cap))
        except OSError as exc:  # the idle tracer has died
            tracer.retire()
            raise TracerFault(f"tracer is gone: {exc}") from None
        if not session._read(_LAUNCH_WAIT, lambda: session.app_pid is not None):
            tracer.retire()
            raise session._error or LaunchFailure("tracer exited before launch")
        return session

    # -- the tracer's messages, read in the caller's thread

    def _done(self) -> bool:
        """Whether no message of this run is left to read: its result or
        an error arrived, or its tracer is retired."""
        return (self._trace is not None or self._error is not None
                or self._tracer.conn.closed)

    def _read(self, timeout: float | None, until: Callable[[], bool]) -> bool:
        """Handle messages until ``until()`` holds, the run is done, or
        ``timeout`` seconds pass (None: no limit).  Returns ``until()``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not until() and not self._done():
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                if not self._tracer.conn.poll(left):
                    break
                self._handle_message(*self._tracer.conn.recv())
            except (EOFError, OSError):  # the tracer has ended
                self._tracer.retire()
        return until()

    def _handle_message(self, event: str, value) -> None:
        if event == "launched":
            self.app_pid = value
        elif event == "root_exit":
            self._root_status = value
        elif event == "result":
            self._trace = value
            if _thread.tracer is None:
                _thread.tracer = self._tracer
            else:
                self._tracer.retire()
            self._tracer = None
        elif self._error is None:  # an error: the first one wins
            self._error = value

    # -- public API

    def root_status(self) -> tuple[int | None, int | None] | None:
        """(exit_code, signal) of the root once it exited, else None."""
        self._read(0, lambda: self._root_status is not None)
        return self._root_status

    def finished(self) -> bool:
        """Whether the run has ended: its result has arrived, so no process
        of the run is left, or its tracer failed."""
        return self._read(0, self._done)

    def stop(self) -> RunTrace:
        """End the run and return its trace, as ``wait`` does.

        Unless the run's result has arrived, sends the tracer a stop
        request, and a second one KILL_GRACE seconds later: the tree gets
        SIGTERM, then SIGKILL.  A tracer not finished _KILL_WAIT seconds
        after that is retired, and PTRACE_O_EXITKILL takes the tree with
        it; this raises TracerFault.
        """
        for grace in (KILL_GRACE, _KILL_WAIT):
            if not self.finished():  # the tracer is not retired, so the pid is still ours
                os.kill(self._tracer_pid, signal.SIGTERM)
            try:
                return self.wait(timeout=grace)
            except TimeoutError:
                pass
        self._tracer.retire()
        raise TracerFault("process tree did not end after SIGKILL")

    def wait(self, timeout: float | None = None) -> RunTrace:
        """Wait for the run to finish and return its RunTrace.

        Raises LaunchFailure or TracerFault, with the tracer retired, when
        the tracer reported one or ended without a result.
        """
        if not self._read(timeout, self._done):
            raise TimeoutError("trace session still running")
        if self._trace is None:
            self._tracer.retire()
            raise self._error or TracerFault("tracer exited without a result")
        return self._trace


def trace_run(command: Command, policy: Policy, whitelist: Whitelist,
              limits: Limits, tables: InterposerTables = DEFAULT_TABLES,
              discovery: bool = True) -> RunTrace:
    """Run a command to completion under the interposition engine.

    Blocking convenience wrapper around TraceSession (see its ``start`` for
    ``discovery`` and for a command that does not launch) for workloads
    that terminate by themselves.  A run not finished ``limits.timeout``
    seconds after its launch is stopped (``TraceSession.stop``), and its
    trace has ``timed_out`` set.
    """
    session = TraceSession.start(command, policy, whitelist, tables, discovery, limits.hit_cap)
    try:
        return session.wait(timeout=limits.timeout)
    except TimeoutError:
        return replace(session.stop(), timed_out=True)
