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

Ending a run: the tracer alone signals the application's tree and keeps no
clock.  A stop request is a SIGTERM to the tracer (an unreaped child, so
its pid is not reused): on the first the tracer sends SIGTERM to every
process it follows, on any later one SIGKILL, and it returns once none is
left; ``TraceSession.stop`` sends the second KILL_GRACE seconds after the
first.  So no process outlives its run: not a daemon that left the process
group, nor one whose caller died, since the PR_SET_PDEATHSIG of the tracer
and of the launched child is SIGKILL and PTRACE_O_EXITKILL takes the tree
with the tracer.  That signal follows the thread that forked, so the
thread that starts a session must outlive it.

Resource readings sum VmHWM and open descriptors over the measured
processes, each process once however many threads it has.  The tracer
reads when the last thread of a measured process stops at its exit
(PTRACE_EVENT_EXIT: the process still holds its memory and descriptors)
and at the first stop request.  VmHWM only grows, so ``RunTrace.peak_rss``
is the measured processes' peak for a run of any length, except for an
image that a measured process replaced by a later exec, and for a process
that skips its exit stop and is gone at the stop request (on Linux 6.18
even SIGKILL does not skip it).  ``peak_fds`` is the largest count at
those events.  The tree runs without address-space randomisation
(ADDR_NO_RANDOMIZE, as under gdb), so a deterministic program's readings
repeat from run to run; where the kernel refuses, the run warns.

The tracer reports to its session over one pipe, each message a pickled
``(event, value)`` pair behind its 4-byte length: ``("launched", pid)`` at
the root's first exec, ``("root_exit", (exit_code, signal))`` when the
tracer reaps the root, ``("result", RunTrace)`` once no process is left,
and ``("error", LaunchFailure | TracerFault)``.  The launched child holds
the pipe until its exec closes it (O_CLOEXEC) and reports a failed launch
step on it as a LaunchFailure; the tracer reports a fault of its own in
place of the result.  The first error wins.  Only slens code writes to
the pipe, the workload never, so the session may unpickle what it reads.

A session starts no thread: one thread uses it, and reads the pipe only
inside its calls.  That is safe because at most two small messages come
before the result: the child's ``error`` or ``launched``, then
``root_exit``.  So the tracer never waits for a reader while the run goes
on; the result may wait until ``wait`` or ``stop`` drains the pipe, and
every caller calls one.

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
import logging
import os
import pickle
import select
import signal
import struct
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from . import SlensError
from . import _ptrace as pt
from .config import DEFAULT_TABLES, InterposerTables

log = logging.getLogger(__name__)

ENOSYS = 38
STUB_RETURN = -ENOSYS

_MAX_WARNINGS = 200

KILL_GRACE = 2.0  # seconds from the stop request's SIGTERM to SIGKILL
_LAUNCH_WAIT = 30.0  # seconds the parent waits for the launch announcement
_FRAME = struct.Struct("<I")  # the length of each pickled message on the pipe


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
        return FeatureId(int(d["syscall_nr"]), d.get("subfeature"), d.get("pseudofile"))


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

    @property
    def suppresses(self) -> bool:
        return self.kind != "allow"

    def to_json(self) -> dict:
        return {"kind": self.kind, "return_value": self.return_value}

    @staticmethod
    def from_json(d: Mapping) -> "Action":
        default = STUB_RETURN if d["kind"] == "stub" else 0
        return Action(d["kind"], int(d.get("return_value", default)))


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
        arg_idx = tables.open_family.get(syscall_nr)
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


@dataclass(frozen=True)
class ResourceSample:
    """One aggregated reading over a set of processes."""

    timestamp: float
    rss: int  # bytes, sum of per-pid high-water marks (VmHWM)
    fd_count: int  # sum of per-pid open descriptor counts

    def __post_init__(self):
        if self.rss < 0 or self.fd_count < 0:
            raise ValueError("resource readings must be >= 0")


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
                     on_warning: Callable[[str], None] | None = None) -> ResourceSample:
    """Aggregate high-water RSS and open-descriptor counts over the
    processes of ``pids``, each once however many of its threads are listed.

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
    return ResourceSample(timestamp=time.monotonic(), rss=rss, fd_count=fds)


@dataclass
class RunTrace:
    """Everything one traced run produced.

    ``observed`` counts the features of the trapped calls of measured
    processes: of every call in a discovery run, of the calls to the
    policy's overridden syscalls otherwise.  ``root_exit_at`` is the
    CLOCK_MONOTONIC time (``time.monotonic()``) at which the tracer reaped
    the root, or None if it never did.  ``peak_rss`` (bytes) and
    ``peak_fds`` are the tracer's largest readings (see the module
    docstring); ``peak_rss`` 0 means the run was never read, as when it is
    stopped before its first measured exec.  Only ``trace_run`` sets
    ``timed_out``: the tracer keeps no clock.  The tracer sends the whole
    object to its session pickled, so a new field needs no codec.
    """

    observed: Counter  # FeatureId -> trapped invocation count
    exit_code: int | None
    signaled: int | None
    whitelisted_pids_seen: int
    timed_out: bool = False
    warnings: tuple[str, ...] = ()
    root_exit_at: float | None = None
    peak_rss: int = 0
    peak_fds: int = 0


@dataclass(frozen=True)
class Command:
    """A command to launch: argv, environment, working directory.

    ``stdout_path``/``stderr_path`` redirect the tree's standard streams to
    files; None inherits the caller's streams.  A relative ``argv[0]`` is
    found from ``cwd``: the child execs it after changing directory.
    """

    argv: tuple[str, ...]
    env: Mapping[str, str] | None = None
    cwd: str | None = None
    stdout_path: str | None = None
    stderr_path: str | None = None

    def __post_init__(self):
        if not self.argv:
            raise ValueError("empty argv")


@dataclass(frozen=True)
class Limits:
    """Run limits: the caller stops the run ``timeout`` seconds after it
    started the session (see ``trace_run`` and ``harness.run_workload``)."""

    timeout: float = 10.0

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


# ---------------------------------------------------------------------------
# Tracer process


@dataclass
class _Proc:
    tgid: int  # the thread group (process) this tid belongs to
    traced: bool = False
    attach_pending: bool = False  # auto-attach SIGSTOP not yet consumed
    exiting: bool = False  # reached its exit stop


class _Engine:
    """Single-threaded tracer event loop owning one process tree.

    Runs inside a dedicated forked process and reports to its session
    through ``emit(event, value)`` (see the module docstring).
    """

    def __init__(self, command: Command, policy: Policy, whitelist: Whitelist,
                 tables: InterposerTables, discovery: bool, emit):
        self.command = command
        self.policy = policy
        self.discovery = discovery
        self.whitelist = whitelist
        self.tables = tables
        self.emit = emit
        self.procs: dict[int, _Proc] = {}
        self.pending_stops: dict[int, int] = {}
        self.observed: Counter = Counter()
        self.warnings: list[str] = []
        self.ever_traced: set[int] = set()
        self.first_exec_done = False
        self.root_pid = 0
        self.root_exit: int | None = None
        self.root_signal: int | None = None
        self.root_exit_at: float | None = None
        self.kill_signal: int | None = None  # last signal sent to the tree
        self.peak_rss = 0
        self.peak_fds = 0
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

    def _resume(self, pid: int, sig: int = 0) -> None:
        try:
            pt.resume_cont(pid, sig)
        except pt.PtraceError as exc:
            if exc.errno == _errno.ESRCH:
                return  # died under us; waitpid will report it
            raise

    # -- launch

    def _launch(self) -> None:
        argv = list(self.command.argv)
        # Built before the fork, so the child only installs it.  A default
        # action other than allow concerns every call, so it traps them all.
        trap_all = self.discovery or self.policy.default_action.suppresses
        prog = pt.seccomp_filter(
            None if trap_all else {f.syscall_nr for f in self.policy.overrides})
        if not pt.disable_aslr():  # inherited by the child forked below
            self.warn("address-space randomisation stays on: resource "
                      "readings may vary by a page from run to run")
        tracer = os.getpid()
        pid = os.fork()
        if pid == 0:
            # The child reports a failed step on the session's pipe, which
            # its exec closes (O_CLOEXEC), and never returns.
            step = "exec"
            try:
                pt.set_pdeathsig(signal.SIGKILL)
                if os.getppid() != tracer:
                    os._exit(127)  # the tracer died before the line above
                os.setpgid(0, 0)
                if self.command.cwd:
                    os.chdir(self.command.cwd)
                if self.command.stdout_path:
                    fd = os.open(self.command.stdout_path,
                                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(fd, 1)
                    os.close(fd)
                if self.command.stderr_path:
                    fd = os.open(self.command.stderr_path,
                                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(fd, 2)
                    os.close(fd)
                env = dict(self.command.env) if self.command.env is not None \
                    else dict(os.environ)
                pt.traceme()
                os.kill(os.getpid(), signal.SIGSTOP)
                step = "seccomp"
                pt.install_seccomp(prog)
                step = "exec"
                os.execve(argv[0], argv, env)
            except OSError as exc:
                err = exc.errno or 0
                what = "seccomp filter install for" if step == "seccomp" else "exec of"
                self.emit("error", LaunchFailure(
                    f"{what} {argv[0]} failed: "
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
        self._resume(pid)

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
        pending = self.pending_stops.pop(child_pid, None)
        if pending is not None:
            # The child stopped before we learned about it: that stop is its
            # auto-attach SIGSTOP; consume it now.
            child.attach_pending = False
            self._resume(child_pid)

    def _on_seccomp_stop(self, pid: int) -> None:
        """A measured process is about to make a trapped call: count its
        feature and apply the policy.  Syscall number -1 makes the kernel
        skip the call and return the value left in rax."""
        pt.getregs(pid, self._regs)
        nr = pt.to_signed(self._regs.orig_rax)
        feature = classify_feature(nr, self._regs.syscall_args(),
                                   self.tables, self._read_string(pid))
        self.observed[feature] += 1
        action = self.policy.action_for(feature)
        if action.suppresses:
            self._regs.orig_rax = pt.to_unsigned(-1)
            self._regs.rax = pt.to_unsigned(action.return_value)
            pt.setregs(pid, self._regs)

    def _on_exit(self, pid: int, status: int) -> None:
        self.procs.pop(pid, None)
        if pid == self.root_pid:
            self.root_exit_at = time.monotonic()
            if os.WIFEXITED(status):
                self.root_exit = os.WEXITSTATUS(status)
            elif os.WIFSIGNALED(status):
                self.root_signal = os.WTERMSIG(status)
            self.emit("root_exit", (self.root_exit, self.root_signal))

    def _handle_stop(self, pid: int, status: int) -> None:
        sig = os.WSTOPSIG(status)
        event = status >> 16
        proc = self.procs.get(pid)
        if proc is None:
            # A child stopped before its fork event arrived.
            self.pending_stops[pid] = status
            return
        if event in (pt.PTRACE_EVENT_FORK, pt.PTRACE_EVENT_VFORK,
                     pt.PTRACE_EVENT_CLONE):
            child = pt.geteventmsg(pid)
            # A clone may make a thread of the same process.
            info = _read_status(child) if event == pt.PTRACE_EVENT_CLONE else None
            self._on_child(pid, child, info[0] if info else child)
            self._resume(pid)
        elif event == pt.PTRACE_EVENT_EXEC:
            self._on_exec(pid)
            self._resume(pid)
        elif event == pt.PTRACE_EVENT_SECCOMP:
            if proc.traced:
                self._on_seccomp_stop(pid)
            self._resume(pid)
        elif event == pt.PTRACE_EVENT_EXIT:
            proc.exiting = True
            # The last thread of a process to exit still holds its memory
            # and descriptors; an earlier thread's exit frees neither.
            if proc.traced and not any(p.tgid == proc.tgid and not p.exiting
                                       for p in self.procs.values()):
                self._sample(pid)
            self._resume(pid)
        elif sig == signal.SIGSTOP and proc.attach_pending:
            proc.attach_pending = False
            self._resume(pid)
        else:
            self._resume(pid, sig)  # forward genuine signals

    # -- readings and kill: the stop request's handler only reads /proc and
    # sends signals, so the event loop's waitpid resumes after it and reaps
    # until no process is left.

    def _sample(self, exiting: int | None = None) -> None:
        # One thread per process: ``exiting``, or one not yet at its exit.
        reps = {p.tgid: pid for pid, p in self.procs.items()
                if p.traced and not p.exiting}
        if exiting is not None:
            reps[self.procs[exiting].tgid] = exiting
        s = sample_resources(reps.values(), self.warn)
        self.peak_rss = max(self.peak_rss, s.rss)
        self.peak_fds = max(self.peak_fds, s.fd_count)

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
        while self.procs:
            try:
                pid, status = os.waitpid(-1, pt.WALL)
            except ChildProcessError:
                break
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                self._on_exit(pid, status)
            elif os.WIFSTOPPED(status):
                self._handle_stop(pid, status)
        return RunTrace(
            observed=self.observed,
            exit_code=self.root_exit,
            signaled=self.root_signal,
            whitelisted_pids_seen=len(self.ever_traced),
            warnings=tuple(self.warnings),
            root_exit_at=self.root_exit_at,
            peak_rss=self.peak_rss,
            peak_fds=self.peak_fds,
        )


def _tracer_process(parent, command, policy, whitelist, tables, discovery,
                    write_fd) -> None:
    """Entry point of the forked tracer process.  Never returns."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # until _launch takes requests
    pt.set_pdeathsig(signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)  # the parent died before the line above

    def emit(event: str, value) -> None:
        # A stop request's SIGTERM can cut short a write that waits for
        # the reader, which returns the bytes written so far.
        data = pickle.dumps((event, value))
        view = memoryview(_FRAME.pack(len(data)) + data)
        try:
            while view:
                view = view[os.write(write_fd, view):]
        except OSError:
            pass

    engine = _Engine(command, policy, whitelist, tables, discovery, emit)
    code = 0
    try:
        emit("result", engine.run())
    except Exception as exc:  # noqa: BLE001 - report anything as a tracer fault
        emit("error", TracerFault(f"{type(exc).__name__}: {exc}"))
        engine._kill_tree(signal.SIGKILL)
        code = 1
    os._exit(code)  # closes the pipe


# ---------------------------------------------------------------------------
# Parent-side session


class TraceSession:
    """Handle to a run executing under a dedicated tracer process.

    The tracer owns all tracee interactions; this object only reads its
    messages (see the module docstring) and can ask the tracer to end the
    run (``stop``).  It starts no thread: one thread uses it, and each call
    reads the pipe in that thread.  A session ends with ``wait`` or
    ``stop``, which drain the pipe, or with the error of ``app_pid``.
    """

    def __init__(self, tracer_pid: int, read_fd: int):
        self._tracer_pid = tracer_pid
        self._read_fd = read_fd
        self._poll = select.poll()
        self._poll.register(read_fd, select.POLLIN)
        self._buf = bytearray()
        self._eof = False
        self._app_pid: int | None = None
        self._root_status: tuple[int | None, int | None] | None = None
        self._trace: RunTrace | None = None
        self._error: LaunchFailure | TracerFault | None = None

    @classmethod
    def start(cls, command: Command, policy: Policy, whitelist: Whitelist,
              tables: InterposerTables = DEFAULT_TABLES,
              discovery: bool = True) -> "TraceSession":
        """Launch ``command`` under a new tracer process.

        A ``discovery`` run traps, and so observes, every syscall; any
        other run traps only the syscalls that ``policy`` overrides.  The
        calling thread must outlive the session: its exit is a stop request
        (see the module docstring).
        """
        read_fd, write_fd = os.pipe()
        parent = os.getpid()
        tracer_pid = os.fork()
        if tracer_pid == 0:
            # Other threads may be starting sessions of their own, so this
            # child must touch no lock another thread may hold: it never
            # logs, and writes only with os.write.  It also closes every
            # inherited descriptor but stdio and its own pipe, since one it
            # kept could be another session's pipe or a test script's
            # output pipe, whose reader would then wait for this tracer.
            # Whatever escapes, such as KeyboardInterrupt, must not unwind
            # the caller's stack in this copy of it.
            try:
                os.closerange(3, write_fd)
                os.closerange(max(3, write_fd + 1), os.sysconf("SC_OPEN_MAX"))
                _tracer_process(parent, command, policy, whitelist, tables,
                                discovery, write_fd)
            finally:
                os._exit(1)
        os.close(write_fd)
        return cls(tracer_pid, read_fd)

    # -- the tracer's messages, read in the caller's thread

    def _read(self, timeout: float | None, until: Callable[[], bool]) -> bool:
        """Handle messages until ``until()`` holds, the pipe ends, or
        ``timeout`` seconds pass (None: no limit).  Returns ``until()``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not until() and not self._eof:
            left = None if deadline is None else max(0, deadline - time.monotonic())
            if not self._poll.poll(None if left is None else left * 1000):
                break
            chunk = os.read(self._read_fd, 65536)
            if not chunk:
                self._eof = True
                os.close(self._read_fd)
                break
            self._buf += chunk
            while len(self._buf) >= _FRAME.size:
                end = _FRAME.size + _FRAME.unpack_from(self._buf)[0]
                if len(self._buf) < end:
                    break
                self._handle_message(*pickle.loads(self._buf[_FRAME.size:end]))
                del self._buf[:end]
        return until()

    def _handle_message(self, event: str, value) -> None:
        if event == "launched":
            self._app_pid = value
        elif event == "root_exit":
            self._root_status = value
        elif event == "result":
            self._trace = value
        elif self._error is None:  # an error: the first one wins
            self._error = value

    def _launched(self) -> bool:
        """Wait until the root has exec'd or an error came; whether it exec'd."""
        self._read(_LAUNCH_WAIT, lambda: self._app_pid is not None or self._error is not None)
        return self._app_pid is not None

    # -- public API

    @property
    def app_pid(self) -> int:
        """Pid of the application root (also its process-group id), once the
        root has exec'd the command.

        Raises the run's LaunchFailure or TracerFault if it has none; after
        an error the tracer ends at once, and this reaps it.
        """
        if not self._launched():
            if self._error is not None:
                self._read(None, lambda: self._eof)
            if self._eof:  # the tracer ended: reap it, as ``wait`` would
                os.waitpid(self._tracer_pid, 0)
            raise self._error or LaunchFailure("tracer exited before launch")
        return self._app_pid

    def root_status(self) -> tuple[int | None, int | None] | None:
        """(exit_code, signal) of the root once it exited, else None."""
        self._read(0, lambda: self._root_status is not None)
        return self._root_status

    def finished(self) -> bool:
        """Whether the tracer has ended: no process of the run is left."""
        return self._read(0, lambda: self._eof)

    def stop(self) -> RunTrace:
        """End the run and return its trace, as ``wait`` does.

        Once the launch is announced, sends the tracer a stop request, and
        a second one KILL_GRACE seconds later: the tree gets SIGTERM, then
        SIGKILL.  A tracer not finished 10 s after that is killed, and
        PTRACE_O_EXITKILL takes the tree with it; this raises TracerFault.
        """
        self._launched()
        for grace in (KILL_GRACE, 10):
            if not self._eof:  # the tracer is not reaped, so the pid is still ours
                os.kill(self._tracer_pid, signal.SIGTERM)
            try:
                return self.wait(timeout=grace)
            except TimeoutError:
                pass
        os.kill(self._tracer_pid, signal.SIGKILL)
        self._read(None, lambda: False)  # to the end, which the kill brings
        os.waitpid(self._tracer_pid, 0)
        raise TracerFault("process tree did not end after SIGKILL")

    def wait(self, timeout: float | None = None) -> RunTrace:
        """Wait for the run to finish and return its RunTrace.

        Raises LaunchFailure or TracerFault when the tracer reported one.
        """
        if not self._read(timeout, lambda: self._eof):
            raise TimeoutError("trace session still running")
        try:
            os.waitpid(self._tracer_pid, 0)
        except ChildProcessError:
            pass
        if self._error is not None:
            raise self._error
        if self._trace is None:
            raise TracerFault("tracer exited without a result")
        return self._trace


def trace_run(command: Command, policy: Policy, whitelist: Whitelist,
              limits: Limits, tables: InterposerTables = DEFAULT_TABLES,
              discovery: bool = True) -> RunTrace:
    """Run a command to completion under the interposition engine.

    Blocking convenience wrapper around TraceSession (see its ``start`` for
    ``discovery``) for workloads that terminate by themselves.  A run not
    finished ``limits.timeout`` seconds after the start is stopped
    (``TraceSession.stop``), and its trace has ``timed_out`` set.
    """
    session = TraceSession.start(command, policy, whitelist, tables, discovery)
    try:
        return session.wait(timeout=limits.timeout)
    except TimeoutError:
        return replace(session.stop(), timed_out=True)
