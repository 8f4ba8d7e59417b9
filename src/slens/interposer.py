"""System-call interposition engine.

Launches a target command under ptrace, intercepts every syscall entry and
exit of the whole process tree, applies a per-feature policy (allow / stub /
fake) by rewriting the syscall number at entry and the return register at
exit, records the observed features, follows children, and filters by an
executable whitelist checked at every exec.

Feature granularity: a feature is a syscall number, optionally narrowed by a
sub-feature selector argument (vectored syscalls such as ioctl) or by a
pseudo-file path class (/proc, /dev, /sys) for the open family.

Policy only applies to whitelisted processes, and only after their first
exec event: syscalls issued by the launcher before exec are neither recorded
nor interfered with.  Non-whitelisted processes run unmodified and
unrecorded (they are resumed with PTRACE_CONT, so they execute at near
native speed).

Known blind spot: calls served by the vDSO (clock_gettime, gettimeofday,
time, getcpu on common platforms) never enter the kernel and are therefore
not interceptable by any syscall-level tracer.  They are never observed and
never classified; treat their absence from results accordingly.
"""

from __future__ import annotations

import errno as _errno
import json
import logging
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from . import SlensError
from . import _ptrace as pt
from .config import DEFAULT_TABLES, InterposerTables

log = logging.getLogger(__name__)

ENOSYS = 38
STUB_RETURN = -ENOSYS

_MAX_WARNINGS = 200


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
    """What to do with a feature at syscall entry.

    ``allow`` runs the call unchanged.  ``stub`` and ``fake`` suppress the
    kernel execution (the syscall number is rewritten to an invalid one) and
    inject ``return_value`` at exit: always -ENOSYS for a stub, a success
    code (0 unless overridden) for a fake.
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
        return Action(d["kind"], int(d.get("return_value", 0)))


ALLOW = Action("allow")
STUB = Action("stub", STUB_RETURN)


def fake(return_value: int = 0) -> Action:
    return Action("fake", return_value)


@dataclass(frozen=True)
class Policy:
    """Per-feature decision table applied at syscall entry."""

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


@dataclass
class RunTrace:
    """Everything one traced run produced.

    ``root_exit_at`` is the CLOCK_MONOTONIC time (``time.monotonic()``) at
    which the tracer reaped the root, or None if it never did.
    """

    observed: Counter  # FeatureId -> invocation count
    exit_code: int | None
    signaled: int | None
    whitelisted_pids_seen: int
    timed_out: bool = False
    warnings: tuple[str, ...] = ()
    root_exit_at: float | None = None

    def features(self) -> tuple[FeatureId, ...]:
        return tuple(sorted(self.observed, key=FeatureId.sort_key))

    def to_json(self) -> dict:
        items = sorted(self.observed.items(), key=lambda kv: kv[0].sort_key())
        return {
            "observed": [{"feature": f.to_json(), "count": c} for f, c in items],
            "exit_code": self.exit_code,
            "signaled": self.signaled,
            "whitelisted_pids_seen": self.whitelisted_pids_seen,
            "timed_out": self.timed_out,
            "warnings": list(self.warnings),
            "root_exit_at": self.root_exit_at,
        }

    @staticmethod
    def from_json(d: Mapping) -> "RunTrace":
        observed: Counter = Counter()
        for item in d["observed"]:
            observed[FeatureId.from_json(item["feature"])] = int(item["count"])
        return RunTrace(
            observed=observed,
            exit_code=d["exit_code"],
            signaled=d["signaled"],
            whitelisted_pids_seen=int(d["whitelisted_pids_seen"]),
            timed_out=bool(d["timed_out"]),
            warnings=tuple(d.get("warnings", ())),
            root_exit_at=d["root_exit_at"],
        )


@dataclass(frozen=True)
class Command:
    """A command to launch: argv, environment, working directory.

    ``stdout_path``/``stderr_path`` redirect the tree's standard streams to
    files; None inherits the caller's streams.
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
    """Run limits.  The tracer kills the tree ``timeout`` seconds after
    launch; the harness gives it a later deadline than its own."""

    timeout: float = 10.0

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


# ---------------------------------------------------------------------------
# Tracer process


class _Deadline(Exception):
    pass


@dataclass
class _Proc:
    traced: bool = False
    pending_inject: int | None = None
    attach_pending: bool = False  # auto-attach SIGSTOP not yet consumed


class _Engine:
    """Single-threaded tracer event loop owning one process tree.

    Runs inside a dedicated forked process; communicates with the parent via
    newline-delimited JSON on a pipe.
    """

    def __init__(self, command: Command, policy: Policy, whitelist: Whitelist,
                 limits: Limits, tables: InterposerTables, emit):
        self.command = command
        self.policy = policy
        self.whitelist = whitelist
        self.limits = limits
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
        self.timed_out = False
        self._regs = pt.UserRegs()

    # -- helpers

    def warn(self, message: str) -> None:
        if len(self.warnings) < _MAX_WARNINGS:
            self.warnings.append(message)

    def _emit_pids(self) -> None:
        traced = sorted(pid for pid, p in self.procs.items() if p.traced)
        self.emit({"event": "pids", "pids": traced})

    def _read_string(self, pid: int):
        def reader(addr: int) -> str | None:
            try:
                return pt.read_tracee_string(pid, addr)
            except OSError as exc:
                self.warn(f"pid {pid}: unreadable path argument: {exc}")
                return None
        return reader

    def _resume(self, pid: int, sig: int = 0) -> None:
        proc = self.procs.get(pid)
        try:
            if proc is not None and proc.traced:
                pt.resume_syscall(pid, sig)
            else:
                pt.resume_cont(pid, sig)
        except pt.PtraceError as exc:
            if exc.errno == _errno.ESRCH:
                return  # died under us; waitpid will report it
            raise

    # -- launch

    def _launch(self) -> None:
        argv = list(self.command.argv)
        exe = argv[0]
        if not os.path.exists(exe):
            raise LaunchFailure(f"executable not found: {exe}")
        if not os.access(exe, os.X_OK):
            raise LaunchFailure(f"not executable: {exe}")
        err_r, err_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(err_r)
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
                os.execve(exe, argv, env)
            except OSError as exc:
                try:
                    os.write(err_w, str(exc.errno or 0).encode())
                except OSError:
                    pass
            except Exception:
                pass
            os._exit(127)
        os.close(err_w)
        try:
            os.setpgid(pid, pid)
        except OSError:
            pass
        self.exec_err_fd = err_r
        os.set_blocking(err_r, False)
        self.root_pid = pid
        self.procs[pid] = _Proc()

        # First stop is the child's own SIGSTOP; set options there.  Only
        # then announce the pid: a signal sent to the group before the child
        # reached PTRACE_TRACEME would kill it untraced.
        _, status = os.waitpid(pid, pt.WALL)
        if not os.WIFSTOPPED(status):
            raise TracerFault(f"unexpected initial status {status:#x}")
        pt.setoptions(pid, pt.PTRACE_O_TRACESYSGOOD | pt.PTRACE_O_TRACEFORK
                      | pt.PTRACE_O_TRACEVFORK | pt.PTRACE_O_TRACECLONE
                      | pt.PTRACE_O_TRACEEXEC | pt.PTRACE_O_EXITKILL)
        self.emit({"event": "launched", "pid": pid})
        self._resume(pid)

    def _check_exec_error(self) -> None:
        try:
            data = os.read(self.exec_err_fd, 64)
        except BlockingIOError:
            return
        except OSError:
            return
        if data:
            err = int(data.decode() or "0")
            raise LaunchFailure(
                f"exec of {self.command.argv[0]} failed: {os.strerror(err) if err else 'unknown error'}"
            )

    # -- event handling

    def _on_exec(self, pid: int) -> None:
        proc = self.procs.setdefault(pid, _Proc())
        try:
            image = os.readlink(f"/proc/{pid}/exe")
        except OSError as exc:
            image = None
            self.warn(f"pid {pid}: cannot resolve exec image: {exc}")
        first = not self.first_exec_done
        self.first_exec_done = True
        was_traced = proc.traced
        proc.traced = resolve_exec(image, self.whitelist, first)
        proc.pending_inject = None
        if proc.traced:
            self.ever_traced.add(pid)
        if proc.traced != was_traced or proc.traced:
            self._emit_pids()

    def _on_child(self, parent_pid: int, child_pid: int) -> None:
        parent = self.procs.get(parent_pid)
        child = self.procs.setdefault(child_pid, _Proc())
        child.traced = bool(parent and parent.traced)
        child.pending_inject = None
        child.attach_pending = True
        if child.traced:
            self.ever_traced.add(child_pid)
            self._emit_pids()
        pending = self.pending_stops.pop(child_pid, None)
        if pending is not None:
            # The child stopped before we learned about it: that stop is its
            # auto-attach SIGSTOP; consume it now.
            child.attach_pending = False
            self._resume(child_pid)

    def _on_syscall_stop(self, pid: int, proc: _Proc) -> None:
        kind = pt.syscall_stop_kind(pid)
        if kind == pt.SYSCALL_INFO_ENTRY:
            pt.getregs(pid, self._regs)
            nr = pt.to_signed(self._regs.orig_rax)
            feature = classify_feature(nr, self._regs.syscall_args(),
                                       self.tables, self._read_string(pid))
            self.observed[feature] += 1
            action = self.policy.action_for(feature)
            if action.suppresses:
                self._regs.orig_rax = pt.to_unsigned(-1)
                pt.setregs(pid, self._regs)
                proc.pending_inject = action.return_value
        elif kind == pt.SYSCALL_INFO_EXIT:
            if proc.pending_inject is not None:
                pt.getregs(pid, self._regs)
                self._regs.rax = pt.to_unsigned(proc.pending_inject)
                pt.setregs(pid, self._regs)
                proc.pending_inject = None

    def _on_exit(self, pid: int, status: int) -> None:
        self.procs.pop(pid, None)
        if pid == self.root_pid:
            self.root_exit_at = time.monotonic()
            if os.WIFEXITED(status):
                self.root_exit = os.WEXITSTATUS(status)
            elif os.WIFSIGNALED(status):
                self.root_signal = os.WTERMSIG(status)
            self.emit({"event": "root_exit", "exit_code": self.root_exit,
                       "signaled": self.root_signal})
        self._emit_pids()

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
            self._on_child(pid, pt.geteventmsg(pid))
            self._resume(pid)
        elif event == pt.PTRACE_EVENT_EXEC:
            self._on_exec(pid)
            self._resume(pid)
        elif (status >> 8) == pt.SYSCALL_STOP_SIG:
            self._on_syscall_stop(pid, proc)
            self._resume(pid)
        elif sig == signal.SIGSTOP and proc.attach_pending:
            proc.attach_pending = False
            self._resume(pid)
        elif sig == signal.SIGTRAP:
            # Spurious trap (e.g. from the exec'd image); do not forward.
            self._resume(pid)
        else:
            self._resume(pid, sig)  # forward genuine signals

    # -- kill / reap

    def _kill_tree(self, sig: int) -> None:
        try:
            os.killpg(self.root_pid, sig)
        except OSError:
            pass
        for pid in list(self.procs):
            try:
                os.kill(pid, sig)
            except OSError:
                pass

    def _drain(self) -> None:
        while self.procs:
            try:
                pid, status = os.waitpid(-1, pt.WALL)
            except ChildProcessError:
                break
            except InterruptedError:
                continue
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                self._on_exit(pid, status)
            elif os.WIFSTOPPED(status):
                # Keep stopped tracees moving so pending kill signals land.
                try:
                    pt.resume_cont(pid, 0)
                except pt.PtraceError:
                    pass

    def _timeout_kill(self) -> None:
        self.timed_out = True
        self.warn(f"timeout after {self.limits.timeout}s; killing process tree")
        self._kill_tree(signal.SIGKILL)
        self._drain()
        if self.root_signal is None and self.root_exit is None:
            self.root_signal = signal.SIGKILL

    # -- main loop

    def run(self) -> RunTrace:
        self._launch()

        def on_alarm(signum, frame):
            raise _Deadline()

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limits.timeout)
        try:
            try:
                while self.procs:
                    try:
                        pid, status = os.waitpid(-1, pt.WALL)
                    except ChildProcessError:
                        break
                    if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                        self._on_exit(pid, status)
                    elif os.WIFSTOPPED(status):
                        self._handle_stop(pid, status)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Deadline:
            # Also when the timer fired after the loop ended but before it
            # was disarmed; the tree is gone then, and nothing is killed.
            self._timeout_kill()
        self._check_exec_error()
        return RunTrace(
            observed=self.observed,
            exit_code=self.root_exit,
            signaled=self.root_signal,
            whitelisted_pids_seen=len(self.ever_traced),
            timed_out=self.timed_out,
            warnings=tuple(self.warnings),
            root_exit_at=self.root_exit_at,
        )


def _tracer_process(command, policy, whitelist, limits, tables, write_fd) -> None:
    """Entry point of the forked tracer process.  Never returns."""

    def emit(msg: dict) -> None:
        try:
            os.write(write_fd, (json.dumps(msg) + "\n").encode())
        except OSError:
            pass

    engine = _Engine(command, policy, whitelist, limits, tables, emit)
    code = 0
    try:
        trace = engine.run()
        emit({"event": "result", "trace": trace.to_json()})
    except LaunchFailure as exc:
        emit({"event": "error", "kind": "LaunchFailure", "message": str(exc)})
        code = 1
    except Exception as exc:  # noqa: BLE001 - report anything as a tracer fault
        emit({"event": "error", "kind": "TracerFault",
              "message": f"{type(exc).__name__}: {exc}"})
        engine._kill_tree(signal.SIGKILL)
        code = 1
    finally:
        try:
            os.close(write_fd)
        except OSError:
            pass
    os._exit(code)


# ---------------------------------------------------------------------------
# Parent-side session


class TraceSession:
    """Handle to a run executing under a dedicated tracer process.

    The tracer owns all tracee interactions; this object only reads its
    event stream and can signal the application process group.
    """

    def __init__(self, tracer_pid: int, read_fd: int):
        self._tracer_pid = tracer_pid
        self._read_fd = read_fd
        self._lock = threading.Lock()
        self._launched = threading.Event()
        self._done = threading.Event()
        self._app_pid: int | None = None
        self._traced_pids: frozenset[int] = frozenset()
        self._root_status: tuple[int | None, int | None] | None = None
        self._trace: RunTrace | None = None
        self._error: tuple[str, str] | None = None
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    @classmethod
    def start(cls, command: Command, policy: Policy, whitelist: Whitelist,
              limits: Limits, tables: InterposerTables = DEFAULT_TABLES) -> "TraceSession":
        exe = command.argv[0]
        if not os.path.exists(exe):
            raise LaunchFailure(f"executable not found: {exe}")
        read_fd, write_fd = os.pipe()
        tracer_pid = os.fork()
        if tracer_pid == 0:
            # Other threads may be starting sessions of their own, so this
            # child must touch no lock another thread may hold: it never
            # logs, and writes only with os.write.  It also closes every
            # inherited descriptor but stdio and its own pipe, since one it
            # kept could be another session's pipe or a test script's
            # output pipe, whose reader would then wait for this tracer.
            os.closerange(3, write_fd)
            os.closerange(max(3, write_fd + 1), os.sysconf("SC_OPEN_MAX"))
            _tracer_process(command, policy, whitelist, limits, tables, write_fd)
            os._exit(1)  # unreachable
        os.close(write_fd)
        return cls(tracer_pid, read_fd)

    # -- reader thread

    def _read_loop(self) -> None:
        buf = b""
        try:
            while True:
                chunk = os.read(self._read_fd, 65536)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if line:
                        self._handle_message(json.loads(line))
        except OSError:
            pass
        finally:
            try:
                os.close(self._read_fd)
            except OSError:
                pass
            self._launched.set()
            self._done.set()

    def _handle_message(self, msg: dict) -> None:
        event = msg.get("event")
        if event == "launched":
            with self._lock:
                self._app_pid = msg["pid"]
            self._launched.set()
        elif event == "pids":
            with self._lock:
                self._traced_pids = frozenset(msg["pids"])
        elif event == "root_exit":
            with self._lock:
                self._root_status = (msg["exit_code"], msg["signaled"])
        elif event == "result":
            with self._lock:
                self._trace = RunTrace.from_json(msg["trace"])
        elif event == "error":
            with self._lock:
                self._error = (msg.get("kind", "TracerFault"), msg.get("message", ""))

    # -- public API

    @property
    def app_pid(self) -> int:
        """Pid of the application root (also its process-group id)."""
        self._launched.wait(timeout=30)
        with self._lock:
            if self._app_pid is None:
                kind, message = self._error or ("LaunchFailure", "tracer exited before launch")
                raise LaunchFailure(message) if kind == "LaunchFailure" else TracerFault(message)
            return self._app_pid

    def traced_pids(self) -> frozenset[int]:
        with self._lock:
            return self._traced_pids

    def root_status(self) -> tuple[int | None, int | None] | None:
        """(exit_code, signal) of the root once it exited, else None."""
        with self._lock:
            return self._root_status

    def finished(self) -> bool:
        return self._done.is_set()

    def signal_tree(self, sig: int) -> None:
        """Send a signal to the application's process group (best effort)."""
        try:
            os.killpg(self.app_pid, sig)
        except (OSError, SlensError):
            pass

    def kill_tracer(self) -> None:
        try:
            os.kill(self._tracer_pid, signal.SIGKILL)
        except OSError:
            pass

    def wait(self, timeout: float | None = None) -> RunTrace:
        """Wait for the run to finish and return its RunTrace.

        Raises LaunchFailure or TracerFault when the tracer reported one.
        """
        if not self._done.wait(timeout):
            raise TimeoutError("trace session still running")
        self._reader.join()
        try:
            os.waitpid(self._tracer_pid, 0)
        except ChildProcessError:
            pass
        with self._lock:
            if self._error is not None:
                kind, message = self._error
                raise LaunchFailure(message) if kind == "LaunchFailure" else TracerFault(message)
            if self._trace is None:
                raise TracerFault("tracer exited without a result")
            return self._trace


def trace_run(command: Command, policy: Policy, whitelist: Whitelist,
              limits: Limits, tables: InterposerTables = DEFAULT_TABLES) -> RunTrace:
    """Run a command to completion under the interposition engine.

    Blocking convenience wrapper around TraceSession for workloads that
    terminate by themselves.  The engine enforces ``limits.timeout``; on
    timeout the tree is killed and the returned trace has ``timed_out`` set.
    """
    session = TraceSession.start(command, policy, whitelist, limits, tables)
    try:
        return session.wait(timeout=limits.timeout + 30)
    except TimeoutError:
        session.signal_tree(signal.SIGKILL)
        session.kill_tracer()
        raise TracerFault("tracer did not finish within its deadline") from None
