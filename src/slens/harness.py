"""Workload harness: run one application attempt and judge it.

Starts the application under the interposition engine, waits for readiness,
drives it with the user's test script, has the tracer end the tree, and
produces a WorkloadOutcome, which carries the run's RunTrace: its peak
RSS and descriptor count, for one, are the ones the tracer read.  A run
adds no thread to its caller: the harness polls the session in the
calling thread.  Nor does it add a process beyond the run's tree: the
calling thread's tracer, forked by its first run, serves every later one
and outlives them (see ``slens.interposer``).

One clock and one verdict per run:
  - One deadline, ``started + limits.timeout``, covers readiness (port or
    delay) and the test script; a port wait gives up sooner, at
    ``limits.ready_timeout``, if set.  Then the harness asks the tracer to
    end the tree (``TraceSession.stop``); the tracer sends SIGTERM to every
    process it follows, daemons that left the process group included, and
    SIGKILL when the session asks again KILL_GRACE later.  The harness
    signals no process of the tree itself.  The tracer, which keeps no
    clock, ends the tree on its own past ``limits.hit_cap`` trapped calls.
  - Live session state (the root's status, whether any process is left)
    only decides how long to keep waiting.
  - The final trace decides the reason: ``judge`` sets it once, after
    teardown, from the RunTrace, the readiness result and the script's
    exit code and end time.  Its five reasons are the only ones.  A run
    the tracer could not launch or observe gets no verdict: LaunchFailure
    or TracerFault propagates to the caller, who may run it again.

Test-script contract (stable):
  - argv[1] = application host, argv[2] = port when one applies;
  - environment carries SLENS_HOST, SLENS_PORT (when applicable) and
    SLENS_APP_PID;
  - exit code 0 means the run succeeded;
  - the last stdout line, if numeric, is taken as the performance metric.

The script runs by the absolute path that ``AppSpec.validate`` checked, so
a relative path names a file under the caller's cwd, not the run's.  A
script the kernel cannot exec (no ``#!`` line, or a missing interpreter)
raises ScriptMissing.  The script runs with the run's working directory as
cwd, in a session and process group of its own.  Its stdout goes to
script_stdout.log there and its stderr is discarded.  The run waits for the
script itself to exit, not for its output to close, and then SIGKILLs the
script's process group, so no child it left behind in that group outlives
the run.  A child that calls ``setsid`` leaves the group, so the kill
misses it and it does outlive the run (ROADMAP.md item 10, step A, closes
that gap).  The application's stdout/stderr are captured to app_stdout.log
/ app_stderr.log there.  The tokens ``{port}`` and ``{workdir}`` in the app
command are substituted before launch.  The application inherits the
caller's environment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import shutil
import signal
import socket
import subprocess
import tempfile
import time
from dataclasses import dataclass

from . import SlensError
from .config import DEFAULT_TABLES, InterposerTables
from .interposer import (
    Command,
    Limits,
    Policy,
    RunTrace,
    TraceSession,
    Whitelist,
)

REASON_OK = "script_ok"
REASON_SCRIPT_FAIL = "script_fail"
REASON_CRASH = "crash"
REASON_TIMEOUT = "timeout"
REASON_RUNAWAY = "runaway"
# No run ends with this reason: a tracer fault raises TracerFault.  Kept for
# perfbench/micro.py, its only reader.
REASON_TRACER_FAULT = "tracer_fault"


class ScriptMissing(SlensError):
    """The test script does not exist, is not executable, or cannot be
    executed (the kernel refused its exec)."""


@dataclass(frozen=True)
class Readiness:
    """When the app is considered ready for the test script.

    Either a fixed delay, or polling a TCP port until it accepts
    connections, not both.  ``port=0`` requests a free port allocated per
    run.
    """

    delay: float = 0.0
    port: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError("readiness delay must be a finite number >= 0")
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ValueError(f"readiness port must be in 0..65535, not {self.port}")
        if self.port is not None and self.delay:
            raise ValueError("readiness is a delay or a port, not both")


@dataclass(frozen=True)
class AppSpec:
    """An application plus the workload that exercises it.  The application
    runs with the caller's environment."""

    name: str
    app_command: tuple[str, ...]
    test_script: str
    readiness: Readiness = Readiness()
    whitelist: Whitelist = Whitelist()
    workdir_template: str | None = None

    def validate(self) -> None:
        if not os.path.isfile(self.test_script):
            raise ScriptMissing(f"test script not found: {self.test_script}")
        if not os.access(self.test_script, os.X_OK):
            raise ScriptMissing(f"test script not executable: {self.test_script}")

    def workload_hash(self) -> str:
        """Content hash identifying this spec + script combination."""
        self.validate()
        h = hashlib.sha256()
        ident = {
            "name": self.name,
            "app_command": list(self.app_command),
            # Without this always-empty entry every stored workload hash,
            # and with it every stored key, would change.
            "env": {},
            "readiness": {"delay": self.readiness.delay, "port": self.readiness.port},
            "whitelist": sorted(self.whitelist.binary_paths),
        }
        h.update(json.dumps(ident, sort_keys=True).encode())
        with open(self.test_script, "rb") as f:
            h.update(f.read())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class WorkloadOutcome:
    """One judged run: its verdict and the trace it was judged from.

    ``reason`` is one of the five that ``judge`` gives, and the run
    succeeded exactly when it is script_ok.  A run the tracer failed to
    observe has no outcome (TracerFault).  ``trace`` is the run's own
    RunTrace, not a copy: the outcome's readings (``peak_rss``,
    ``peak_fds``, ``observed``) are read from it.  ``ready_s`` is the time
    from launch to readiness (None: never ready)."""

    reason: str
    perf_metric: float | None
    duration: float
    trace: RunTrace
    ready_s: float | None = None

    @property
    def success(self) -> bool:
        return self.reason == REASON_OK

    @property
    def hits(self) -> int:
        """The trapped calls of measured processes."""
        return sum(self.trace.observed.values())

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "reason": self.reason,
            "perf_metric": self.perf_metric,
            "peak_rss": self.trace.peak_rss,
            "peak_fds": self.trace.peak_fds,
            "duration": self.duration,
            "hits": self.hits,
            "ready_s": self.ready_s,
        }


def _allocate_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_ready(port: int | None, until: float, deadline: float,
                session: TraceSession) -> bool:
    """Wait until ``port`` accepts a connection or, without a port, until
    ``until`` (the readiness delay) has passed.

    Returns False at the deadline or once the root has exited abnormally.
    Once no process is left, a port can no longer open, while a delay has
    nothing left to wait for.  A root that exits 0 while a child still runs
    may have daemonised, so the port is polled on.  The pause between checks
    starts at 1 ms and doubles up to 20 ms, so an app that is ready at once
    is seen at once.
    """
    pause = 0.001
    while True:
        now = time.monotonic()
        gone = session.finished()  # read first: the root's status is then final
        status = session.root_status()
        if now >= deadline or status not in (None, (0, None)):
            return False
        if port is None:
            if now >= until or gone:
                return True
        elif gone:
            return False
        else:
            try:
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=min(0.2, deadline - now)):
                    return True
            except OSError:
                pass
        time.sleep(pause)
        pause = min(2 * pause, 0.02)


def judge(trace: RunTrace, ready: bool, script_rc: int | None, ended: float) -> str:
    """The reason of a torn-down run.

    ``ready`` tells whether readiness was reached before the deadline,
    ``script_rc`` is None unless the test script ran to its end, and
    ``ended`` is when the harness stopped waiting (the script's end, or
    readiness giving up).  A root that died by then crashed the run if it
    died abnormally, or, exiting 0, before the app became ready.
    """
    if trace.runaway:
        return REASON_RUNAWAY
    died = trace.root_exit_at is not None and trace.root_exit_at <= ended
    if died and (not ready or (trace.exit_code, trace.signaled) != (0, None)):
        return REASON_CRASH
    if script_rc is None:
        return REASON_TIMEOUT
    return REASON_OK if script_rc == 0 else REASON_SCRIPT_FAIL


def _parse_perf_metric(stdout: bytes) -> float | None:
    lines = [ln for ln in stdout.decode(errors="replace").splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return float(lines[-1].strip())
    except ValueError:
        return None


def _substitute(value: str, port: int | None, workdir: str) -> str:
    if port is not None:
        value = value.replace("{port}", str(port))
    return value.replace("{workdir}", workdir)


def run_workload(spec: AppSpec, policy: Policy, limits: Limits,
                 tables: InterposerTables = DEFAULT_TABLES,
                 discovery: bool = True) -> tuple[WorkloadOutcome, RunTrace]:
    """Execute one workload attempt under ``policy`` and judge it.

    Returns ``(outcome, outcome.trace)``: the outcome carries its trace,
    and the pair stays for callers that unpack it (``perfbench``).
    ``discovery`` is passed to ``TraceSession.start``: whether the trace
    observes every syscall, or only those that ``policy`` overrides.

    The app runs in a fresh working directory instantiated from the spec's
    template, so it never sees state from prior runs.  Success requires the
    test script to exit 0 and the application not to have crashed before the
    script completed.  ``limits`` bounds the run (see the module docstring).
    Before returning, the tracer ends every process of the tree (SIGTERM,
    then SIGKILL after KILL_GRACE); none survives the run.  The calling
    thread must outlive the call (see ``slens.interposer``).

    Raises LaunchFailure, from ``TraceSession.start``, when the app could
    not be launched, and TracerFault when the tracer failed, each with the
    tracer's own message; the run then has no outcome.  Raises ScriptMissing
    when the test script cannot be executed.
    """
    spec.validate()
    workdir = tempfile.mkdtemp(prefix="slens-run-")
    try:
        if spec.workdir_template:
            shutil.copytree(spec.workdir_template, workdir, symlinks=True,
                            dirs_exist_ok=True)
            os.chmod(workdir, 0o700)  # as mkdtemp made it: copytree copies the mode
        return _run_workload_in(spec, policy, limits, tables, discovery, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload_in(spec: AppSpec, policy: Policy, limits: Limits,
                     tables: InterposerTables, discovery: bool,
                     workdir: str) -> tuple[WorkloadOutcome, RunTrace]:
    port = spec.readiness.port
    if port == 0:
        port = _allocate_port()

    command = Command(
        argv=tuple(_substitute(a, port, workdir) for a in spec.app_command),
        cwd=workdir,
        stdout_path=os.path.join(workdir, "app_stdout.log"),
        stderr_path=os.path.join(workdir, "app_stderr.log"),
    )

    started = time.monotonic()
    deadline = started + limits.timeout
    ready_by = deadline if port is None or limits.ready_timeout is None \
        else min(deadline, started + limits.ready_timeout)
    session = TraceSession.start(command, policy, spec.whitelist, tables, discovery,
                                 limits.hit_cap)
    perf_metric = None
    script_rc: int | None = None
    try:
        ready = _wait_ready(port, started + spec.readiness.delay, ready_by, session)
        ready_s = time.monotonic() - started if ready else None
        if ready:
            script_env = dict(os.environ)
            script_env["SLENS_HOST"] = "127.0.0.1"
            script_env["SLENS_APP_PID"] = str(session.app_pid)
            script_argv = [os.path.abspath(spec.test_script), "127.0.0.1"]
            if port is not None:
                script_env["SLENS_PORT"] = str(port)
                script_argv.append(str(port))
            out_path = os.path.join(workdir, "script_stdout.log")
            with open(out_path, "wb") as out:
                try:
                    proc = subprocess.Popen(script_argv, cwd=workdir, env=script_env,
                                            stdout=out, stderr=subprocess.DEVNULL,
                                            start_new_session=True)
                except OSError as exc:
                    raise ScriptMissing(f"test script {spec.test_script} cannot be "
                                        f"executed: {exc.strerror}") from None
            try:
                with open(os.pidfd_open(proc.pid), "rb", buffering=0) as pidfd:
                    exit_poll = select.poll()
                    exit_poll.register(pidfd, select.POLLIN)
                    exited = exit_poll.poll(max(0.0, deadline - time.monotonic()) * 1e3)
            finally:
                # The unreaped script keeps its pid, and so its group id, ours.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            if exited:
                script_rc = proc.returncode
                with open(out_path, "rb") as out:
                    perf_metric = _parse_perf_metric(out.read())
        ended = time.monotonic()
    finally:
        trace = session.stop()

    outcome = WorkloadOutcome(reason=judge(trace, ready, script_rc, ended),
                              perf_metric=perf_metric, duration=ended - started,
                              trace=trace, ready_s=ready_s)
    return outcome, trace
