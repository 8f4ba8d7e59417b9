"""Workload harness: run one application attempt and judge it.

Starts the application under the interposition engine, waits for readiness,
drives it with the user's test script, has the tracer end the tree, and
produces a WorkloadOutcome.  The outcome's peak RSS and descriptor count
are the ones the tracer read (``RunTrace.peak_rss``, ``peak_fds``).  A run
adds no thread to its caller: the harness polls the session in the
calling thread.

One clock and one verdict per run:
  - One deadline, ``started + limits.timeout``, covers readiness (port or
    delay) and the test script.  It is the run's only clock.  Then the
    harness asks the tracer to end the tree (``TraceSession.stop``); the
    tracer sends SIGTERM to every process it follows, daemons that left the
    process group included, and SIGKILL after KILL_GRACE.  The harness
    itself sends no signal.
  - Live session state (the root's status, whether any process is left)
    only decides how long to keep waiting.
  - The final trace decides the reason: ``judge`` sets it once, after
    teardown, from the RunTrace, the readiness result and the script's
    exit code and end time.

Test-script contract (stable):
  - argv[1] = application host, argv[2] = port when one applies;
  - environment carries SLENS_HOST, SLENS_PORT (when applicable) and
    SLENS_APP_PID;
  - exit code 0 means the run succeeded;
  - the last stdout line, if numeric, is taken as the performance metric.

The script runs with the run's working directory as cwd.  The application's
stdout/stderr are captured to app_stdout.log / app_stderr.log there.  The
tokens ``{port}`` and ``{workdir}`` in the app command and environment
values are substituted before launch.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import socket
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from . import SlensError
from .config import DEFAULT_TABLES, InterposerTables
from .interposer import (
    Command,
    Limits,
    Policy,
    RunTrace,
    TracerFault,
    TraceSession,
    Whitelist,
)

log = logging.getLogger(__name__)

REASON_OK = "script_ok"
REASON_SCRIPT_FAIL = "script_fail"
REASON_CRASH = "crash"
REASON_TIMEOUT = "timeout"
REASON_TRACER_FAULT = "tracer_fault"


class ScriptMissing(SlensError):
    """The test script does not exist or is not executable."""


@dataclass(frozen=True)
class Readiness:
    """When the app is considered ready for the test script.

    Either a fixed delay, or polling a TCP port until it accepts
    connections.  ``port=0`` requests a free port allocated per run.
    """

    delay: float = 0.0
    port: int | None = None

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("readiness delay must be >= 0")


@dataclass(frozen=True)
class AppSpec:
    """An application plus the workload that exercises it."""

    name: str
    app_command: tuple[str, ...]
    test_script: str
    env: Mapping[str, str] = field(default_factory=dict)
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
            "env": dict(sorted(self.env.items())),
            "readiness": {"delay": self.readiness.delay, "port": self.readiness.port},
            "whitelist": sorted(self.whitelist.binary_paths),
        }
        h.update(json.dumps(ident, sort_keys=True).encode())
        with open(self.test_script, "rb") as f:
            h.update(f.read())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class WorkloadOutcome:
    """One run's verdict."""

    success: bool
    reason: str
    perf_metric: float | None
    peak_rss: int
    peak_fds: int
    duration: float

    def __post_init__(self):
        if self.success != (self.reason == REASON_OK):
            raise ValueError("success must hold exactly when reason is script_ok")

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "reason": self.reason,
            "perf_metric": self.perf_metric,
            "peak_rss": self.peak_rss,
            "peak_fds": self.peak_fds,
            "duration": self.duration,
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
    may have daemonised, so the port is polled on.
    """
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
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    return True
            except OSError:
                pass
        time.sleep(0.02)


def judge(trace: RunTrace, ready: bool, script_rc: int | None, ended: float) -> str:
    """The reason of a torn-down run.

    ``ready`` tells whether readiness was reached before the deadline,
    ``script_rc`` is None unless the test script ran to its end, and
    ``ended`` is when the harness stopped waiting (the script's end, or
    readiness giving up).  A root that died by then crashed the run if it
    died abnormally, or, exiting 0, before the app became ready.
    """
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


def _fresh_workdir(spec: AppSpec) -> str:
    workdir = tempfile.mkdtemp(prefix="slens-run-")
    if spec.workdir_template:
        for entry in os.listdir(spec.workdir_template):
            src = os.path.join(spec.workdir_template, entry)
            dst = os.path.join(workdir, entry)
            if os.path.isdir(src):
                shutil.copytree(src, dst, symlinks=True)
            else:
                shutil.copy2(src, dst)
    return workdir


def run_workload(spec: AppSpec, policy: Policy, limits: Limits,
                 tables: InterposerTables = DEFAULT_TABLES,
                 discovery: bool = True) -> tuple[WorkloadOutcome, RunTrace]:
    """Execute one workload attempt under ``policy`` and judge it.

    ``discovery`` is passed to ``TraceSession.start``: whether the trace
    observes every syscall, or only those that ``policy`` overrides.

    The app runs in a fresh working directory instantiated from the spec's
    template, so it never sees state from prior runs.  Success requires the
    test script to exit 0 and the application not to have crashed before the
    script completed.  ``limits.timeout`` bounds readiness and the script
    together.  Before returning, the tracer ends every process of the tree
    (SIGTERM, then SIGKILL after KILL_GRACE); none survives the run.  The
    calling thread must outlive the call (see ``slens.interposer``).
    """
    spec.validate()
    workdir = _fresh_workdir(spec)
    keep = os.environ.get("SLENS_KEEP_WORKDIRS") == "1"
    started = time.monotonic()
    try:
        return _run_workload_in(spec, policy, limits, tables, discovery, workdir)
    except TracerFault as exc:
        # The run is discarded, never classified; callers retry or abort.
        log.warning("tracer fault for %s: %s", spec.name, exc)
        outcome = WorkloadOutcome(
            success=False, reason=REASON_TRACER_FAULT, perf_metric=None,
            peak_rss=0, peak_fds=0, duration=time.monotonic() - started,
        )
        return outcome, RunTrace(
            observed=Counter(), exit_code=None, signaled=None,
            whitelisted_pids_seen=0, warnings=(str(exc),),
        )
    finally:
        if keep:
            log.info("keeping workdir %s", workdir)
        else:
            shutil.rmtree(workdir, ignore_errors=True)


def _run_workload_in(spec: AppSpec, policy: Policy, limits: Limits,
                     tables: InterposerTables, discovery: bool,
                     workdir: str) -> tuple[WorkloadOutcome, RunTrace]:
    port = spec.readiness.port
    if port == 0:
        port = _allocate_port()

    argv = tuple(_substitute(a, port, workdir) for a in spec.app_command)
    env = dict(os.environ)
    env.update({k: _substitute(v, port, workdir) for k, v in spec.env.items()})
    command = Command(
        argv=argv,
        env=env,
        cwd=workdir,
        stdout_path=os.path.join(workdir, "app_stdout.log"),
        stderr_path=os.path.join(workdir, "app_stderr.log"),
    )

    started = time.monotonic()
    deadline = started + limits.timeout
    session = TraceSession.start(command, policy, spec.whitelist, tables, discovery)
    app_pid = session.app_pid  # raises LaunchFailure early
    perf_metric = None
    script_rc: int | None = None
    try:
        ready = _wait_ready(port, started + spec.readiness.delay, deadline, session)
        if ready:
            script_env = dict(os.environ)
            script_env["SLENS_HOST"] = "127.0.0.1"
            script_env["SLENS_APP_PID"] = str(app_pid)
            script_argv = [spec.test_script, "127.0.0.1"]
            if port is not None:
                script_env["SLENS_PORT"] = str(port)
                script_argv.append(str(port))
            try:
                proc = subprocess.run(
                    script_argv, cwd=workdir, env=script_env,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    timeout=max(0.0, deadline - time.monotonic()),
                )
                script_rc = proc.returncode
                perf_metric = _parse_perf_metric(proc.stdout)
            except subprocess.TimeoutExpired:
                pass
        ended = time.monotonic()
    finally:
        trace = session.stop()

    reason = judge(trace, ready, script_rc, ended)
    outcome = WorkloadOutcome(
        success=reason == REASON_OK,
        reason=reason,
        perf_metric=perf_metric,
        peak_rss=trace.peak_rss,
        peak_fds=trace.peak_fds,
        duration=ended - started,
    )
    return outcome, trace
