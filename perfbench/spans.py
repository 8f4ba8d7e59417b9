"""Span recording around slens's public layer boundaries, from outside.

``Tracer`` replaces the module and class attributes the package calls
through with wrappers that record a span per call (name, start, end,
parent), and puts the originals back on exit.  Nothing under ``src/`` is
edited, and nothing is wrapped unless a Tracer is active, so untraced runs
execute the package exactly as shipped.

Each run the orchestrator makes is a span ``orchestrator.run`` around
``Orchestrator._run_one``, labelled with the protocol phase the
orchestrator passes it.  A trace session is recorded from
``TraceSession.start`` to the first successful return of its ``wait``; it
is not a call, so it is not pushed on the parent stack.  All wrapped calls
happen on the benchmark's main thread.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import slens.cli
import slens.harness
import slens.interposer
import slens.orchestrator
import slens.planner
import slens.store
from slens.orchestrator import Orchestrator

LAYERS = ("interposer", "harness", "orchestrator", "store", "planner", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Records spans while active (a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sessions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str, push: bool = True) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        if push:
            self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _call_span(self, name: str, fn, record=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span, args, result)
            return result
        return wrapper

    # -- installation

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        tracer = self
        TS = slens.interposer.TraceSession
        orig_start = TS.__dict__["start"].__func__
        orig_wait = TS.__dict__["wait"]

        def start(cls, *args, **kwargs):
            t0 = time.perf_counter()
            session = orig_start(cls, *args, **kwargs)
            span = tracer.open("interposer.session", push=False)
            span.start = t0
            tracer._sessions[session] = span
            return session

        def wait(self, *args, **kwargs):
            span = tracer._sessions.get(self)
            try:
                return orig_wait(self, *args, **kwargs)
            except TimeoutError:
                raise  # still running: the teardown waits again
            finally:
                if span is not None and span.end is None and self.finished():
                    span.end = time.perf_counter()

        self._patch(TS, "start", classmethod(start))
        self._patch(TS, "wait", wait)

        run = self._call_span("harness.run_workload", slens.harness.run_workload,
                              self._record_run)
        self._patch(slens.orchestrator, "run_workload", run)
        self._patch(slens.harness, "run_workload", run)

        orig_run_one = Orchestrator.__dict__["_run_one"]

        def run_one(orch, policy, replica, label):
            span = tracer.open("orchestrator.run")
            span.attrs["label"] = label  # discovery, baseline, <mode>:<feature>, ...
            try:
                return orig_run_one(orch, policy, replica, label)
            finally:
                tracer.close(span)

        self._patch(Orchestrator, "_run_one", run_one)
        for name in ("full_analysis", "discover", "probe_feature"):
            record = self._record_analysis if name == "full_analysis" else None
            self._patch(Orchestrator, name,
                        self._call_span(f"orchestrator.{name}",
                                        Orchestrator.__dict__[name], record))
        for name in ("save_profile", "load_db", "import_os_csv"):
            record = self._record_load if name == "load_db" else None
            self._patch(slens.store, name,
                        self._call_span(f"store.{name}", getattr(slens.store, name), record))
        for name in ("generate_plan", "compare_strategies", "api_importance"):
            record = self._record_plan if name == "generate_plan" else None
            self._patch(slens.planner, name,
                        self._call_span(f"planner.{name}", getattr(slens.planner, name), record))
        self._patch(slens.cli, "main", self._call_span("cli.main", slens.cli.main,
                                                         self._record_cli))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- per-span facts, read from arguments and results

    @staticmethod
    def _record_run(span, args, result) -> None:
        outcome, trace = result
        span.attrs.update(reason=outcome.reason, observed=sum(trace.observed.values()),
                          warnings=len(trace.warnings), duration=outcome.duration)

    @staticmethod
    def _record_analysis(span, args, result) -> None:
        orch = args[0]
        span.attrs.update(
            features=len(result.observed),
            regression_flags=sum(len(f) for f in result.regressions.values()),
            app_perf=list(orch.baseline.perf) if orch.baseline else [])

    @staticmethod
    def _record_load(span, args, result) -> None:
        span.attrs["profiles"] = len(result)

    @staticmethod
    def _record_plan(span, args, result) -> None:
        span.attrs.update(steps=len(result.steps),
                          implemented=sum(len(s.implement) for s in result.steps))

    @staticmethod
    def _record_cli(span, args, result) -> None:
        span.attrs.update(command=args[0][0], exit=result)

    # -- output

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span.to_json()) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: span time not covered by the span's own children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end or c.start, s.end or s.start)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.layer] += s.duration - covered
    return out
