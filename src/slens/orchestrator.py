"""Analysis protocol: discovery, per-feature stub/fake probes, confirmation.

For an application workload with s discovered features the orchestrator
runs r replicas of discovery, of a stub probe and a fake probe per feature,
and of one final combined confirmation run, plus ``perf_runs`` allow-all
baseline runs that feed regression detection.  Replica results merge
conservatively (a feature probe "works" only if every replica succeeded),
so a probe whose first replica failed runs no other replica.  For W
working probes that makes exactly r + perf_runs + 2s + (r - 1) W + r
workload executions (2 + 2s + perf_runs with one replica), whatever the
``parallelism``.  Each run leaves one object, its ``WorkloadOutcome``,
which carries the run's ``RunTrace``; probes and baseline statistics keep
and read those outcomes.

Only discovery runs trap every syscall (see ``slens.interposer``); the
orchestrator tells them from the others by their label.  A probe thus
stops at each call of its probed syscall while a baseline run stops at
none, and a difference in the test script's perf metric would measure the
tracer.  So regression flags compare only a working probe's peak RSS and
peak descriptor count with the baseline runs' (``detect_regressions``).
The tracer reads those at every measured exit, with address-space
randomisation off, so flags see real and repeatable readings; but the test
is still a margin and a 2σ gate with no false-discovery control.

The runs fall into three steps, each waiting on the one before:

1. the unmodified workload: one discovery run per replica, which traps
   every syscall, and the ``perf_runs`` baseline runs, which trap none;
2. probes: replica 0 of every feature x mode probe; a probe's replicas
   1..r-1 start as soon as its replica 0 succeeds, whatever the other
   probes are doing;
3. confirmation: one run of the combined policy per replica.

Discovery also bounds the later runs.  One whose measured processes make
more trapped calls than HIT_CAP_FACTOR x discovery's most hits on the
syscalls it traps (at least HIT_CAP_FLOOR) is ended as ``runaway``, and a
port wait gives up after READY_FACTOR x discovery's slowest time to
readiness (at least READY_FLOOR s).  ``probe_custom`` gets neither bound.

One scheduler (``Orchestrator._run_all``) submits each step's runs to a
thread pool of ``parallelism`` workers, and the runs that wait on another
as soon as that one returns its outcome.  Each worker forks one tracer
process, which serves that worker's runs one at a time, so threads
suffice; the step's workers end before it returns, and a thread's tracer
ends with its thread.  Runs are serialised when the spec holds a resource
slens does not allocate per run: a fixed readiness port, or a readiness
delay (a server on a port slens does not know).  Concurrent runs of such a
spec could meet each other's server.  A run that hits a tracer fault is
re-run once.  A second fault, a failing discovery or baseline run, or a
discovery run that measured no process (no exec'd binary matched the
whitelist), cancels the step's pending runs, waits for those in flight
and raises, so no run outlives the analysis.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import logging
import math
import os
import platform
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import SlensError, __version__
from .config import DEFAULT_TABLES, InterposerTables
from .harness import (
    AppSpec,
    Limits,
    WorkloadOutcome,
    run_workload,
)
from .interposer import (
    STUB,
    Action,
    FeatureId,
    Policy,
    TracerFault,
    check_timeout,
    fake,
)
from . import syscalls

log = logging.getLogger(__name__)

MODE_STUB = "stub"
MODE_FAKE = "fake"

CLASS_REQUIRED = "required"
CLASS_STUB_ONLY = "stub_only"
CLASS_FAKE_ONLY = "fake_only"
CLASS_ANY = "any"

# The probe modes that work for a feature of each class.
CLASS_MODES = {
    CLASS_REQUIRED: frozenset(),
    CLASS_STUB_ONLY: frozenset({MODE_STUB}),
    CLASS_FAKE_ONLY: frozenset({MODE_FAKE}),
    CLASS_ANY: frozenset({MODE_STUB, MODE_FAKE}),
}
_CLASS_OF_MODES = {modes: cls for cls, modes in CLASS_MODES.items()}

# Schema 1 also stored every feature a second time, as the "observed" list,
# and their number as metadata["feature_count"]; such files still load.
PROFILE_SCHEMA = 2

# Least relative change of a probe's mean metric that can flag a regression.
REGRESSION_MARGIN = 0.03

HIT_CAP_FLOOR = 1000
HIT_CAP_FACTOR = 100
READY_FLOOR = 1.0  # seconds
READY_FACTOR = 10.0


class BaselineFailure(SlensError):
    """The workload does not pass even unmodified; nothing to classify."""


def feature_label(f: FeatureId) -> str:
    """Human-readable feature name for logs and tables."""
    name = syscalls.nr_to_name(f.syscall_nr) or f"syscall_{f.syscall_nr}"
    if f.subfeature is not None:
        return f"{name}[{f.subfeature:#x}]"
    if f.pseudofile is not None:
        return f"{name}({f.pseudofile})"
    return name


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of one analysis.

    ``parallelism`` is the most workload runs in flight at once within a
    step of the analysis (discovery, probes, confirmation); it defaults to
    the CPUs this process may use.  The orchestrator lowers it to 1 for a
    spec with a fixed readiness port or a readiness delay (see the module
    docstring).  ``perf_runs`` allow-all runs, made with discovery in
    step 1, collect the baseline statistics for regression detection; 0
    leaves them empty.  ``timeout`` bounds every run, at most
    ``interposer.MAX_TIMEOUT`` (None: max(10 s, 3 x discovery duration));
    runs after step 1 may end sooner (see the module docstring).
    """

    replicas: int = 3
    parallelism: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    perf_runs: int = 10
    subfeatures: bool = False
    pseudofiles: bool = False
    timeout: float | None = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.perf_runs < 0:
            raise ValueError("perf_runs must be >= 0")
        if self.timeout is not None:
            check_timeout(self.timeout)


@dataclass(frozen=True)
class BaselineStats:
    """Metric samples from successful allow-all runs.

    ``perf`` is kept for reporting; it feeds no regression flag.  ``rss``
    and ``fds`` are parallel: one entry per run.
    """

    perf: tuple[float, ...]
    rss: tuple[int, ...]
    fds: tuple[int, ...]

    @staticmethod
    def from_outcomes(outcomes: Sequence[WorkloadOutcome]) -> "BaselineStats":
        return BaselineStats(
            perf=tuple(o.perf_metric for o in outcomes if o.perf_metric is not None),
            rss=tuple(o.trace.peak_rss for o in outcomes),
            fds=tuple(o.trace.peak_fds for o in outcomes),
        )


def _pooled_std(a: Sequence[float], b: Sequence[float]) -> float:
    var_a = statistics.variance(a) if len(a) > 1 else 0.0
    var_b = statistics.variance(b) if len(b) > 1 else 0.0
    df = len(a) + len(b) - 2
    if df <= 0:
        return math.sqrt(var_a)
    return math.sqrt(((len(a) - 1) * var_a + (len(b) - 1) * var_b) / df)


def detect_regressions(baseline: BaselineStats,
                       probe_outcomes: Sequence[WorkloadOutcome]) -> dict[str, float]:
    """Flag probe resource metrics deviating from the baseline.

    A metric is flagged when the relative difference of means exceeds
    REGRESSION_MARGIN AND the means differ by more than twice the pooled
    standard deviation.  Returns {metric: signed relative delta} for flagged
    metrics among {"rss", "fds"}, over the runs that were read
    (``peak_rss`` > 0).
    A metric is skipped when either side has no samples or the baseline
    mean is 0.  The perf metric is never compared (see the module docstring).
    """
    flags: dict[str, float] = {}
    base_read = [s for s in zip(baseline.rss, baseline.fds) if s[0] > 0]
    probe_read = [(o.trace.peak_rss, o.trace.peak_fds) for o in probe_outcomes
                  if o.trace.peak_rss > 0]
    for i, metric in enumerate(("rss", "fds")):
        base = [s[i] for s in base_read]
        probe = [s[i] for s in probe_read]
        if not base or not probe:
            continue
        mean_base = statistics.fmean(base)
        mean_probe = statistics.fmean(probe)
        if mean_base == 0:
            continue
        delta = (mean_probe - mean_base) / mean_base
        if abs(delta) <= REGRESSION_MARGIN:
            continue
        if abs(mean_probe - mean_base) > 2 * _pooled_std(base, probe):
            flags[metric] = delta
    return flags


@dataclass
class ProbeResult:
    """Replicated outcomes of probing one feature in one mode, each with
    its run's trace; the probe ``works`` when every replica succeeded.

    A probe holds one outcome per replica, unless its replica 0 failed: it
    then runs no other replica and holds that one outcome
    (``Orchestrator._probe_all``)."""

    feature: FeatureId
    mode: str
    outcomes: list[WorkloadOutcome]
    regression_flags: dict[str, float] = field(default_factory=dict)

    @property
    def works(self) -> bool:
        return all(o.success for o in self.outcomes)


@dataclass
class AppProfile:
    """Per-application classification of every observed feature.

    ``observed`` comes from ``classes``: its features, in its order.  A
    caller may give it instead (a schema-1 file's own list), and then its
    set must equal that of ``classes``."""

    app: str
    workload_hash: str
    classes: dict[FeatureId, str]
    regressions: dict[tuple[FeatureId, str], dict[str, float]]
    confirmed: bool
    metadata: dict
    observed: tuple[FeatureId, ...] | None = None

    def __post_init__(self):
        if self.observed is None:
            self.observed = tuple(self.classes)
        elif set(self.classes) != set(self.observed):
            raise ValueError("classes' domain must equal the observed feature set")
        bad = [c for c in self.classes.values() if c not in CLASS_MODES]
        if bad:
            raise ValueError(f"unknown classes: {bad}")

    def traced_syscalls(self) -> frozenset[int]:
        return frozenset(f.syscall_nr for f in self.observed)

    def required_syscalls(self) -> frozenset[int]:
        return frozenset(f.syscall_nr for f, c in self.classes.items()
                         if c == CLASS_REQUIRED)

    def to_json(self) -> dict:
        ordered = sorted(self.observed, key=FeatureId.sort_key)
        return {
            "schema": PROFILE_SCHEMA,
            "app": self.app,
            "workload_hash": self.workload_hash,
            "classes": [
                {"feature": f.to_json(), "class": self.classes[f]} for f in ordered
            ],
            "regressions": [
                {"feature": f.to_json(), "mode": mode,
                 "flags": {k: flags[k] for k in sorted(flags)}}
                for (f, mode), flags in sorted(
                    self.regressions.items(),
                    key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))
            ],
            "confirmed": self.confirmed,
            "metadata": self.metadata,
        }

    @staticmethod
    def from_json(d: Mapping) -> "AppProfile":
        if d.get("schema") not in (1, PROFILE_SCHEMA):
            raise ValueError(f"unsupported profile schema: {d.get('schema')!r}")
        classes = {FeatureId.from_json(e["feature"]): e["class"] for e in d["classes"]}
        return AppProfile(
            app=d["app"],
            workload_hash=d["workload_hash"],
            # Schema 1's own list is parsed, so that __post_init__ refuses a
            # file whose two lists disagree.
            observed=(tuple(map(FeatureId.from_json, d["observed"])) if d["schema"] == 1
                      else None),
            classes=classes,
            regressions={
                (FeatureId.from_json(e["feature"]), e["mode"]): dict(e["flags"])
                for e in d.get("regressions", ())
            },
            confirmed=bool(d["confirmed"]),
            metadata=dict(d.get("metadata", {})),
        )


def probe_policy(feature: FeatureId, mode: str,
                 tables: InterposerTables = DEFAULT_TABLES) -> Policy:
    """Allow-all policy except ``feature`` stubbed or faked."""
    if mode == MODE_STUB:
        return Policy.single(feature, STUB)
    if mode == MODE_FAKE:
        return Policy.single(feature, fake(tables.fake_value_for(feature.syscall_nr)))
    raise ValueError(f"unknown probe mode {mode!r}")


def confirmation_policy(classes: Mapping[FeatureId, str],
                        tables: InterposerTables = DEFAULT_TABLES) -> Policy:
    """Combined policy: stub everything stub-capable, fake the fake_only rest.

    Stubs are preferred for features that tolerate both modes, as the more
    honest failure mode.
    """
    overrides: dict[FeatureId, Action] = {}
    for f, cls in classes.items():
        if MODE_STUB in CLASS_MODES[cls]:
            overrides[f] = STUB
        elif MODE_FAKE in CLASS_MODES[cls]:
            overrides[f] = fake(tables.fake_value_for(f.syscall_nr))
    return Policy(overrides=overrides)


class Orchestrator:
    """Runs the analysis protocol for one application spec.

    ``executions`` counts every workload execution performed through this
    object, including baseline runs for regression detection.
    ``parallelism`` is the most runs this object keeps in flight at once.
    """

    def __init__(self, spec: AppSpec, config: AnalysisConfig = AnalysisConfig(),
                 tables: InterposerTables = DEFAULT_TABLES):
        spec.validate()
        self.spec = spec
        self.config = config
        self.tables = tables.restricted(subfeatures=config.subfeatures,
                                        pseudofiles=config.pseudofiles)
        shared = spec.readiness.port not in (None, 0) or spec.readiness.delay > 0
        self.parallelism = 1 if shared else config.parallelism
        self.executions = 0
        self.baseline: BaselineStats | None = None
        self.baseline_duration: float | None = None
        self._counts: Counter | None = None  # discovery's most hits per feature
        self._ready_s = 0.0  # discovery's slowest time to readiness
        self._lock = threading.Lock()

    # -- plumbing

    def _limits(self, policy: Policy, label: str) -> Limits:
        timeout = self.config.timeout or max(10.0, 3.0 * (self.baseline_duration or 0.0))
        if self._counts is None or label.startswith(("discovery", "custom")):
            return Limits(timeout=timeout)
        trapped = policy.trapped_syscalls()
        expected = sum(n for f, n in self._counts.items()
                       if trapped is None or f.syscall_nr in trapped)
        return Limits(timeout, hit_cap=max(HIT_CAP_FLOOR, HIT_CAP_FACTOR * expected),
                      ready_timeout=min(timeout, max(READY_FLOOR, READY_FACTOR * self._ready_s)))

    def _run_one(self, policy: Policy, replica: int, label: str) -> WorkloadOutcome:
        t0 = time.monotonic()
        try:
            outcome, _ = run_workload(self.spec, policy, self._limits(policy, label),
                                      self.tables, discovery=label.startswith("discovery"))
        finally:
            with self._lock:
                self.executions += 1
        log.info("run app=%s replica=%d what=%s result=%s hits=%d duration=%.3fs",
                 self.spec.name, replica, label, outcome.reason, outcome.hits,
                 time.monotonic() - t0)
        if outcome.trace.warnings:
            log.warning("run app=%s replica=%d what=%s tracer warnings: %s",
                        self.spec.name, replica, label, "; ".join(outcome.trace.warnings))
        return outcome

    def _run_checked(self, policy: Policy, replica: int, label: str) -> WorkloadOutcome:
        """One scheduled run.  A run that raised TracerFault is re-run once;
        the second fault's own TracerFault reaches the caller.  A failing
        discovery or baseline run, or a discovery run that measured no
        process, raises BaselineFailure."""
        try:
            outcome = self._run_one(policy, replica, label)
        except TracerFault as exc:
            log.warning("replica %d of %s hit a tracer fault (%s); re-running once",
                        replica, label, exc)
            outcome = self._run_one(policy, replica, label + "/retry")
        if label in ("discovery", "baseline") and not outcome.success:
            raise BaselineFailure(
                f"{label} run of the unmodified workload failed ({outcome.reason}); "
                "nothing to classify")
        if label == "discovery" and outcome.trace.whitelisted_pids_seen == 0:
            raise BaselineFailure(
                "discovery run measured no process: no exec'd binary matched "
                "the whitelist; nothing to classify")
        return outcome

    def _run_all(self, runs: list[tuple[Policy, int, str]],
                 then=lambda i, outcome: ()) -> list[WorkloadOutcome]:
        """Run (policy, replica, label) runs, at most ``parallelism`` at a
        time, and the runs that wait on them.

        When run i returns ``outcome``, passed or failed, the runs
        ``then(i, outcome)`` returns are appended to ``runs`` and submitted
        at once; only the calling thread submits.  Returns each run's
        outcome in the order of ``runs``.  The first run to raise cancels
        the runs not yet started and ends submission; the call waits for
        the runs in flight, then re-raises.  Its workers end before it
        returns, and their tracers with them.
        """
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.parallelism)
        futures, pending = [], set()  # futures[i] runs runs[i]; pending: not done

        def cancel_rest(future: concurrent.futures.Future) -> None:
            # Called in the worker whose run raised, before it can take
            # another run.
            if not future.cancelled() and future.exception() is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        def submit(run: tuple[Policy, int, str]) -> None:
            try:
                future = pool.submit(self._run_checked, *run)
            except RuntimeError:  # cancel_rest shut the pool down: a run raised
                return
            future.add_done_callback(cancel_rest)
            futures.append(future)
            pending.add(future)

        try:
            for run in runs:
                submit(run)
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED)
                # Runs start in order, so a run cancelled after a failed one
                # comes after it, and the failure's error is raised.
                for future in sorted(done, key=futures.index):
                    for run in then(futures.index(future), future.result()):
                        runs.append(run)
                        submit(run)
        finally:
            pool.shutdown(cancel_futures=True)
        return [future.result() for future in futures]

    # -- protocol operations

    def discover(self) -> tuple[FeatureId, ...]:
        """Step 1, the unmodified workload: one allow-all discovery run per
        replica, feature sets merged, and the k = ``perf_runs`` baseline
        runs, in one step.

        Sets ``baseline`` from the baseline runs (empty when k = 0), and
        records what bounds the later runs (``_limits``).  Raises
        BaselineFailure when a discovery or baseline run fails.
        """
        r, k = self.config.replicas, self.config.perf_runs
        runs = ([(Policy.allow_all(), i, "discovery") for i in range(r)]
                + [(Policy.allow_all(), r + j, "baseline") for j in range(k)])
        outcomes = self._run_all(runs)
        results, self.baseline = outcomes[:r], BaselineStats.from_outcomes(outcomes[r:])
        self.baseline_duration = max(o.duration for o in results)
        self._ready_s = max(o.ready_s or 0.0 for o in results)
        self._counts = Counter()
        for o in results:
            self._counts |= o.trace.observed
        return tuple(sorted(self._counts, key=FeatureId.sort_key))

    def _probe_all(self, keys: Sequence[tuple[FeatureId, str]]) -> list[ProbeResult]:
        """Probe each (feature, mode) in one step.

        A probe works only if every replica succeeds, so the step submits
        replica 0 of every probe, and a probe's replicas 1..r-1 as soon as
        its replica 0 succeeds.  A working probe's flags compare it with
        ``baseline``, which ``discover`` sets.
        """
        r = self.config.replicas
        labels = [f"{mode}:{feature_label(feature)}" for feature, mode in keys]
        runs = [(probe_policy(feature, mode, self.tables), 0, label)
                for (feature, mode), label in zip(keys, labels)]

        def then(i: int, outcome: WorkloadOutcome) -> list[tuple[Policy, int, str]]:
            policy, replica, label = runs[i]
            return [(policy, n, label) for n in range(1, r)
                    if replica == 0 and outcome.success]

        # A probe's label names its feature and mode, so it is the probe's
        # own; zip reads runs once _run_all has appended the later replicas.
        outcomes: dict[str, list[WorkloadOutcome]] = {}
        for (_, _, label), outcome in zip(runs, self._run_all(runs, then)):
            outcomes.setdefault(label, []).append(outcome)

        probes = []
        for (feature, mode), label in zip(keys, labels):
            result = ProbeResult(feature=feature, mode=mode, outcomes=outcomes[label])
            if result.works:
                result.regression_flags = detect_regressions(self.baseline, result.outcomes)
            log.info("probe app=%s feature=%s mode=%s verdict=%s flags=%s",
                     self.spec.name, feature_label(feature), mode,
                     "works" if result.works else "breaks", result.regression_flags or "-")
            probes.append(result)
        return probes

    def probe_feature(self, feature: FeatureId, mode: str) -> ProbeResult:
        """Probe one feature in stub or fake mode, as ``_probe_all`` does.

        Runs only after ``discover()``, and only a feature it found."""
        if self._counts is None or feature not in self._counts:
            raise ValueError(f"feature {feature_label(feature)} was not discovered")
        return self._probe_all([(feature, mode)])[0]

    def probe_custom(self, policy: Policy) -> WorkloadOutcome:
        """Single run under an arbitrary policy, for manual culprit hunting.

        Bounded by the timeout only.  Not retried: a tracer fault raises
        TracerFault, a failed launch LaunchFailure."""
        return self._run_one(policy, 0, "custom")

    def full_analysis(self, db_root: str | None = None) -> AppProfile:
        """Run the whole protocol and return (and optionally persist) a profile.

        A persisted profile is filed under ``db_root`` by the kernel and
        tool version its metadata records (``store.DbEntry``).  On a failed
        confirmation run the profile is still produced and persisted with
        ``confirmed=False``; callers should then probe culprit subsets
        manually (``probe_custom``).
        """
        features = self.discover()
        s = len(features)
        log.info("discovered %d features for %s", s, self.spec.name)

        keys = [(feature, mode) for feature in features for mode in (MODE_STUB, MODE_FAKE)]
        probes = dict(zip(keys, self._probe_all(keys)))

        classes = {
            feature: _CLASS_OF_MODES[frozenset(
                mode for mode in (MODE_STUB, MODE_FAKE) if probes[(feature, mode)].works)]
            for feature in features
        }

        policy = confirmation_policy(classes, self.tables)
        confirm = self._run_all(
            [(policy, i, "confirmation") for i in range(self.config.replicas)])
        confirmed = all(o.success for o in confirm)
        if not confirmed:
            log.warning(
                "confirmation run failed for %s: per-feature verdicts do not "
                "compose; probe subsets manually with a custom policy",
                self.spec.name)

        regressions = {
            key: dict(p.regression_flags)
            for key, p in probes.items() if p.regression_flags
        }
        profile = AppProfile(
            app=self.spec.name,
            workload_hash=self.spec.workload_hash(),
            classes=classes,
            regressions=regressions,
            confirmed=confirmed,
            metadata={
                "kernel": platform.release(),
                "tool_version": __version__,
                "date": datetime.date.today().isoformat(),
                "replicas": self.config.replicas,
                "parallelism": self.parallelism,
                "baseline_duration": self.baseline_duration,
            },
        )
        if db_root is not None:
            from . import store  # local import: store deserializes AppProfile

            store.save_profile(db_root, store.DbEntry(profile))
        return profile
