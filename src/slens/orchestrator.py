"""Analysis protocol: discovery, per-feature stub/fake probes, confirmation.

For an application workload the orchestrator runs, per replica, one
discovery run, one stub run and one fake run per observed feature, and one
final combined confirmation run: exactly 2 + 2*s workload executions per
replica for s discovered features, plus ``perf_runs`` allow-all baseline
runs that feed regression detection.  Replica results merge conservatively
(a feature probe "works" only if every replica succeeded).

Only discovery runs trap every syscall (see ``slens.interposer``); the
orchestrator tells them from the others by their label.  A probe thus
stops at each call of its probed syscall while a baseline run stops at
none, and a difference in the test script's perf metric would measure the
tracer.  So regression flags compare only a working probe's peak RSS and
peak descriptor count with the baseline runs' (``detect_regressions``).
The tracer reads those at every measured exit, with address-space
randomisation off, so flags see real and repeatable readings; but the test
is still a margin and a 2σ gate with no false-discovery control.

The runs fall into three phases, and the runs of one phase do not depend on
each other:

1. discovery: one allow-all run per replica;
2. probes: the baseline runs together with every feature x mode x replica
   probe, so that regression detection compares runs made under the same
   load;
3. confirmation: one run of the combined policy per replica.

One scheduler (``Orchestrator._run_all``) submits each phase's runs to a
thread pool of ``parallelism`` workers.  Each run lives in its own tracer
process, so threads suffice.  Runs are serialised when the spec holds a
resource slens does not allocate per run: a fixed readiness port, or a
readiness delay (a server on a port slens does not know).  Concurrent runs
of such a spec could meet each other's server.  A run that hits a tracer
fault is re-run once.  A second fault, a failing discovery or baseline run,
or a discovery run that measured no process (no exec'd binary matched the
whitelist), cancels the phase's pending runs, waits for those in flight
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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import SlensError, __version__
from .config import DEFAULT_TABLES, InterposerTables
from .harness import (
    AppSpec,
    Limits,
    REASON_TRACER_FAULT,
    WorkloadOutcome,
    run_workload,
)
from .interposer import (
    STUB,
    Action,
    FeatureId,
    Policy,
    RunTrace,
    TracerFault,
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

VERDICT_WORKS = "works"
VERDICT_BREAKS = "breaks"

PROFILE_SCHEMA = 1

# Least relative change of a probe's mean metric that can flag a regression.
REGRESSION_MARGIN = 0.03


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
    phase; it defaults to the CPUs this process may use.  The orchestrator
    lowers it to 1 for a spec with a fixed readiness port or a readiness
    delay (see the module docstring).  ``perf_runs`` extra allow-all runs
    collect baseline statistics for regression detection; 0 disables it.
    ``timeout`` of None applies the default rule max(10 s, 3 x discovery
    duration).
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
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0")


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
            rss=tuple(o.peak_rss for o in outcomes),
            fds=tuple(o.peak_fds for o in outcomes),
        )


def _pooled_std(a: Sequence[float], b: Sequence[float]) -> float:
    var_a = statistics.variance(a) if len(a) > 1 else 0.0
    var_b = statistics.variance(b) if len(b) > 1 else 0.0
    df = len(a) + len(b) - 2
    if df <= 0:
        return math.sqrt(var_a)
    return math.sqrt(((len(a) - 1) * var_a + (len(b) - 1) * var_b) / df)


def detect_regressions(baseline: BaselineStats,
                       probe_outcomes: Sequence[WorkloadOutcome],
                       margin: float) -> dict[str, float]:
    """Flag probe resource metrics deviating from the baseline.

    A metric is flagged when the relative difference of means exceeds
    ``margin`` AND the means differ by more than twice the pooled standard
    deviation.  Returns {metric: signed relative delta} for flagged metrics
    among {"rss", "fds"}, over the runs that were read (``peak_rss`` > 0).
    A metric is skipped when either side has no samples or the baseline
    mean is 0.  The perf metric is never compared (see the module docstring).
    """
    flags: dict[str, float] = {}
    base_read = [s for s in zip(baseline.rss, baseline.fds) if s[0] > 0]
    probe_read = [(o.peak_rss, o.peak_fds) for o in probe_outcomes if o.peak_rss > 0]
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
        if abs(delta) <= margin:
            continue
        if abs(mean_probe - mean_base) > 2 * _pooled_std(base, probe):
            flags[metric] = delta
    return flags


@dataclass
class ProbeResult:
    """Replicated outcomes of probing one feature in one mode."""

    feature: FeatureId
    mode: str
    outcomes: list[WorkloadOutcome]
    verdict: str  # works | breaks
    regression_flags: dict[str, float] = field(default_factory=dict)

    @property
    def works(self) -> bool:
        return self.verdict == VERDICT_WORKS


@dataclass
class AppProfile:
    """Per-application classification of every observed feature."""

    app: str
    workload_hash: str
    observed: tuple[FeatureId, ...]
    classes: dict[FeatureId, str]
    regressions: dict[tuple[FeatureId, str], dict[str, float]]
    confirmed: bool
    metadata: dict

    def __post_init__(self):
        if set(self.classes) != set(self.observed):
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
            "observed": [f.to_json() for f in ordered],
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
        if d.get("schema") != PROFILE_SCHEMA:
            raise ValueError(f"unsupported profile schema: {d.get('schema')!r}")
        return AppProfile(
            app=d["app"],
            workload_hash=d["workload_hash"],
            observed=tuple(FeatureId.from_json(f) for f in d["observed"]),
            classes={FeatureId.from_json(e["feature"]): e["class"]
                     for e in d["classes"]},
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
        self._discovered: tuple[FeatureId, ...] | None = None
        self._lock = threading.Lock()

    # -- plumbing

    def _limits(self) -> Limits:
        timeout = self.config.timeout
        if timeout is None:
            if self.baseline_duration is not None:
                timeout = max(10.0, 3.0 * self.baseline_duration)
            else:
                timeout = 10.0
        return Limits(timeout=timeout)

    def _run_one(self, policy: Policy, replica: int, label: str
                 ) -> tuple[WorkloadOutcome, RunTrace]:
        t0 = time.monotonic()
        outcome, trace = run_workload(self.spec, policy, self._limits(), self.tables,
                                      discovery=label.startswith("discovery"))
        with self._lock:
            self.executions += 1
        log.info("run app=%s replica=%d what=%s result=%s duration=%.3fs",
                 self.spec.name, replica, label, outcome.reason,
                 time.monotonic() - t0)
        if trace.warnings:
            log.warning("run app=%s replica=%d what=%s tracer warnings: %s",
                        self.spec.name, replica, label, "; ".join(trace.warnings))
        return outcome, trace

    def _run_checked(self, policy: Policy, replica: int, label: str
                     ) -> tuple[WorkloadOutcome, RunTrace]:
        """One scheduled run.  A tracer fault is re-run once; a second one
        raises TracerFault.  A failing discovery or baseline run, or a
        discovery run that measured no process, raises BaselineFailure."""
        outcome, trace = self._run_one(policy, replica, label)
        if outcome.reason == REASON_TRACER_FAULT:
            log.warning("replica %d of %s hit a tracer fault; re-running once",
                        replica, label)
            outcome, trace = self._run_one(policy, replica, label + "/retry")
            if outcome.reason == REASON_TRACER_FAULT:
                raise TracerFault(
                    f"persistent tracer fault while running {label} for {self.spec.name}")
        if label in ("discovery", "baseline") and not outcome.success:
            raise BaselineFailure(
                f"{label} run of the unmodified workload failed ({outcome.reason}); "
                "nothing to classify")
        if label == "discovery" and trace.whitelisted_pids_seen == 0:
            raise BaselineFailure(
                "discovery run measured no process: no exec'd binary matched "
                "the whitelist; nothing to classify")
        return outcome, trace

    def _run_all(self, runs: Sequence[tuple[Policy, int, str]],
                 traces: bool = False) -> list:
        """Run one phase's independent (policy, replica, label) runs, at most
        ``parallelism`` at a time.

        Returns each run's outcome in the order of ``runs``, or its
        (outcome, trace) pair when ``traces`` is set; a phase may hold
        hundreds of runs, so unwanted traces are dropped as each run ends.
        The first run to raise cancels the runs not yet started; the call
        waits for the runs in flight, then re-raises.
        """
        def run(policy: Policy, replica: int, label: str):
            outcome, trace = self._run_checked(policy, replica, label)
            return (outcome, trace) if traces else outcome

        pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.parallelism)

        def cancel_rest(future: concurrent.futures.Future) -> None:
            # Called in the worker whose run raised, before it can take
            # another run.
            if not future.cancelled() and future.exception() is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        try:
            futures = [pool.submit(run, *r) for r in runs]
            for future in futures:
                future.add_done_callback(cancel_rest)
            concurrent.futures.wait(futures, return_when=concurrent.futures.FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        # Runs start in order, so a cancelled run comes after the failed one.
        return [future.result() for future in futures]

    # -- protocol operations

    def discover(self) -> tuple[FeatureId, ...]:
        """Allow-all discovery: one run per replica, feature sets merged.

        Also records the baseline duration for the default timeout rule.
        Raises BaselineFailure when a discovery run fails.
        """
        r = self.config.replicas
        results = self._run_all([(Policy.allow_all(), i, "discovery") for i in range(r)],
                                traces=True)
        self.baseline_duration = max(o.duration for o, _ in results)
        features: set[FeatureId] = set()
        for _, trace in results:
            features.update(trace.observed)
        self._discovered = tuple(sorted(features, key=FeatureId.sort_key))
        return self._discovered

    def _probe_all(self, keys: Sequence[tuple[FeatureId, str]]) -> list[ProbeResult]:
        """Probe each (feature, mode) over all replicas, as one phase.

        Until a baseline exists, the phase also makes the ``perf_runs``
        baseline runs and records their statistics in ``baseline``; the
        statistics come from those runs only, so the sample size is
        exactly ``perf_runs``.  Baseline run j is run j * ceil(n / k) of
        the n runs of the phase (k = ``perf_runs``), so host drift during
        the phase reaches baseline and probes alike; but the phase opens
        with one baseline run per worker (j < ``parallelism``), so that a
        workload failing unmodified ends it before a probe run can finish
        and start another.  Raises BaselineFailure when one fails.
        """
        r = self.config.replicas
        runs = []
        for feature, mode in keys:
            policy = probe_policy(feature, mode, self.tables)
            runs += [(policy, i, f"{mode}:{feature_label(feature)}") for i in range(r)]
        n_base = self.config.perf_runs if self.baseline is None else 0
        step = -(-(len(runs) + n_base) // max(n_base, 1))
        for j in range(n_base):
            runs.insert(j if j < self.parallelism else j * step,
                        (Policy.allow_all(), r + j, "baseline"))
        outcomes = self._run_all(runs)
        if n_base:
            self.baseline = BaselineStats.from_outcomes(
                [o for (_, _, label), o in zip(runs, outcomes) if label == "baseline"])
        outcomes = [o for (_, _, label), o in zip(runs, outcomes) if label != "baseline"]

        probes = []
        for k, (feature, mode) in enumerate(keys):
            replicas = outcomes[k * r:(k + 1) * r]
            works = all(o.success for o in replicas)
            result = ProbeResult(
                feature=feature,
                mode=mode,
                outcomes=replicas,
                verdict=VERDICT_WORKS if works else VERDICT_BREAKS,
            )
            if works and self.baseline is not None:
                result.regression_flags = detect_regressions(
                    self.baseline, replicas, REGRESSION_MARGIN)
            log.info("probe app=%s feature=%s mode=%s verdict=%s flags=%s",
                     self.spec.name, feature_label(feature), mode, result.verdict,
                     result.regression_flags or "-")
            probes.append(result)
        return probes

    def probe_feature(self, feature: FeatureId, mode: str) -> ProbeResult:
        """Probe one feature in stub or fake mode over all replicas."""
        if self._discovered is not None and feature not in self._discovered:
            raise ValueError(f"feature {feature_label(feature)} was not discovered")
        return self._probe_all([(feature, mode)])[0]

    def probe_custom(self, policy: Policy) -> WorkloadOutcome:
        """Single run under an arbitrary policy, for manual culprit hunting."""
        outcome, _ = self._run_one(policy, 0, "custom")
        return outcome

    def full_analysis(self, db_root: str | None = None,
                      provenance: Mapping[str, str] | None = None) -> AppProfile:
        """Run the whole protocol and return (and optionally persist) a profile.

        On a failed confirmation run the profile is still produced and
        persisted with ``confirmed=False``; callers should then probe
        culprit subsets manually (``probe_custom``).
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
            observed=features,
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
                "feature_count": s,
            },
        )
        if db_root is not None:
            from . import store  # local import: store deserializes AppProfile

            entry = store.DbEntry(profile=profile, provenance=dict(provenance or {
                "submitter": "",
                "date": profile.metadata["date"],
                "kernel": profile.metadata["kernel"],
                "tool_version": profile.metadata["tool_version"],
            }))
            store.save_profile(db_root, entry)
        return profile
