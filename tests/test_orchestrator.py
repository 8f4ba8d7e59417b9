"""Analysis protocol: discovery, probes, classification, confirmation."""

import logging
import os
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import slens.orchestrator
from slens import store
from slens.harness import Readiness, WorkloadOutcome
from slens.interposer import FeatureId, Policy, RunTrace, STUB
from slens.orchestrator import (
    AnalysisConfig,
    AppProfile,
    BaselineFailure,
    BaselineStats,
    CLASS_ANY,
    CLASS_FAKE_ONLY,
    CLASS_REQUIRED,
    CLASS_STUB_ONLY,
    MODE_FAKE,
    MODE_STUB,
    Orchestrator,
    detect_regressions,
)
from slens.syscalls import name_to_nr

FAST = AnalysisConfig(replicas=1, perf_runs=0, timeout=5.0)


def _outcome(success=True, perf=None, rss=0, fds=0):
    return WorkloadOutcome(
        success=success, reason="script_ok" if success else "script_fail",
        perf_metric=perf, peak_rss=rss, peak_fds=fds, duration=0.1,
    )


# -- discovery


def test_discover_exact_feature_set(fixtures, app_spec_factory):
    """The fixture's footprint is known by construction: 5 distinct calls."""
    orch = Orchestrator(app_spec_factory("feat5", script="wait_exit.sh"), FAST)
    features = orch.discover()
    names = {name_to_nr(n) for n in
             ("getpid", "getuid", "getgid", "geteuid", "exit_group")}
    assert {f.syscall_nr for f in features} == names
    assert len(features) == 5


def test_discover_failing_workload_aborts(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("writer", script="fail.sh"), FAST)
    with pytest.raises(BaselineFailure):
        orch.discover()


def test_probe_requires_discovered_feature(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), FAST)
    orch.discover()
    with pytest.raises(ValueError):
        orch.probe_feature(FeatureId(name_to_nr("socket")), MODE_STUB)


# -- per-pattern probes (the paper-shaped fixtures)


def test_fallback_pattern_tolerates_stubbing(fixtures, app_spec_factory):
    """Fallback-on-failure: stubbing the limit query still passes."""
    orch = Orchestrator(app_spec_factory("getrlimit_fallback"), FAST)
    orch.discover()
    probe = orch.probe_feature(FeatureId(name_to_nr("getrlimit")), MODE_STUB)
    assert probe.works


def test_abort_pattern_requires_faking(fixtures, app_spec_factory):
    """Abort-on-error / proceed-on-success: only faking works."""
    orch = Orchestrator(app_spec_factory("prctl_abort"), FAST)
    orch.discover()
    prctl = FeatureId(name_to_nr("prctl"))
    assert not orch.probe_feature(prctl, MODE_STUB).works
    assert orch.probe_feature(prctl, MODE_FAKE).works


def test_output_bearing_write_breaks_both_ways(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("writer"), FAST)
    orch.discover()
    write = FeatureId(name_to_nr("write"))
    assert not orch.probe_feature(write, MODE_STUB).works
    assert not orch.probe_feature(write, MODE_FAKE).works


# -- full analysis


def test_full_analysis_classes_and_run_count(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("writer"), FAST)
    profile = orch.full_analysis()
    classes = {f.syscall_nr: c for f, c in profile.classes.items()}
    assert classes[name_to_nr("write")] == CLASS_REQUIRED
    assert classes[name_to_nr("openat")] == CLASS_REQUIRED
    assert classes[name_to_nr("close")] == CLASS_ANY
    assert profile.confirmed
    s = len(profile.observed)
    assert orch.executions == (2 + 2 * s) * 1


def test_run_count_law_with_replicas(fixtures, app_spec_factory):
    config = AnalysisConfig(replicas=3, perf_runs=0, timeout=5.0)
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), config)
    profile = orch.full_analysis()
    s = len(profile.observed)
    assert s == 3
    assert orch.executions == (2 + 2 * s) * 3


def test_perf_runs_add_to_counter(fixtures, app_spec_factory):
    config = AnalysisConfig(replicas=1, perf_runs=4, timeout=5.0)
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), config)
    profile = orch.full_analysis()
    s = len(profile.observed)
    assert orch.executions == (2 + 2 * s) * 1 + 4
    assert orch.baseline is not None
    assert len(orch.baseline.rss) == 4


def test_classification_partition(fixtures, app_spec_factory):
    """Every observed feature gets exactly one class; required ⊆ observed."""
    orch = Orchestrator(app_spec_factory("getrlimit_fallback"), FAST)
    profile = orch.full_analysis()
    assert set(profile.classes) == set(profile.observed)
    assert profile.required_syscalls() <= profile.traced_syscalls()


def test_interacting_stubs_fail_confirmation(fixtures, app_spec_factory):
    """Redundant-sources fixture: each stub works alone, combined they break."""
    orch = Orchestrator(app_spec_factory("two_sources"), FAST)
    profile = orch.full_analysis()
    classes = {f.syscall_nr: c for f, c in profile.classes.items()}
    assert classes[name_to_nr("getuid")] == CLASS_ANY
    assert classes[name_to_nr("geteuid")] == CLASS_ANY
    assert not profile.confirmed


def test_probe_custom_reproduces_culprit_pair(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("two_sources"), FAST)
    getuid = FeatureId(name_to_nr("getuid"))
    geteuid = FeatureId(name_to_nr("geteuid"))
    assert orch.probe_custom(Policy.allow_all()).success
    assert orch.probe_custom(Policy.single(getuid, STUB)).success
    assert orch.probe_custom(Policy.single(geteuid, STUB)).success
    both = Policy(overrides={getuid: STUB, geteuid: STUB})
    assert not orch.probe_custom(both).success


def test_reanalysis_into_same_root_keeps_profile(fixtures, app_spec_factory, tmp_path):
    """A second analysis with the same verdicts keeps the stored profile,
    though its metadata (the baseline duration at least) differ."""
    db = str(tmp_path / "db")
    spec = app_spec_factory("feat3", script="wait_exit.sh")
    first = Orchestrator(spec, FAST).full_analysis(db_root=db)
    second = Orchestrator(spec, FAST).full_analysis(db_root=db)
    assert (second.classes, second.confirmed) == (first.classes, first.confirmed)
    [entry] = store.load_db(db)
    assert entry.profile == first


def test_profile_json_round_trip(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("writer"), FAST)
    profile = orch.full_analysis()
    again = AppProfile.from_json(profile.to_json())
    assert again == profile


# -- scheduling


@pytest.mark.parametrize("binary,script", [
    ("feat3", "wait_exit.sh"),
    ("two_sources", "check_out.sh"),  # confirmation fails
    ("getrlimit_fallback", "check_out.sh"),
])
def test_parallel_analysis_matches_sequential(fixtures, app_spec_factory, binary, script):
    """Running a phase's runs concurrently changes no verdict and no count."""
    seen = []
    for parallelism in (1, 4):
        config = AnalysisConfig(replicas=2, perf_runs=2, timeout=5.0,
                                parallelism=parallelism)
        orch = Orchestrator(app_spec_factory(binary, script=script), config)
        profile = orch.full_analysis()
        seen.append((profile.classes, profile.confirmed, orch.executions))
    assert seen[0] == seen[1]


def test_run_count_law_with_parallelism_above_replicas(fixtures, app_spec_factory):
    config = AnalysisConfig(replicas=2, perf_runs=3, parallelism=5, timeout=5.0)
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), config)
    profile = orch.full_analysis()
    s = len(profile.observed)
    assert s == 3
    assert orch.executions == (2 + 2 * s) * 2 + 3
    assert len(orch.baseline.rss) == 3


class _StubRuns:
    """Stands in for ``run_workload``: every run observes getpid and
    exit_group, passes unless ``fail`` says otherwise, and counts the runs
    in flight."""

    def __init__(self, fail=lambda policy, call: False):
        self.fail = fail
        self.lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.peak = 0

    def __call__(self, spec, policy, limits, tables, discovery=True):
        with self.lock:
            call = self.calls
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.05)
        with self.lock:
            self.in_flight -= 1
        observed = Counter({FeatureId(name_to_nr("getpid")): 1,
                            FeatureId(name_to_nr("exit_group")): 1})
        return _outcome(success=not self.fail(policy, call)), RunTrace(
            observed=observed, exit_code=0, signaled=None,
            whitelisted_pids_seen=1)


@pytest.mark.parametrize("readiness,serial", [
    (Readiness(port=0), False),  # a port allocated per run
    (Readiness(port=47123), True),
    (Readiness(delay=0.01), True),
])
def test_shared_resources_serialise_runs(fixtures, app_spec_factory, monkeypatch,
                                         readiness, serial):
    """A spec whose server slens cannot separate per run never has two runs
    in flight."""
    stub = _StubRuns()
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    config = AnalysisConfig(replicas=4, perf_runs=4, parallelism=4)
    orch = Orchestrator(app_spec_factory("noop", readiness=readiness), config)
    orch.full_analysis()
    assert orch.executions == stub.calls == (2 + 2 * 2) * 4 + 4
    assert (stub.peak == 1) if serial else (stub.peak > 1)


def test_failed_baseline_stops_pending_runs(fixtures, app_spec_factory, monkeypatch):
    """The first failing baseline run ends the phase: runs not yet started
    never start, and the runs in flight end before the analysis raises."""
    stub = _StubRuns(fail=lambda policy, call: call >= 1 and not policy.overrides)
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    config = AnalysisConfig(replicas=1, perf_runs=4, parallelism=2)
    orch = Orchestrator(app_spec_factory("noop"), config)
    with pytest.raises(BaselineFailure):
        orch.full_analysis()
    assert stub.in_flight == 0
    assert orch.executions == stub.calls <= 1 + 2  # discovery, then two workers


def test_baseline_runs_interleave_with_probes(fixtures, app_spec_factory, monkeypatch):
    """Baseline run j is run j * ceil(n / k) of the probe phase's n runs."""
    kinds = []
    stub = _StubRuns()

    def record(spec, policy, limits, tables, discovery=True):
        kinds.append("D" if discovery else "P" if policy.overrides else "B")
        return stub(spec, policy, limits, tables, discovery)

    monkeypatch.setattr(slens.orchestrator, "run_workload", record)
    config = AnalysisConfig(replicas=1, perf_runs=3, parallelism=1)
    orch = Orchestrator(app_spec_factory("noop"), config)
    orch.full_analysis()
    # Two features in two modes make four probe runs: n = 7, ceil(7 / 3) = 3.
    assert kinds[:8] == ["D", "B", "P", "P", "B", "P", "P", "B"]
    assert len(orch.baseline.rss) == 3


def _descendants() -> list[int]:
    """Processes below this one, zombies included."""
    me = os.getpid()
    parents = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    parents[int(pid)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue

    def below(pid: int) -> bool:
        seen = set()
        while pid in parents and pid not in seen:
            seen.add(pid)
            pid = parents[pid]
            if pid == me:
                return True
        return False

    return [pid for pid in parents if below(pid)]


def test_concurrent_runs_stress(fixtures, app_spec_factory):
    """40 short runs, 8 in flight, with INFO logging to stderr from every
    thread.  Each tracer is forked from a worker thread while others log, so
    a tracer that took a lock held elsewhere would hang its run."""
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    level, interval = root.level, sys.getswitchinterval()
    config = AnalysisConfig(replicas=2, perf_runs=4, parallelism=8, timeout=10.0)
    orch = Orchestrator(app_spec_factory("feat8", script="wait_exit.sh"), config)
    profiles = []
    worker = threading.Thread(target=lambda: profiles.append(orch.full_analysis()),
                              daemon=True)
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    sys.setswitchinterval(1e-5)
    try:
        worker.start()
        worker.join(timeout=240)
    finally:
        sys.setswitchinterval(interval)
        root.setLevel(level)
        root.removeHandler(handler)
    assert not worker.is_alive()
    s = len(profiles[0].observed)
    assert s == 8
    assert orch.executions == (2 + 2 * s) * 2 + 4 == 40
    assert _descendants() == []


# -- conservative merge (pure property)


@given(st.lists(st.booleans(), min_size=1, max_size=6))
def test_merge_is_and_of_successes(successes):
    """Dropping a failing replica can flip breaks->works, never the reverse."""
    verdict = all(successes)
    for i, ok in enumerate(successes):
        remaining = successes[:i] + successes[i + 1:]
        if not remaining:
            continue
        if not ok:
            assert all(remaining) or not verdict  # can only improve
        else:
            assert not all(remaining) or verdict == all(remaining)
    if verdict:
        assert all(successes)


# -- regression detection


def test_regression_flags_clear_drop():
    """Baseline 100±1 vs probe 96±1: -4% exceeds the 3% margin and 2σ."""
    base = BaselineStats.from_outcomes(
        [_outcome(rss=100 + d, fds=10) for d in (-1, 0, 1, 0, -1, 1, 0, 0, 1, -1)])
    probes = [_outcome(rss=96 + d, fds=10) for d in (-1, 0, 1)]
    flags = detect_regressions(base, probes, margin=0.03)
    assert "rss" in flags
    assert flags["rss"] == pytest.approx(-0.04, abs=0.02)
    assert "fds" not in flags


def test_regression_below_margin_not_flagged():
    base = BaselineStats.from_outcomes(
        [_outcome(rss=100 + d) for d in (-1, 0, 1, 0, -1, 1, 0, 0, 1, -1)])
    probes = [_outcome(rss=99 + d) for d in (-1, 0, 1)]
    assert detect_regressions(base, probes, margin=0.03) == {}


def test_regression_noise_gate():
    """A large relative delta within the noise (2σ pooled) is not flagged."""
    base = BaselineStats.from_outcomes([_outcome(rss=p) for p in
                                        (60, 140, 80, 120, 100, 90, 110, 70, 130, 100)])
    probes = [_outcome(rss=p) for p in (80, 100, 96)]
    assert "rss" not in detect_regressions(base, probes, margin=0.03)


def test_regression_missing_metric_skipped():
    base = BaselineStats.from_outcomes([])
    probes = [_outcome(rss=1000, fds=10)]
    assert detect_regressions(base, probes, margin=0.03) == {}


def test_perf_metric_feeds_no_flag():
    """Probes stop on their probed syscall and baseline runs on none, so a
    perf delta measures the tracer: a halved metric is not flagged."""
    base = BaselineStats.from_outcomes(
        [_outcome(perf=100 + d, rss=1000, fds=10) for d in (-1, 0, 1, 0, -1)])
    probes = [_outcome(perf=50 + d, rss=1000, fds=10) for d in (-1, 0, 1)]
    assert detect_regressions(base, probes, margin=0.03) == {}


def test_regression_resource_flags():
    base = BaselineStats.from_outcomes([_outcome(rss=1000, fds=10) for _ in range(5)])
    probes = [_outcome(rss=1400, fds=10), _outcome(rss=1400, fds=10)]
    flags = detect_regressions(base, probes, margin=0.03)
    assert flags == {"rss": pytest.approx(0.4)}


def test_regression_zero_baseline_skipped():
    base = BaselineStats.from_outcomes([_outcome(rss=0, fds=0) for _ in range(5)])
    probes = [_outcome(rss=500, fds=5)]
    assert detect_regressions(base, probes, margin=0.03) == {}


# -- config validation


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(replicas=0)
    with pytest.raises(ValueError):
        AnalysisConfig(parallelism=0)
