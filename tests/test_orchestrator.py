"""Analysis protocol: discovery, probes, classification, confirmation."""

import json
import logging
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import slens.orchestrator
from slens import store
from slens.harness import Readiness, WorkloadOutcome
from slens.interposer import FeatureId, Policy, RunTrace, STUB, TracerFault
from slens.orchestrator import (
    AnalysisConfig,
    AppProfile,
    BaselineFailure,
    BaselineStats,
    CLASS_ANY,
    CLASS_FAKE_ONLY,
    CLASS_MODES,
    CLASS_REQUIRED,
    CLASS_STUB_ONLY,
    HIT_CAP_FLOOR,
    MODE_FAKE,
    MODE_STUB,
    READY_FLOOR,
    Orchestrator,
    detect_regressions,
    feature_label,
)
from slens.syscalls import name_to_nr

FAST = AnalysisConfig(replicas=1, perf_runs=0, timeout=5.0)


def _outcome(success=True, perf=None, rss=0, fds=0):
    return WorkloadOutcome(
        reason="script_ok" if success else "script_fail", perf_metric=perf, duration=0.1,
        trace=RunTrace(exit_code=0, whitelisted_pids_seen=1, peak_rss=rss, peak_fds=fds),
    )


def _run_count(config, profile):
    """The runs of a full analysis: r + perf_runs + 2s + (r - 1) W + r, for
    s features and W working probes (only those run replicas 1..r-1)."""
    r, k, s = config.replicas, config.perf_runs, len(profile.observed)
    w = sum(len(CLASS_MODES[c]) for c in profile.classes.values())
    return r + k + 2 * s + (r - 1) * w + r


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


def test_probe_runs_only_after_discovery(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), FAST)
    with pytest.raises(ValueError):
        orch.probe_feature(FeatureId(name_to_nr("getpid")), MODE_STUB)
    assert orch.executions == 0


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
    assert len(profile.observed) == 3
    assert orch.executions == _run_count(config, profile) == 20


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
    # Schema 2 lists each feature once: under "classes", not "observed".
    [path] = Path(db).rglob("profile.json")
    doc = json.loads(path.read_text())
    assert doc["schema"] == 2 and "observed" not in doc
    assert "feature_count" not in doc["metadata"]
    assert first.observed == tuple(FeatureId.from_json(e["feature"]) for e in doc["classes"])


def test_profile_json_round_trip(fixtures, app_spec_factory):
    orch = Orchestrator(app_spec_factory("writer"), FAST)
    profile = orch.full_analysis()
    again = AppProfile.from_json(profile.to_json())
    assert again == profile


@pytest.mark.parametrize("subfeatures,ioctl", [(True, "ioctl[0x5401]"), (False, "ioctl")],
                         ids=["subfeatures", "bare"])
def test_subfeature_analysis_end_to_end(fixtures, app_spec_factory, subfeatures, ioctl):
    """The fixture queries the terminal (ioctl TCGETS) and ignores failure.
    With ``subfeatures`` that call is classified as ioctl[0x5401] and no
    bare ioctl is left; without, it is bare ioctl.  Either way it tolerates
    both modes, and the other features keep their classes."""
    config = AnalysisConfig(replicas=1, perf_runs=0, subfeatures=subfeatures, timeout=5.0)
    orch = Orchestrator(app_spec_factory("ioctl_tcgets"), config)
    profile = orch.full_analysis()
    assert {feature_label(f): c for f, c in profile.classes.items()} == {
        ioctl: CLASS_ANY, "close": CLASS_ANY, "openat": CLASS_REQUIRED,
        "write": CLASS_REQUIRED, "exit_group": CLASS_REQUIRED}
    assert profile.confirmed
    assert orch.executions == _run_count(config, profile) == 12


# -- scheduling


@pytest.mark.parametrize("binary,script,replicas", [
    ("feat3", "wait_exit.sh", 2),
    ("two_sources", "check_out.sh", 2),  # confirmation fails
    ("getrlimit_fallback", "check_out.sh", 2),
    ("getrlimit_fallback", "check_out.sh", 3),
], ids=["feat3-wait_exit.sh", "two_sources-check_out.sh",
        "getrlimit_fallback-check_out.sh", "getrlimit_fallback-check_out.sh-replicas3"])
def test_parallel_analysis_matches_sequential(fixtures, app_spec_factory, binary, script,
                                              replicas):
    """Running a phase's runs concurrently changes no verdict and no count."""
    seen = []
    for parallelism in (1, 4):
        config = AnalysisConfig(replicas=replicas, perf_runs=2, timeout=5.0,
                                parallelism=parallelism)
        orch = Orchestrator(app_spec_factory(binary, script=script), config)
        profile = orch.full_analysis()
        assert orch.executions == _run_count(config, profile)
        seen.append((profile.classes, profile.confirmed, orch.executions))
    assert seen[0] == seen[1]


def test_run_count_law_with_parallelism_above_replicas(fixtures, app_spec_factory):
    config = AnalysisConfig(replicas=2, perf_runs=3, parallelism=5, timeout=5.0)
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), config)
    profile = orch.full_analysis()
    assert len(profile.observed) == 3
    assert orch.executions == _run_count(config, profile) == 17
    assert len(orch.baseline.rss) == 3


class _StubRuns:
    """Stands in for ``run_workload``: every run observes getpid and
    exit_group, passes unless ``fail`` says otherwise, raises TracerFault
    where ``fault`` says so, and counts the runs in flight."""

    def __init__(self, fail=lambda policy, call: False, fault=lambda call: False):
        self.fail = fail
        self.fault = fault
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
        if self.fault(call):
            raise TracerFault(f"injected fault in call {call}")
        outcome = _outcome(success=not self.fail(policy, call))
        outcome.trace.observed.update({FeatureId(name_to_nr("getpid")): 1,
                                       FeatureId(name_to_nr("exit_group")): 1})
        return outcome, outcome.trace


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


def test_tracer_fault_is_run_again(fixtures, app_spec_factory, monkeypatch):
    """A run whose tracer faulted is made once more and counted."""
    stub = _StubRuns(fault=lambda call: call == 0)
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    config = AnalysisConfig(replicas=1, perf_runs=2, parallelism=1)
    orch = Orchestrator(app_spec_factory("noop"), config)
    profile = orch.full_analysis()
    assert profile.confirmed and len(profile.observed) == 2
    assert orch.executions == stub.calls == (2 + 2 * 2) * 1 + 2 + 1


def test_second_tracer_fault_raises_its_own_error(fixtures, app_spec_factory,
                                                  monkeypatch):
    """The retry's fault reaches the caller as it is, cause included."""
    stub = _StubRuns(fault=lambda call: True)
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    orch = Orchestrator(app_spec_factory("noop"), FAST)
    with pytest.raises(TracerFault, match=r"^injected fault in call 1$"):
        orch.full_analysis()
    assert orch.executions == stub.calls == 2


GETPID = FeatureId(name_to_nr("getpid"))


def _fails_under(policy):
    """A ``_StubRuns`` fail rule: fail every run under exactly ``policy``."""
    return lambda p, call: p == policy


def test_probe_broken_at_replica_0_runs_no_other_replica(fixtures, app_spec_factory,
                                                          monkeypatch):
    """Once replica 0 breaks, the other replicas cannot change the verdict,
    so they never run and the probe holds one outcome."""
    stub = _StubRuns(fail=_fails_under(Policy.single(GETPID, STUB)))
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    config = AnalysisConfig(replicas=3, perf_runs=0, parallelism=1)
    orch = Orchestrator(app_spec_factory("noop"), config)
    orch.discover()
    probe = orch.probe_feature(GETPID, MODE_STUB)
    assert not probe.works and len(probe.outcomes) == 1
    assert orch.executions == stub.calls == 3 + 1
    works = orch.probe_feature(GETPID, MODE_FAKE)
    assert works.works and len(works.outcomes) == 3


def test_probe_broken_at_a_later_replica_keeps_every_outcome(fixtures, app_spec_factory,
                                                             monkeypatch):
    """A probe that passes replica 0 and fails replica 1 still breaks, and
    holds all r outcomes."""
    # Calls 0-2 are discovery, 3 is replica 0 of the probe, 4 and 5 the rest.
    stub = _StubRuns(fail=lambda policy, call: call == 4)
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    config = AnalysisConfig(replicas=3, perf_runs=0, parallelism=1)
    orch = Orchestrator(app_spec_factory("noop"), config)
    orch.discover()
    probe = orch.probe_feature(GETPID, MODE_STUB)
    assert not probe.works
    assert [o.success for o in probe.outcomes] == [True, False, True]
    assert orch.executions == stub.calls == 3 + 3


def test_step_one_runs_the_unmodified_workload(fixtures, app_spec_factory, monkeypatch):
    """Every run of the unmodified workload, discovery and baseline alike,
    is made in step 1, and the probe step holds only probes; the later
    replicas of the working probes follow replica 0 of every probe."""
    kinds = []
    stub = _StubRuns(fail=_fails_under(Policy.single(GETPID, STUB)))

    def record(spec, policy, limits, tables, discovery=True):
        # A baseline run overrides no feature, a probe one, confirmation both.
        kinds.append("D" if discovery else "BPC"[len(policy.overrides)])
        return stub(spec, policy, limits, tables, discovery)

    monkeypatch.setattr(slens.orchestrator, "run_workload", record)
    config = AnalysisConfig(replicas=2, perf_runs=4, parallelism=1)
    orch = Orchestrator(app_spec_factory("noop"), config)
    profile = orch.full_analysis()
    # Two discovery and four baseline runs; replica 0 of four probes, then
    # replica 1 of the three working ones; two confirmation runs.
    assert kinds == ["D", "D", "B", "B", "B", "B",
                     "P", "P", "P", "P",
                     "P", "P", "P",
                     "C", "C"]
    assert len(orch.baseline.rss) == 4
    assert profile.confirmed
    assert orch.executions == _run_count(config, profile) == 15


def test_replica_0_runs_first_even_when_one_round_holds_every_run(
        fixtures, app_spec_factory, monkeypatch):
    """A ``parallelism`` that covers every run of a step changes nothing:
    a probe's replica 1 still waits on its replica 0, so a probe broken at
    replica 0 holds that one outcome and runs no other replica."""
    stub = _StubRuns(fail=_fails_under(Policy.single(GETPID, STUB)))
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    # Two features, so four probes of two replicas: no step has more than 12 runs.
    config = AnalysisConfig(replicas=2, perf_runs=4, parallelism=12)
    orch = Orchestrator(app_spec_factory("noop"), config)
    profile = orch.full_analysis()
    assert profile.classes[GETPID] == CLASS_FAKE_ONLY
    # Discovery 2, baseline 4, replica 0 of four probes, replica 1 of the
    # three working ones, confirmation 2.
    assert orch.executions == stub.calls == _run_count(config, profile) == 15
    assert len(orch.baseline.rss) == 4
    probe = orch.probe_feature(GETPID, MODE_STUB)
    assert not probe.works and len(probe.outcomes) == 1
    assert orch.executions == stub.calls == 16


def test_later_replicas_start_while_another_replica_0_runs(fixtures, app_spec_factory,
                                                           monkeypatch):
    """A probe's replica 1 starts as soon as its replica 0 passes, even
    while another probe's replica 0 is still running: a barrier after every
    replica 0 would leave the second worker idle behind one slow run.  At
    parallelism 2 the slow replica 0 of probe A (stub getpid) is released
    only by the start of another probe's replica 1; behind a barrier it
    waits out its timeout first."""
    stub = _StubRuns()
    slow = Policy.single(GETPID, STUB)
    released = threading.Event()
    lock = threading.Lock()
    started = Counter()  # runs started per probe policy
    events = []

    def record(spec, policy, limits, tables, discovery=True):
        if not discovery and len(policy.overrides) == 1:
            key = json.dumps(policy.to_json())
            with lock:
                started[key] += 1
                n = started[key]
            if policy != slow and n == 2:
                events.append("other replica 1 started")
                released.set()
        if policy == slow:
            released.wait(timeout=5)
        result = stub(spec, policy, limits, tables, discovery)
        if policy == slow:
            events.append("slow replica 0 ended")
        return result

    monkeypatch.setattr(slens.orchestrator, "run_workload", record)
    config = AnalysisConfig(replicas=2, perf_runs=0, parallelism=2)
    orch = Orchestrator(app_spec_factory("noop"), config)
    profile = orch.full_analysis()
    assert events.index("other replica 1 started") < events.index("slow replica 0 ended")
    assert profile.confirmed
    assert orch.executions == stub.calls == _run_count(config, profile) == 12


def test_a_workload_failing_unmodified_runs_no_probe(fixtures, app_spec_factory,
                                                     monkeypatch):
    """A baseline run that fails ends step 1: the analysis raises before
    any probe runs, and every run in flight ends first."""
    # Calls 0 and 1 are discovery; the baseline run fails.  Made among the
    # probes, it would leave the second worker free to start one.
    stub = _StubRuns(fail=lambda policy, call: call >= 2)
    policies = []

    def record(spec, policy, limits, tables, discovery=True):
        policies.append(policy)
        return stub(spec, policy, limits, tables, discovery)

    monkeypatch.setattr(slens.orchestrator, "run_workload", record)
    config = AnalysisConfig(replicas=2, perf_runs=1, parallelism=2)
    orch = Orchestrator(app_spec_factory("noop"), config)
    with pytest.raises(BaselineFailure):
        orch.full_analysis()
    assert stub.in_flight == 0
    assert not any(policy.overrides for policy in policies)
    assert orch.executions == stub.calls == len(policies) == 2 + 1


def test_runs_added_after_a_failure_are_not_submitted(fixtures, app_spec_factory,
                                                      monkeypatch):
    """A run that passed may ask for the runs that follow it after another
    run failed and shut the pool down; those runs are dropped, and the
    failure is raised, not the pool's RuntimeError."""
    stub = _StubRuns(fail=lambda policy, call: not policy.overrides)
    asked, failed = threading.Event(), threading.Event()

    def record(spec, policy, limits, tables, discovery=True):
        if policy.overrides:
            return stub(spec, policy, limits, tables, discovery)
        asked.wait(timeout=5)  # the baseline run fails after the probe passed
        try:
            return stub(spec, policy, limits, tables, discovery)
        finally:
            failed.set()

    def then(i, outcome):
        asked.set()
        failed.wait(timeout=5)
        time.sleep(0.2)  # for the failed run's worker to shut the pool down
        return [(probe, 1, "stub:getpid")]

    monkeypatch.setattr(slens.orchestrator, "run_workload", record)
    orch = Orchestrator(app_spec_factory("noop"), AnalysisConfig(parallelism=2))
    probe = Policy.single(GETPID, STUB)
    with pytest.raises(BaselineFailure):
        orch._run_all([(Policy.allow_all(), 1, "baseline"), (probe, 0, "stub:getpid")],
                      then)
    assert stub.in_flight == 0
    assert orch.executions == stub.calls == 2


def test_a_failed_runs_outcome_reaches_then(fixtures, app_spec_factory, monkeypatch):
    """``then`` gets every run's outcome, failed or not; the runs it asks
    for after a failure are submitted like any others."""
    stub = _StubRuns(fail=lambda policy, call: call == 0)
    monkeypatch.setattr(slens.orchestrator, "run_workload", stub)
    orch = Orchestrator(app_spec_factory("noop"), AnalysisConfig(parallelism=2))
    probe = Policy.single(GETPID, STUB)
    seen = []

    def then(i, outcome):
        seen.append((i, outcome.success))
        return [(probe, 1, "stub:getpid")] if i == 0 else []

    outcomes = orch._run_all([(probe, 0, "stub:getpid")], then)
    assert seen == [(0, False), (1, True)]
    assert [o.success for o in outcomes] == [False, True]
    assert orch.executions == stub.calls == 2


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


def _cmdlines(pids: list[int]) -> dict[int, str]:
    """Each process's command line, for an assertion message."""
    lines = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                lines[pid] = f.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except OSError as exc:
            lines[pid] = f"<{exc.strerror}>"
    return lines


def test_concurrent_runs_stress(fixtures, app_spec_factory):
    """38 short runs, 8 in flight, with INFO logging to stderr from every
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
    assert profiles, "the analysis raised: see its thread's exception"
    [profile] = profiles
    classes = {feature_label(f): c for f, c in profile.classes.items()}
    verdicts = f"classes {classes}, confirmed {profile.confirmed}"
    assert len(profile.observed) == 8, verdicts
    assert orch.executions == _run_count(config, profile), verdicts
    assert orch.executions == 38, verdicts
    survivors = _descendants()
    assert survivors == [], _cmdlines(survivors)


def test_each_worker_forks_one_tracer_per_phase(fixtures, app_spec_factory, monkeypatch):
    """A pool worker forks its tracer once and sends it every later run, so
    the test process forks at most steps x ``parallelism`` tracers, not
    one per run.  (The apps are forked inside the tracers.)  Each step
    retires its workers' tracers before it returns."""
    forks, phases = [], []
    fork, run_all = os.fork, Orchestrator._run_all

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def counting_run_all(self, runs, *then):
        results = run_all(self, runs, *then)
        phases.append(len(results))
        return results

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(Orchestrator, "_run_all", counting_run_all)
    config = AnalysisConfig(replicas=3, perf_runs=2, parallelism=2, timeout=5.0)
    orch = Orchestrator(app_spec_factory("feat3", script="wait_exit.sh"), config)
    profile = orch.full_analysis()
    survivors = _descendants()
    assert survivors == [], _cmdlines(survivors)
    assert orch.executions == _run_count(config, profile) == sum(phases)
    assert len(phases) == 3  # discovery, the probe step, confirmation
    assert len(forks) <= len(phases) * config.parallelism < orch.executions


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
    flags = detect_regressions(base, probes)
    assert "rss" in flags
    assert flags["rss"] == pytest.approx(-0.04, abs=0.02)
    assert "fds" not in flags


def test_regression_below_margin_not_flagged():
    base = BaselineStats.from_outcomes(
        [_outcome(rss=100 + d) for d in (-1, 0, 1, 0, -1, 1, 0, 0, 1, -1)])
    probes = [_outcome(rss=99 + d) for d in (-1, 0, 1)]
    assert detect_regressions(base, probes) == {}


def test_regression_noise_gate():
    """A large relative delta within the noise (2σ pooled) is not flagged."""
    base = BaselineStats.from_outcomes([_outcome(rss=p) for p in
                                        (60, 140, 80, 120, 100, 90, 110, 70, 130, 100)])
    probes = [_outcome(rss=p) for p in (80, 100, 96)]
    assert "rss" not in detect_regressions(base, probes)


def test_regression_missing_metric_skipped():
    base = BaselineStats.from_outcomes([])
    probes = [_outcome(rss=1000, fds=10)]
    assert detect_regressions(base, probes) == {}


def test_perf_metric_feeds_no_flag():
    """Probes stop on their probed syscall and baseline runs on none, so a
    perf delta measures the tracer: a halved metric is not flagged."""
    base = BaselineStats.from_outcomes(
        [_outcome(perf=100 + d, rss=1000, fds=10) for d in (-1, 0, 1, 0, -1)])
    probes = [_outcome(perf=50 + d, rss=1000, fds=10) for d in (-1, 0, 1)]
    assert detect_regressions(base, probes) == {}


def test_regression_resource_flags():
    base = BaselineStats.from_outcomes([_outcome(rss=1000, fds=10) for _ in range(5)])
    probes = [_outcome(rss=1400, fds=10), _outcome(rss=1400, fds=10)]
    flags = detect_regressions(base, probes)
    assert flags == {"rss": pytest.approx(0.4)}


def test_runs_without_a_reading_are_left_out():
    """peak_rss 0 means the tracer never read the run (stopped before its
    first measured exec); such runs count on neither side."""
    base = BaselineStats.from_outcomes(
        [_outcome(rss=1000, fds=10) for _ in range(4)] + [_outcome(rss=0, fds=0)])
    grown = [_outcome(rss=1100, fds=10) for _ in range(3)] + [_outcome(rss=0, fds=0)]
    assert detect_regressions(base, grown) == {"rss": pytest.approx(0.1)}
    unread = [_outcome(rss=0, fds=0) for _ in range(3)]
    assert detect_regressions(base, unread) == {}


def test_leaked_descriptor_is_flagged(fixtures, app_spec_factory):
    """The writer closes the file it wrote; a stubbed or faked close leaves
    it open at exit, one descriptor over the baseline's three.  Its memory
    is the same in every run, so no probe is flagged on rss."""
    config = AnalysisConfig(replicas=2, perf_runs=3, timeout=5.0)
    profile = Orchestrator(app_spec_factory("writer"), config).full_analysis()
    close = FeatureId(name_to_nr("close"))
    assert profile.regressions == {(close, MODE_STUB): {"fds": pytest.approx(1 / 3)},
                                   (close, MODE_FAKE): {"fds": pytest.approx(1 / 3)}}


def test_regression_zero_baseline_skipped():
    base = BaselineStats.from_outcomes([_outcome(rss=0, fds=0) for _ in range(5)])
    probes = [_outcome(rss=500, fds=5)]
    assert detect_regressions(base, probes) == {}


# -- bounds that discovery sets on the later runs

WRITE = FeatureId(name_to_nr("write"))


def _echo_spec(app_spec_factory, *argv_extra):
    return app_spec_factory("echo_server", script="echo_client.sh",
                            argv_extra=("{port}", *argv_extra),
                            readiness=Readiness(port=0))


def test_spinning_probe_ends_as_a_runaway(fixtures, app_spec_factory):
    """The spinner writes once in discovery, and retries forever under a
    faked write.  Its cap is the floor (1000 > 100 x 1), and the run ends
    at the call past it, long before the run timeout."""
    orch = Orchestrator(app_spec_factory("spinner"), FAST)
    assert WRITE in orch.discover()
    probe = orch.probe_feature(WRITE, MODE_FAKE)
    [outcome] = probe.outcomes
    assert not probe.works and outcome.reason == "runaway"
    assert outcome.hits == HIT_CAP_FLOOR + 1
    assert outcome.duration < 0.5 * FAST.timeout
    assert fixtures.running("spinner") == []


@pytest.mark.parametrize("delay_ms,reason", [(300, "script_ok"), (1500, "timeout")])
def test_slow_fallback_is_judged_at_the_readiness_floor(fixtures, app_spec_factory,
                                                        delay_ms, reason):
    """A stubbed sysinfo makes the server wait ``delay_ms`` before it
    listens.  Discovery was ready within milliseconds, so the readiness
    deadline is its floor of 1 s: a 300 ms fallback still works, and a
    1.5 s one gives up at the floor, not at the 5 s run timeout."""
    orch = Orchestrator(_echo_spec(app_spec_factory, str(delay_ms)), FAST)
    orch.discover()
    [outcome] = orch.probe_feature(FeatureId(name_to_nr("sysinfo")), MODE_STUB).outcomes
    assert outcome.reason == reason
    if reason == "script_ok":
        assert outcome.ready_s >= delay_ms / 1000
    else:
        assert outcome.ready_s is None
        assert READY_FLOOR <= outcome.duration < READY_FLOOR + 0.5


def test_server_that_never_listens_ends_at_the_readiness_deadline(fixtures,
                                                                  app_spec_factory):
    """With bind faked the server listens on a port of the kernel's choice,
    so the polled port never opens.  The run gives up at the readiness
    deadline, not at the default 10 s run timeout."""
    config = AnalysisConfig(replicas=1, perf_runs=0)
    orch = Orchestrator(_echo_spec(app_spec_factory), config)
    orch.discover()
    [outcome] = orch.probe_feature(FeatureId(name_to_nr("bind")), MODE_FAKE).outcomes
    assert (outcome.reason, outcome.ready_s) == ("timeout", None)
    assert READY_FLOOR <= outcome.duration < READY_FLOOR + 0.5
    assert fixtures.running("echo_server") == []


def test_discovery_and_custom_runs_are_not_bounded(fixtures, app_spec_factory,
                                                   monkeypatch):
    """Only the protocol's runs after discovery get the hit cap and the
    readiness deadline; discovery and ``probe_custom`` runs have neither."""
    seen = []
    real = slens.orchestrator.run_workload

    def spy(spec, policy, limits, tables, discovery=True):
        seen.append((discovery, limits.hit_cap, limits.ready_timeout))
        return real(spec, policy, limits, tables, discovery)

    monkeypatch.setattr(slens.orchestrator, "run_workload", spy)
    orch = Orchestrator(app_spec_factory("spinner"), FAST)
    orch.discover()
    orch.probe_custom(Policy.single(WRITE, STUB))
    orch.probe_feature(WRITE, MODE_STUB)
    assert seen == [(True, None, None), (False, None, None),
                    (False, HIT_CAP_FLOOR, READY_FLOOR)]


# -- config validation


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(replicas=0)
    with pytest.raises(ValueError):
        AnalysisConfig(parallelism=0)
