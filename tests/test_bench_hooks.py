"""The names the benchmark in perfbench/ reaches into still exist.

``perfbench/run.py --trace 1`` wraps slens's layer boundaries by looking
them up in ``owner.__dict__``, and ``micro.py`` imports slens names
directly.  A cleanup that deletes or renames one of them fails here, not
only in a benchmark run.
"""

import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_finds_every_hooked_name(perfbench):
    import apps  # noqa: F401
    import dbgen  # noqa: F401
    import spans

    from slens.orchestrator import Orchestrator

    saved = {name: Orchestrator.__dict__[name] for name in
             ("_run_one", "full_analysis", "discover", "probe_feature")}
    with spans.Tracer() as tracer:
        assert tracer._saved  # every lookup was made, and patched
    assert {name: Orchestrator.__dict__[name] for name in saved} == saved
    # The tracer's replacement calls it with exactly these arguments.
    assert list(inspect.signature(saved["_run_one"]).parameters) == [
        "self", "policy", "replica", "label"]


def test_session_span_wraps_a_launched_session(perfbench):
    """``--trace 1`` records one session span per run, from ``start`` to
    the ``wait`` that finds the tracer ended."""
    import spans

    from slens.interposer import Command, Limits, Policy, Whitelist, trace_run

    with spans.Tracer() as tracer:
        trace = trace_run(Command(argv=("/bin/true",)), Policy.allow_all(),
                          Whitelist(), Limits(timeout=10))
    assert trace.exit_code == 0
    sessions = [s for s in tracer.spans if s.name == "interposer.session"]
    assert len(sessions) == 1 and sessions[0].end is not None


def test_micro_imports(perfbench):
    import micro  # noqa: F401
    from slens import (STUB, AppSpec, Command, FeatureId, Limits, Policy,  # noqa: F401
                       Whitelist, fake, run_workload, syscalls, trace_run)
    from slens.harness import REASON_TRACER_FAULT  # noqa: F401


def test_run_workload_returns_the_pair_the_benchmark_unpacks():
    """``spans._record_run`` and ``micro.py`` unpack ``(outcome, trace)``
    and read the outcome's ``reason``, ``duration`` and ``success``."""
    from slens import AppSpec, Limits, Policy, run_workload

    spec = AppSpec(name="true", app_command=("/bin/true",), test_script="/bin/true")
    outcome, trace = run_workload(spec, Policy.allow_all(), Limits(timeout=10))
    assert outcome.trace is trace
    assert (outcome.reason, outcome.success) == ("script_ok", True)
    assert outcome.duration > 0


def test_analysis_knobs_and_baseline_perf():
    from slens.orchestrator import AnalysisConfig, BaselineStats, Orchestrator

    AnalysisConfig(replicas=1, perf_runs=0)
    assert "db_root" in inspect.signature(Orchestrator.full_analysis).parameters
    assert "perf" in BaselineStats.__dataclass_fields__


@pytest.mark.parametrize("perf_runs", [3, 0])
def test_step_one_leaves_the_baseline_the_benchmark_reads(monkeypatch, perf_runs):
    """``spans.py`` reads ``orch.baseline.perf`` after an analysis.
    ``discover()`` fills it: one entry per baseline run in ``perf``, ``rss``
    and ``fds``, and an empty ``BaselineStats``, not None, with no
    baseline run."""
    import slens.orchestrator
    from slens import AppSpec, FeatureId
    from slens.harness import REASON_OK, WorkloadOutcome
    from slens.interposer import RunTrace
    from slens.orchestrator import AnalysisConfig, BaselineStats, Orchestrator

    def run_workload(spec, policy, limits, tables, discovery):
        trace = RunTrace(exit_code=0, whitelisted_pids_seen=1, peak_rss=4096, peak_fds=3)
        trace.observed[FeatureId(39)] = 1
        return WorkloadOutcome(reason=REASON_OK, perf_metric=1.0, duration=0.01,
                               trace=trace), trace

    monkeypatch.setattr(slens.orchestrator, "run_workload", run_workload)
    spec = AppSpec(name="true", app_command=("/bin/true",), test_script="/bin/true")
    orch = Orchestrator(spec, AnalysisConfig(replicas=2, perf_runs=perf_runs))
    orch.discover()
    assert isinstance(orch.baseline, BaselineStats)
    assert orch.baseline == BaselineStats(perf=(1.0,) * perf_runs, rss=(4096,) * perf_runs,
                                          fds=(3,) * perf_runs)


def test_dbgen_store_call(tmp_path):
    """``dbgen.py`` saves each profile as ``DbEntry(profile, provenance)``
    with the kernel and tool version of the profile's metadata; ``load_db``
    finds the entry in the directory that provenance named when it was
    read."""
    import hashlib

    from slens import AppProfile, DbEntry, FeatureId, save_profile
    from slens.store import load_db

    same = {"kernel": "synthetic", "tool_version": "synthetic"}
    classes = {FeatureId(0): "required"}
    profile = AppProfile(app="app000", workload_hash="0123456789abcdef",
                         observed=tuple(sorted(classes)), classes=classes, regressions={},
                         confirmed=True, metadata=dict(same))
    path = save_profile(str(tmp_path), DbEntry(profile, dict(same)))
    fingerprint = hashlib.sha256(b"synthetic\0synthetic").hexdigest()[:12]
    assert path == str(tmp_path / "app000" / "0123456789abcdef" / fingerprint / "profile.json")
    (entry,) = load_db(str(tmp_path))
    assert entry.profile == profile
