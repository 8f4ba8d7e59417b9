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


def test_analysis_knobs_and_baseline_perf():
    from slens.orchestrator import AnalysisConfig, BaselineStats, Orchestrator

    AnalysisConfig(replicas=1, perf_runs=0)
    assert "db_root" in inspect.signature(Orchestrator.full_analysis).parameters
    assert "perf" in BaselineStats.__dataclass_fields__
