"""slens: measure which OS system-call features a workload really needs.

The package traces an application under a per-syscall interposition engine,
probes every observed feature in "stub" (fail with -ENOSYS) and "fake"
(pretend success) modes, classifies features as required / stub_only /
fake_only / any, stores the results in a file-based database, and turns a
database of measurements into incremental compatibility-layer support plans.
"""

__version__ = "0.1.0"


class SlensError(Exception):
    """Base class for all errors raised by this package."""


from .interposer import (  # noqa: E402
    Action,
    ALLOW,
    STUB,
    Command,
    FeatureId,
    LaunchFailure,
    Policy,
    ResourceSample,
    RunTrace,
    TracerFault,
    Whitelist,
    fake,
    sample_resources,
    trace_run,
)
from .harness import (  # noqa: E402
    AppSpec,
    Limits,
    Readiness,
    ScriptMissing,
    WorkloadOutcome,
    run_workload,
)
from .orchestrator import (  # noqa: E402
    AnalysisConfig,
    AppProfile,
    BaselineFailure,
    BaselineStats,
    Orchestrator,
    ProbeResult,
    detect_regressions,
)
from .store import (  # noqa: E402
    DbEntry,
    DuplicateKey,
    OsSupportSet,
    ParseError,
    UnknownSyscallName,
    export_profile_csv,
    import_os_csv,
    load_db,
    save_profile,
)
from .planner import (  # noqa: E402
    ImportanceReport,
    PlanStep,
    PlanWeights,
    SupportPlan,
    UnconfirmedProfile,
    api_importance,
    app_supported,
    compare_strategies,
    generate_plan,
)

__all__ = [
    "SlensError",
    "__version__",
    # interposer
    "Action", "ALLOW", "STUB", "fake", "Command", "FeatureId", "Policy",
    "RunTrace", "Whitelist", "LaunchFailure", "TracerFault", "trace_run",
    "ResourceSample", "sample_resources",
    # harness
    "AppSpec", "Limits", "Readiness", "ScriptMissing", "WorkloadOutcome",
    "run_workload",
    # orchestrator
    "AnalysisConfig", "AppProfile", "BaselineFailure", "BaselineStats",
    "Orchestrator", "ProbeResult", "detect_regressions",
    # store
    "DbEntry", "DuplicateKey", "OsSupportSet", "ParseError",
    "UnknownSyscallName", "export_profile_csv", "import_os_csv", "load_db",
    "save_profile",
    # planner
    "ImportanceReport", "PlanStep", "PlanWeights", "SupportPlan",
    "UnconfirmedProfile", "api_importance", "app_supported",
    "compare_strategies", "generate_plan",
]
