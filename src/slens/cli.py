"""Command-line entry point.

Subcommands: analyze (measure an app and store its profile), plan
(incremental support plan for an OS), importance (per-syscall statistics),
compare (strategy curves), export (profile as CSV), probe (single run under
a custom policy).

Exit codes: 0 ok, 1 internal error, 2 inconsistent profile, 3 baseline
failure, 4 parse/usage error, which includes a named file that cannot be
read or decoded.  The database root defaults to $SLENS_DB.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shlex
import sys

from . import SlensError, __version__
from .config import DEFAULT_TABLES, ParseError, load_tables, read_input
from .harness import AppSpec, Readiness, ScriptMissing
from .interposer import LaunchFailure, Policy, Whitelist
from .orchestrator import (
    AnalysisConfig,
    BaselineFailure,
    Orchestrator,
    feature_label,
)
from . import planner
from . import store

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INCONSISTENT = 2
EXIT_BASELINE = 3
EXIT_USAGE = 4

log = logging.getLogger("slens")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with a distinct code
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(code: int, kind: str, message: str) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def _db_root(args, create: bool = False) -> str:
    """The database root, an existing directory; ``create`` makes it first."""
    db = args.db or os.environ.get("SLENS_DB")
    if not db:
        raise SystemExit(_fail(EXIT_USAGE, "usage",
                               "no database: pass --db or set SLENS_DB"))
    if create:
        try:
            os.makedirs(db, exist_ok=True)
        except OSError as exc:
            raise SystemExit(_fail(EXIT_USAGE, "usage", f"cannot create database "
                                   f"root {db}: {exc.strerror}")) from None
    if not os.path.isdir(db):
        raise SystemExit(_fail(EXIT_USAGE, "usage",
                               f"database root {db} is not an existing directory"))
    return db


def _tables(args):
    if args.config:
        return load_tables(args.config)
    return DEFAULT_TABLES


def _app_spec(args) -> AppSpec:
    argv = tuple(shlex.split(args.app_cmd))
    if not argv:
        raise SystemExit(_fail(EXIT_USAGE, "usage", "--app-cmd is empty"))
    try:
        readiness = Readiness(delay=args.ready_delay, port=args.port)
        whitelist = Whitelist.of_paths(args.whitelist or [])
    except ValueError as exc:
        raise SystemExit(_fail(EXIT_USAGE, "usage", str(exc))) from None
    return AppSpec(
        name=args.name or os.path.basename(argv[0]),
        app_command=argv,
        test_script=os.path.abspath(args.test_script),
        readiness=readiness,
        whitelist=whitelist,
        workdir_template=args.workdir_template,
    )


def _analysis_config(args, **knobs) -> AnalysisConfig:
    try:
        return AnalysisConfig(timeout=args.timeout, **knobs)
    except ValueError as exc:
        raise SystemExit(_fail(EXIT_USAGE, "usage", str(exc))) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="slens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slens {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--config", help="JSON config file (selector/fake/pseudo tables)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each declared once.
    db = _Parser(add_help=False)
    db.add_argument("--db", help="database root (default $SLENS_DB)")
    as_json = _Parser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    targets = _Parser(add_help=False)
    targets.add_argument("--os-support", required=True, help="OS support CSV")
    targets.add_argument("--apps", help="comma-separated target apps (default: all)")
    run = _Parser(add_help=False)
    run.add_argument("--app-cmd", required=True,
                     help="application command line (shell-quoted)")
    run.add_argument("--test-script", required=True, help="workload test script")
    run.add_argument("--whitelist", action="append", metavar="PATH",
                     help="binary measured in the analysis (repeatable); "
                          "default: the initially exec'd binary only")
    run.add_argument("--name", help="application name (default: binary basename)")
    run.add_argument("--ready-delay", type=float, default=0.0,
                     help="seconds to wait before driving the app")
    run.add_argument("--port", type=int,
                     help="TCP port to poll for readiness (0 = auto-allocate)")
    run.add_argument("--workdir-template", help="directory copied into each fresh workdir")
    run.add_argument("--timeout", type=float,
                     help="per-run timeout in seconds (default: max(10, 3x baseline)); "
                          "runs after discovery may end sooner, at bounds it measured")

    p = sub.add_parser("analyze", parents=[run, db, as_json],
                       help="measure an application workload")
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--parallel", type=int, default=AnalysisConfig().parallelism,
                   help="most workload runs in flight at once (default: %(default)s, "
                        "the CPUs this process may use); runs are serialised when "
                        "--port is a fixed port or --ready-delay is set, because "
                        "concurrent runs could meet each other's server")
    p.add_argument("--perf-runs", type=int, default=10)
    p.add_argument("--subfeatures", action="store_true",
                   help="classify vectored syscalls per selector argument")
    p.add_argument("--pseudofiles", action="store_true",
                   help="classify open-family syscalls per pseudo-file prefix")

    p = sub.add_parser("probe", parents=[run, as_json],
                       help="single run under a custom policy")
    p.add_argument("--policy", required=True, help="policy JSON file")

    sub.add_parser("plan", parents=[db, targets, as_json],
                   help="incremental support plan for an OS")
    sub.add_parser("importance", parents=[db, as_json], help="per-syscall API importance")
    p = sub.add_parser("compare", parents=[db, targets, as_json],
                       help="effort curves for planning strategies")
    p.add_argument("--order", help="file with one app name per line (external strategy)")

    p = sub.add_parser("export", parents=[db], help="export a stored profile as CSV")
    p.add_argument("--apps", required=True, help="application name to export")

    return parser


def _load_profiles(args) -> dict:
    by_app: dict = {}
    for entry in store.load_db(_db_root(args)):
        by_app.setdefault(entry.profile.app, []).append(entry.profile)
    for app, found in by_app.items():
        if len(found) > 1:
            print(f"warning: {len(found)} entries for {app!r}; using workload "
                  f"{found[0].workload_hash}", file=sys.stderr)
    return {app: found[0] for app, found in by_app.items()}


def _select_targets(args, profiles: dict) -> list[str]:
    if args.apps:
        return [a.strip() for a in args.apps.split(",") if a.strip()]
    return sorted(profiles)


def _print_profile_table(profile) -> None:
    rows = [("feature", "class", "flags")]
    for f in profile.observed:
        flags = profile.regressions.get((f, "stub"), {}) | {
            f"fake_{k}": v for k, v in profile.regressions.get((f, "fake"), {}).items()
        }
        rendered = " ".join(f"{k}{v:+.0%}" for k, v in sorted(flags.items())) or "-"
        rows.append((feature_label(f), profile.classes[f], rendered))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


def cmd_analyze(args) -> int:
    spec = _app_spec(args)
    config = _analysis_config(
        args, replicas=args.replicas, parallelism=args.parallel,
        perf_runs=args.perf_runs, subfeatures=args.subfeatures,
        pseudofiles=args.pseudofiles)
    db = _db_root(args, create=True)
    orch = Orchestrator(spec, config, tables=_tables(args))
    profile = orch.full_analysis(db_root=db)
    if args.json:
        print(json.dumps(profile.to_json(), indent=2, sort_keys=True))
    else:
        print(f"app: {profile.app}  workload: {profile.workload_hash}  "
              f"confirmed: {profile.confirmed}")
        _print_profile_table(profile)
    if not profile.confirmed:
        print("error: inconsistent: per-feature verdicts did not compose in the "
              "confirmation run; hunt culprits with `slens probe --policy`",
              file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_probe(args) -> int:
    spec = _app_spec(args)
    policy = read_input(args.policy, lambda text: Policy.from_json(json.loads(text)))
    named = policy.overrides  # classify calls as finely as these features
    config = _analysis_config(args, replicas=1, perf_runs=0,
                              subfeatures=any(f.subfeature is not None for f in named),
                              pseudofiles=any(f.pseudofile is not None for f in named))
    orch = Orchestrator(spec, config, tables=_tables(args))
    outcome = orch.probe_custom(policy)
    if args.json:
        print(json.dumps(outcome.to_json(), indent=2, sort_keys=True))
    else:
        print(f"success: {outcome.success}  reason: {outcome.reason}  "
              f"perf: {outcome.perf_metric}  peak_rss: {outcome.trace.peak_rss}  "
              f"peak_fds: {outcome.trace.peak_fds}  hits: {outcome.hits}  "
              f"ready_s: {outcome.ready_s}")
    return EXIT_OK


def cmd_plan(args) -> int:
    os_support = store.import_os_csv(args.os_support)
    profiles = _load_profiles(args)
    targets = _select_targets(args, profiles)
    plan = planner.generate_plan(os_support, profiles, targets)
    if args.json:
        print(json.dumps(plan.to_json(), indent=2, sort_keys=True))
    else:
        print(planner.render_plan_table(plan), end="")
    return EXIT_OK


def cmd_importance(args) -> int:
    profiles = _load_profiles(args)
    report = planner.api_importance(profiles.values())
    if args.json:
        print(json.dumps(planner.render_importance_json(report),
                         indent=2, sort_keys=True))
    else:
        print(planner.render_importance_csv(report), end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    os_support = store.import_os_csv(args.os_support)
    external = None
    if args.order:
        external = read_input(args.order, lambda text: [
            line.strip() for line in text.splitlines() if line.strip()])
    profiles = _load_profiles(args)
    targets = _select_targets(args, profiles)
    curves = planner.compare_strategies(profiles, os_support, targets,
                                        external_order=external)
    if args.json:
        print(json.dumps({k: [list(p) for p in v] for k, v in curves.items()},
                         indent=2, sort_keys=True))
    else:
        print(planner.render_curves_csv(curves), end="")
    return EXIT_OK


def cmd_export(args) -> int:
    entries = [e for e in store.load_db(_db_root(args))
               if e.profile.app == args.apps]
    if not entries:
        return _fail(EXIT_USAGE, "usage", f"no stored profile for app {args.apps!r}")
    if len(entries) > 1:
        print(f"warning: {len(entries)} entries for {args.apps!r}; exporting the first",
              file=sys.stderr)
    print(store.export_profile_csv(entries[0].profile), end="")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "probe": cmd_probe,
    "plan": cmd_plan,
    "importance": cmd_importance,
    "compare": cmd_compare,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except BaselineFailure as exc:
        return _fail(EXIT_BASELINE, "baseline-failure", str(exc))
    except (ScriptMissing, LaunchFailure) as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except ParseError as exc:
        return _fail(EXIT_USAGE, "parse", str(exc))
    except (planner.UnconfirmedProfile, planner.IncompleteOrdering,
            planner.PlannerError) as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except SlensError as exc:
        return _fail(EXIT_INTERNAL, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
