"""Turn measured profiles plus an OS support state into development guidance.

Three outputs: an incremental support plan (which syscalls to implement,
stub, or fake next, and which application each step unlocks), per-syscall
API-importance statistics, and effort-versus-apps curves comparing planning
strategies.

Each app is reduced once to a needs map: per observed syscall, the
non-implement modes (stub, fake) that satisfy every feature of the app on
that syscall.  An app is supported iff each of its syscalls is implemented
or is declared in a mode its map accepts.

The plan and the compared strategies are one fold over these maps.  While
some app is pending, the fold intersects the pending apps' maps into
per-syscall mode constraints, lets a chooser pick an app and its delta, adds
the delta to the OS state, and credits the chosen app, then every other
pending app that is now supported.  A delta stubs an unsatisfied syscall
when every pending app accepts a stub, else fakes it when every pending app
accepts a fake, else implements it: a syscall is emitted at most once across
a plan, so a stub or fake must suit every app still to come.  A syscall the
state already declares in a mode the app cannot take is promoted: the delta
implements it.

The plan chooses the app with the cheapest weighted delta (implementing a
syscall is expensive; declaring a stub or fake is a one-line change).  The
external strategy takes apps in a given order.  The naive strategy is the
plan over maps that accept no mode, from the implemented syscalls alone, so
every traced syscall costs an implementation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from . import SlensError
from . import syscalls
from .orchestrator import (
    AppProfile,
    CLASS_ANY,
    CLASS_FAKE_ONLY,
    CLASS_REQUIRED,
    CLASS_STUB_ONLY,
)
from .store import OsSupportSet


class UnconfirmedProfile(SlensError):
    """The profile's final confirmation run did not pass; refuse to plan on it."""


class IncompleteOrdering(SlensError):
    """An externally supplied app ordering does not cover all targets."""


class PlannerError(SlensError):
    pass


@dataclass(frozen=True)
class PlanWeights:
    """Relative cost of satisfying a syscall per mode."""

    implement: float = 1.0
    stub: float = 0.1
    fake: float = 0.1


@dataclass(frozen=True)
class PlanStep:
    """One increment of work: syscall sets to add, and what that unlocks."""

    index: int
    implement: frozenset[int]
    stub: frozenset[int]
    fake: frozenset[int]
    unlocks: tuple[str, ...]
    notes: tuple[str, ...] = ()  # partial-implementation hints per syscall

    def __post_init__(self):
        overlap = (self.implement & self.stub | self.implement & self.fake
                   | self.stub & self.fake)
        if overlap:
            raise ValueError(f"step sets overlap on {sorted(overlap)}")
        if self.index >= 1 and not (self.implement or self.stub or self.fake):
            raise ValueError("non-summary steps must add at least one syscall")


@dataclass(frozen=True)
class SupportPlan:
    initial_supported: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    unreachable: tuple[str, ...]

    def all_apps(self) -> tuple[str, ...]:
        out = list(self.initial_supported)
        for step in self.steps:
            out.extend(step.unlocks)
        out.extend(self.unreachable)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "initial_supported": list(self.initial_supported),
            "steps": [
                {
                    "index": s.index,
                    "implement": sorted(s.implement),
                    "stub": sorted(s.stub),
                    "fake": sorted(s.fake),
                    "unlocks": list(s.unlocks),
                    "notes": list(s.notes),
                }
                for s in self.steps
            ],
            "unreachable": list(self.unreachable),
        }


@dataclass(frozen=True)
class ImportanceRow:
    traced: float
    required: float

    def __post_init__(self):
        if not 0.0 <= self.required <= self.traced <= 1.0:
            raise ValueError("importance must satisfy 0 <= required <= traced <= 1")


@dataclass(frozen=True)
class ImportanceReport:
    """Fraction of apps tracing / requiring each syscall."""

    apps_total: int
    rows: Mapping[int, ImportanceRow]

    def importance_traced(self, nr: int) -> float:
        row = self.rows.get(nr)
        return row.traced if row else 0.0

    def importance_required(self, nr: int) -> float:
        row = self.rows.get(nr)
        return row.required if row else 0.0


# ---------------------------------------------------------------------------
# Needs maps and the support predicate

# Non-implement modes that satisfy a feature of each class.
_MODES = {
    CLASS_REQUIRED: frozenset(),
    CLASS_STUB_ONLY: frozenset({"stub"}),
    CLASS_FAKE_ONLY: frozenset({"fake"}),
    CLASS_ANY: frozenset({"stub", "fake"}),
}

Needs = dict[int, frozenset[str]]
Delta = tuple[frozenset[int], frozenset[int], frozenset[int]]


def _needs(profile: AppProfile) -> Needs:
    """Per observed syscall, the non-implement modes all its features accept."""
    needs: Needs = {}
    for feature in profile.observed:
        modes = _MODES[profile.classes[feature]]
        nr = feature.syscall_nr
        # Store the shared _MODES sets where possible: a map per app is kept
        # for a whole plan.
        needs[nr] = needs[nr] & modes if nr in needs else modes
    return needs


def _satisfied(nr: int, modes: frozenset[str], state: OsSupportSet) -> bool:
    return (nr in state.implemented
            or nr in state.declared_stubs and "stub" in modes
            or nr in state.declared_fakes and "fake" in modes)


def _supported(needs: Needs, state: OsSupportSet) -> bool:
    return all(_satisfied(nr, modes, state) for nr, modes in needs.items())


def app_supported(profile: AppProfile, os_state: OsSupportSet) -> bool:
    """True iff every observed feature is satisfied by the OS state."""
    if not profile.confirmed:
        raise UnconfirmedProfile(
            f"profile for {profile.app} is unconfirmed; re-measure before planning")
    return _supported(_needs(profile), os_state)


# ---------------------------------------------------------------------------
# The fold


def _delta(needs: Needs, state: OsSupportSet,
           constraints: Mapping[int, frozenset[str]]) -> Delta:
    """Syscall sets to add so this app becomes supported, honoring constraints."""
    implement: set[int] = set()
    stub: set[int] = set()
    fake: set[int] = set()
    for nr, modes in needs.items():
        if _satisfied(nr, modes, state):
            continue
        allowed = constraints[nr]
        # A syscall declared in a mode this app cannot take is promoted.
        if not allowed or nr in state.declared_stubs or nr in state.declared_fakes:
            implement.add(nr)
        elif "stub" in allowed:
            stub.add(nr)
        else:
            fake.add(nr)
    return frozenset(implement), frozenset(stub), frozenset(fake)


Chooser = Callable[[Mapping[str, Needs], OsSupportSet, Mapping[int, frozenset[str]]],
                   tuple[str, Delta]]


def _fold(state: OsSupportSet, needs: Mapping[str, Needs],
          choose: Chooser) -> SupportPlan:
    """Fold apps into ``state`` one chosen app at a time, until none is pending.

    ``choose(pending, state, constraints)`` returns the next app and its
    delta.  Each step unlocks the chosen app first, then by name every other
    pending app the step supported incidentally.  The steps carry no notes.
    """
    initial = tuple(sorted(n for n, m in needs.items() if _supported(m, state)))
    pending = {n: m for n, m in needs.items() if n not in initial}
    steps: list[PlanStep] = []
    while pending:
        constraints: dict[int, frozenset[str]] = {}
        for app_needs in pending.values():
            for nr, modes in app_needs.items():
                constraints[nr] = constraints[nr] & modes if nr in constraints else modes
        chosen, (implement, stub, fake) = choose(pending, state, constraints)
        state = state.with_additions(implement, stub, fake)
        del pending[chosen]
        unlocks = [chosen] + [name for name in sorted(pending)
                              if _supported(pending[name], state)]
        for name in unlocks[1:]:
            del pending[name]
        steps.append(PlanStep(index=len(steps) + 1, implement=implement, stub=stub,
                              fake=fake, unlocks=tuple(unlocks)))
    return SupportPlan(initial_supported=initial, steps=tuple(steps), unreachable=())


def _cheapest(weights: PlanWeights) -> Chooser:
    """Choose the lowest weighted delta cost; ties: fewer implements, then name."""

    def choose(pending, state, constraints):
        def ranked(name):
            delta = implement, stub, fake = _delta(pending[name], state, constraints)
            cost = (weights.implement * len(implement)
                    + weights.stub * len(stub) + weights.fake * len(fake))
            return (cost, len(implement), name), delta

        # min() over a lazy map keeps only the best delta alive.
        (_, _, name), delta = min(map(ranked, pending))
        return name, delta

    return choose


def _in_order(order: Sequence[str]) -> Chooser:
    """Choose the next pending app in ``order``."""
    names = iter(order)

    def choose(pending, state, constraints):
        name = next(n for n in names if n in pending)
        return name, _delta(pending[name], state, constraints)

    return choose


# ---------------------------------------------------------------------------
# Greedy incremental plan


def _by_name(profiles: Mapping[str, AppProfile] | Iterable[AppProfile]
             ) -> dict[str, AppProfile]:
    return (dict(profiles) if isinstance(profiles, Mapping)
            else {p.app: p for p in profiles})


def _subfeatures(profiles: Iterable[AppProfile]) -> dict[int, set[int]]:
    """Per vectored syscall, every sub-feature observed in ``profiles``."""
    subs: dict[int, set[int]] = {}
    for profile in profiles:
        for f in profile.observed:
            if f.subfeature is not None:
                subs.setdefault(f.syscall_nr, set()).add(f.subfeature)
    return subs


def _subfeature_notes(subs: Mapping[int, set[int]], implement: Iterable[int]) -> tuple[str, ...]:
    """Partial-implementation hints: which sub-features were actually seen."""
    notes = []
    for nr in sorted(implement):
        if nr in subs:
            name = syscalls.nr_to_name(nr) or str(nr)
            rendered = ", ".join(f"{s:#x}" for s in sorted(subs[nr]))
            notes.append(f"{name}: only sub-features {rendered} observed")
    return tuple(notes)


def generate_plan(os_support: OsSupportSet,
                  profiles: Mapping[str, AppProfile] | Iterable[AppProfile],
                  targets: Sequence[str],
                  weights: PlanWeights = PlanWeights(),
                  wont_implement: frozenset[int] = frozenset()) -> SupportPlan:
    """Greedy cheapest-app-next incremental support plan.

    At every step the unsupported target app with the lowest weighted delta
    cost is chosen (ties: fewer implements, then lexicographic app name),
    its delta sets are emitted and folded into the running OS state, and any
    other app that incidentally became supported is credited to the same
    step.  Apps whose required syscalls intersect ``wont_implement`` are
    reported as unreachable instead of planned.
    """
    by_name = _by_name(profiles)
    missing = [t for t in targets if t not in by_name]
    if missing:
        raise PlannerError(f"no profile for target apps: {', '.join(missing)}")
    target_profiles = {t: by_name[t] for t in targets}
    for name, profile in target_profiles.items():
        if not profile.confirmed:
            raise UnconfirmedProfile(
                f"profile for {name} is unconfirmed; re-measure before planning")

    unreachable = tuple(sorted(
        name for name, p in target_profiles.items()
        if p.required_syscalls() & wont_implement
    ))
    needs = {name: _needs(p) for name, p in target_profiles.items()
             if name not in unreachable}
    plan = _fold(os_support, needs, _cheapest(weights))
    subs = _subfeatures(target_profiles.values())
    steps = tuple(replace(step, notes=_subfeature_notes(subs, step.implement))
                  for step in plan.steps)
    return SupportPlan(initial_supported=plan.initial_supported, steps=steps,
                       unreachable=unreachable)


def replay_plan(plan: SupportPlan, os_support: OsSupportSet,
                profiles: Mapping[str, AppProfile]) -> None:
    """Validity check: after steps 1..k, everything unlocked so far is supported.

    Raises PlannerError when the plan does not hold or repeats a syscall.  A
    syscall already in ``os_support`` counts as emitted, except that a plan
    may implement a declared stub or fake once.
    """
    state = os_support
    promotable = os_support.declared_stubs | os_support.declared_fakes
    seen: set[int] = set(os_support.implemented | promotable)
    supported_so_far = list(plan.initial_supported)
    for name in supported_so_far:
        if not app_supported(profiles[name], state):
            raise PlannerError(f"{name} is not supported at step 0")
    for step in plan.steps:
        emitted = step.implement | step.stub | step.fake
        repeats = (emitted & seen) - (step.implement & promotable)
        if repeats:
            raise PlannerError(f"step {step.index} repeats syscalls {sorted(repeats)}")
        seen |= emitted
        promotable -= emitted
        state = state.with_additions(step.implement, step.stub, step.fake)
        supported_so_far.extend(step.unlocks)
        for name in supported_so_far:
            if not app_supported(profiles[name], state):
                raise PlannerError(
                    f"{name} is not supported after step {step.index}")


# ---------------------------------------------------------------------------
# API importance


def api_importance(profiles: Iterable[AppProfile]) -> ImportanceReport:
    """Per syscall: fraction of apps tracing it, and fraction requiring it."""
    profiles = list(profiles)
    if not profiles:
        raise PlannerError("empty database: no profiles to analyze")
    traced_counts: dict[int, int] = {}
    required_counts: dict[int, int] = {}
    for profile in profiles:
        for nr in profile.traced_syscalls():
            traced_counts[nr] = traced_counts.get(nr, 0) + 1
        for nr in profile.required_syscalls():
            required_counts[nr] = required_counts.get(nr, 0) + 1
    total = len(profiles)
    rows = {
        nr: ImportanceRow(traced=traced_counts[nr] / total,
                          required=required_counts.get(nr, 0) / total)
        for nr in traced_counts
    }
    return ImportanceReport(apps_total=total, rows=rows)


# ---------------------------------------------------------------------------
# Strategy comparison


def _curve(plan: SupportPlan) -> list[tuple[int, int]]:
    """Cumulative implemented syscalls against apps supported, per step."""
    points = [(0, len(plan.initial_supported))]
    for step in plan.steps:
        x, y = points[-1]
        points.append((x + len(step.implement), y + len(step.unlocks)))
    return points


def compare_strategies(profiles: Mapping[str, AppProfile] | Iterable[AppProfile],
                       os_support: OsSupportSet,
                       targets: Sequence[str] | None = None,
                       external_order: Sequence[str] | None = None,
                       weights: PlanWeights = PlanWeights()
                       ) -> dict[str, list[tuple[int, int]]]:
    """Effort curves: cumulative syscalls implemented vs. apps supported.

    Strategies: ``plan`` follows generate_plan, charging only its implement
    sets on the x-axis (stubs and fakes are free effort-wise); ``naive``
    charges every traced syscall of each app as an implementation, taking
    the cheapest app next; ``external`` (when an app ordering is given)
    applies plan-style deltas in the supplied order.  All curves are
    monotone in both coordinates.
    """
    by_name = _by_name(profiles)
    if targets is None:
        targets = sorted(by_name)
    if not targets:
        return {}

    curves = {"plan": _curve(generate_plan(os_support, by_name, targets, weights))}
    needs = {name: _needs(by_name[name]) for name in targets}
    no_modes = {name: dict.fromkeys(app_needs, frozenset())
                for name, app_needs in needs.items()}
    curves["naive"] = _curve(_fold(OsSupportSet(implemented=os_support.implemented),
                                   no_modes, _cheapest(PlanWeights())))
    if external_order is not None:
        missing = [t for t in targets if t not in external_order]
        if missing:
            raise IncompleteOrdering(
                f"external ordering misses target apps: {', '.join(missing)}")
        curves["external"] = _curve(_fold(os_support, needs, _in_order(external_order)))
    return curves


# ---------------------------------------------------------------------------
# Rendering


def render_plan_table(plan: SupportPlan) -> str:
    """Step-by-step plan as a text table (step | implement | stub | fake | support)."""

    def render_set(s: frozenset[int]) -> str:
        return ", ".join(str(n) for n in sorted(s)) if s else "-"

    rows = [("Step", "Implement", "Stub", "Fake", "Support for...")]
    rows.append(("0", "-", "-", "-", f"({len(plan.initial_supported)} apps)"))
    for step in plan.steps:
        rows.append((
            str(step.index),
            render_set(step.implement),
            render_set(step.stub),
            render_set(step.fake),
            "+ " + ", ".join(step.unlocks),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    out = io.StringIO()
    for i, row in enumerate(rows):
        out.write(" | ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        out.write("\n")
        if i == 0:
            out.write("-+-".join("-" * w for w in widths) + "\n")
    if plan.unreachable:
        out.write(f"unreachable: {', '.join(plan.unreachable)}\n")
    notes = [n for step in plan.steps for n in step.notes]
    if notes:
        out.write("partial-implementation hints:\n")
        for n in notes:
            out.write(f"  {n}\n")
    return out.getvalue()


def render_curves_csv(curves: Mapping[str, Sequence[tuple[int, int]]]) -> str:
    """Curves as CSV: strategy,implemented_syscalls,apps_supported."""
    out = io.StringIO()
    out.write("strategy,implemented_syscalls,apps_supported\n")
    for strategy in sorted(curves):
        for x, y in curves[strategy]:
            out.write(f"{strategy},{x},{y}\n")
    return out.getvalue()


def render_importance_csv(report: ImportanceReport) -> str:
    out = io.StringIO()
    out.write("syscall_nr,name,importance_traced,importance_required\n")
    ordered = sorted(report.rows.items(),
                     key=lambda kv: (-kv[1].required, -kv[1].traced, kv[0]))
    for nr, row in ordered:
        name = syscalls.nr_to_name(nr) or ""
        out.write(f"{nr},{name},{row.traced:.6f},{row.required:.6f}\n")
    return out.getvalue()


def render_importance_json(report: ImportanceReport) -> dict:
    return {
        "apps_total": report.apps_total,
        "syscalls": [
            {"syscall_nr": nr,
             "name": syscalls.nr_to_name(nr),
             "importance_traced": row.traced,
             "importance_required": row.required}
            for nr, row in sorted(report.rows.items())
        ],
    }
