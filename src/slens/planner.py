"""Turn measured profiles plus an OS support state into development guidance.

Three outputs: an incremental support plan (which syscalls to implement,
stub, or fake next, and which application each step unlocks), per-syscall
API-importance statistics, and effort-versus-apps curves comparing planning
strategies.

Each app is reduced once to three int masks: its syscalls, and those all of
whose features accept a stub, and a fake.  An OS state is three masks too:
implemented, declared stubs, declared fakes.  Bit i stands for the i-th
smallest syscall the profiles observe: a raw x32 number (0x40000000 + n)
would make a 2^30-bit int.  A syscall outside this dense numbering concerns
no app, so the state's masks leave it out.  The fold, ``app_supported`` and
``replay_plan`` share one predicate, the syscalls an app misses (none iff it
is supported):

    every & ~(implemented | stubs & stub_ok | fakes & fake_ok)

The plan and the compared strategies are one fold.  While some app is
pending, the fold ORs the pending apps' masks into the syscalls some of them
cannot take as a stub, and as a fake; a chooser picks an app and its delta;
the fold adds the delta to the state and credits the chosen app, then every
other pending app now supported.  A delta stubs a missing syscall when every
pending app accepts a stub, else fakes it when every pending app accepts a
fake, else implements it: a syscall is emitted at most once across a plan,
so a stub or fake must suit every app still to come.  A syscall the state
declares in a mode the app cannot take is promoted: the delta implements it.

The fold pays for what a step changed.  It keeps the pending apps in name
order.  A step changes the state only at the syscalls of its delta, so only
an app whose syscalls meet the delta can be unlocked by it.  An app's delta
is a bitwise function of the state and the two refusal masks (``no_stub``,
``no_fake``), limited to its own syscalls.  A refusal bit clears only when
the last app refusing it leaves ``pending``, that is, once the state holds
that syscall, and where the state holds a syscall in any mode no delta
reads the refusal masks.  So the plan's chooser keeps every pending app's
rank and delta across steps, and re-ranks only the apps whose syscalls meet
a bit of the state that changed since its previous choice.

The plan chooses the app with the cheapest delta, at IMPLEMENT_COST per
implemented syscall and STUB_COST or FAKE_COST per stub or fake
(implementing a syscall is expensive; declaring a stub or fake is a
one-line change).  The external strategy takes apps in a given order.  The
naive strategy is the plan over apps that accept no mode, from the
implemented syscalls alone, so every traced syscall costs an
implementation.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, replace
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from . import SlensError
from . import syscalls
from .orchestrator import CLASS_MODES, MODE_FAKE, MODE_STUB, AppProfile
from .store import OsSupportSet


class UnconfirmedProfile(SlensError):
    """The profile's final confirmation run did not pass; refuse to plan on it."""


class IncompleteOrdering(SlensError):
    """An externally supplied app ordering does not cover all targets."""


class PlannerError(SlensError):
    pass


# Relative cost of satisfying a syscall in each mode.
IMPLEMENT_COST = 1.0
STUB_COST = 0.1
FAKE_COST = 0.1


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
    """``unreachable`` is always empty: every target app is planned.  It
    stays a key of ``plan --json``, which other tools read."""

    initial_supported: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    unreachable: tuple[str, ...]

    def all_apps(self) -> tuple[str, ...]:
        out = list(self.initial_supported)
        for step in self.steps:
            out.extend(step.unlocks)
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
    """Fraction of apps tracing / requiring each syscall, in ``rows``; a
    syscall no app traced has no row."""

    apps_total: int
    rows: Mapping[int, ImportanceRow]


# ---------------------------------------------------------------------------
# Syscall masks and the support predicate

Needs = tuple[int, int, int]  # every syscall the app uses, stub_ok, fake_ok
State = tuple[int, int, int]  # implemented, declared stubs, declared fakes


def _numbering(profiles: Iterable[AppProfile]) -> dict[int, int]:
    """The bit of each syscall the profiles observe, densely numbered."""
    nrs = sorted({f.syscall_nr for p in profiles for f in p.observed})
    return {nr: 1 << i for i, nr in enumerate(nrs)}


def _mask(nrs: AbstractSet[int], bits: Mapping[int, int]) -> int:
    return sum(bits.get(nr, 0) for nr in nrs)  # distinct bits: the sum is the OR


def _syscalls(mask: int, bits: Mapping[int, int]) -> frozenset[int]:
    return frozenset(nr for nr, bit in bits.items() if mask & bit) if mask else frozenset()


def _state(support: OsSupportSet, bits: Mapping[int, int]) -> State:
    return (_mask(support.implemented, bits), _mask(support.declared_stubs, bits),
            _mask(support.declared_fakes, bits))


def _with_additions(state: State, implement: int, stub: int, fake: int) -> State:
    """As ``OsSupportSet.with_additions``, on masks."""
    implemented = state[0] | implement
    return implemented, state[1] & ~implemented | stub, state[2] & ~implemented | fake


def _needs(profile: AppProfile, bits: Mapping[int, int]) -> Needs:
    """The app's syscalls, and those all of whose features accept a stub,
    and a fake, in one pass over its classes.  Refuses an unconfirmed
    profile."""
    if not profile.confirmed:
        raise UnconfirmedProfile(
            f"profile for {profile.app} is unconfirmed; re-measure before planning")
    every = no_stub = no_fake = 0
    for f, c in profile.classes.items():
        bit = bits.get(f.syscall_nr, 0)
        every |= bit
        if MODE_STUB not in CLASS_MODES[c]:
            no_stub |= bit
        if MODE_FAKE not in CLASS_MODES[c]:
            no_fake |= bit
    return every, every & ~no_stub, every & ~no_fake


def _missing(needs: Needs, state: State) -> int:
    """The app's syscalls that ``state`` does not satisfy: 0 iff supported."""
    every, stub_ok, fake_ok = needs
    implemented, stubs, fakes = state
    return every & ~(implemented | stubs & stub_ok | fakes & fake_ok)


def app_supported(profile: AppProfile, os_state: OsSupportSet) -> bool:
    """True iff every observed feature is satisfied by the OS state."""
    bits = _numbering([profile])
    return not _missing(_needs(profile, bits), _state(os_state, bits))


# ---------------------------------------------------------------------------
# The fold


def _delta(needs: Needs, state: State, no_stub: int, no_fake: int) -> State:
    """Masks to implement, stub and fake that support this app, given the
    syscalls some pending app refuses as a stub (``no_stub``) and as a fake."""
    missing = _missing(needs, state)
    # A syscall declared in a mode this app cannot take is promoted.
    implement = missing & (state[1] | state[2] | no_stub & no_fake)
    stub = missing & ~implement & ~no_stub
    return implement, stub, missing & ~implement & ~stub


Chooser = Callable[[Mapping[str, Needs], State, int, int], tuple[str, State]]


def _fold(state: State, needs: Mapping[str, Needs], bits: Mapping[int, int],
          choose: Chooser) -> SupportPlan:
    """Fold apps into ``state`` one chosen app at a time, until none is pending.

    ``choose(pending, state, no_stub, no_fake)`` returns the next app and
    its delta; ``pending`` stays in name order.  Each step unlocks the
    chosen app first, then by name every other pending app the step
    supported incidentally: only an app whose syscalls meet the delta can
    be one.  The steps carry no notes.
    """
    pending = {n: needs[n] for n in sorted(needs) if _missing(needs[n], state)}
    initial = tuple(sorted(needs.keys() - pending.keys()))
    steps: list[PlanStep] = []
    while pending:
        no_stub = no_fake = 0
        for every, stub_ok, fake_ok in pending.values():
            no_stub |= every & ~stub_ok
            no_fake |= every & ~fake_ok
        chosen, delta = choose(pending, state, no_stub, no_fake)
        state = _with_additions(state, *delta)
        del pending[chosen]
        touched = delta[0] | delta[1] | delta[2]
        unlocks = [chosen] + [name for name, m in pending.items()
                              if m[0] & touched and not _missing(m, state)]
        for name in unlocks[1:]:
            del pending[name]
        implement, stub, fake = (_syscalls(mask, bits) for mask in delta)
        steps.append(PlanStep(index=len(steps) + 1, implement=implement, stub=stub,
                              fake=fake, unlocks=tuple(unlocks)))
    return SupportPlan(initial_supported=initial, steps=tuple(steps), unreachable=())


def _cheapest() -> Chooser:
    """A chooser, for one fold, of the lowest delta cost; ties: fewer
    implements, then name.

    It keeps each pending app's rank and delta, and re-ranks only the apps
    whose syscalls meet a bit of ``state`` that changed since its last call
    (the module docstring says why the refusal masks need no watching).
    """
    ranks: dict[str, tuple[tuple[float, int, str], State]] = {}
    last: tuple[int, ...] = ()

    def ranked(name, needs, state, no_stub, no_fake):
        delta = implement, stub, fake = _delta(needs, state, no_stub, no_fake)
        implements = implement.bit_count()
        cost = (IMPLEMENT_COST * implements
                + STUB_COST * stub.bit_count() + FAKE_COST * fake.bit_count())
        return (cost, implements, name), delta

    def choose(pending, state, no_stub, no_fake):
        nonlocal ranks, last
        changed = -1  # every bit, at the first call
        if last:
            changed = 0
            for now, before in zip(state, last):
                changed |= now ^ before
        last = state
        ranks = {name: ranked(name, needs, state, no_stub, no_fake)
                 if needs[0] & changed else ranks[name]
                 for name, needs in pending.items()}
        (_, _, name), delta = min(ranks.values())
        return name, delta

    return choose


def _in_order(order: Sequence[str]) -> Chooser:
    """Choose the next pending app in ``order``."""
    names = iter(order)

    def choose(pending, state, no_stub, no_fake):
        name = next(n for n in names if n in pending)
        return name, _delta(pending[name], state, no_stub, no_fake)

    return choose


# ---------------------------------------------------------------------------
# Greedy incremental plan


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


def _prepare(profiles: Mapping[str, AppProfile],
             targets: Sequence[str]) -> tuple[dict[int, int], dict[str, Needs]]:
    """The dense numbering of the targets' syscalls, and each target's masks.

    Raises PlannerError naming the targets with no profile."""
    missing = [t for t in targets if t not in profiles]
    if missing:
        raise PlannerError(f"no profile for target apps: {', '.join(missing)}")
    bits = _numbering(profiles[t] for t in targets)
    return bits, {t: _needs(profiles[t], bits) for t in targets}


def generate_plan(os_support: OsSupportSet,
                  profiles: Mapping[str, AppProfile],
                  targets: Sequence[str]) -> SupportPlan:
    """Greedy cheapest-app-next incremental support plan.

    At every step the unsupported target app with the lowest delta cost
    (IMPLEMENT_COST, STUB_COST and FAKE_COST per syscall of its delta) is
    chosen (ties: fewer implements, then lexicographic app name),
    its delta sets are emitted and folded into the running OS state, and any
    other app that incidentally became supported is credited to the same
    step.
    """
    bits, needs = _prepare(profiles, targets)
    plan = _fold(_state(os_support, bits), needs, bits, _cheapest())
    subs = _subfeatures(profiles[t] for t in needs)
    steps = tuple(replace(step, notes=_subfeature_notes(subs, step.implement))
                  for step in plan.steps)
    return replace(plan, steps=steps)


def replay_plan(plan: SupportPlan, os_support: OsSupportSet,
                profiles: Mapping[str, AppProfile]) -> None:
    """Validity check: after steps 1..k, everything unlocked so far is supported.

    Raises PlannerError when the plan does not hold or repeats a syscall.  A
    syscall already in ``os_support`` counts as emitted, except that a plan
    may implement a declared stub or fake once.
    """
    bits = _numbering(profiles.values())
    needs: dict[str, Needs] = {}  # of every app supported so far

    def check(names: Iterable[str], state: State, when: str) -> None:
        for name in names:
            if name not in needs:
                needs[name] = _needs(profiles[name], bits)
            if _missing(needs[name], state):
                raise PlannerError(f"{name} is not supported {when}")

    state = _state(os_support, bits)
    promotable = os_support.declared_stubs | os_support.declared_fakes
    seen: set[int] = set(os_support.implemented | promotable)
    check(plan.initial_supported, state, "at step 0")
    for step in plan.steps:
        emitted = step.implement | step.stub | step.fake
        repeats = (emitted & seen) - (step.implement & promotable)
        if repeats:
            raise PlannerError(f"step {step.index} repeats syscalls {sorted(repeats)}")
        seen |= emitted
        promotable -= emitted
        state = _with_additions(state, *(_mask(s, bits) for s in
                                         (step.implement, step.stub, step.fake)))
        check([*needs, *step.unlocks], state, f"after step {step.index}")


# ---------------------------------------------------------------------------
# API importance


def api_importance(profiles: Iterable[AppProfile]) -> ImportanceReport:
    """Per syscall: fraction of apps tracing it, and fraction requiring it."""
    profiles = list(profiles)
    if not profiles:
        raise PlannerError("empty database: no profiles to analyze")
    traced = Counter(nr for p in profiles for nr in p.traced_syscalls())
    required = Counter(nr for p in profiles for nr in p.required_syscalls())
    total = len(profiles)
    rows = {nr: ImportanceRow(traced=traced[nr] / total, required=required[nr] / total)
            for nr in traced}
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


def compare_strategies(profiles: Mapping[str, AppProfile],
                       os_support: OsSupportSet,
                       targets: Sequence[str] | None = None,
                       external_order: Sequence[str] | None = None
                       ) -> dict[str, list[tuple[int, int]]]:
    """Effort curves: cumulative syscalls implemented vs. apps supported.

    Strategies: ``plan`` folds as generate_plan does, charging only its
    implement sets on the x-axis (stubs and fakes are free effort-wise);
    ``naive`` charges every traced syscall of each app as an
    implementation, taking the app that misses the fewest syscalls next;
    ``external`` (when an app ordering is given) applies plan-style deltas
    in the supplied order.  All curves are monotone in both coordinates.
    """
    if targets is None:
        targets = sorted(profiles)
    if not targets:
        return {}

    bits, needs = _prepare(profiles, targets)
    state = _state(os_support, bits)
    curves = {"plan": _curve(_fold(state, needs, bits, _cheapest()))}
    naive = {name: (every, 0, 0) for name, (every, _, _) in needs.items()}
    curves["naive"] = _curve(_fold((_mask(os_support.implemented, bits), 0, 0), naive,
                                   bits, _cheapest()))
    if external_order is not None:
        missing = [t for t in targets if t not in external_order]
        if missing:
            raise IncompleteOrdering(
                f"external ordering misses target apps: {', '.join(missing)}")
        curves["external"] = _curve(_fold(state, needs, bits, _in_order(external_order)))
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
