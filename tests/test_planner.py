"""Planning, importance statistics, and strategy curves.

The oracle for plan quality is a per-syscall lower bound: a syscall must be
implemented iff no single mode, stub or fake, satisfies every feature of
that syscall across all apps, because a syscall holds one mode and each
feature depends only on its own syscall's mode.  The greedy plan is checked
for validity and no-repeats always, and for its implement total against
that bound with a reported gap.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from slens.cli import main
from slens.interposer import FeatureId
from slens.orchestrator import AppProfile
from slens.planner import (
    ImportanceReport,
    ImportanceRow,
    IncompleteOrdering,
    PlannerError,
    PlanStep,
    PlanWeights,
    SupportPlan,
    UnconfirmedProfile,
    api_importance,
    app_supported,
    compare_strategies,
    generate_plan,
    replay_plan,
)
from slens.store import DbEntry, OsSupportSet, save_profile

EMPTY_OS = OsSupportSet(os_name="empty")


def profile_of(app: str, classes: dict, confirmed=True) -> AppProfile:
    """``classes`` maps a syscall number, or a (syscall, sub-feature) pair,
    to its class."""
    features = {FeatureId(*k) if isinstance(k, tuple) else FeatureId(k): c
                for k, c in classes.items()}
    observed = tuple(sorted(features, key=FeatureId.sort_key))
    return AppProfile(
        app=app, workload_hash="f" * 16, observed=observed,
        classes=features,
        regressions={}, confirmed=confirmed,
        metadata={},
    )


# ---------------------------------------------------------------------------
# Oracle: per-syscall lower bound (independent of the planner)

# Non-implement modes that satisfy a feature of each class.
_ORACLE_MODES = {
    "required": frozenset(),
    "stub_only": frozenset({"stub"}),
    "fake_only": frozenset({"fake"}),
    "any": frozenset({"stub", "fake"}),
}


def oracle_min_total_implements(profiles: dict[str, AppProfile],
                                start: OsSupportSet) -> int:
    """Minimum number of implements in any state supporting every app.

    Each syscall holds at most one mode, and an app is supported iff each of
    its features is satisfied by its own syscall's mode.  So a syscall must
    be implemented iff no single mode, stub or fake, satisfies every feature
    of that syscall across all apps; the other syscalls can each take a mode
    that does.
    """
    assert not (start.implemented or start.declared_stubs or start.declared_fakes), \
        "the bound holds for an empty start state only"
    modes: dict[int, frozenset[str]] = {}
    for profile in profiles.values():
        for f in profile.observed:
            nr = f.syscall_nr
            accepted = _ORACLE_MODES[profile.classes[f]]
            modes[nr] = modes.get(nr, accepted) & accepted
    return sum(1 for accepted in modes.values() if not accepted)


def oracle_delta_cost(profile: AppProfile, pending: dict[str, AppProfile],
                      state: OsSupportSet, weights: PlanWeights) -> float:
    """Weighted cost of supporting ``profile`` next from ``state``.

    Each syscall of the app that ``state`` does not satisfy is stubbed when
    every pending app accepts a stub for it, else faked when every pending
    app accepts a fake, else implemented.
    """
    allowed: dict[int, frozenset[str]] = {}
    for p in pending.values():
        for f in p.observed:
            accepted = _ORACLE_MODES[p.classes[f]]
            allowed[f.syscall_nr] = allowed.get(f.syscall_nr, accepted) & accepted
    own: dict[int, frozenset[str]] = {}
    for f in profile.observed:
        accepted = _ORACLE_MODES[profile.classes[f]]
        own[f.syscall_nr] = own.get(f.syscall_nr, accepted) & accepted
    counts = {"implement": 0, "stub": 0, "fake": 0}
    for nr, accepted in own.items():
        if (nr in state.implemented
                or nr in state.declared_stubs and "stub" in accepted
                or nr in state.declared_fakes and "fake" in accepted):
            continue
        mode = ("stub" if "stub" in allowed[nr]
                else "fake" if "fake" in allowed[nr] else "implement")
        counts[mode] += 1
    return (weights.implement * counts["implement"] + weights.stub * counts["stub"]
            + weights.fake * counts["fake"])


# ---------------------------------------------------------------------------
# Support predicate


def test_supported_when_everything_implemented():
    p = profile_of("a", {1: "required", 2: "required"})
    state = OsSupportSet(implemented=frozenset({1, 2}))
    assert app_supported(p, state)


def test_missing_required_syscall_unsupported():
    p = profile_of("a", {1: "required", 2: "required"})
    assert not app_supported(p, OsSupportSet(implemented=frozenset({1})))


@pytest.mark.parametrize("cls,stubbed,faked,expected", [
    ("required", True, False, False),  # only implement satisfies required
    ("required", False, True, False),
    ("stub_only", True, False, True),
    ("stub_only", False, True, False),
    ("fake_only", False, True, True),
    ("fake_only", True, False, False),
    ("any", True, False, True),
    ("any", False, True, True),
    ("any", False, False, False),
])
def test_support_predicate_truth_table(cls, stubbed, faked, expected):
    p = profile_of("a", {5: cls})
    state = OsSupportSet(
        declared_stubs=frozenset({5}) if stubbed else frozenset(),
        declared_fakes=frozenset({5}) if faked else frozenset(),
    )
    assert app_supported(p, state) == expected


def test_unconfirmed_profile_rejected():
    p = profile_of("a", {1: "required"}, confirmed=False)
    with pytest.raises(UnconfirmedProfile):
        app_supported(p, EMPTY_OS)
    with pytest.raises(UnconfirmedProfile):
        generate_plan(EMPTY_OS, {"a": p}, ["a"])


# ---------------------------------------------------------------------------
# Worked two-app example (oracle-confirmed)


def two_app_instance():
    a = profile_of("A", {1: "required", 2: "any"})
    b = profile_of("B", {1: "required", 3: "required"})
    return {"A": a, "B": b}


def test_two_app_worked_example():
    profiles = two_app_instance()
    plan = generate_plan(EMPTY_OS, profiles, ["A", "B"])
    assert plan.initial_supported == ()
    assert len(plan.steps) == 2
    s1, s2 = plan.steps
    assert (s1.implement, s1.stub, s1.fake, s1.unlocks) == (
        frozenset({1}), frozenset({2}), frozenset(), ("A",))
    assert (s2.implement, s2.stub, s2.fake, s2.unlocks) == (
        frozenset({3}), frozenset(), frozenset(), ("B",))
    # The lower-bound oracle confirms 2 total implements is optimal.
    assert oracle_min_total_implements(profiles, EMPTY_OS) == 2
    total = sum(len(s.implement) for s in plan.steps)
    assert total == 2
    replay_plan(plan, EMPTY_OS, profiles)


def test_all_targets_already_supported():
    profiles = {"A": profile_of("A", {1: "required"})}
    state = OsSupportSet(implemented=frozenset({1}))
    plan = generate_plan(state, profiles, ["A"])
    assert plan.steps == ()
    assert plan.initial_supported == ("A",)


def test_missing_profile_is_an_error():
    with pytest.raises(PlannerError):
        generate_plan(EMPTY_OS, {}, ["ghost"])


def test_unreachable_apps_listed():
    profiles = {
        "A": profile_of("A", {1: "required"}),
        "B": profile_of("B", {9: "required"}),
    }
    plan = generate_plan(EMPTY_OS, profiles, ["A", "B"],
                         wont_implement=frozenset({9}))
    assert plan.unreachable == ("B",)
    assert [s.unlocks for s in plan.steps] == [("A",)]
    assert sorted(plan.all_apps()) == ["A", "B"]


def test_incidental_unlock_credited_to_step():
    profiles = {
        "big": profile_of("big", {1: "required", 2: "required"}),
        "small": profile_of("small", {1: "required"}),
    }
    plan = generate_plan(EMPTY_OS, profiles, ["big", "small"])
    # small is chosen first (cheaper); big's step then stands alone.
    assert plan.steps[0].unlocks == ("small",)
    assert plan.steps[1].unlocks == ("big",)
    # A and B tie; A is chosen by name, and its step supports B too.  A
    # planner that dropped B there would emit an empty step for it, which
    # PlanStep rejects.
    tie = {"A": profile_of("A", {1: "required"}), "B": profile_of("B", {1: "required"})}
    plan = generate_plan(EMPTY_OS, tie, ["A", "B"])
    assert [(s.implement, s.unlocks) for s in plan.steps] == [(frozenset({1}), ("A", "B"))]


def test_cross_app_mode_conflict_promotes_to_implement():
    """One app can only stub syscall 7, another can only fake it: the
    planner must implement it (a stub would strand the second app because a
    syscall is emitted at most once per plan)."""
    profiles = {
        "stubber": profile_of("stubber", {7: "stub_only", 1: "required"}),
        "faker": profile_of("faker", {7: "fake_only", 2: "required"}),
    }
    plan = generate_plan(EMPTY_OS, profiles, ["stubber", "faker"])
    replay_plan(plan, EMPTY_OS, profiles)
    emitted_impl = frozenset().union(*(s.implement for s in plan.steps))
    assert 7 in emitted_impl


@pytest.mark.parametrize("cls", ["required", "fake_only"])
def test_declared_stub_the_app_cannot_take_is_implemented(cls, tmp_path, capsys):
    """The OS declares a stub of syscall 39 that the app cannot take: the
    plan promotes it to an implementation, and `slens plan` succeeds."""
    profiles = {"A": profile_of("A", {39: cls})}
    os_support = OsSupportSet(declared_stubs=frozenset({39}))
    plan = generate_plan(os_support, profiles, ["A"])
    assert [(s.implement, s.stub, s.fake, s.unlocks) for s in plan.steps] == [
        (frozenset({39}), frozenset(), frozenset(), ("A",))]
    replay_plan(plan, os_support, profiles)
    assert compare_strategies(profiles, os_support, ["A"], external_order=["A"]) == {
        "plan": [(0, 0), (1, 1)], "naive": [(0, 0), (1, 1)], "external": [(0, 0), (1, 1)]}

    db = tmp_path / "db"
    save_profile(str(db), DbEntry(profiles["A"], {"kernel": "k", "tool_version": "v"}))
    csv = tmp_path / "os.csv"
    csv.write_text("39,stubbed\n")
    capsys.readouterr()
    assert main(["plan", "--db", str(db), "--os-support", str(csv), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"][0]["implement"] == [39]


def test_x32_syscall_plans_like_a_small_number():
    """The planner's masks number the profiles' syscalls densely, so an x32
    number (0x40000000 + n) plans, replays and compares exactly as a small
    number in the same place of the order does."""
    x32 = 0x40000000 + 7

    def instance(nr):
        profiles = {
            "A": profile_of("A", {1: "required", nr: "stub_only", 3: "any"}),
            "B": profile_of("B", {nr: "any", 3: "fake_only", (16, 0x5401): "required"}),
            "C": profile_of("C", {2: "any", nr: "required"}),
            "D": profile_of("D", {2: "stub_only", nr: "any"}),
        }
        return profiles, OsSupportSet(implemented=frozenset({1}),
                                      declared_stubs=frozenset({nr}))

    def renumbered(obj):
        if isinstance(obj, list):
            return [renumbered(x) for x in obj]
        if isinstance(obj, dict):
            return {k: renumbered(v) for k, v in obj.items()}
        return x32 if obj == 99 else obj

    small, small_os = instance(99)
    big, big_os = instance(x32)
    small_plan = generate_plan(small_os, small, sorted(small))
    big_plan = generate_plan(big_os, big, sorted(big))
    assert any(99 in s.implement for s in small_plan.steps)  # a promotion
    assert big_plan.to_json() == renumbered(small_plan.to_json())
    replay_plan(big_plan, big_os, big)
    assert (compare_strategies(big, big_os, external_order=["D", "C", "B", "A"])
            == compare_strategies(small, small_os, external_order=["D", "C", "B", "A"]))
    assert ([app_supported(p, big_os) for p in big.values()]
            == [app_supported(p, small_os) for p in small.values()])


def _emits(*sets: tuple[set, set, set]) -> SupportPlan:
    """A plan whose steps emit the given (implement, stub, fake) sets."""
    steps = tuple(PlanStep(index=i, implement=frozenset(imp), stub=frozenset(stub),
                           fake=frozenset(fake), unlocks=())
                  for i, (imp, stub, fake) in enumerate(sets, start=1))
    return SupportPlan(initial_supported=(), steps=steps, unreachable=())


@pytest.mark.parametrize("plan", [
    _emits((set(), {39}, set())),          # stub of a declared stub
    _emits((set(), set(), {39})),          # fake of a declared stub
    _emits((set(), {1}, set())),           # stub of an implemented syscall
    _emits(({1}, set(), set())),           # implement of an implemented syscall
    _emits(({39}, set(), set()), ({39}, set(), set())),  # a promotion twice
    _emits((set(), {5}, set()), ({5}, set(), set())),    # the plan's own stub
], ids=["restub", "fake-declared-stub", "stub-implemented", "reimplement",
        "promote-twice", "implement-own-stub"])
def test_replay_rejects_repeated_emission(plan):
    """Only an implementation of a syscall the start state declares may
    emit a syscall the state already has, and only once."""
    start = OsSupportSet(implemented=frozenset({1}), declared_stubs=frozenset({39}))
    with pytest.raises(PlannerError, match="repeats"):
        replay_plan(plan, start, {})


def test_no_repeats_and_validity_randomized():
    """200 random small instances: plans replay cleanly, never repeat a
    syscall, and stay within the per-syscall lower bound + reported gap."""
    rng = random.Random(42)
    classes = ("required", "stub_only", "fake_only", "any")
    worst_gap = 0
    for case in range(200):
        n_apps = rng.randint(1, 6)
        n_sys = rng.randint(1, 12)
        profiles = {}
        for i in range(n_apps):
            name = f"app{i}"
            observed = rng.sample(range(n_sys), rng.randint(1, n_sys))
            profiles[name] = profile_of(
                name, {nr: rng.choice(classes) for nr in observed})
        plan = generate_plan(EMPTY_OS, profiles, sorted(profiles))
        replay_plan(plan, EMPTY_OS, profiles)  # validity + no-repeat
        greedy_total = sum(len(s.implement) for s in plan.steps)
        optimum = oracle_min_total_implements(profiles, EMPTY_OS)
        assert greedy_total >= optimum  # the oracle is a true lower bound
        worst_gap = max(worst_gap, greedy_total - optimum)
    # The greedy heuristic is not claimed optimal; record the observed gap.
    print(f"\nplanner gap over 200 instances: worst {worst_gap} implements")
    assert worst_gap <= 12  # sanity ceiling, not an optimality claim


def test_greedy_local_optimality():
    """At each step, no other pending app had strictly lower cost."""
    rng = random.Random(7)
    classes = ("required", "stub_only", "fake_only", "any")
    for _ in range(50):
        n_apps = rng.randint(2, 5)
        profiles = {}
        for i in range(n_apps):
            observed = rng.sample(range(10), rng.randint(1, 10))
            profiles[f"app{i}"] = profile_of(
                f"app{i}", {nr: rng.choice(classes) for nr in observed})
        weights = PlanWeights()
        plan = generate_plan(EMPTY_OS, profiles, sorted(profiles))
        state = EMPTY_OS
        pending = dict(profiles)
        for step in plan.steps:
            chosen_cost = (weights.implement * len(step.implement)
                           + weights.stub * len(step.stub)
                           + weights.fake * len(step.fake))
            for profile in pending.values():
                cost = oracle_delta_cost(profile, pending, state, weights)
                assert cost >= chosen_cost - 1e-9
            state = state.with_additions(step.implement, step.stub, step.fake)
            for name in step.unlocks:
                del pending[name]


# ---------------------------------------------------------------------------
# Importance


def test_importance_single_app():
    report = api_importance([profile_of("a", {1: "required"})])
    assert report.importance_required(1) == 1.0
    assert report.importance_traced(1) == 1.0
    assert report.importance_required(2) == 0.0


def test_importance_counting_oracle():
    """4 apps; syscall 5 traced by 3 of them, required by 1."""
    profiles = [
        profile_of("a", {5: "required"}),
        profile_of("b", {5: "any"}),
        profile_of("c", {5: "stub_only"}),
        profile_of("d", {6: "required"}),
    ]
    report = api_importance(profiles)
    assert report.importance_traced(5) == pytest.approx(0.75)
    assert report.importance_required(5) == pytest.approx(0.25)


def test_importance_empty_database_rejected():
    with pytest.raises(PlannerError):
        api_importance([])


@settings(max_examples=200)
@given(st.lists(
    st.dictionaries(st.integers(0, 30),
                    st.sampled_from(["required", "stub_only", "fake_only", "any"]),
                    min_size=1, max_size=8),
    min_size=1, max_size=8))
def test_importance_dominance_randomized(class_maps):
    profiles = [profile_of(f"app{i}", cm) for i, cm in enumerate(class_maps)]
    report = api_importance(profiles)
    for nr, row in report.rows.items():
        assert row.required <= row.traced


def test_importance_row_validates_dominance():
    with pytest.raises(ValueError):
        ImportanceRow(traced=0.5, required=0.8)


# ---------------------------------------------------------------------------
# Strategy curves


def test_single_app_curves():
    """5 traced syscalls, 2 required: the plan reaches the app after 2
    implements, the naive strategy only after all 5."""
    profiles = {"a": profile_of("a", {
        1: "required", 2: "required", 3: "stub_only", 4: "any", 5: "fake_only"})}
    curves = compare_strategies(profiles, EMPTY_OS, ["a"])
    assert curves["plan"] == [(0, 0), (2, 1)]
    assert curves["naive"] == [(0, 0), (5, 1)]


def test_empty_profile_set():
    assert compare_strategies({}, EMPTY_OS, []) == {}


def test_external_ordering_curve():
    profiles = two_app_instance()
    curves = compare_strategies(profiles, EMPTY_OS, ["A", "B"],
                                external_order=["B", "A"])
    assert curves["external"][0] == (0, 0)
    # B first implements {1, 3}: 2 implements, 1 app.  A then needs
    # syscall 1, already implemented, and syscall 2 ("any"), which is
    # stubbed, so it adds 0 implements: 2 + 0 = 2, 2 apps.
    assert curves["external"][1:] == [(2, 1), (2 + 0, 2)]
    # The planned order reaches the first app sooner.
    assert curves["plan"][1] == (1, 1)


def test_strategy_curves_golden():
    """Pinned curves of all three strategies: syscall 1 is implemented
    already, ioctl's syscall 16 has two sub-features, cp is carried along
    with cat, and the external order differs from the plan's."""
    profiles = {p.app: p for p in [
        profile_of("cat", {1: "required", 2: "required", 7: "stub_only"}),
        profile_of("cp", {1: "required", 2: "required", 7: "any"}),
        profile_of("ioctl", {1: "any", (16, 0x5401): "required", (16, 0x5413): "any",
                             3: "fake_only"}),
        profile_of("srv", {2: "required", 4: "required", 5: "stub_only", 3: "any",
                           6: "required"}),
        profile_of("daemon", {4: "required", 8: "fake_only", 9: "any"}),
    ]}
    os_support = OsSupportSet(implemented=frozenset({1}))
    curves = compare_strategies(profiles, os_support,
                                external_order=["srv", "daemon", "ioctl", "cp", "cat"])
    assert curves == {
        "plan": [(0, 0), (1, 2), (2, 3), (3, 4), (4, 5)],
        "naive": [(0, 0), (2, 2), (4, 3), (7, 4), (9, 5)],
        "external": [(0, 0), (3, 1), (3, 2), (4, 3), (4, 5)],
    }


def test_external_ordering_must_cover_targets():
    profiles = two_app_instance()
    with pytest.raises(IncompleteOrdering):
        compare_strategies(profiles, EMPTY_OS, ["A", "B"], external_order=["A"])


def test_curves_are_monotone():
    rng = random.Random(3)
    classes = ("required", "stub_only", "fake_only", "any")
    for _ in range(30):
        profiles = {}
        for i in range(rng.randint(1, 5)):
            observed = rng.sample(range(12), rng.randint(1, 12))
            profiles[f"app{i}"] = profile_of(
                f"app{i}", {nr: rng.choice(classes) for nr in observed})
        curves = compare_strategies(profiles, EMPTY_OS)
        for points in curves.values():
            xs = [x for x, _ in points]
            ys = [y for _, y in points]
            assert xs == sorted(xs)
            assert ys == sorted(ys)
            assert ys[-1] == len(profiles)
