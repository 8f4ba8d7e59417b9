"""Synthetic profile database for the plan-db workload, and its oracle.

Syscall popularity is Zipf-skewed over the syscall table, after the
per-syscall API-importance view of Tsai et al., "A Study of Modern Linux
API Usage and Compatibility" (EuroSys 2016): apps share a popular core and
have a long tail.  Each app draws its features without replacement with
probability proportional to popularity, and each feature's class uniformly
from the four classes, as the randomized planner tests do.  The OS support
CSV implements the most popular syscalls and declares stubs and fakes only
where every app tolerates them.

The parameter values below are assumptions, not measurements: neither the
exponent nor the CSV's size comes from data.  FINDINGS.md shows how the
plan counts and the planner time move with them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from slens import AppProfile, DbEntry, FeatureId, save_profile, syscalls
from slens.orchestrator import CLASS_ANY, CLASS_FAKE_ONLY, CLASS_REQUIRED, CLASS_STUB_ONLY
from slens.planner import PlanStep, SupportPlan, replay_plan
from slens.store import OsSupportSet

APPS = 100
FEATURES = (40, 120)
ZIPF_S = 1.0
CLASSES = (CLASS_REQUIRED, CLASS_STUB_ONLY, CLASS_FAKE_ONLY, CLASS_ANY)
IMPLEMENTED = 40
DECLARED = 4  # stubs, and as many fakes


@dataclass
class Database:
    root: Path
    os_csv: Path
    order: Path
    profiles: dict[str, AppProfile]
    os_support: OsSupportSet


def generate(rng: random.Random, d: Path) -> Database:
    nrs = sorted(syscalls.name_to_nr(n) for n in syscalls.known_names())
    rng.shuffle(nrs)  # rank order: nrs[0] is the most popular
    weight = {nr: 1.0 / (rank + 1) ** ZIPF_S for rank, nr in enumerate(nrs)}

    # Declared stubs and fakes: the next most popular syscalls after the
    # implemented ones, kept tolerant of their mode in every app below.
    stubbed = nrs[IMPLEMENTED:IMPLEMENTED + DECLARED]
    faked = nrs[IMPLEMENTED + DECLARED:IMPLEMENTED + 2 * DECLARED]
    allowed = {nr: (CLASS_STUB_ONLY, CLASS_ANY) for nr in stubbed}
    allowed.update({nr: (CLASS_FAKE_ONLY, CLASS_ANY) for nr in faked})

    # An even spread of sizes over the range, shuffled: the total work is
    # the same for every seed.
    lo, hi = FEATURES
    sizes = [lo + (hi - lo) * i // (APPS - 1) for i in range(APPS)]
    rng.shuffle(sizes)

    profiles = {}
    for i, k in enumerate(sizes):
        # Weighted sampling without replacement (Efraimidis-Spirakis keys).
        keyed = sorted(nrs, key=lambda nr: math.log(1.0 - rng.random()) / weight[nr],
                       reverse=True)
        classes = {FeatureId(nr): rng.choice(allowed.get(nr, CLASSES)) for nr in keyed[:k]}
        name = f"app{i:03d}"
        profiles[name] = AppProfile(
            app=name, workload_hash=f"{rng.getrandbits(64):016x}",
            observed=tuple(sorted(classes)), classes=classes, regressions={},
            confirmed=True, metadata={"kernel": "synthetic", "tool_version": "synthetic"})

    root = d / "db"
    for profile in profiles.values():
        save_profile(str(root), DbEntry(profile, {"kernel": "synthetic",
                                                  "tool_version": "synthetic"}))

    implemented = nrs[:IMPLEMENTED]
    os_csv = d / "os.csv"
    lines = ["# os: synthetic", f"# revision: {rng.getrandbits(32):08x}"]
    lines += [syscalls.nr_to_name(nr) for nr in implemented]
    lines += [f"{syscalls.nr_to_name(nr)},stubbed" for nr in stubbed]
    lines += [f"{nr},faked" for nr in faked]
    os_csv.write_text("\n".join(lines) + "\n")

    order = d / "order.txt"
    names = list(profiles)
    rng.shuffle(names)
    order.write_text("\n".join(names) + "\n")

    os_support = OsSupportSet(implemented=frozenset(implemented),
                              declared_stubs=frozenset(stubbed),
                              declared_fakes=frozenset(faked))
    return Database(root, os_csv, order, profiles, os_support)


# ---------------------------------------------------------------------------
# Oracle: each returns a list of problems, empty when the output is right.


def check_plan(db: Database, out: dict) -> list[str]:
    plan = SupportPlan(
        initial_supported=tuple(out["initial_supported"]),
        steps=tuple(PlanStep(index=s["index"], implement=frozenset(s["implement"]),
                             stub=frozenset(s["stub"]), fake=frozenset(s["fake"]),
                             unlocks=tuple(s["unlocks"]), notes=tuple(s["notes"]))
                    for s in out["steps"]),
        unreachable=tuple(out["unreachable"]))
    problems = []
    try:
        replay_plan(plan, db.os_support, db.profiles)
    except Exception as exc:  # noqa: BLE001 - any failure is a wrong plan
        problems.append(f"replay_plan: {exc}")
    apps = plan.all_apps()
    if sorted(apps) != sorted(db.profiles) or plan.unreachable:
        problems.append("plan does not cover every app exactly once")
    return problems


def plan_counts(out: dict) -> tuple[int, int]:
    """(steps, syscalls implemented) of a plan's JSON."""
    return len(out["steps"]), sum(len(s["implement"]) for s in out["steps"])


def check_curves(db: Database, out: dict) -> list[str]:
    problems = []
    if sorted(out) != ["external", "naive", "plan"]:
        problems.append(f"unexpected strategies {sorted(out)}")
    for name, points in out.items():
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if xs != sorted(xs) or ys != sorted(ys) or points[0][0] != 0:
            problems.append(f"{name} curve is not monotone from 0")
        if ys[-1] != len(db.profiles):
            problems.append(f"{name} curve ends at {ys[-1]} apps")
    return problems


def check_importance(db: Database, out: dict) -> list[str]:
    traced: Counter = Counter()
    required: Counter = Counter()
    for p in db.profiles.values():
        for f, cls in p.classes.items():
            traced[f.syscall_nr] += 1
            required[f.syscall_nr] += cls == CLASS_REQUIRED
    total = len(db.profiles)
    want = {nr: (traced[nr] / total, required[nr] / total) for nr in traced}
    got = {r["syscall_nr"]: (r["importance_traced"], r["importance_required"])
           for r in out["syscalls"]}
    if out["apps_total"] != total or got != want:
        return ["importance differs from the counting oracle"]
    return []
