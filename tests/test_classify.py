"""Pure classification, policy lookup, and exec-resolution tests."""

import os

import pytest
from hypothesis import given, strategies as st

from slens.config import DEFAULT_TABLES, InterposerTables
from slens.interposer import (
    ALLOW,
    STUB,
    Action,
    FeatureId,
    Policy,
    Whitelist,
    classify_feature,
    fake,
    resolve_exec,
)
from slens.syscalls import name_to_nr

OPENAT = name_to_nr("openat")
IOCTL = name_to_nr("ioctl")
WRITE = name_to_nr("write")
FUTEX = name_to_nr("futex")
TCGETS = 0x5401


def _reader(strings: dict[int, str]):
    return lambda addr: strings.get(addr)


def test_openat_dev_path_is_pseudofile():
    f = classify_feature(OPENAT, (100, 0x1000, 0, 0, 0, 0), DEFAULT_TABLES,
                         _reader({0x1000: "/dev/urandom"}))
    assert f == FeatureId(OPENAT, pseudofile="/dev")


def test_ioctl_selector_becomes_subfeature():
    f = classify_feature(IOCTL, (1, TCGETS, 0, 0, 0, 0), DEFAULT_TABLES,
                         _reader({}))
    assert f == FeatureId(IOCTL, subfeature=TCGETS)


def test_plain_syscall_is_bare():
    f = classify_feature(WRITE, (1, 0x2000, 10, 0, 0, 0), DEFAULT_TABLES,
                         _reader({0x2000: "/dev/null"}))
    assert f == FeatureId(WRITE)


def test_unreadable_path_degrades_to_bare():
    f = classify_feature(OPENAT, (100, 0xDEAD, 0, 0, 0, 0), DEFAULT_TABLES,
                         _reader({}))
    assert f == FeatureId(OPENAT)


def test_prefix_matches_whole_components_only():
    tables = DEFAULT_TABLES
    exact = classify_feature(OPENAT, (100, 1, 0, 0, 0, 0), tables,
                             _reader({1: "/dev"}))
    assert exact.pseudofile == "/dev"
    lookalike = classify_feature(OPENAT, (100, 1, 0, 0, 0, 0), tables,
                                 _reader({1: "/devices/foo"}))
    assert lookalike.pseudofile is None


def test_relative_path_never_matches():
    f = classify_feature(OPENAT, (100, 1, 0, 0, 0, 0), DEFAULT_TABLES,
                         _reader({1: "dev/urandom"}))
    assert f.pseudofile is None


def test_disabled_tables_yield_bare_features():
    tables = DEFAULT_TABLES.restricted(subfeatures=False, pseudofiles=False)
    assert classify_feature(IOCTL, (1, TCGETS, 0, 0, 0, 0), tables,
                            _reader({})) == FeatureId(IOCTL)
    assert classify_feature(OPENAT, (100, 1, 0, 0, 0, 0), tables,
                            _reader({1: "/dev/null"})) == FeatureId(OPENAT)


def test_selector_argument_index_table():
    # futex's selector is its second argument.
    f = classify_feature(FUTEX, (0x7000, 1, 0, 0, 0, 0), DEFAULT_TABLES,
                         _reader({}))
    assert f.subfeature == 1


# -- Action / Policy


def test_stub_return_value_is_pinned():
    assert STUB.return_value == -38
    with pytest.raises(ValueError):
        Action("stub", 0)


def test_fake_default_and_override():
    assert fake().return_value == 0
    assert fake(7).return_value == 7
    tables = InterposerTables(fake_values={WRITE: 11})
    assert tables.fake_value_for(WRITE) == 11
    assert tables.fake_value_for(OPENAT) == 0


def test_policy_exact_match_then_bare_fallback():
    dev_openat = FeatureId(OPENAT, pseudofile="/dev")
    policy = Policy(overrides={dev_openat: STUB})
    assert policy.action_for(dev_openat) is STUB
    assert policy.action_for(FeatureId(OPENAT)) is ALLOW

    syscall_wide = Policy(overrides={FeatureId(IOCTL): STUB})
    assert syscall_wide.action_for(FeatureId(IOCTL, subfeature=TCGETS)) is STUB
    assert syscall_wide.action_for(FeatureId(IOCTL)) is STUB
    assert syscall_wide.action_for(FeatureId(WRITE)) is ALLOW


def test_policy_json_round_trip():
    policy = Policy(overrides={
        FeatureId(WRITE): STUB,
        FeatureId(IOCTL, subfeature=TCGETS): fake(3),
        FeatureId(OPENAT, pseudofile="/dev"): fake(),
    })
    assert Policy.from_json(policy.to_json()) == policy


def test_hand_written_stub_action_returns_enosys():
    """A stub's return value is always -ENOSYS, so a policy may omit it."""
    assert Action.from_json({"kind": "stub"}) == STUB
    assert Action.from_json({"kind": "fake"}) == fake()


# -- FeatureId ordering

feature_ids = st.builds(
    FeatureId,
    syscall_nr=st.integers(min_value=0, max_value=450),
    subfeature=st.one_of(st.none(), st.integers(min_value=-2**31, max_value=2**31)),
    pseudofile=st.one_of(st.none(), st.sampled_from(["/proc", "/dev", "/sys"])),
)


@given(st.lists(feature_ids, min_size=2, max_size=20))
def test_feature_ordering_is_total_and_deterministic(features):
    once = sorted(features, key=FeatureId.sort_key)
    twice = sorted(reversed(features), key=FeatureId.sort_key)
    assert once == twice


@given(feature_ids, feature_ids)
def test_feature_ordering_trichotomy(a, b):
    assert (a < b) + (b < a) + (a.sort_key() == b.sort_key()) == 1


# -- resolve_exec


def test_resolve_exec_whitelist_member(tmp_path):
    target = tmp_path / "app"
    target.write_text("")
    wl = Whitelist.of_paths([str(target)])
    assert resolve_exec(str(target), wl, first_exec=True)
    assert resolve_exec(str(target), wl, first_exec=False)


def test_resolve_exec_nonmember_ignored(tmp_path):
    target = tmp_path / "app"
    target.write_text("")
    wl = Whitelist.of_paths([str(target)])
    assert not resolve_exec("/usr/bin/git", wl, first_exec=True)


def test_resolve_exec_symlink_canonicalized(tmp_path):
    target = tmp_path / "app"
    target.write_text("")
    link = tmp_path / "alias"
    os.symlink(target, link)
    wl = Whitelist.of_paths([str(link)])
    assert resolve_exec(str(target), wl, first_exec=True)


def test_resolve_exec_empty_whitelist_first_only():
    wl = Whitelist()
    assert resolve_exec("/bin/anything", wl, first_exec=True)
    assert not resolve_exec("/bin/anything", wl, first_exec=False)


def test_resolve_exec_unresolvable_is_ignored(tmp_path):
    target = tmp_path / "app"
    target.write_text("")
    wl = Whitelist.of_paths([str(target)])
    assert not resolve_exec(None, wl, first_exec=True)


def test_whitelist_requires_absolute_paths():
    with pytest.raises(ValueError):
        Whitelist.of_paths(["relative/app"])
