"""Database persistence, CSV import/export."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from slens.interposer import FeatureId
from slens.orchestrator import AppProfile
from slens.store import (
    DbEntry,
    DuplicateKey,
    EXPORT_CSV_HEADER,
    OsSupportSet,
    ParseError,
    UnknownSyscallName,
    export_profile_csv,
    import_os_csv,
    load_db,
    save_profile,
)
from slens.syscalls import name_to_nr

CLASSES = ("required", "stub_only", "fake_only", "any")


# -- profile strategy

features_st = st.builds(
    FeatureId,
    syscall_nr=st.integers(min_value=0, max_value=448),
    subfeature=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    pseudofile=st.one_of(st.none(), st.sampled_from(["/proc", "/dev", "/sys"])),
)


@st.composite
def profiles_st(draw):
    observed = tuple(sorted(
        draw(st.sets(features_st, min_size=1, max_size=12)),
        key=FeatureId.sort_key))
    classes = {f: draw(st.sampled_from(CLASSES)) for f in observed}
    regressions = {}
    for f in observed[:2]:
        if draw(st.booleans()):
            regressions[(f, draw(st.sampled_from(["stub", "fake"])))] = {
                "perf": draw(st.floats(-0.9, 0.9, allow_nan=False)),
            }
    return AppProfile(
        app=draw(st.text(alphabet="abcdefgh", min_size=1, max_size=8)),
        workload_hash=draw(st.text(alphabet="0123456789abcdef", min_size=16, max_size=16)),
        observed=observed,
        classes=classes,
        regressions=regressions,
        confirmed=draw(st.booleans()),
        metadata={"kernel": "6.0", "tool_version": "0.1.0", "date": "2026-01-01",
                  "replicas": 3, "parallelism": 1},
    )


def make_profile(app="demo", confirmed=True, classes=None):
    observed = tuple(sorted(
        (FeatureId(name_to_nr(n)) for n in ("read", "write", "openat", "close",
                                            "exit_group")),
        key=FeatureId.sort_key))
    cls = classes or {f: "required" for f in observed}
    return AppProfile(
        app=app, workload_hash="0123456789abcdef",
        observed=observed, classes=cls, regressions={},
        confirmed=confirmed,
        metadata={"kernel": "6.0", "tool_version": "0.1.0", "date": "2026-01-01"},
    )


def make_entry(profile=None, kernel="6.0"):
    profile = profile or make_profile()
    return DbEntry(profile=profile, provenance={
        "submitter": "tester", "date": "2026-01-01",
        "kernel": kernel, "tool_version": "0.1.0",
    })


# -- save / load


def test_save_and_reload_round_trip(tmp_path):
    entry = make_entry()
    path = save_profile(str(tmp_path), entry)
    with open(path) as f:
        stored = f.read()
    loaded = load_db(str(tmp_path))
    assert len(loaded) == 1
    assert loaded[0].profile == entry.profile
    assert dict(loaded[0].provenance) == dict(entry.provenance)
    # Canonical serialization is byte-stable across save/load/save.
    again = save_profile(str(tmp_path), loaded[0])
    with open(again) as f:
        assert f.read() == stored


def test_second_identical_save_is_noop(tmp_path):
    entry = make_entry()
    first = save_profile(str(tmp_path), entry)
    second = save_profile(str(tmp_path), entry)
    assert first == second


def test_conflicting_save_refused_with_diff(tmp_path):
    entry = make_entry()
    save_profile(str(tmp_path), entry)
    mutated = make_profile()
    one = mutated.observed[0]
    mutated.classes[one] = "any"
    with pytest.raises(DuplicateKey) as exc:
        save_profile(str(tmp_path), make_entry(profile=mutated))
    assert "required -> any" in str(exc.value)


def test_conflicting_save_names_subfeatures(tmp_path):
    """Two profiles that swap the classes of two ioctl requests: the diff
    names each request, so its two lines can be told apart."""
    first = FeatureId(name_to_nr("ioctl"), subfeature=0x5401)
    second = FeatureId(name_to_nr("ioctl"), subfeature=0x5402)

    def profile(classes):
        return AppProfile(app="demo", workload_hash="0123456789abcdef",
                          observed=(first, second), classes=classes,
                          regressions={}, confirmed=True, metadata={})

    save_profile(str(tmp_path), make_entry(profile({first: "any", second: "required"})))
    with pytest.raises(DuplicateKey) as exc:
        save_profile(str(tmp_path),
                     make_entry(profile({first: "required", second: "any"})))
    assert str(exc.value).splitlines()[1:] == [
        "  ioctl[0x5401]: any -> required",
        "  ioctl[0x5402]: required -> any",
    ]


def test_same_key_different_kernel_coexists(tmp_path):
    save_profile(str(tmp_path), make_entry(kernel="6.0"))
    save_profile(str(tmp_path), make_entry(kernel="6.1"))
    assert len(load_db(str(tmp_path))) == 2


@settings(max_examples=100)
@given(profile=profiles_st())
def test_round_trip_identity_randomized(profile):
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="slens-db-")
    try:
        save_profile(root, DbEntry(profile=profile, provenance={"kernel": "k"}))
        (loaded,) = load_db(root)
        assert loaded.profile == profile
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_concurrent_distinct_saves(tmp_path):
    errors = []

    def save(app):
        try:
            save_profile(str(tmp_path), make_entry(profile=make_profile(app=app)))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=save, args=(f"app{i}",)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(load_db(str(tmp_path))) == 8


def test_concurrent_same_key_same_content(tmp_path):
    entry = make_entry()
    errors = []

    def save():
        try:
            save_profile(str(tmp_path), entry)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=save) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    entries = load_db(str(tmp_path))
    assert len(entries) == 1
    assert entries[0].profile == entry.profile


def test_load_missing_root_is_empty(tmp_path):
    assert load_db(str(tmp_path / "nope")) == []


# -- OS support CSV


def test_import_names_to_numbers(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("write\nread\n")
    support = import_os_csv(str(p))
    assert support.implemented == {name_to_nr("write"), name_to_nr("read")} == {1, 0}


def test_import_status_column(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("futex,stubbed\npipe2,faked\n42\n")
    support = import_os_csv(str(p))
    assert name_to_nr("futex") in support.declared_stubs
    assert support.declared_stubs == {202}
    assert name_to_nr("pipe2") in support.declared_fakes
    assert support.implemented == {42}


def test_import_comments_and_directives(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("# os: demo-os\n# revision: abc123\nwrite  # payload path\n")
    support = import_os_csv(str(p))
    assert support.os_name == "demo-os"
    assert support.revision == "abc123"
    assert support.implemented == {1}


def test_import_unknown_name_reports_line(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("write\nnot_a_syscall\n")
    with pytest.raises(UnknownSyscallName) as exc:
        import_os_csv(str(p))
    assert exc.value.line == 2


def test_import_bad_status_reports_position(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("write,magic\n")
    with pytest.raises(ParseError) as exc:
        import_os_csv(str(p))
    assert exc.value.line == 1
    assert exc.value.column == 7


def test_import_conflicting_status_rejected(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("futex,stubbed\nfutex,implemented\n")
    with pytest.raises(ParseError) as exc:
        import_os_csv(str(p))
    assert exc.value.line == 2


def test_support_set_disjointness_enforced():
    with pytest.raises(ValueError):
        OsSupportSet(implemented=frozenset({1}), declared_stubs=frozenset({1}))


# -- export


def test_export_shape_and_statuses():
    profile = make_profile()
    one, two, *rest = profile.observed
    profile.classes[one] = "stub_only"
    profile.classes[two] = "fake_only"
    profile.regressions[(one, "stub")] = {"perf": -0.38}
    csv = export_profile_csv(profile)
    lines = csv.strip().split("\n")
    assert lines[0] == EXPORT_CSV_HEADER
    assert len(lines) == 1 + 5
    statuses = {line.split(",")[4] for line in lines[1:]}
    assert statuses <= {"required", "stub", "fake", "any"}
    flagged = [l for l in lines[1:] if l.startswith(f"{one.syscall_nr},")]
    assert flagged and "-0.3800" in flagged[0]


def test_export_header_is_frozen():
    assert EXPORT_CSV_HEADER == (
        "syscall_nr,name,subfeature,pseudofile,class,"
        "stub_perf_delta,fake_perf_delta,stub_rss_delta,fake_rss_delta,"
        "stub_fds_delta,fake_fds_delta"
    )
