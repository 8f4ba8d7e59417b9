"""Database persistence, CSV import/export."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slens.store
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

# A feature has a sub-feature or a pseudo-file, not both.
features_st = st.builds(
    FeatureId,
    syscall_nr=st.integers(min_value=0, max_value=448),
    subfeature=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    pseudofile=st.one_of(st.none(), st.sampled_from(["/proc", "/dev", "/sys"])),
).filter(lambda f: f.subfeature is None or f.pseudofile is None)


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


def make_profile(app="demo", confirmed=True, classes=None, kernel="6.0"):
    observed = tuple(sorted(
        (FeatureId(name_to_nr(n)) for n in ("read", "write", "openat", "close",
                                            "exit_group")),
        key=FeatureId.sort_key))
    cls = classes or {f: "required" for f in observed}
    return AppProfile(
        app=app, workload_hash="0123456789abcdef",
        observed=observed, classes=cls, regressions={},
        confirmed=confirmed,
        metadata={"kernel": kernel, "tool_version": "0.1.0", "date": "2026-01-01"},
    )


def fingerprint(kernel, tool_version):
    """The directory name an entry measured on ``kernel`` with
    ``tool_version`` has had in every layout."""
    return hashlib.sha256(f"{kernel}\0{tool_version}".encode()).hexdigest()[:12]


def _feature(nr):
    return {"pseudofile": None, "subfeature": None, "syscall_nr": nr}


# make_profile() as schema 1 stored it: every feature once under "observed"
# and once more under "classes".
SCHEMA_1_PROFILE = {
    "schema": 1, "app": "demo", "workload_hash": "0123456789abcdef",
    "observed": [_feature(nr) for nr in (0, 1, 3, 231, 257)],
    "classes": [{"feature": _feature(nr), "class": "required"}
                for nr in (0, 1, 3, 231, 257)],
    "regressions": [], "confirmed": True,
    "metadata": {"date": "2026-01-01", "kernel": "6.0", "tool_version": "0.1.0"},
}


def make_entry(profile=None):
    return DbEntry(profile or make_profile())


# The meta.json that earlier versions wrote beside make_profile()'s file.
LEFTOVER_META = {"date": "2026-01-01", "kernel": "6.0", "submitter": "",
                 "tool_version": "0.1.0"}


def snapshot(root):
    """Every file under ``root``: its content and modification time."""
    return {p.relative_to(root): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


# -- save / load


def test_save_and_reload_round_trip(tmp_path):
    """An entry is filed by the kernel and tool version of its profile's
    metadata, and reloads to the same profile and fingerprint."""
    entry = make_entry()
    path = save_profile(str(tmp_path), entry)
    assert path == str(tmp_path / "demo" / "0123456789abcdef"
                       / fingerprint("6.0", "0.1.0") / "profile.json")
    with open(path) as f:
        stored = f.read()
    loaded = load_db(str(tmp_path))
    assert len(loaded) == 1
    assert loaded[0].profile == entry.profile
    assert loaded[0].provenance_fingerprint() == fingerprint("6.0", "0.1.0")
    # Canonical serialization is byte-stable across save/load/save.
    again = save_profile(str(tmp_path), loaded[0])
    assert again == path
    with open(again) as f:
        assert f.read() == stored


def test_an_entry_is_one_profile_file(tmp_path):
    """A fresh save leaves the profile and the lock file, nothing else."""
    path = save_profile(str(tmp_path), make_entry())
    assert sorted(os.listdir(os.path.dirname(path))) == [".lock", "profile.json"]


def test_load_reads_one_file_per_entry(tmp_path, monkeypatch):
    """Loading reads each entry's profile and nothing beside it, even where
    an earlier version left a meta.json."""
    for app in ("a", "b", "c"):
        path = save_profile(str(tmp_path), make_entry(make_profile(app=app)))
    with open(os.path.join(os.path.dirname(path), "meta.json"), "w") as f:
        json.dump(LEFTOVER_META, f)
    read, reads = slens.store.read_input, []
    monkeypatch.setattr(slens.store, "read_input",
                        lambda p, parse: reads.append(p) or read(p, parse))
    assert [e.profile.app for e in load_db(str(tmp_path))] == ["a", "b", "c"]
    assert sorted(map(os.path.basename, reads)) == ["profile.json"] * 3


def test_indented_profile_loads_and_is_kept(tmp_path):
    """A profile is stored as one compact line, in schema 2.  One stored
    indented, as earlier versions wrote it, loads the same, and a re-save
    with the same verdicts leaves its file untouched.  So does a schema-1
    profile, which loads to what its schema-2 re-save loads to.  A meta.json
    beside either is a leftover of those versions: not read, and kept."""
    entry = make_entry()
    for profile_doc in (entry.profile.to_json(), SCHEMA_1_PROFILE):
        root = tmp_path / f"schema{profile_doc['schema']}"
        path = save_profile(str(root), entry)
        with open(path) as f:
            assert len(f.read().splitlines()) == 1
        for name, doc in (("profile.json", profile_doc), ("meta.json", LEFTOVER_META)):
            with open(os.path.join(os.path.dirname(path), name), "w") as f:
                f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        before = snapshot(root)
        loaded = load_db(str(root))
        assert loaded[0].profile == entry.profile
        assert dict(loaded[0].provenance) == {}
        resaved = str(tmp_path / f"{root.name}-resaved")
        save_profile(resaved, loaded[0])
        assert load_db(resaved)[0].profile == loaded[0].profile
        assert save_profile(str(root), loaded[0]) == path
        assert snapshot(root) == before


def test_database_in_the_meta_json_layout_loads_and_is_kept(tmp_path):
    """A database as earlier versions wrote it, each entry an indented
    profile, its meta.json and its lock file under the fingerprint of the
    provenance they copied from the metadata, loads the same entries in the
    same order as one this version writes; re-saving every entry with the
    same verdicts writes nothing."""
    profiles = [make_profile(app=app, kernel=kernel)
                for app in ("b", "a") for kernel in ("6.1", "6.0")]
    old, new = tmp_path / "old", tmp_path / "new"
    for profile in profiles:
        entry_dir = old / profile.app / profile.workload_hash / fingerprint(
            profile.metadata["kernel"], "0.1.0")
        entry_dir.mkdir(parents=True)
        (entry_dir / "profile.json").write_text(
            json.dumps(profile.to_json(), sort_keys=True, indent=2) + "\n")
        (entry_dir / "meta.json").write_text(json.dumps(
            dict(LEFTOVER_META, kernel=profile.metadata["kernel"]), indent=2) + "\n")
        (entry_dir / ".lock").touch()
        save_profile(str(new), DbEntry(profile))
    loaded = load_db(str(old))
    assert [e.profile for e in loaded] == [e.profile for e in load_db(str(new))]
    assert [(e.profile.app, e.profile.metadata["kernel"]) for e in loaded] == [
        ("a", "6.1"), ("a", "6.0"), ("b", "6.1"), ("b", "6.0")]
    before = snapshot(old)
    for entry in loaded:
        assert os.path.dirname(save_profile(str(old), entry)).endswith(
            entry.provenance_fingerprint())
    assert snapshot(old) == before


def test_schema_1_profile_with_disagreeing_lists_is_refused(tmp_path):
    """Schema 1 listed the features twice; a file whose lists disagree is
    malformed."""
    path = save_profile(str(tmp_path), make_entry())
    with open(path, "w") as f:
        json.dump(dict(SCHEMA_1_PROFILE, observed=SCHEMA_1_PROFILE["observed"][1:]), f)
    with pytest.raises(ParseError, match="classes' domain must equal the observed"):
        load_db(str(tmp_path))


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
    save_profile(str(tmp_path), make_entry(make_profile(kernel="6.0")))
    save_profile(str(tmp_path), make_entry(make_profile(kernel="6.1")))
    assert len(load_db(str(tmp_path))) == 2



def test_app_names_of_dots_stay_inside_the_database(tmp_path):
    """An app named ``.`` or ``..`` gets a directory of its own under the
    root; every other name keeps the directory it always had."""
    root = tmp_path / "db" / "inner"
    names = {".": "_.", "..": "_..", "...": "_...", ".a": ".a", "a..b": "a..b",
             "a/b": "a_b"}
    for app, directory in names.items():
        profile = dataclasses.replace(make_profile(), app=app)
        path = save_profile(str(root), make_entry(profile))
        assert os.path.relpath(path, root).split(os.sep)[0] == directory, app
    assert os.listdir(tmp_path / "db") == ["inner"]
    assert sorted(e.profile.app for e in load_db(str(root))) == sorted(names)
@settings(max_examples=100)
@given(profile=profiles_st())
def test_round_trip_identity_randomized(profile):
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="slens-db-")
    try:
        path = save_profile(root, DbEntry(profile=profile, provenance={"kernel": "k"}))
        (loaded,) = load_db(root)
        assert loaded.profile == profile
        with open(path) as f:
            doc = json.load(f)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    # Schema 2 lists each feature once, and loading parses each entry once.
    assert doc["schema"] == 2 and "observed" not in doc
    parse, calls = FeatureId.from_json, []

    def counted(d):
        calls.append(d)
        return parse(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FeatureId, "from_json", staticmethod(counted))
        assert AppProfile.from_json(doc) == profile
    assert len(calls) == len(profile.classes) + len(profile.regressions)
    # The same profile as schema 1 stored it loads the same.
    old = dict(doc, schema=1, observed=[e["feature"] for e in doc["classes"]])
    assert AppProfile.from_json(old) == profile


def test_equal_features_load_as_one_object(tmp_path):
    """Equal feature dicts give the same FeatureId and distinct ones
    distinct objects, across the profiles of a database too.  A malformed
    dict raises a KeyError, ValueError or TypeError, each of which a stored
    file's reader turns into a ParseError."""
    docs = [{"syscall_nr": 16, "subfeature": 0x5401, "pseudofile": None},
            {"syscall_nr": 16, "subfeature": 0x5413, "pseudofile": None},
            {"syscall_nr": 16, "subfeature": None, "pseudofile": None},
            {"syscall_nr": 257, "subfeature": None, "pseudofile": "/proc"},
            {"syscall_nr": 257, "subfeature": None, "pseudofile": "/dev"}]
    first = [FeatureId.from_json(d) for d in docs]
    again = [FeatureId.from_json(json.loads(json.dumps(d))) for d in reversed(docs)]
    assert all(a is b for a, b in zip(first, reversed(again)))
    assert len(set(map(id, first))) == len(docs)
    assert first == [FeatureId(16, 0x5401), FeatureId(16, 0x5413), FeatureId(16),
                     FeatureId(257, pseudofile="/proc"), FeatureId(257, pseudofile="/dev")]

    for app in ("a", "b"):
        save_profile(str(tmp_path), make_entry(profile=make_profile(app=app)))
    a, b = (entry.profile for entry in load_db(str(tmp_path)))
    assert a.observed == b.observed
    assert all(f is g for f, g in zip(a.observed, b.observed))

    for bad, error, match in (({}, KeyError, "syscall_nr"),
                              ({"syscall_nr": "x"}, ValueError, "'x' is not an integer"),
                              ({"syscall_nr": 1, "subfeature": [1]}, TypeError,
                               "unhashable type: 'list'")):
        with pytest.raises(error, match=match):
            FeatureId.from_json(bad)


def test_schema_2_load_hashes_each_stored_feature_once(tmp_path, monkeypatch):
    """A schema-2 profile's observed features are its classes' keys, so
    loading hashes each stored feature once, into ``classes``."""
    profile = make_profile()
    save_profile(str(tmp_path), make_entry(profile))
    hash_, hashed = FeatureId.__hash__, []
    monkeypatch.setattr(FeatureId, "__hash__", lambda f: hashed.append(f) or hash_(f))
    (entry,) = load_db(str(tmp_path))
    assert entry.profile.observed == profile.observed
    assert sorted(hashed) == sorted(profile.classes)


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


# Saves one profile (argv[2], as JSON) into each of 20 databases under
# argv[1], once its stdin closes.
SAVE_ON_STDIN_EOF = """\
import json, os, sys
from slens.orchestrator import AppProfile
from slens.store import DbEntry, save_profile
entry = DbEntry(AppProfile.from_json(json.loads(sys.argv[2])))
sys.stdin.read()
for i in range(20):
    save_profile(os.path.join(sys.argv[1], str(i)), entry)
"""


def test_concurrent_same_key_processes(tmp_path):
    """Two processes that save one key at once, here into each of 20
    databases, leave one profile in each."""
    profile = make_profile()
    src = str(Path(slens.store.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    savers = [subprocess.Popen([sys.executable, "-c", SAVE_ON_STDIN_EOF, str(tmp_path),
                                json.dumps(profile.to_json())],
                               stdin=subprocess.PIPE, env=env) for _ in range(2)]
    for saver in savers:
        saver.stdin.close()
    assert [saver.wait(timeout=60) for saver in savers] == [0, 0]
    for i in range(20):
        (entry,) = load_db(str(tmp_path / str(i)))
        assert entry.profile == profile
    assert {p.name for p in tmp_path.rglob("*") if p.is_file()} == {".lock", "profile.json"}


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
    assert support.implemented == {1}


def test_import_unknown_name_reports_line(tmp_path):
    p = tmp_path / "os.csv"
    p.write_text("write\nnot_a_syscall\n")
    with pytest.raises(UnknownSyscallName) as exc:
        import_os_csv(str(p))
    assert exc.value.line == 2


def test_import_bad_status_reports_position(tmp_path):
    """The column is the status field's, also when its text occurs earlier
    in the line."""
    p = tmp_path / "os.csv"
    for text, column in (("write,magic\n", 7), ("read,rea\n", 6)):
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            import_os_csv(str(p))
        assert (exc.value.line, exc.value.column) == (1, column), text


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
