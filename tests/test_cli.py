"""CLI input errors: each is a usage error (exit 4) reported on one
``error:`` line, never a traceback."""

import json

import pytest

import slens.interposer
import slens.orchestrator
from slens.cli import EXIT_BASELINE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from slens.config import ParseError, load_tables
from slens.harness import REASON_OK, WorkloadOutcome
from slens.interposer import FeatureId, RunTrace
from slens.orchestrator import HIT_CAP_FLOOR, AppProfile
from slens.store import DbEntry, save_profile
from slens.syscalls import name_to_nr

IOCTL = name_to_nr("ioctl")
OPENAT = name_to_nr("openat")


@pytest.mark.parametrize("tables,flags", [
    ({"fake_values": {"pipe2": "zero"}}, []),
    ({"pseudo_prefixes": ["proc"]}, []),
    ({"subfeature_selectors": {"ioctl": 7}}, ["--subfeatures"]),
    ({"subfeature_selectors": {"ioctl": -1}}, ["--subfeatures"]),
    (None, ["--whitelist", "rel/path"]),
    (None, ["--parallel", "0"]),
    (None, ["--ready-delay", "-1"]),
    (None, ["--timeout", "0"]),
    (None, ["--port", "70000"]),
    (None, ["--port", "-1"]),
    (None, ["--timeout", "nan"]),
    (None, ["--timeout", "inf"]),
    (None, ["--ready-delay", "nan"]),
    (None, ["--timeout", "3e6"]),
    (None, ["--timeout", "1e308"]),
    (None, ["--port", "0", "--ready-delay", "1"]),
    ({"fake_values": {"getpid": 10**23}}, []),
    ({"fake_values": {"getpid": -2**63 - 1}}, []),
], ids=["fake-value-not-int", "relative-pseudo-prefix", "selector-index-7",
        "selector-index-negative", "relative-whitelist",
        "parallel-0", "negative-ready-delay", "timeout-0", "port-70000", "port-negative",
        "timeout-nan", "timeout-inf", "ready-delay-nan", "timeout-3e6", "timeout-1e308",
        "port-and-ready-delay", "fake-value-10e23", "fake-value-below-int64"])
def test_bad_input_is_a_usage_error(tmp_path, capsys, tables, flags):
    argv = []
    if tables is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tables))
        argv += ["--config", str(config)]
    argv += ["analyze", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
             "--db", str(tmp_path / "db"), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_fake_values_load_up_to_the_register_bounds(tmp_path, capsys):
    """-2**63 and 2**64 - 1 fit a 64-bit register; one past either is
    refused, naming the syscall and the value."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fake_values": {"getpid": -2**63, "getppid": 2**64 - 1}}))
    assert load_tables(str(config)).fake_values == {
        name_to_nr("getpid"): -2**63, name_to_nr("getppid"): 2**64 - 1}
    config.write_text(json.dumps({"fake_values": {"getppid": 2**64}}))
    with pytest.raises(ParseError, match=f"getppid: {2**64} does not fit"):
        load_tables(str(config))


def test_bad_probe_timeout_is_a_usage_error(tmp_path, capsys):
    policy = tmp_path / "policy.json"
    policy.write_text("{}")
    for timeout in ("-1", "nan", "3e6", "1e308"):
        argv = ["probe", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
                "--policy", str(policy), "--timeout", timeout]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_USAGE, timeout
        assert len(err) == 1 and err[0].startswith("error: "), err


def _probe(tmp_path, policy_text: str) -> list[str]:
    policy = tmp_path / "policy.json"
    policy.write_text(policy_text)
    return ["probe", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
            "--policy", str(policy)]


# Features that FeatureId.from_json refuses: a syscall number that is not an
# integer (none is coerced), and not both a sub-feature and a pseudo-file,
# an integer or a string.
MALFORMED_FEATURES = {
    "syscall-float": {"syscall_nr": 5.7},
    "syscall-bool": {"syscall_nr": True},
    "syscall-string": {"syscall_nr": "39"},
    "subfeature-string": {"syscall_nr": IOCTL, "subfeature": "0x5401"},
    "pseudofile-number": {"syscall_nr": OPENAT, "pseudofile": 5},
    "subfeature-and-pseudofile": {"syscall_nr": OPENAT, "subfeature": 1,
                                  "pseudofile": "/proc"},
}


def _overriding(feature: dict, action: dict) -> str:
    return json.dumps({"overrides": [{"feature": feature, "action": action}]})


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"overrides": [{"feature": {}}]}',
    '{"default": {"kind": "skip"}}',
    *(_overriding(f, {"kind": "stub"}) for f in MALFORMED_FEATURES.values()),
    *(_overriding({"syscall_nr": name_to_nr("getpid")},
                  {"kind": "fake", "return_value": value})
      for value in (2**70, 7.9, "7", True)),
], ids=["not-json", "not-an-object", "feature-without-syscall", "unknown-kind",
        *MALFORMED_FEATURES, "fake-value-2**70", "fake-value-float", "fake-value-string",
        "fake-value-bool"])
def test_malformed_policy_is_a_parse_error(tmp_path, capsys, text):
    code = main(_probe(tmp_path, text))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith(f"error: parse: {tmp_path / 'policy.json'}"), err


@pytest.mark.parametrize("tables", [
    {"fake_values": {"getpid": 7.9}}, {"fake_values": {"getpid": "7"}},
    {"fake_values": {"getpid": True}}, {"subfeature_selectors": {"ioctl": 1.5}},
    {"subfeature_selectors": {"ioctl": "1"}},
], ids=["fake-value-float", "fake-value-string", "fake-value-bool", "selector-float",
        "selector-string"])
def test_config_value_of_the_wrong_type_is_a_parse_error(tmp_path, capsys, tables):
    """A config value that is not an integer is refused, not coerced."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tables))
    code = main(["--config", str(config), *_probe(tmp_path, "{}")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith(f"error: parse: {config}: "), err
    assert "is not an integer" in err[0]


NOT_UTF8 = b"\xff\xfe\n"


@pytest.mark.parametrize("flag,content", [
    ("--policy", None), ("--policy", NOT_UTF8),
    ("--config", None), ("--config", NOT_UTF8),
    ("--os-support", None), ("--os-support", NOT_UTF8), ("--os-support", "²\n".encode()),
    ("--order", None), ("--order", NOT_UTF8),
], ids=["policy-directory", "policy-not-utf8", "config-directory", "config-not-utf8",
        "os-support-directory", "os-support-not-utf8", "os-support-superscript-two",
        "order-directory", "order-not-utf8"])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, flag, content):
    """A named file that is a directory, is not UTF-8, or names a syscall
    by a digit that is not decimal gives one parse error line naming it."""
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    good = {"--policy": "{}", "--os-support": "read\n", "--order": "app\n"}
    for name, text in good.items():
        (tmp_path / name[2:]).write_text(text)
    path = {name: str(tmp_path / name[2:]) for name in good} | {flag: str(bad)}
    probe = ["probe", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
             "--policy", path["--policy"]]
    compare = ["compare", "--db", str(tmp_path / "db"), "--os-support",
               path["--os-support"], "--order", path["--order"]]
    argv = {"--policy": probe, "--config": ["--config", str(bad), *probe]}.get(flag, compare)
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith(f"error: parse: {bad}"), err
@pytest.mark.parametrize("command", ["probe", "analyze"])
def test_tracer_fault_fails_with_its_cause(tmp_path, capsys, monkeypatch, command):
    """A run the tracer failed to observe gives no verdict: the command
    fails with the tracer's own error.  The forked tracer inherits the
    patched engine, which launches the app and then faults."""
    def run(engine):
        engine._launch()
        raise RuntimeError("injected engine fault")

    monkeypatch.setattr(slens.interposer._Engine, "run", run)
    if command == "probe":
        argv = _probe(tmp_path, "{}")
    else:
        argv = ["analyze", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
                "--replicas", "1", "--perf-runs", "0", "--db", str(tmp_path / "db")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert err.splitlines()[-1] == "error: TracerFault: RuntimeError: injected engine fault"
    assert "success:" not in out


@pytest.mark.parametrize("feature,subfeatures,pseudofiles", [
    ({"syscall_nr": IOCTL, "subfeature": 0x5401}, True, False),
    ({"syscall_nr": OPENAT, "pseudofile": "/dev"}, False, True),
    ({"syscall_nr": IOCTL}, False, False),
], ids=["subfeature", "pseudofile", "bare"])
def test_probe_classifies_as_finely_as_its_policy(tmp_path, monkeypatch, feature,
                                                  subfeatures, pseudofiles):
    """A policy that names a sub-feature or a pseudo-file turns that
    classification on, so its override can match a call."""
    seen = []

    def run_workload(spec, policy, limits, tables, discovery):
        seen.append(tables)
        trace = RunTrace(exit_code=0, whitelisted_pids_seen=1)
        return WorkloadOutcome(reason=REASON_OK, perf_metric=None, duration=0.0,
                               trace=trace), trace

    monkeypatch.setattr(slens.orchestrator, "run_workload", run_workload)
    policy = {"overrides": [{"feature": feature, "action": {"kind": "stub"}}]}
    assert main(_probe(tmp_path, json.dumps(policy))) == EXIT_OK
    [tables] = seen
    assert bool(tables.subfeature_selectors) == subfeatures
    assert bool(tables.pseudo_prefixes) == pseudofiles


@pytest.mark.parametrize("command", ["importance", "plan"])
@pytest.mark.parametrize("text,message", [
    ("{bad", ":1:2: Expecting property name enclosed in double quotes"),
    ('{"schema": 9}', ": malformed content (ValueError: unsupported profile schema: 9)"),
], ids=["not-json", "unknown-schema"])
def test_malformed_stored_profile_is_a_parse_error(tmp_path, capsys, command, text,
                                                   message):
    stored = tmp_path / "db" / "demo" / "0123456789abcdef" / "fp" / "profile.json"
    stored.parent.mkdir(parents=True)
    stored.write_text(text)
    (tmp_path / "os.csv").write_text("read\n")
    extra = ["--os-support", str(tmp_path / "os.csv")] if command == "plan" else []
    code = main([command, "--db", str(tmp_path / "db"), *extra])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert err == [f"error: parse: {stored}{message}"]


@pytest.mark.parametrize("command", ["export", "plan"])
@pytest.mark.parametrize("feature", MALFORMED_FEATURES.values(), ids=MALFORMED_FEATURES)
def test_malformed_stored_feature_is_a_parse_error(tmp_path, capsys, command, feature):
    """A stored feature whose sub-feature is not an integer, whose
    pseudo-file is not a string, or that has both, fails to load: one parse
    error line naming the file, not a crash while rendering it."""
    db = str(tmp_path / "db")
    getpid = FeatureId(name_to_nr("getpid"))
    stored = save_profile(db, DbEntry(AppProfile(
        app="demo", workload_hash="0123456789abcdef", classes={getpid: "required"},
        regressions={}, confirmed=True, metadata={}), {"kernel": "k"}))
    with open(stored) as f:
        doc = json.load(f)
    doc["classes"].append({"feature": feature, "class": "required"})
    with open(stored, "w") as f:
        json.dump(doc, f)
    (tmp_path / "os.csv").write_text("read\n")
    argv = {"export": ["export", "--db", db, "--apps", "demo"],
            "plan": ["plan", "--db", db, "--os-support", str(tmp_path / "os.csv")]}[command]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith(
        f"error: parse: {stored}: malformed content (ValueError: "), err


def test_whitelist_that_matches_nothing_stores_no_profile(tmp_path, capsys):
    """A discovery run that measured no process has nothing to classify; an
    empty profile stored as confirmed would count as supported anywhere."""
    db = tmp_path / "db"
    code = main(["analyze", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
                 "--whitelist", "/bin/false", "--replicas", "1", "--perf-runs", "0",
                 "--db", str(db)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_BASELINE
    assert err[-1].startswith("error: baseline-failure: ") and "whitelist" in err[-1], err
    assert not list(db.rglob("profile.json"))


def test_script_the_kernel_cannot_exec_is_a_usage_error(tmp_path, capsys):
    """An executable script without a ``#!`` line fails its exec: one usage
    error line that names the script, no traceback."""
    script = tmp_path / "check.sh"
    script.write_text("exit 0\n")
    script.chmod(0o755)
    code = main(["analyze", "--app-cmd", "/bin/true", "--test-script", str(script),
                 "--replicas", "1", "--perf-runs", "0", "--db", str(tmp_path / "db")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert err == [f"error: usage: test script {script} cannot be executed: "
                   "Exec format error"]


def test_duplicate_entries_warn_once_per_app(tmp_path, capsys):
    """An app stored under two workloads plans from the first entry, and a
    warning names the workload it uses; an app stored once warns nothing."""
    db = str(tmp_path / "db")
    getpid = FeatureId(name_to_nr("getpid"))
    for app, workload in (("dup", "bbbbbbbbbbbbbbbb"), ("dup", "aaaaaaaaaaaaaaaa"),
                          ("single", "cccccccccccccccc")):
        save_profile(db, DbEntry(AppProfile(
            app=app, workload_hash=workload, observed=(getpid,),
            classes={getpid: "required"}, regressions={}, confirmed=True,
            metadata={}), {"kernel": "k"}))
    assert main(["importance", "--db", db, "--json"]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: 2 entries for 'dup'; using workload aaaaaaaaaaaaaaaa"]


def test_analyze_subfeatures_stores_and_exports_the_selector(fixtures, tmp_path, capsys):
    """`slens analyze --subfeatures` stores the terminal query as
    ioctl[0x5401], and `slens export` prints its selector in its own column."""
    db = str(tmp_path / "db")
    assert main(["analyze", "--app-cmd", fixtures.binary("ioctl_tcgets"),
                 "--test-script", fixtures.script("check_out.sh"), "--replicas", "1",
                 "--perf-runs", "0", "--subfeatures", "--timeout", "5",
                 "--db", db]) == EXIT_OK
    capsys.readouterr()
    assert main(["export", "--db", db, "--apps", "ioctl_tcgets"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert f"{IOCTL},ioctl,0x5401,,any,,,,,," in rows
    assert not [row for row in rows if row.startswith(f"{IOCTL},ioctl,,")]


def test_probe_has_no_hit_cap(fixtures, capsys):
    """`slens probe` is bounded by its timeout only: a spinning run makes
    far more trapped calls than any analysis cap and ends as a timeout."""
    policy = {"overrides": [{"feature": {"syscall_nr": name_to_nr("write")},
                             "action": {"kind": "fake"}}]}
    policy_path = fixtures.bindir / "spin_policy.json"
    policy_path.write_text(json.dumps(policy))
    assert main(["probe", "--app-cmd", fixtures.binary("spinner"),
                 "--test-script", fixtures.script("check_out.sh"),
                 "--policy", str(policy_path), "--timeout", "0.5", "--json"]) == EXIT_OK
    outcome = json.loads(capsys.readouterr().out)
    assert set(outcome) == {"success", "reason", "perf_metric", "peak_rss", "peak_fds",
                            "duration", "hits", "ready_s"}
    assert outcome["reason"] == "timeout" and outcome["ready_s"] is not None
    assert outcome["hits"] > HIT_CAP_FLOOR
