"""CLI input errors: each is a usage error (exit 4) reported on one
``error:`` line, never a traceback."""

import json
from collections import Counter

import pytest

import slens.orchestrator
from slens.cli import EXIT_BASELINE, EXIT_OK, EXIT_USAGE, main
from slens.harness import REASON_OK, WorkloadOutcome
from slens.interposer import RunTrace
from slens.syscalls import name_to_nr

IOCTL = name_to_nr("ioctl")
OPENAT = name_to_nr("openat")


@pytest.mark.parametrize("tables,flags", [
    ({"fake_values": {"pipe2": "zero"}}, []),
    ({"pseudo_prefixes": ["proc"]}, []),
    (None, ["--whitelist", "rel/path"]),
    (None, ["--parallel", "0"]),
    (None, ["--ready-delay", "-1"]),
    (None, ["--timeout", "0"]),
], ids=["fake-value-not-int", "relative-pseudo-prefix", "relative-whitelist",
        "parallel-0", "negative-ready-delay", "timeout-0"])
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


def test_bad_probe_timeout_is_a_usage_error(tmp_path, capsys):
    policy = tmp_path / "policy.json"
    policy.write_text("{}")
    argv = ["probe", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
            "--policy", str(policy), "--timeout", "-1"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("error: "), err


def _probe(tmp_path, policy_text: str) -> list[str]:
    policy = tmp_path / "policy.json"
    policy.write_text(policy_text)
    return ["probe", "--app-cmd", "/bin/true", "--test-script", "/bin/true",
            "--policy", str(policy)]


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"overrides": [{"feature": {}}]}',
    '{"default": {"kind": "skip"}}',
], ids=["not-json", "not-an-object", "feature-without-syscall", "unknown-kind"])
def test_malformed_policy_is_a_parse_error(tmp_path, capsys, text):
    code = main(_probe(tmp_path, text))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("error: parse: "), err


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
        return (WorkloadOutcome(success=True, reason=REASON_OK, perf_metric=None,
                                peak_rss=0, peak_fds=0, duration=0.0),
                RunTrace(observed=Counter(), exit_code=0, signaled=None,
                         whitelisted_pids_seen=1))

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
