"""CLI input errors: each is a usage error (exit 4) reported on one
``error:`` line, never a traceback."""

import json

import pytest

from slens.cli import EXIT_USAGE, main


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
