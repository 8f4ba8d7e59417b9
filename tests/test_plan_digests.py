"""tools/plan_digests.py: the digests of the planner commands are stable."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "plan_digests.py"


def test_digests_repeat_and_nothing_is_written_under_perfbench():
    """Two runs on one checkout print the same line: a sha256 per command
    and form, per seed; and neither run leaves a file under perfbench/."""
    before = sorted(p for p in (ROOT / "perfbench").rglob("*"))
    lines = [subprocess.run([sys.executable, str(TOOL), str(ROOT), "--apps", "8",
                             "--seeds", "1-2"], stdout=subprocess.PIPE, text=True,
                            check=True).stdout for _ in range(2)]
    assert lines[0] == lines[1]
    out = json.loads(lines[0])
    assert out["apps"] == 8
    assert sorted(out["digests"]) == ["1", "2"]
    for digests in out["digests"].values():
        assert sorted(digests) == sorted(f"{command}{flag}" for command in
                                         ("plan", "compare --order", "importance")
                                         for flag in ("", " --json"))
        assert all(len(d) == 64 for d in digests.values())
    assert sorted(p for p in (ROOT / "perfbench").rglob("*")) == before
