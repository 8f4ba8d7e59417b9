"""tools/bench.py: the code-line count, per module too, the tally of pairs,
the runs that failed and the lines that say why."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings(bench):
    source = '''"""Module doc."""

# a comment
x = 1  # a trailing comment


def f():
    """Two lines
    of doc."""
    "not a docstring"
    return (1,
            2)
'''
    # x = 1, def f():, the string statement and both lines of the return.
    assert bench.code_lines(source) == 5


def test_code_lines_per_module_sum_to_the_total(bench):
    size = bench.source_size(TOOL.parent.parent)
    modules = {k[len("src.code_lines."):]: v for k, v in size.items()
               if k.startswith("src.code_lines.")}
    assert {"cli", "config", "store"} <= set(modules)
    assert all(n > 0 for n in modules.values())
    assert sum(modules.values()) == size["src.code_lines"]


def test_wins_count_neither_side_on_a_tie(bench):
    def runs(*values):
        return [{"metrics": {"wall_s": {"value": v}}} for v in values]

    before, after = runs(1.0, 1.0, 1.0), runs(0.5, 1.0, 2.0)
    assert bench.wins(before, after, "wall_s", "lower") == 1
    assert bench.wins(before, after, "wall_s", "higher") == 1
    assert bench.wins(before, before, "wall_s", "lower") == 0


def test_a_run_fails_by_its_exit_its_verdict_or_a_failed_operation(bench):
    ok = {"exit": 0, "correct": True, "failed": 0}
    assert not bench.failed(ok)
    assert bench.failed(ok | {"exit": 1})
    assert bench.failed(ok | {"correct": False})
    assert bench.failed(ok | {"failed": 2})


def test_failure_lines_are_the_fail_lines_or_else_the_tail(bench):
    stderr = "setup 0: 0.1 s\nFAIL probe broke\npass 0: wall 1 s\nFAIL run timed out\n"
    assert bench.failure_lines(stderr) == ["FAIL probe broke", "FAIL run timed out"]
    tail = [f"line {i}" for i in range(bench.TAIL_LINES + 5)]
    assert bench.failure_lines("\n".join(tail) + "\n") == tail[-bench.TAIL_LINES:]
    assert bench.failure_lines("") == []
