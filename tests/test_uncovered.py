"""tools/uncovered.py: the statements of a traced source that a test run never executes."""

import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"

MODULE = '''"""Two functions, one of them never called."""

import os


def used(x):
    """A docstring, which is no statement to run."""
    return x + 1


def unused(x):
    return os.sep * x
'''


@pytest.mark.parametrize("want,status", [(2, 0), (3, 1)], ids=["tests pass", "a test fails"])
def test_lists_exactly_the_statement_that_never_ran(tmp_path, want, status):
    (tmp_path / "twofuncs.py").write_text(MODULE)
    (tmp_path / "test_twofuncs.py").write_text(
        f"import twofuncs\n\n\ndef test_used():\n    assert twofuncs.used(1) == {want}\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--source", "twofuncs.py", "--",
         "-q", "-p", "no:cacheprovider", "test_twofuncs.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["twofuncs.py:12: return os.sep * x"]
    assert done.stderr.rstrip().endswith(f"pytest exit status: {status}")
