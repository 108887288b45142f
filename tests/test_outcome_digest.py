"""tools/outcome_digest.py prints two digests per request, the same from
the command line as in process."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outcome_digest.py"
WORKLOADS = ("auto-serve", "color-coding", "crossval-sweep")


def load_tool():
    spec = importlib.util.spec_from_file_location("outcome_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outcome_digest_on_20_requests(workload, tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), workload, "1", "--requests", "20"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == [str(i) for i in range(20)]
    for row in rows:
        assert len(row) == 4
        assert all(re.fullmatch("[0-9a-f]{16}", digest) for digest in row[2:])
    assert rows == [[str(field) for field in row]
                    for row in load_tool().digests(workload, 1, 20)]


def test_summary_of_every_workload(tmp_path):
    """``all --summary`` prints one line per workload: its request count and
    the digests of its contract and witness digest columns."""
    done = subprocess.run([sys.executable, str(TOOL), "all", "1", "--requests", "20",
                           "--summary"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    tool = load_tool()
    want = []
    for workload in WORKLOADS:
        rows = list(tool.digests(workload, 1, 20))
        want.append([workload, "1", "20", tool._digest([row[2] for row in rows]),
                     tool._digest([row[3] for row in rows])])
    assert [line.split() for line in done.stdout.splitlines()] == want


def test_streams_digest_the_requests_alone(tmp_path):
    """``--streams`` prints one line per workload: its request count and a
    digest of its requests, built without solving any."""
    done = subprocess.run([sys.executable, str(TOOL), "all", "1", "--requests", "20",
                           "--streams"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    tool = load_tool()
    want = [[str(field) for field in tool.stream_summary(workload, 1, 20)]
            for workload in WORKLOADS]
    assert [line.split() for line in done.stdout.splitlines()] == want
    assert all(row[2] == "20" and re.fullmatch("[0-9a-f]{16}", row[3]) for row in want)
