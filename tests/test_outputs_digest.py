"""Every output of tools/outputs_digest.py's runs matches the committed digest.

tests/outputs_digest.json holds, per run, the exit code and the sha256 of
every data table and stripped report, with the numpy, scipy and OpenBLAS
versions that made them. A change that means to move an output regenerates
the file (see the tool's docstring) and names each moved run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, os.pardir, "tools", "outputs_digest.py")
COMMITTED = os.path.join(HERE, "outputs_digest.json")


def test_outputs_match_the_committed_digest(tmp_path):
    # a process of its own, so that the tool pins BLAS to one thread before numpy loads
    subprocess.run([sys.executable, TOOL, str(tmp_path)], capture_output=True, text=True,
                   check=True)
    with open(COMMITTED) as f:
        want = json.load(f)
    with open(tmp_path / "digest.json") as f:
        got = json.load(f)
    runs = sorted(set(want["runs"]) | set(got["runs"]))
    differ = [run for run in runs if want["runs"].get(run) != got["runs"].get(run)]
    versions = ("" if got["versions"] == want["versions"] else
                f"; the digest was made with {want['versions']}, this run has {got['versions']}")
    assert not differ, (
        f"{len(differ)} of {len(runs)} runs differ from tests/outputs_digest.json: "
        f"{', '.join(differ)}{versions}. `python3 tools/outputs_digest.py --compare` on a "
        "parent's output directory and this one shows what moved."
    )
