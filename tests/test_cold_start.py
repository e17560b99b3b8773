"""Cold start: importing the library never loads scipy.

scipy serves only the ILP planner, which imports it on its first solve.
Each check runs in a fresh interpreter, because this test session has
long since imported scipy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

SCRIPT = """
import json, sys
import repro, repro.experiments, repro.planners
print(json.dumps("scipy" in sys.modules))
sys.path.insert(0, sys.argv[1])
from test_golden_traces import comparable, golden_payload
payload = golden_payload("ILP")
golden = json.loads(open(sys.argv[2], encoding="utf-8").read())
print(json.dumps(comparable(golden, payload) == golden))
print(json.dumps("scipy" in sys.modules))
"""


def test_import_leaves_scipy_unloaded_until_ilp_solves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(TESTS),
         str(TESTS / "golden" / "ilp.json")],
        env=env, capture_output=True, text=True, check=True)
    loaded_at_import, matches_golden, loaded_after_run = (
        json.loads(line) for line in out.stdout.splitlines()[-3:])
    assert loaded_at_import is False, "importing repro loaded scipy"
    assert matches_golden is True, "lazy ILP diverged from its golden"
    assert loaded_after_run is True, "the ILP run never imported scipy"
