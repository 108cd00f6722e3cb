"""The three use cases' outputs, pinned as JSON text: the scenario result,
`explain` for every request and the final placements; and the SHA-256 of
the state file `engine.save()` writes after each use case.

After an intended change to these outputs, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from foglet.documents import load_scenario
from foglet.scenario import build_engine, run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(os.path.dirname(HERE), "scenarios")
GOLDEN_DIR = os.path.join(HERE, "golden")
STATE_SHA256 = os.path.join(GOLDEN_DIR, "state_sha256.json")
USECASES = ("usecase_a", "usecase_b", "usecase_c")


def usecase_run(name: str):
    """The use case's outputs as JSON text, and the SHA-256 of its saved state."""
    script = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
    engine = build_engine(script)
    result = run_scenario(script, engine)
    doc = {
        "result": result.to_dict(),
        "explain": {rid: engine.explain(rid) for rid in engine.request_ids()},
        "placements": engine.placements(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.bin")
        engine.save(path)
        with open(path, "rb") as fh:
            state_sha256 = hashlib.sha256(fh.read()).hexdigest()
    return json.dumps(doc, indent=1, sort_keys=True) + "\n", state_sha256


@pytest.mark.parametrize("name", USECASES)
def test_usecase_outputs_match_golden(name):
    outputs, state_sha256 = usecase_run(name)
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        assert outputs == fh.read()
    with open(STATE_SHA256) as fh:
        assert state_sha256 == json.load(fh)[name]


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    hashes = {}
    for usecase in USECASES:
        outputs, hashes[usecase] = usecase_run(usecase)
        with open(os.path.join(GOLDEN_DIR, f"{usecase}.json"), "w") as fh:
            fh.write(outputs)
    with open(STATE_SHA256, "w") as fh:
        fh.write(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
