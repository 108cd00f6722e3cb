"""The three use cases' outputs, pinned as JSON text: the scenario result,
`explain` for every request and the final placements.

After an intended change to these outputs, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import json
import os
import sys

import pytest

from foglet.documents import load_scenario
from foglet.scenario import build_engine, run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(os.path.dirname(HERE), "scenarios")
GOLDEN_DIR = os.path.join(HERE, "golden")
USECASES = ("usecase_a", "usecase_b", "usecase_c")


def usecase_outputs(name: str) -> str:
    script = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
    engine = build_engine(script)
    result = run_scenario(script, engine)
    doc = {
        "result": result.to_dict(),
        "explain": {rid: engine.explain(rid) for rid in engine.request_ids()},
        "placements": engine.placements(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", USECASES)
def test_usecase_outputs_match_golden(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        assert usecase_outputs(name) == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for usecase in USECASES:
        with open(os.path.join(GOLDEN_DIR, f"{usecase}.json"), "w") as fh:
            fh.write(usecase_outputs(usecase))
    sys.exit(0)
