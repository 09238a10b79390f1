import json
from pathlib import Path

import pytest

from synchan import verification

# (name, passed, detail) of every check, recorded before the enumeration
# kernels behind these scopes were rewritten; the verdicts must not move
RECORDED = json.loads((Path(__file__).parent / "verify_verdicts.json").read_text())

SCOPES = {
    "run_property_checks(seed=7)": lambda: verification.run_property_checks(seed=7),
    "run_oracle_checks((3, 6, 9, 12), (3, 6, 9))": lambda: verification.run_oracle_checks(
        (3, 6, 9, 12), (3, 6, 9)
    ),
    "run_chain_checks()": verification.run_chain_checks,
}


@pytest.mark.parametrize("call", sorted(SCOPES))
def test_verdicts_are_unchanged(call):
    got = [[c.name, c.passed, c.detail] for c in SCOPES[call]()]
    assert got == RECORDED[call]
