"""The examples run: CI lints them, this executes the two that drive the
judge and the attackers end to end (a deleted API breaks them silently
otherwise)."""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "examples")


@pytest.mark.parametrize("script, expected", [
    ("quickstart.py", ["lookup: NOT oblivious", "scan: oblivious over 3"]),
    ("cache_attack_demo.py", ["attack SUCCEEDED", "(the whole table)"]),
])
def test_example_runs(script, expected, capsys):
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    printed = capsys.readouterr().out
    for fragment in expected:
        assert fragment in printed
