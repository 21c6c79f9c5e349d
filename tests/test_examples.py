"""The examples run: CI lints them, this executes the ones that drive the
judge, the attackers, the ORAM internals and the oblivious LLM generation
end to end (a deleted API breaks them silently otherwise)."""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "examples")


@pytest.mark.parametrize("script, expected", [
    ("quickstart.py", ["lookup: NOT oblivious", "scan: oblivious over 3"]),
    ("cache_attack_demo.py", ["attack SUCCEEDED", "(the whole table)"]),
    ("oram_explorer.py", ["tree: 8 levels", "capacity bound 150",
                          "capacity bound 10", "revealed leaves: 205/256",
                          "all 256 blocks verified intact"]),
    ("secure_llm.py", ["  generated: w0093 w0081 w0080 w0018 w0045 w0081 "
                       "w0080 w0018 w0045 w0081 w0080 w0018\n"]),
])
def test_example_runs(script, expected, capsys):
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    printed = capsys.readouterr().out
    for fragment in expected:
        assert fragment in printed
