"""The tolerance comparer of tools/golden.py (`--against REV`), line by line.

Text, integers, bracket endpoints and probed orders must not move; any other
number may move by at most `REL_TOL` relative.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def compare(old, new):
    return golden.compare_line("case.txt:1", old, new)


def test_identical_lines_pass_silently():
    assert compare('  "sum": 1.5,', '  "sum": 1.5,') == ([], [], 0.0)


def test_last_digit_move_is_reported_and_accepted():
    changed, failed, worst = compare('  "sum": 1.6449340668482288,',
                                     '  "sum": 1.6449340668482269,')
    assert failed == [] and 1e-15 < worst < 2e-15
    assert changed == ["case.txt:1 sum: 1.6449340668482288 -> 1.6449340668482269 "
                       "(relative 1.2e-15)"]


def test_move_over_tolerance_fails():
    _, failed, _ = compare('  "sum": 1.5,', '  "sum": 1.5000001,')
    assert len(failed) == 1 and "over tolerance" in failed[0]


def test_bracket_endpoints_orders_and_integers_must_not_move():
    for old, new in [('  "lower": 1.9921875,', '  "lower": 1.9921876,'),
                     ('  "r": 1.5,', '  "r": 1.5000000000000002,'),
                     ('  "probes": 9,', '  "probes": 10,'),
                     ("exit 0", "exit 1")]:
        _, failed, _ = compare(old, new)
        assert len(failed) == 1 and "must be identical" in failed[0], (old, new)


def test_text_change_fails():
    _, failed, _ = compare('  "verdict": "satisfied",', '  "verdict": "inconclusive",')
    assert len(failed) == 1 and "text differs" in failed[0]
    # a number inside a name is text, not a tolerance-checked value
    _, failed, _ = compare('  "condition": "nq_1.5",', '  "condition": "nq_1.6",')
    assert len(failed) == 1 and "text differs" in failed[0]
