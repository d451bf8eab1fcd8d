"""Golden CLI reports: every case of tools/golden.py, byte for byte.

A refactor must leave these files unchanged.  A change that means to alter a
report regenerates all of them (`PYTHONPATH=src python3 tools/golden.py`; it
takes no case names) and commits the diff on its own, where it can be read.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = golden.golden_path(name).read_text()
    assert golden.render(golden.CASES[name]) == expected


def test_no_golden_without_a_case():
    stored = {p.stem for p in golden.GOLDEN_DIR.glob("*.txt")}
    assert stored == set(golden.CASES)
