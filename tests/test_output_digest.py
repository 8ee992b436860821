"""`tools/output_digest.py`'s note on how two outputs of one label differ."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_near_zero_roundoff_reads_small_in_absolute_terms(digest):
    # a cell at 1.17e-11 that becomes -0.0 differs by 1 relative, 1.17e-11 absolute
    ours = b'{"target_mw": -0.0, "id": 3, "cost": 6.130424849027705}\n'
    theirs = b'{"target_mw": 1.17e-11, "id": 3, "cost": 6.130424849010296}\n'
    assert digest.difference_note(ours, theirs) == \
        "largest relative difference 1, absolute 1.74e-11"


def test_text_change_is_named(digest):
    assert digest.difference_note(b"accepted,1\n", b"rejected,1\n") == "text differs"
    assert digest.difference_note(b"1,2\n", b"1,2,3\n") == "text differs"
    assert digest.difference_note(None, b"1\n") == "written by one tree only"
