"""`tools/output_digest.py`: its notes on how two outputs of one label differ, and
how it digests a command that exits non-zero."""

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


def test_exit_status_note(digest):
    assert digest.exit_note(b"2\n", None) == "exit status 2 against 0"
    assert digest.exit_note(None, b"4\n") == "exit status 0 against 4"


def test_failing_command_is_digested_and_the_run_goes_on(digest, monkeypatch, capsys):
    import gridrisk

    src = str(Path(gridrisk.__file__).resolve().parents[1])
    monkeypatch.setattr(digest, "commands", lambda: [
        ("bad", ["assess", "--case", "missing.json"]),
        ("ok", ["assess", *digest.TOY6, "--outages", "3", "--attempts", "1"]),
    ])
    contents = {}
    found = digest.digests(src, contents=contents)
    assert contents["bad/exit"] == b"2\n"
    assert not any(label.startswith("bad/") and label != "bad/exit" for label in found)
    assert {"ok/stdout", "ok/summary.json"} <= found.keys()
    assert digest.failed(found)
    assert "missing.json" in capsys.readouterr().err


def test_against_reports_a_one_tree_failure_and_exits_1(digest, monkeypatch, capsys):
    runs = {
        "ours": {"a/exit": b"2\n", "b/stdout": b"1\n"},
        "theirs": {"a/stdout": b"R=1.0\n", "b/stdout": b"1\n"},
    }

    def fake_digests(src, emit=None, contents=None):
        contents.update(runs[src])
        return {label: data.decode() for label, data in runs[src].items()}

    monkeypatch.setattr(digest, "digests", fake_digests)
    assert digest.main(["--src", "ours", "--against", "theirs"]) == 1
    assert sorted(capsys.readouterr().out.splitlines()) == [
        "a/exit  exit status 2 against 0",
        "a/stdout  written by one tree only",
    ]
    # the same failure on both trees differs nowhere, and still exits 1
    runs["theirs"] = dict(runs["ours"])
    assert digest.main(["--src", "ours", "--against", "theirs"]) == 1
    assert capsys.readouterr().out == ""
