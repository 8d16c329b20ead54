"""Byte-level guard: every CLI command recorded in bench/golden.json
still exits 0 and prints exactly the recorded stdout (by sha256)."""

import hashlib
import json
from pathlib import Path

import pytest

from bridgekit.cli import EXIT_OK, main

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_matches_recorded_digest(command, capsys):
    code = main(command.split(" "))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
