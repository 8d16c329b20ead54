"""The record semantics the package relies on, and the cold import they keep cheap."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bridgekit.census import enumerate_words
from bridgekit.classify import TABLE1_REFERENCE, table1, table1_diff
from bridgekit.epim import OrsParams
from bridgekit.knot import KnotClass, knot_from_word

SRC = Path(__file__).resolve().parent.parent / "src"


def test_table1_rows_compare_without_matches():
    # the diff compares the five displayed fields; the rows themselves compare all six
    rows = table1(15)
    assert all(row.matches for row in rows) and not any(row.matches for row in TABLE1_REFERENCE)
    assert table1_diff(rows) == []
    row = rows[0]
    bare = row._replace(matches=())
    assert bare != row and not bare == row and len({row, bare}) == 2
    assert table1_diff([bare, *rows[1:]]) == []


def test_knots_sort_by_their_fields():
    knots = [knot_from_word(w) for c in range(3, 10) for w in enumerate_words(c)]
    # one canonical word with made-up invariants, so that the later fields break ties
    knots += [KnotClass((2, -2), 3, 2, 1, 0), KnotClass((2, -2), 3, 1, 1, 1)]
    assert sorted(reversed(knots)) == sorted(
        knots, key=lambda k: (k.canon, k.crossing, k.braid, k.genus, k.signchg)
    )


def test_ors_params_copy_and_pickle():
    params = OrsParams([2, -2], 1, [1, 1, 1], [0, -1])
    assert (params.target, params.eps, params.cvec) == ((2, -2), (1, 1, 1), (0, -1))
    copies = [copy.copy(params), copy.deepcopy(params)]
    copies += [pickle.loads(pickle.dumps(params, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is OrsParams and other == params
        assert other.to_json() == params.to_json()


@pytest.mark.parametrize(
    "args",
    [
        ((2, -2), 1, (-1, 1, 1), (1, -1)),  # leading sign must be +1
        ((2, -2), 0, (1,), ()),
        ([2, -3], 1, [1, 1, 1], [1, -1]),  # the target is not a reduced even word
        ([2, -2], 1, [1, -1, 1], [0, 1]),  # a zero connector between unequal signs
        ([2, -2], 1, (e for e in (1, 1)), [1, -1]),  # two signs once made a tuple, three needed
        ([2, -2], 1, iter([1, 1, 1]), iter([1])),  # one connector, two needed
    ],
)
def test_invalid_ors_params_raise(args):
    with pytest.raises(ValueError):
        OrsParams(*args)


def test_nothing_skips_the_ors_params_checks():
    # NamedTuple's _make and _replace build a record without calling __new__
    calls = [
        f"{path.name}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\._(?:make|replace)\(", line)
    ]
    assert calls == []


def test_cli_import_loads_no_dataclasses():
    # generating a dataclass costs each import milliseconds, and the module
    # brings inspect with it; NamedTuple records need neither
    code = (
        "import sys; before = set(sys.modules); import bridgekit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert proc.stdout == "[]\n"
