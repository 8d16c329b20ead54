"""The record semantics the package relies on, and the cold import they keep cheap."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import pytest

from bridgekit.census import CensusRow, brute_counts, closed_row, enumerate_words
from bridgekit.classify import TABLE1_REFERENCE, NonminimalType, Table1Row, table1, table1_diff
from bridgekit.epim import EpiWitness, InequalityAudit, OrsParams, epi_graph, epi_targets
from bridgekit.knot import KnotClass, knot_from_word

from _oracles import params_json

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
        assert params_json(other) == params_json(params)


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


# Records built by tuple.__new__, which runs no __new__ and fills in no default

def assert_records(records, record_type):
    assert records
    for record in records:
        assert type(record) is record_type, record
        assert len(record) == len(record_type._fields), record
        assert record_type(*record) == record, record


def five_tuple_key(witness):
    """The witness order as EpiWitness.sort_key gave it when it was a method."""
    params = witness.params
    return (witness.small.canon, params.r, params.target, params.cvec, params.eps)


def assert_witness_order(witnesses, rng):
    assert list(witnesses) == sorted(witnesses, key=five_tuple_key)
    assert all(EpiWitness.sort_key(w) == five_tuple_key(w) for w in witnesses)
    shuffled = rng.sample(list(witnesses), len(witnesses))
    assert sorted(shuffled, key=EpiWitness.sort_key) == sorted(shuffled, key=five_tuple_key)


def test_graph_witnesses_and_audits_are_records_in_order():
    edges = [edge for *_, chunk in epi_graph(12) for edge in chunk]
    witnesses = [w for _, _, group in edges for w in group]
    assert len(edges) == 72 and len(witnesses) == 88
    assert_records(witnesses, EpiWitness)
    assert_records([w.audit for w in witnesses], InequalityAudit)
    rng = random.Random(3901)
    # each big knot's edges are consecutive, and its witnesses sorted across them
    for _, group in groupby(witnesses, lambda w: w.big):
        assert_witness_order(list(group), rng)


def test_search_witnesses_and_audits_are_records_in_order():
    rng = random.Random(3902)
    found = []
    for c in range(3, 13):
        for word in enumerate_words(c):
            witnesses = epi_targets(knot_from_word(word))
            assert_witness_order(witnesses, rng)
            found += witnesses
    assert len(found) == 88
    assert_records(found, EpiWitness)
    assert_records([w.audit for w in found], InequalityAudit)


@pytest.mark.parametrize("up_to_mirror", [True, False])
def test_table1_rows_and_matches_are_records(up_to_mirror):
    rows = table1(30, up_to_mirror=up_to_mirror)
    assert_records(rows, Table1Row)
    assert_records([match for row in rows for match in row.matches], NonminimalType)


def test_census_rows_are_records():
    assert_records([brute_counts(c) for c in range(3, 61)], CensusRow)
    assert_records([closed_row(c) for c in range(3, 61)], CensusRow)
