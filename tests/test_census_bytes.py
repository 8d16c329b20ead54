"""Byte-level guard for the census: ``census 3..22`` prints, in every
format, exactly the stdout (by sha256) recorded while ``brute_counts``
still listed each slice's compositions instead of counting them, and
``census 3..60`` prints, in md and json, the stdout recorded while it still
counted canonical words by their canonicity rule instead of as Burnside
orbits.  ``census`` prints the closed forms, and ``census --verify`` the
counts and then its verdict line, so both are checked against these.
``census 3..500`` prints, in md, json, csv with ``--decimal`` and up to
mirror, the stdout recorded while ``closed_n`` still summed its binomial
slice sums term by term; CI checks its counts with ``--verify``.  Three
more variants of ``census 3..22`` (csv up to mirror, and --decimal in md
and in json up to mirror) print the stdout recorded while ``census`` still
wrote its own table cells and json records."""

import hashlib

import pytest

from bridgekit.cli import EXIT_OK, main

CENSUS_3_22 = {
    "census 3..22": "9700b2be19c8285751b494373140cc6d1abfdfbfdcfd989b8eab7ca8359438f4",
    "--format csv census 3..22": "5bf467254de0b89cbb2718fa27872371278a6c00be27acd61ad071b4bbb8e16a",
    "--format json census 3..22": "4298b0d6aa4471fe90bc709ab2c668faf16f8eae442bd6357cd795cf7ffaf59d",
    "census 3..22 --up-to-mirror": "169d373a61837d3f4a77f1e4d19cf042fa3c44522620942bda866e35a892b9ca",
    "--format json census 3..22 --up-to-mirror": (
        "3ca3a06d2fca5f37c6bcff5cbc3d468e007690241ed03737514282881bf77e5b"
    ),
}

RENDERED_3_22 = {
    "--format csv census 3..22 --up-to-mirror": (
        "dbb036c54db6f06e782e2888cae060f667e39372b0f39b9761baeb4b0d19194a"
    ),
    "--decimal census 3..22": "bd2179ac954b88201ea925e818231b765141be4ad9048ff7669e6592ed6dd1ee",
    "--decimal --format json census 3..22 --up-to-mirror": (
        "e7bba6bd34251474eceb754e07e6db1dc48774a0e3ec7e140036cfa41523e068"
    ),
}

CENSUS_3_60 = {
    "census 3..60": "7b22c7cc689c99ad7d1b3d2c837c412d59e34632b9422a6af0b971ee864d59ee",
    "--format json census 3..60": (
        "58942011297ceb7f0b5c47e0f83a7b254790d7deed31b1779955e9b10b3b40e9"
    ),
}

FORMULAS_3_500 = {
    "census 3..500": (
        "f1c1879dc195e47ac2ec9e8a2d14f86ae1d8319792eb81a497c80b95b5e6a9c3"
    ),
    "--format json census 3..500": (
        "da7c0ba7ea671ce4b0cb0964c2ffde3100696767e1b941f96cd3eec4cc045bfa"
    ),
    "--format csv census 3..500 --decimal": (
        "97546d43461c2a096568ab4fa5c3d061e937a9e4386a91ba877ae665c7c5b284"
    ),
    "census 3..500 --up-to-mirror": (
        "a48156d9bf6d020191a07ac306a91fe53d84588b70c13c63d981836af7ae6efd"
    ),
}


def stdout_digest(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return hashlib.sha256(out.encode()).hexdigest()


def counted_digest(argv, capsys):
    """The digest of what ``argv --verify`` prints before its verdict line."""
    code = main([*argv, "--verify"])
    rows, _, verdict = capsys.readouterr().out[:-1].rpartition("\n")
    assert code == EXIT_OK
    assert verdict.startswith("verify: ")
    return hashlib.sha256(f"{rows}\n".encode()).hexdigest()


NARROW_CENSUS = {**CENSUS_3_22, **RENDERED_3_22}


@pytest.mark.parametrize("command", list(NARROW_CENSUS))
def test_census_stdout_matches_recorded_digest(command, capsys):
    argv = command.split(" ")
    assert stdout_digest(argv, capsys) == NARROW_CENSUS[command]
    assert counted_digest(argv, capsys) == NARROW_CENSUS[command]


WIDE_CENSUS = {**CENSUS_3_60, **FORMULAS_3_500}


@pytest.mark.parametrize("command", list(WIDE_CENSUS))
def test_wide_census_stdout_matches_recorded_digest(command, capsys):
    argv = command.split(" ")
    assert stdout_digest(argv, capsys) == WIDE_CENSUS[command]
    if command in CENSUS_3_60:
        assert counted_digest(argv, capsys) == WIDE_CENSUS[command]
