"""The accuracy ledger's n = 60 rows hold against the committed ACCURACY.json.

``tests/accuracy.py`` writes the whole ledger in under a minute, too
slow for every test run; its n = 60 rows take seconds. No recomputed
row may be ``accuracy.regressed``, the rule by which the script refuses
to overwrite the ledger: an error may not exceed max(2 x its committed
error, 2**-51), so a change that doubles an error, or lifts a tiny one
past 2**-51, fails here. After an intended accuracy change, delete the
worse rows' cases from ACCURACY.json, rerun the script and commit its
ACCURACY.json.
"""

import json

import pytest

import accuracy

COMMITTED = {row["case"]: row for row in json.loads(accuracy.OUT.read_text())}
N60 = [case for case in COMMITTED if " n=60 " in case]


@pytest.fixture(scope="module")
def recomputed() -> dict:
    return {row["case"]: row for row in accuracy.rational_rows(ns=(60,))}


def test_recomputes_every_committed_n60_row(recomputed):
    assert sorted(recomputed) == sorted(N60)


@pytest.mark.parametrize("case", N60)
def test_row_within_twice_its_committed_error(case, recomputed):
    assert not accuracy.regressed(recomputed[case], COMMITTED[case])
