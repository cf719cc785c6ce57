"""Every named invariant behind `lossmix verify`, one test each, read from
one run of the command, so the suite checks what the command reports."""

import hashlib
import json
import pkgutil

import pytest

import lossmix
from lossmix import verify

NAMES = [name for name, _ in verify.INVARIANTS]


@pytest.mark.parametrize("name", NAMES)
def test_invariant(verify_run, name):
    (item,) = [i for i in json.loads(verify_run[1])["invariants"] if i["name"] == name]
    assert item["passed"], item["detail"]


def test_names_unique_and_module_prefixed():
    # perfbench keys its `verify:<name>` operations by these names
    modules = {m.name for m in pkgutil.iter_modules(lossmix.__path__)}
    assert len(set(NAMES)) == len(NAMES)
    assert all(name.split(".", 1)[0] in modules for name in NAMES)


def test_summary_bytes_are_pinned(verify_run):
    # the summary holds every invariant's name, flag and detail text; like
    # test_spectral's capture pin, its digest may move with the BLAS build
    assert verify_run[0] == 0
    assert hashlib.sha256(verify_run[1]).hexdigest() == (
        "4b15e60c39ebb00108bf3652d084dbb0f58e5f8ffb59f86e42af3ebc97c68804")
