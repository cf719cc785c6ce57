"""Every named invariant behind `lossmix verify`, one test each, so the
suite runs the same registry as the command."""

import pkgutil

import pytest

import lossmix
from lossmix import verify

NAMES = [name for name, _ in verify.INVARIANTS]


@pytest.mark.parametrize("check", [fn for _, fn in verify.INVARIANTS], ids=NAMES)
def test_invariant(check):
    passed, detail = check()
    assert passed, detail


def test_names_unique_and_module_prefixed():
    # perfbench keys its `verify:<name>` operations by these names
    modules = {m.name for m in pkgutil.iter_modules(lossmix.__path__)}
    assert len(set(NAMES)) == len(NAMES)
    assert all(name.split(".", 1)[0] in modules for name in NAMES)
