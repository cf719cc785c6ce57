"""Marks for the suite. `pytest -m "not slow"` skips the tests listed in
SLOW; a bare `pytest` still runs every test."""

import pytest
from hypothesis import settings

# criterion 08 trains nine 1200-epoch width-200 nets: most of the suite's time
SLOW = {"test_acceptance.py::test_criterion_08_f_principle_reproduction"}

# property tests draw the same examples on every run and keep no example
# database, so the suite is deterministic; no deadline, so a slow host
# cannot fail an example
settings.register_profile("lossmix", derandomize=True, max_examples=50,
                          database=None, deadline=None)
settings.load_profile("lossmix")


def pytest_collection_modifyitems(items):
    for item in items:
        if f"{item.path.name}::{item.name}" in SLOW:
            item.add_marker(pytest.mark.slow)
