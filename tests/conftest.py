"""Marks, the Hypothesis profile and one shared `verify` run for the suite;
`pytest -m "not slow"` skips the tests in SLOW, a bare `pytest` runs all."""

import pytest
from hypothesis import settings

from lossmix import cli

# criterion 08 trains nine 1200-epoch width-200 nets: most of the suite's
# time; the shipped spectral config trains three, twice
SLOW = {"test_acceptance.py::test_criterion_08_f_principle_reproduction",
        "test_cli.py::test_config_json_reruns_into_its_own_directory[spectral-spectral]"}

# property tests draw the same examples on every run and keep no example
# database, so the suite is deterministic; no deadline, so a slow host
# cannot fail an example
settings.register_profile("lossmix", derandomize=True, max_examples=50,
                          database=None, deadline=None)
settings.load_profile("lossmix")


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """`lossmix verify`'s exit code and summary bytes, from one run."""
    out = tmp_path_factory.mktemp("verify")
    code = cli.main(["verify", "--out", str(out)])
    return code, (out / "verify_summary.json").read_bytes()


def pytest_collection_modifyitems(items):
    for item in items:
        if f"{item.path.name}::{item.name}" in SLOW:
            item.add_marker(pytest.mark.slow)
