import time

import pytest

from grasscat.census import run_census
from grasscat.tubes import tube_census


@pytest.fixture(scope="session")
def census_reports():
    """Full censuses for every finite and tame pair, computed once.

    Wall-clock build times are recorded for the acceptance suite.
    """
    reports = {}
    timings = {}
    for pair in [(3, 6), (3, 7), (3, 8), (3, 9), (4, 8)]:
        t0 = time.time()
        reports[pair] = run_census(*pair)
        timings[pair] = time.time() - t0
    reports["timings"] = timings
    return reports


@pytest.fixture(scope="session")
def tube_reports():
    """Tube censuses for the tame pairs, each with the census it seeds from,
    computed once; wall-clock build times are recorded as for censuses."""
    reports = {}
    timings = {}
    for pair in [(3, 9), (4, 8)]:
        t0 = time.time()
        reports[pair] = tube_census(*pair)
        timings[pair] = time.time() - t0
    reports["timings"] = timings
    return reports
