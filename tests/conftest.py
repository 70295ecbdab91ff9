"""A per-test time limit, so a loop that never ends fails its test instead of
hanging the suite.

The slowest test takes about 7 s; the limit leaves ample room for a slow or
shared machine. SIGALRM exists on POSIX only; elsewhere no limit is set.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran longer than {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
