"""Shared pytest wiring.

The acceptance suite registers one PASS/FAIL line per criterion; the
terminal-summary hook below prints them after the run so they are
visible regardless of output capture.

Every test's call runs under a wall-clock limit of ``TEST_TIME_LIMIT``
seconds, so a test that loops forever fails instead of stalling the
suite.  The limit is the largest subprocess timeout a test already
sets.  It is kept with ``SIGALRM`` (skipped on platforms without it),
armed around the call alone, so pytest's own reporting of the failure
is never interrupted.
"""

import signal

import pytest

ACCEPTANCE_LINES: list[str] = []

#: Seconds one test's call may run before it fails.
TEST_TIME_LIMIT = 300
#: Seconds between repeats of the alarm once the limit is passed: an
#: exception raised in a garbage-collector callback is dropped, so one
#: alarm alone can be lost.
TIME_LIMIT_REPEAT = 5


class TestTimeLimitExceeded(BaseException):
    """Raised in a test's call that outlives ``TEST_TIME_LIMIT``.  Not an
    ``Exception``, so no ``except Exception`` in the code under test, and
    no hypothesis shrinker, catches it and runs on; pytest records it as
    the test's failure."""

    __test__ = False  # not a test class, despite its name


def _time_limit_exceeded(signum, frame):
    raise TestTimeLimitExceeded(f"the test ran over its limit of {TEST_TIME_LIMIT} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_exceeded)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT, TIME_LIMIT_REPEAT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
