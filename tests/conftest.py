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

Each test function also runs under a soft ``RLIMIT_AS``: the process's
address space when the function is entered plus ``TEST_MEMORY_LIMIT``
bytes.  A runaway allocation then fails its test with ``MemoryError``
instead of growing until the host runs out of memory.  The limit is set
and lifted inside the call of the function itself, not in a hook
wrapper, so the code that reports the failure never runs under it; the
failed call's frames, which hold what ran out, are cleared as the error
leaves.  It is skipped where the process's size cannot be read (no
``/proc/self/statm``) or ``resource`` is missing.
"""

import signal
import traceback

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

ACCEPTANCE_LINES: list[str] = []

#: Seconds one test's call may run before it fails.
TEST_TIME_LIMIT = 300
#: Seconds between repeats of the alarm once the limit is passed: an
#: exception raised in a garbage-collector callback is dropped, so one
#: alarm alone can be lost.
TIME_LIMIT_REPEAT = 5
#: Bytes of address space one test function may add to the process.  Every
#: tier-1 test passes with a quarter of it; the rest is headroom for
#: address space that threads and allocators reserve but do not touch.
TEST_MEMORY_LIMIT = 2 * 2**30


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


def _under_memory_limit(function):
    """``function`` called under the soft ``RLIMIT_AS`` of the module
    docstring, which it lifts before anything else runs."""

    def call(**kwargs):
        try:
            with open("/proc/self/statm") as fh:
                size = int(fh.read().split()[0]) * resource.getpagesize()
        except (OSError, AttributeError):  # no procfs, or no resource module
            return function(**kwargs)
        previous = soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        limits = (size + TEST_MEMORY_LIMIT, soft, hard)
        limit = min(x for x in limits if x != resource.RLIM_INFINITY)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        try:
            return function(**kwargs)
        except MemoryError as exc:
            resource.setrlimit(resource.RLIMIT_AS, previous)
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            resource.setrlimit(resource.RLIMIT_AS, previous)

    return call


@pytest.hookimpl(hookwrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    function = pyfuncitem.obj
    pyfuncitem.obj = _under_memory_limit(function)
    try:
        yield
    finally:
        pyfuncitem.obj = function


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
