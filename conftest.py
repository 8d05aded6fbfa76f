"""A time limit on every test under tests/ and perfbench/: a test still
running after LIMIT_S seconds fails, with the traceback of where it was,
instead of hanging the run.  The slowest test takes a few seconds.  Where
the platform has no SIGALRM the limit does not apply."""

import signal

import pytest

LIMIT_S = 120


def _expire(signum, frame):
    pytest.fail("test still running after %d s" % LIMIT_S)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
