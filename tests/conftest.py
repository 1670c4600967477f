"""A time limit on every test, where the platform has SIGALRM.

A kernel that never returns (a dominant reduction whose reflections do
not flip their coordinate, say) would otherwise hang the whole run in the
first test that reaches it.  With the limit, that test fails with a
``TimeoutError`` and the run stops after it, as under ``-x``: every later
test would reach the same kernel and wait out the limit again.  The
slowest test takes a few seconds, far below the limit.
"""

import signal

import pytest

LIMIT_S = 60


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        request.session.shouldfail = f"{request.node.nodeid} ran past {LIMIT_S} s"
        raise TimeoutError(f"test ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
