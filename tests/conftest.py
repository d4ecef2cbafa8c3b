"""Shared fixtures: a per-call time limit, so an input that hangs fails its test instead of stalling the run."""

import contextlib
import signal

import pytest


class Overtime(Exception):
    """A call ran past its time limit."""


@contextlib.contextmanager
def _limit(seconds: float):
    def expire(signum, frame):
        raise Overtime(f"call ran past its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """`with time_limit(seconds):` raises Overtime inside a block that runs longer."""
    return _limit
