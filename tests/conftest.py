"""Shared fixtures for every test under tests/."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """No process this test started is left unreaped: no sweep lane and no
    training shuffle helper outlives the call that made it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def same_cpus():
    """The test leaves the CPUs its thread may run on as it found them, as a
    sweep that pins its lanes must."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    assert (os.sched_getaffinity(0) if mask is not None else None) == mask
