"""Shared fixtures for every test under tests/."""
import glob
import os
import signal

import pytest

# A test that runs longer than this fails. The slowest test took 8.0 s in
# `pytest --durations` on a 2-vCPU machine; this leaves a 7.5x margin.
LIMIT_S = 60


def _children() -> list[int]:
    """The pids of this process's children, from /proc; none where it cannot say."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as f:
                pids += map(int, f.read().split())
        except OSError:
            pass
    return pids


@pytest.fixture(autouse=True)
def watchdog(request, no_child_left, same_cpus):
    """A test that hangs (a deadlock in the shuffle helper's pipe protocol,
    say) fails after LIMIT_S with a TimeoutError naming it, in place of
    hanging the suite. The children of this process are killed then, since a
    helper stuck on its pipe would block its caller's waitpid for good, and
    reaped here before the two fixtures this one takes check for leftovers."""
    killed = []

    def expire(signum, frame):
        for pid in _children():
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)
        raise TimeoutError(f"{request.node.nodeid} ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    for pid in killed:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # the code under test reaped it as it unwound
            pass


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
