import os
import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class FirstChild:
    """A one-time claim shared by the processes of a worker loop, so that a
    test can make one forked child misbehave whichever calls it is dealt."""

    def __init__(self, path):
        self.caller, self.path = os.getpid(), path

    def claim(self, label) -> bool:
        """True in the first forked child that calls this, which records
        ``label``, and nowhere else. The caller first waits until a child
        has claimed, so that some child takes a call under any deal."""
        if os.getpid() == self.caller:
            deadline = time.monotonic() + 30
            while not self.path.exists():
                assert time.monotonic() < deadline, "no child took a call"
                time.sleep(0.001)
            return False
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, str(label).encode())
        os.close(fd)
        return True

    def label(self) -> str:
        """What the claiming child recorded."""
        return self.path.read_text()


@pytest.fixture
def first_child(tmp_path):
    return FirstChild(tmp_path / "first_child")


@pytest.fixture
def forks(monkeypatch):
    """The id of each child that os.fork makes while the test runs."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
