import os
import signal
import time

import pytest

from hsldmm import _workers
from hsldmm._workers import NumericalError, _in_order


@pytest.fixture(autouse=True)
def forking(monkeypatch):
    # loops fork only with the BLAS pin; a numpy without it gets a stand-in
    monkeypatch.setattr(_workers, "_pin", _workers._pin or (lambda threads: 1))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_slow_call_holds_up_no_other_call():
    def call(i):
        if i == 0:
            time.sleep(1.0)
        return i, os.getpid()

    results = list(_in_order(call, 8, 2, "call"))
    assert [i for i, _ in results] == list(range(8))
    # the other process was free, so it took every later call
    slow = results[0][1]
    assert [pid for _, pid in results[1:]].count(slow) == 0
    assert_no_child_left()


def test_an_earlier_call_that_fails_later_is_raised_after_the_results_before_it(tmp_path):
    failures = tmp_path / "failures"

    def call(i):
        if i == 1:
            time.sleep(1.0)
        if i in (1, 2):
            with open(failures, "a") as f:
                f.write(f"{i}\n")
            raise ValueError(f"call {i}")
        return i

    got = []
    with pytest.raises(ValueError, match="^call 1$"):
        for value in _in_order(call, 4, 2, "call"):
            got.append(value)
    assert got == [0]
    # call 2 ran while call 1 slept, and failed first
    assert failures.read_text().split() == ["2", "1"]
    assert_no_child_left()


def test_a_killed_child_is_named_at_the_turn_of_the_call_it_took():
    caller = os.getpid()

    def call(i):
        if os.getpid() == caller:
            time.sleep(1.0)  # the child takes the calls meanwhile
        elif i == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    got = []
    with pytest.raises(NumericalError) as exc:
        for value in _in_order(call, 4, 2, "call"):
            got.append(value)
    assert str(exc.value) == "call 2: its worker process was killed by SIGKILL"
    assert got == [0, 1]
    assert_no_child_left()


def test_a_child_killed_before_it_sends_its_ticket_is_named_at_that_turn(monkeypatch, first_child):
    real = _workers._take

    def take(tickets, block):
        i = real(tickets, block)
        if i is not None and first_child.claim(i):  # read, and not yet sent
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    monkeypatch.setattr(_workers, "_take", take)
    got = []
    with pytest.raises(NumericalError) as exc:
        for value in _in_order(lambda i: i, 6, 2, "call"):
            got.append(value)
    lost = int(first_child.label())
    assert str(exc.value) == f"call {lost}: its worker process was killed by SIGKILL"
    assert got == list(range(lost))
    assert_no_child_left()
