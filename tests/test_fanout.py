"""The fan-out helper: the caller works, helpers take the next item.

:func:`repro._fanout.fan_out` maps a function over a list on the
calling thread plus at most ``workers - 1`` helper threads.  These
tests pin its contract: results in item order, no thread where one
would only wait, never more helpers than asked for, the caller running
item 0, and errors that stop the hand-out and surface in item order.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro._fanout import fan_out


@pytest.fixture
def starts(monkeypatch):
    """The threads started while the test runs."""
    started = []
    original = threading.Thread.start

    def counting(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_results_come_back_in_item_order():
    def slow_square(value):
        # later items finish first
        time.sleep(0.002 * (10 - value))
        return value * value

    assert fan_out(slow_square, range(10), 3) == [
        value * value for value in range(10)
    ]


def test_empty_list():
    assert fan_out(lambda item: item, [], 4) == []


@pytest.mark.parametrize("workers, items", [(1, range(5)), (4, [7])])
def test_no_thread_where_the_caller_suffices(starts, workers, items):
    caller = threading.get_ident()
    idents = fan_out(lambda __: threading.get_ident(), items, workers)
    assert idents == [caller] * len(items)
    assert starts == []


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_never_more_than_workers_minus_one_helpers(starts, workers):
    idents = fan_out(
        lambda __: (time.sleep(0.005), threading.get_ident())[1],
        range(12), workers,
    )
    assert len(starts) == workers - 1
    assert len(set(idents)) <= workers
    # the caller runs item 0, whoever else picks the rest
    assert idents[0] == threading.get_ident()


def test_every_item_runs_once_under_a_short_switch_interval():
    # more threads than cores, switching every microsecond: a lost
    # update of the shared cursor would run an item twice or never
    runs = Counter()
    lock = threading.Lock()

    def work(item):
        with lock:
            runs[item] += 1
        return -item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        results = fan_out(work, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60
    assert results == [-item for item in range(3000)]
    assert runs == Counter(range(3000))


def test_fewer_items_than_workers_start_fewer_helpers(starts):
    fan_out(lambda item: item, range(3), 8)
    assert len(starts) == 2


def test_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="at least one worker"):
        fan_out(lambda item: item, [1, 2], 0)


def test_first_error_by_item_order_after_started_items_finish():
    # items 0, 1 and 2 start together on three threads; 2 fails first in
    # time, 1 fails later, 0 succeeds last; nothing else may start
    barrier = threading.Barrier(3, timeout=10)
    started, finished = set(), set()
    threads = {}

    def work(item):
        started.add(item)
        if item > 2:
            return item
        barrier.wait()
        threads[item] = threading.current_thread()
        try:
            if item == 2:
                raise ValueError("two")
            # wait until item 2's helper has recorded its error and quit
            while 2 not in threads:
                time.sleep(0.001)
            threads[2].join(timeout=10)
            time.sleep(0.05)
            if item == 1:
                raise ValueError("one")
            return item
        finally:
            finished.add(item)

    with pytest.raises(ValueError) as caught:
        fan_out(work, range(8), 3)
    assert caught.value.args == ("one",)
    assert started == {0, 1, 2}
    assert finished == {0, 1, 2}


def test_an_error_in_the_callers_item_stops_the_helpers():
    started = []

    def work(item):
        started.append(item)
        if item == 0:
            raise RuntimeError("caller failed")
        time.sleep(0.01)
        return item

    with pytest.raises(RuntimeError, match="caller failed"):
        fan_out(work, range(20), 2)
    # the helper may have taken one item before the error landed
    assert len(started) <= 3


def test_keyboard_interrupt_in_the_caller_does_not_drain():
    helper_busy = threading.Event()
    release = threading.Event()
    started = []
    helper = []

    def work(item):
        started.append(item)
        if item == 0:
            assert helper_busy.wait(10)
            raise KeyboardInterrupt
        helper.append(threading.current_thread())
        helper_busy.set()
        release.wait(10)
        return item

    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fan_out(work, range(6), 2)
    # returned while the helper's item still ran: no wait, no drain
    assert not release.is_set()
    assert time.monotonic() - began < 5
    release.set()
    helper[0].join(timeout=10)
    assert not helper[0].is_alive()
    assert sorted(started) == [0, 1]
