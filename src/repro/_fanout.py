"""Map a function over a list on the calling thread plus a few helpers.

Campaign rounds, native-batch shards and real-thread hybrid slices are
lists of independent items.  :func:`fan_out` runs item 0 on the calling
thread and starts at most ``workers - 1`` plain daemon threads; every
thread takes the next untaken item until none is left.  So ``workers``
counts items in flight, the caller included, and one worker or one item
starts no thread.  After an item raises, no thread takes a new item;
once the running ones finish, the error of the first failing item by
item order is raised.  A ``KeyboardInterrupt`` or ``SystemExit`` on the
calling thread propagates at once, without waiting for the helpers.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Sequence

__all__ = ["fan_out"]


def fan_out(
    fn: Callable[[Any], Any], items: Sequence[Any], workers: int,
) -> List[Any]:
    """``[fn(item) for item in items]``, run by the calling thread and at
    most ``workers - 1`` helper threads; results in item order."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    items = list(items)
    helpers = min(workers, len(items)) - 1
    if helpers < 1:
        return [fn(item) for item in items]
    results: List[Any] = [None] * len(items)
    errors: Dict[int, BaseException] = {}
    stop = threading.Event()
    lock = threading.Lock()
    pending = iter(range(1, len(items)))

    def run(index: int, catch) -> bool:
        try:
            results[index] = fn(items[index])
            return True
        except catch as exc:
            with lock:
                errors[index] = exc
                stop.set()
            return False

    def drain(catch) -> None:
        while True:
            with lock:
                index = None if stop.is_set() else next(pending, None)
            if index is None or not run(index, catch):
                return

    threads = [
        threading.Thread(
            target=drain, args=(BaseException,), daemon=True,
            name="repro-fanout",
        )
        for __ in range(helpers)
    ]
    for thread in threads:
        thread.start()
    try:
        # an Exception in the caller's items is recorded like a helper's;
        # anything else (Ctrl-C) stops the hand-out and propagates
        if run(0, Exception):
            drain(Exception)
        for thread in threads:
            thread.join()
    except BaseException:
        with lock:
            stop.set()
        raise
    if errors:
        raise errors[min(errors)]
    return results
