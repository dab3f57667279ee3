"""An ordered map over forked worker processes, for work items that do not depend on each other.

``pmap(fn, items)`` yields ``fn(item)`` for each item, in item order.  The
bootstrap refits of a gbt or lasso meta-learner, the simulation study's runs,
the two arm fits of a tree plug-in, and the row blocks of a large table that
``layout`` writes go through it.  A task runs the same code on the
same inputs as the loop would, and its result comes back in item order, so
what the program writes does not depend on how many workers ran.

Workers are started with ``fork``: a task reads its model spec, training rows
and query rows from the memory the worker was forked with, and only each item
and its result are pickled.  One worker runs per CPU this process may run on
(``os.sched_getaffinity``), so ``taskset`` limits them.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from itertools import chain, islice

__all__ = ["pmap"]

# the worker's fn; set by _install in each worker, never in the calling process
_task = None


def _workers() -> int:
    """How many worker processes a pool may start: 1 where none may start."""
    # Python 3.12 warns when a process with threads forks, and OpenBLAS runs threads
    if sys.platform != "linux" or sys.version_info >= (3, 12):
        return 1
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1  # already a worker: no nested pools
    return len(os.sched_getaffinity(0))


def _install(fn) -> None:
    global _task
    _task = fn


def _call(item):
    return _task(item)


def pmap(fn, items):
    """``map(fn, items)``, computed in forked worker processes.

    A generator of the results in item order.  Items are drawn from
    ``items`` in order, in this process, at most two per worker ahead of the
    results read, so ``items`` may be a generator that draws as it goes, and
    the caller may use each result before the later ones are done.  ``fn``
    reaches the workers by fork, so it may be a closure; each item and result
    is pickled.  An exception raised by ``fn`` is raised here with its type
    and message, after the workers have stopped.  The workers also stop when
    the generator is closed, as when the loop that reads it is left early.

    The plain loop runs here instead when there are fewer than two items, when
    this process may run on one CPU only, inside a worker, off Linux, and on
    Python 3.12 and later.
    """
    items = iter(items)
    head = list(islice(items, 2))
    workers = _workers() if len(head) == 2 else 1
    if workers < 2:
        yield from map(fn, chain(head, items))
        return
    head += islice(items, workers - 2)  # no more workers than items

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        len(head), mp_context=multiprocessing.get_context("fork"),
        initializer=_install, initargs=(fn,),
    )
    try:
        pending = deque()
        for item in chain(head, items):
            if len(pending) == 2 * len(head):
                yield pending.popleft().result()
            pending.append(pool.submit(_call, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
