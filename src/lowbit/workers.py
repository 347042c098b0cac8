"""Ordered map of independent jobs over forked worker processes.

The per-layer work of a run (one sensitivity probe per layer and option,
one scale search per int-sym layer) reads a large shared state, the
model, its calibration batches and their fp prefixes, and returns a
small result. Forked workers inherit that state from the caller's
memory, so only a job index goes out and only the result comes back.
Each job computes exactly what it would compute in the calling process,
so results, and every output built from them, keep their bytes.

``fork`` is safe here because lowbit starts no threads, and OpenBLAS
rebuilds its thread pool in a forked child: no worker inherits a lock
that another thread holds.
"""

from __future__ import annotations

import os

from .errors import LowbitError

# (fn, items) of the running map; workers inherit it through the fork,
# and a process that sees it set is one of those workers
_JOB = None


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _run(i: int):
    fn, items = _JOB
    return fn(items[i])


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]``, computed in forked worker processes.

    One worker per usable CPU, at most one per item. The jobs run in the
    calling process instead when fewer than two workers would run, when
    the platform cannot fork, or when the caller is itself a worker.
    Results come in input order. A job's exception reaches the caller
    with its own type and message; a worker that dies raises
    :class:`LowbitError`.
    """
    global _JOB
    items = list(items)
    n_workers = min(_cpus(), len(items))
    if n_workers < 2 or _JOB is not None:
        return [fn(x) for x in items]
    # imported here: most commands never map, and these imports cost
    # more than the rest of lowbit's start-up
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _JOB = (fn, items)
    try:
        with ProcessPoolExecutor(
                n_workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run, range(len(items))))
    except BrokenProcessPool as e:
        raise LowbitError(f"a worker process died: {e}") from None
    finally:
        _JOB = None
