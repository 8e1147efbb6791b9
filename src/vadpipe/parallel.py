"""One clip's work as contiguous chunks on a shared thread pool.

numpy's FFTs and ufunc loops release the GIL, so the chunks of one clip run
on separate CPUs. A chunk function does array work only: whatever it needs
from elsewhere in the package (a filterbank, a noise profile) is resolved
by the caller first, and the results come back in chunk order, so the
outcome does not depend on the thread count. Each thread has its own chunk
budget (set_threads), and its chunks run on the pool under that budget:
`eval --jobs N` runs N clip threads, each with max(1, cpus // N) chunk
threads. At `--jobs 1`, the only setting perfbench traces, every function
its tracer wraps runs on the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_local = threading.local()   # .budget: set_threads; unset or None means every usable CPU
_pool: ThreadPoolExecutor | None = None
_pool_pid: int | None = None
_pool_size = 0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one
    (so `taskset` limits it), else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def threads() -> int:
    """Chunks per clip on this thread: its set_threads budget, else every usable CPU."""
    return getattr(_local, "budget", None) or usable_cpus()


def set_threads(count: int | None) -> None:
    """Set the calling thread's chunk budget, which the pool threads running
    its chunks share; None means every usable CPU. `eval --jobs N` gives each
    of its N clip threads max(1, cpus // N); at `--jobs 1`, the one setting
    perfbench traces, the clips run on the calling thread, under its budget."""
    _local.budget = count


def _pool_with(workers: int) -> ThreadPoolExecutor:
    # Made lazily, and made again in a forked child: the child inherits the
    # parent's pool object but none of its threads, so work submitted to it
    # would never start. A pool that is replaced is not shut down, as another
    # thread may be submitting to it; its threads exit once it is garbage.
    # Clip threads share it: their budgets, less the chunk each runs itself, fit cpus - 1.
    global _pool, _pool_pid, _pool_size
    workers = max(workers, usable_cpus() - 1)
    if _pool is None or _pool_pid != os.getpid() or _pool_size < workers:
        _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="vadpipe")
        _pool_pid, _pool_size = os.getpid(), workers
    return _pool


def chunk_bounds(count: int, parts: int) -> list[tuple[int, int]]:
    """range(count) as `parts` contiguous (start, stop) pairs whose sizes
    differ by at most one."""
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def map_chunks(fn, count: int, min_chunk: int = 1) -> list:
    """[fn(start, stop) for each chunk of range(count)], one chunk per
    thread of the caller's budget, each at least min_chunk long.

    The calling thread runs the first chunk itself and the pool the rest,
    each under the caller's budget; a chunk no pool thread has started by
    the time the caller is done, as when the host has not yet run that
    thread, the caller runs as well. With one chunk, fn(0, count) runs
    inline. fn may call map_chunks in turn (a pool thread scoring a long row
    splits its frames): nesting cannot deadlock, because a caller waits only
    on chunks that have started, and runs the unstarted ones itself.
    """
    budget = threads()
    parts = min(count // min_chunk, budget)
    if parts <= 1:
        return [fn(0, count)]

    def pooled(start: int, stop: int):   # a pool thread takes on the caller's budget
        _local.budget = budget
        return fn(start, stop)

    bounds = chunk_bounds(count, parts)
    futures = [_pool_with(parts - 1).submit(pooled, *b) for b in bounds[1:]]
    try:
        results = {0: fn(*bounds[0])}
        for i in reversed(range(1, parts)):   # the last submitted is the least likely started
            if futures[i - 1].cancel():
                results[i] = fn(*bounds[i])
    except BaseException:
        wait([f for f in futures if not f.cancel()])   # none outlives its arrays
        raise
    return [results[i] if i in results else futures[i - 1].result() for i in range(parts)]
