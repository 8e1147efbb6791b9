"""A clip's work as tasks on a shared thread pool: map_tasks is the one protocol.

numpy's FFTs and ufunc loops release the GIL, so the tasks of one clip run
on separate CPUs. A task does array work only: whatever it needs from
elsewhere in the package (a filterbank, a noise profile) is resolved by the
caller first, and the results come back in task order, so the outcome does
not depend on the thread count. map_chunks is the case of contiguous
chunks of one range; run_configs hands every config's row chunks of a
clip to one map_tasks call, and eval decodes the next clip meanwhile. Each
thread has its own chunk budget (set_threads), and its tasks run on the
pool under that budget: `eval --jobs N` runs N clip threads, each with
max(1, cpus // N) chunk threads. At `--jobs 1`, the only setting perfbench
traces, every function its tracer wraps runs on the calling thread.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
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


def chunk_tasks(fn, count: int, min_chunk: int = 1) -> list:
    """fn(start, stop) for each chunk of range(count), as map_tasks tasks: one
    chunk per thread of the caller's budget, each at least min_chunk long."""
    parts = max(1, min(count // min_chunk, threads()))
    return [functools.partial(fn, *b) for b in chunk_bounds(count, parts)]


def map_chunks(fn, count: int, min_chunk: int = 1) -> list:
    """[fn(start, stop) for each chunk of range(count)]: map_tasks over
    chunk_tasks. The first chunk goes at the back of the task list, so the
    calling thread runs it at once and the pool threads start on the rest."""
    tasks = chunk_tasks(fn, count, min_chunk)
    results = map_tasks(tasks[1:] + tasks[:1])
    return results[-1:] + results[:-1]


def map_tasks(tasks, meanwhile=None) -> list:
    """[task() for task in tasks], on the pool and the calling thread, with
    meanwhile() run on the calling thread first when it is given.

    Pool threads, as many as the caller's budget allows beside the caller,
    take tasks from the front of the list, each under the caller's budget.
    The caller claims its first piece of work before any of them starts
    (meanwhile, else the last task), then takes the tasks no pool thread has
    started from the back, as when the host has not yet run a pool thread.
    With no pool thread to spare, everything runs inline. A task may call
    map_tasks in turn (a pool thread scoring a long row splits its frames):
    nesting cannot deadlock, because a caller waits only on tasks that have
    started, and runs the unstarted ones itself. A task that raises stops
    the hand-out; its exception propagates once every started task is done,
    so none outlives the arrays it works on.
    """
    todo = deque(enumerate(tasks))
    count = len(todo)
    budget = threads()
    workers = min(budget - 1, count - (meanwhile is None))
    if workers < 1:
        if meanwhile is not None:
            meanwhile()
        return [task() for _, task in todo]
    results, errors = {}, []

    def run(i: int, task) -> None:
        try:
            results[i] = task()
        except BaseException as exc:
            errors.append(exc)

    def drain(take) -> None:
        while todo and not errors:
            try:
                i, task = take()
            except IndexError:   # another thread took the last task; pops are atomic
                return
            run(i, task)

    def pooled() -> None:   # a pool thread takes on the caller's budget
        _local.budget = budget
        drain(todo.popleft)

    first = todo.pop() if meanwhile is None else (count, meanwhile)
    pool = _pool_with(workers)
    futures = [pool.submit(pooled) for _ in range(workers)]
    run(*first)
    drain(todo.pop)
    wait([f for f in futures if not f.cancel()])
    if errors:
        raise errors[0]
    return [results[i] for i in range(count)]
