"""A clip's work as tasks on a shared thread pool: submit and join are the one protocol.

numpy's FFTs and ufunc loops release the GIL, so the tasks of one clip run
on separate CPUs. A task does array work only: whatever it needs from
elsewhere in the package (a filterbank, a noise profile) is resolved by the
caller first, and join gives the results in task order, so the outcome does
not depend on the thread count.

submit(tasks) queues a batch and returns at once; batch.join() gives its
results. The pool's threads take tasks from one queue, oldest batch first,
and a joining thread runs queued tasks rather than block: its own batch's
first, then those of the later batches it names. A caller may so hand out
several batches before it joins the first, as eval does at `--jobs 1`
(pipeline.run_clips). map_tasks is submit then join, with the caller's own
task claimed first, and map_chunks its case of contiguous chunks of one
range. Each thread has its own chunk budget (set_threads), and each task
runs under its submitter's budget, on whichever thread runs it:
`eval --jobs N` runs N clip threads, each with max(1, cpus // N) chunk
threads. At `--jobs 1`, the only setting perfbench traces, every function
its tracer wraps runs on the calling thread.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque

_local = threading.local()   # .budget: set_threads; unset or None means every usable CPU


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
    its tasks share; None means every usable CPU. `eval --jobs N` gives each
    of its N clip threads max(1, cpus // N); at `--jobs 1`, the one setting
    perfbench traces, the clips are planned and voted on the calling thread,
    under its budget."""
    _local.budget = count


class _Pool:
    """Persistent threads that run queued tasks, oldest batch first.

    Made lazily, and made again in a forked child: the child inherits the
    parent's pool object but none of its threads, and perhaps its lock held,
    so work queued on it would never start. Two threads that first submit
    at once may each make one; the one not kept still runs the batches
    queued on it.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.queued = threading.Condition(self.lock)   # idle pool threads wait here
        self.ended = threading.Condition(self.lock)    # joiners wait here for started tasks
        self.batches: deque[Batch] = deque()   # oldest first; may hold drained batches
        self.size = 0

    def grow(self, size: int) -> None:   # under the lock
        for _ in range(self.size, size):
            threading.Thread(target=self.serve, name=f"vadpipe-{self.size}", daemon=True).start()
            self.size += 1

    def take(self):   # under the lock
        """The oldest queued task as (batch, index), or None."""
        while self.batches:
            batch = self.batches[0]
            if batch.todo:
                return batch, batch.start(batch.todo.popleft())
            self.batches.popleft()
        return None

    def serve(self) -> None:
        while True:
            with self.lock:
                while (job := self.take()) is None:
                    self.queued.wait()
            job[0].run(job[1])


_pool: _Pool | None = None


class Batch:
    """The tasks of one submit call. join() gives their results; cancel()
    drops the unstarted ones."""

    def __init__(self, tasks: list, budget: int, pool: _Pool | None):
        self.tasks = tasks
        # the indices no thread has started; join runs an unqueued batch's tasks
        self.todo = deque(range(len(tasks)) if pool is not None else ())
        self.results = [None] * len(tasks)
        self.running = 0
        self.error: BaseException | None = None
        self.budget = budget   # the submitter's; its tasks run under it
        self.pool = pool   # None: join runs every task on the joining thread

    def start(self, i: int) -> int:   # under the lock
        self.running += 1
        return i

    def run(self, i: int) -> None:
        outer = getattr(_local, "budget", None)
        _local.budget = self.budget
        try:
            result, error = self.tasks[i](), None
        except BaseException as exc:   # raised again by join
            result, error = None, exc
        finally:
            _local.budget = outer
        with self.pool.lock:
            self.running -= 1
            if error is None:
                self.results[i] = result
            elif self.error is None:
                self.error = error
                self.todo.clear()   # stops the hand-out
            self.pool.ended.notify_all()

    def _next(self, others):   # under the lock
        """The next task for the joining thread, or None once this batch is done."""
        while True:
            if self.todo:
                return self, self.start(self.todo.pop())
            if not self.running:
                return None
            for other in others:
                if other.todo:
                    return other, other.start(other.todo.popleft())
            self.pool.ended.wait()

    def join(self, *others: Batch) -> list:
        """[task() for task in tasks], in task order.

        The joining thread takes this batch's unstarted tasks from the back,
        while pool threads take them from the front. Once none is left
        unstarted, it runs the unstarted tasks of `others`, the first batch
        first, each under its submitter's budget, until this batch's started
        tasks have ended. Those must be batches the caller has yet to join,
        and the code around the join must hold none of this thread's scratch
        buffers (dsp.scratch), which their tasks may overwrite; a join inside
        a task names none. It waits only on tasks that have started, so a
        task may submit and join in turn (a pool thread scoring a long row
        splits its frames) without deadlock. A task that raises stops the
        hand-out; its exception propagates once every started task of the
        batch is done, so none outlives the arrays it works on.
        """
        if self.pool is None:
            return [task() for task in self.tasks]
        while True:
            with self.pool.lock:
                job = self._next(others)
            if job is None:
                break
            job[0].run(job[1])
        if self.error is not None:
            raise self.error
        return self.results

    def cancel(self) -> None:
        """Drop the tasks no thread has started, and wait for the started ones."""
        if self.pool is None:
            return
        with self.pool.lock:
            self.todo.clear()
            while self.running:
                self.pool.ended.wait()


def submit(tasks) -> Batch:
    """Queue tasks for the pool and return their Batch at once.

    Pool threads and the joining thread run them. On a budget of one CPU
    nothing is queued: join runs the tasks in order on the joining thread.
    """
    global _pool
    tasks = list(tasks)
    budget = threads()
    if budget == 1 or not tasks:
        return Batch(tasks, budget, None)
    pool = _pool
    if pool is None or pool.pid != os.getpid():
        pool = _pool = _Pool()
    batch = Batch(tasks, budget, pool)
    with pool.lock:
        # One thread fewer than the CPUs, or than the largest budget seen:
        # the joining thread runs tasks too.
        pool.grow(max(budget, usable_cpus()) - 1)
        pool.batches.append(batch)
        pool.queued.notify(len(tasks))
    return batch


def map_tasks(tasks) -> list:
    """[task() for task in tasks], on the pool and the calling thread.

    The caller claims the last task before the others are submitted, so it
    always runs one itself, however fast a pool thread wakes; it then joins
    the others. If its own task raises, the others' unstarted tasks are
    dropped and their started ones waited for first.
    """
    if not tasks:
        return []
    *others, last = tasks
    batch = submit(others)
    try:
        result = last()
    except BaseException:
        batch.cancel()
        raise
    return batch.join() + [result]


def chunk_bounds(count: int, parts: int) -> list[tuple[int, int]]:
    """range(count) as `parts` contiguous (start, stop) pairs whose sizes
    differ by at most one."""
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def chunk_tasks(fn, count: int, min_chunk: int = 1) -> list:
    """fn(start, stop) for each chunk of range(count), as tasks: one chunk
    per thread of the caller's budget, each at least min_chunk long."""
    parts = max(1, min(count // min_chunk, threads()))
    return [functools.partial(fn, *b) for b in chunk_bounds(count, parts)]


def map_chunks(fn, count: int, min_chunk: int = 1) -> list:
    """[fn(start, stop) for each chunk of range(count)]: map_tasks over
    chunk_tasks. The first chunk goes at the back of the task list, so the
    calling thread runs it at once and the pool threads start on the rest."""
    tasks = chunk_tasks(fn, count, min_chunk)
    results = map_tasks(tasks[1:] + tasks[:1])
    return results[-1:] + results[:-1]
