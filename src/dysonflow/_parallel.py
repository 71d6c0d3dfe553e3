"""Run independent tasks side by side: this process plus one forked worker per usable CPU.

``_fork_map(fn, items)`` returns ``[fn(x) for x in items]``. With one usable
CPU, one item, or without ``os.fork`` or ``os.sched_getaffinity`` (Windows;
macOS, whose system libraries are not fork-safe) it is exactly that list
comprehension. Otherwise the items are dealt round-robin into one share per
usable CPU, so with as many items as CPUs each share holds one item and
this process runs the first; each other share runs in an ``os.fork()``ed
worker, which sends its results back pickled over a pipe and leaves with
``os._exit``. That exit flushes no file: a worker that writes to a file
flushes it before its ``fn`` returns. Pin the worker count with
``taskset``: ``taskset -c 0`` forks nothing.

Serial semantics hold: when items raise, the exception of the first failing
item in input order is raised, with its type, message and attributes (so
exceptions must pickle). A worker that dies or exits nonzero raises
RuntimeError. On Python >= 3.12, forking while other threads are alive
emits a DeprecationWarning; that is safe here because workers only format,
write and pickle, and never take a lock another thread could hold.
"""

import os
import pickle
import signal
import sys


def _usable_cpus() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _deal(count, n):
    """Item indices 0..count-1 dealt round-robin into at most n shares; each share ascending."""
    return [list(range(k, count, n)) for k in range(min(n, count))]


def _run_share(fn, items, share):
    """(index, ok, result or exception) per item in input order, up to the first that raises."""
    done = []
    for i in share:
        try:
            done.append((i, True, fn(items[i])))
        except Exception as exc:
            done.append((i, False, exc))
            break
    return done


def _serve(fn, items, share, fd):
    """Worker body: run a share, pickle it into the pipe and exit; never returns."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            pickle.dump(_run_share(fn, items, share), pipe)
        code = 0
    except BaseException:  # the parent sees the nonzero status; the traceback goes to stderr
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def _collect(pid, fd):
    with open(fd, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"worker process {pid} exited with status {code}")
    return pickle.loads(data)


def _fork_map(fn, items):
    """``[fn(x) for x in items]``, computed over the usable CPUs."""
    items = list(items)
    cpus = _usable_cpus()
    if cpus < 2 or len(items) < 2:
        return [fn(x) for x in items]
    own, *rest = _deal(len(items), cpus)
    workers = {}  # pid -> read end of its pipe
    try:
        for share in rest:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve(fn, items, share, w)
            os.close(w)  # held here or inherited by later workers, it would delay EOF
            workers[pid] = r
        done = _run_share(fn, items, own)
        for pid in list(workers):
            done += _collect(pid, workers.pop(pid))
    finally:
        for pid, r in workers.items():  # left over only when this process raised
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    done.sort(key=lambda d: d[0])
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for _, _, value in done]
