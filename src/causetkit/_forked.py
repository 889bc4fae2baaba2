"""An ordered map over two processes, in which a forked child computes the
odd items; it knows nothing of what it maps, as a lattice's time slices."""

import gc
import itertools
import os
import signal
import threading


def forked_map(fn, items):
    """Yield `fn(item)`, a text, for each of `items` in order; a forked child
    computes the odd items.

    Both processes iterate over every item, so `items` must give the same ones
    in each, as an iterator of stepped lattice fields does.  The child sends
    each odd item's text through a pipe as an 8-byte length and its UTF-8
    bytes, so each process holds one text and the pipe bounds how far the
    child runs ahead.  The parent computes the even items, and any odd one
    the pipe does not bring because no process could be forked or the child
    ended, so the results, and any error, are those of `map(fn, items)`.  A
    child left running, as when the output is abandoned, is killed.

    It runs as `map(fn, items)` unless the process can set its CPU mask
    (Linux), may run on a second CPU, and has no other thread, which a fork
    would not copy (3.12 and later warn).
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if len(cpus) < 2 or threading.active_count() > 1:
        yield from map(fn, items)
        return
    # a pipe's reader, woken by its writer, is moved to the writer's CPU, so
    # the two processes would keep sharing one: while the child runs, it has
    # the last CPU allowed and the parent the others
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the pipe has no writer
        pid = None
    if pid == 0:
        _write_odd_items(fn, items, read_fd, write_fd, max(cpus))  # never returns
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            if pid:
                os.sched_setaffinity(0, cpus - {max(cpus)})
            odd = iter(lambda: _read_text(pipe, cpus), None)  # no call after the first None
            for i, item in enumerate(items):
                text = next(odd, None) if i % 2 else None
                if text is None:
                    text = fn(item)
                yield text
                del text  # freed before the next item is made
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.sched_setaffinity(0, cpus)


def _read_text(pipe, cpus: set[int]) -> str | None:
    """The text of the child's next item, or None if the pipe ends first:
    then the child's CPU is free, and the process may run on all of `cpus`."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    text = pipe.read(size)
    if len(head) < 8 or len(text) < size:
        os.sched_setaffinity(0, cpus)
        return None
    return text.decode()


def _write_odd_items(fn, items, read_fd: int, write_fd: int, cpu: int):
    """The forked child: write the text of each odd item to the pipe from
    `cpu` alone, and exit.  Nothing it runs may return into the parent's
    code, write to stdout or stderr, or run the exit handlers and flush the
    buffers it inherited, so it leaves only through os._exit, whatever ends
    it; the parent computes every item it does not send."""
    try:
        gc.freeze()
        os.close(read_fd)
        os.sched_setaffinity(0, {cpu})
        with open(write_fd, "wb") as pipe:
            for item in itertools.islice(items, 1, None, 2):
                text = fn(item).encode()
                pipe.write(len(text).to_bytes(8, "little"))
                pipe.write(text)
                pipe.flush()
    finally:
        os._exit(0)
