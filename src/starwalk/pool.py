"""Forked worker processes for a list of parts, on pipes alone.

Only a parallel run imports this module, so a serial run neither compiles
nor loads it, nor `pickle`; no thread, pool or queue is started.
"""

from __future__ import annotations

import os
import pickle
from operator import itemgetter
from typing import Callable, NoReturn


def run_forked(parts: list, workers: int, make: Callable) -> list[list]:
    """parts[i]() for every i, in part order, each a list of tuples, from
    this process and workers - 1 forked children.

    Every part index is written up front into one pipe, whose write end is
    closed before the first fork, so each process reads the next index when
    it is free and stops at the end of the pipe: the parts go out as the
    processes ask, in list order. The records are written at once, 4 bytes
    each, so a run with more parts than a pipe holds records blocks before
    it forks; a 64 KiB pipe holds 16 384 of them.

    Each child (`_child`) replies over a pipe of its own and ends in
    os._exit: it never returns into the caller, and never flushes the stdio
    buffers it inherited. Its lists come back as plain tuples, which pickle
    several times faster than named ones, and `make` rebuilds each item.
    The parent re-raises a child's exception. It reaps every child in a
    finally, also when a part raises here: it takes the indices left in the
    hand-out, so the children stop after their current part."""
    handout, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(parts))))
    os.close(feed)
    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    try:
        for _ in range(workers - 1):
            result, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result)
                os.close(out)
                raise
            if pid == 0:
                _child(parts, handout, out, [result, *(r for _, r in children)])
            os.close(out)
            children.append((pid, result))
        done = _pull(parts, handout)
        for _, result in children:
            with open(result, "rb", closefd=False) as stream:
                data = stream.read()
            if not data:
                raise RuntimeError("a worker process ended without sending its results")
            ok, reply = pickle.loads(data)
            if not ok:
                raise reply
            done += [(i, list(map(make, chunk))) for i, chunk in reply]
    finally:
        while os.read(handout, 4096):
            pass
        os.close(handout)
        for pid, result in children:
            os.close(result)
            os.waitpid(pid, 0)
    return [chunk for _, chunk in sorted(done, key=itemgetter(0))]


def _pull(parts: list, handout: int) -> list[tuple[int, list]]:
    """(i, parts[i]()) for every index this process reads from the hand-out
    pipe, one 4-byte record at a time, until the pipe is empty."""
    done = []
    while record := os.read(handout, 4):
        i = int.from_bytes(record, "little")
        done.append((i, parts[i]()))
    return done


def _child(parts: list, handout: int, out: int, unused: list[int]) -> NoReturn:
    """A forked child's whole run: it closes the read ends it inherited, so
    that a write fails once the parent closes its end, pulls parts, sends
    back its (index, list of plain tuples) pairs or the exception a part
    raised, pickled over `out`, and ends in os._exit."""
    status = 1
    try:
        for fd in unused:
            os.close(fd)
        try:
            done = [(i, list(map(tuple, chunk))) for i, chunk in _pull(parts, handout)]
            reply = pickle.dumps((True, done))
        except Exception as exc:
            reply = pickle.dumps((False, exc))
        with open(out, "wb") as stream:
            stream.write(reply)
        status = 0
    finally:
        os._exit(status)
