"""Increment blocks sampled ahead by a forked process, for ``rates``.

``rates._increment_blocks`` imports this module only for a sweep of more
than one block on a host with a CPU to spare, so other runs do not load it.
"""

import mmap
import os
import signal

import numpy as np


def ring_blocks(sample, spans, block, num_paths, d, factor):
    """The increment pairs of ``rates._increment_blocks`` for ``spans`` from
    a ring: one shared anonymous ``mmap`` of two slots, each of ``block``
    coarse steps' fine words and, at factor > 1, their sums, with block
    ``i`` in slot ``i % 2``. A forked sampler process fills blocks 0, 1, ...
    in turn, each by ``sample(b0, b1, fine)``, which fills the slot's fine
    view and returns ``rates._sample_block``'s pair, and reports each over
    one pipe. It fills block ``i + 2`` only once this side, asked for block
    ``i + 1``, has handed slot ``i % 2`` back over a second pipe; so a
    yielded pair is valid only until the next is requested. The ``finally``
    (at the end, on an error, or on ``close()``) closes the pipes, kills the
    sampler if it is still alive and reaps it.
    """
    plane = num_paths * d
    fine_words = block * factor * plane
    slot_words = fine_words + (0 if factor == 1 else block * plane)
    slots = np.frombuffer(mmap.mmap(-1, 16 * slot_words)).reshape(2, -1)

    def steps(slot, lo, count):  # (count, P, d) views of (count, d, P) words
        return slot[lo:lo + count * plane].reshape(
            count, d, num_paths).transpose(0, 2, 1)

    views = []
    for i, (b0, b1) in enumerate(spans):
        slot = slots[i % 2]
        fine = steps(slot, 0, (b1 - b0) * factor)
        views.append((fine if factor == 1 else
                      steps(slot, fine_words, b1 - b0), fine))

    def fill(i):
        sums, fine = views[i]
        halved, _ = sample(*spans[i], fine)
        if sums is not fine:
            sums[...] = halved

    fds = ready_r, ready_w, free_r, free_w = os.pipe() + os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        _sampler(fill, len(spans), ready_w, free_r, (ready_r, free_w))
    os.close(ready_w)
    os.close(free_r)
    try:
        for i, pair in enumerate(views):
            if os.read(ready_r, 1) != b"r":  # x and a message, or EOF
                detail = os.read(ready_r, 4096).decode(errors="replace")
                raise RuntimeError("the increment sampler failed before "
                                   f"block {i}: {detail or 'it exited'}")
            yield pair
            if i + 2 < len(views):  # block i is dropped: its slot is free
                os.write(free_w, b"f")
    finally:
        os.close(ready_r)
        os.close(free_w)
        os.kill(pid, signal.SIGKILL)  # a no-op on an exited sampler
        os.waitpid(pid, 0)


def _sampler(fill, count, ready_w, free_r, parent_fds):
    """The sampler process: ``fill`` blocks 0 to ``count - 1``, from block
    2 on each after a slot token, and report each, or ``x`` and the error.
    It stops at the end of the free pipe and leaves only by ``os._exit``."""
    code = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        for i in range(count):
            if i >= 2 and os.read(free_r, 1) != b"f":
                break  # the consumer has gone
            fill(i)
            os.write(ready_w, b"r")
        code = 0
    except BaseException as exc:
        try:
            os.write(ready_w, b"x" + f"{type(exc).__name__}: {exc}".encode(
                errors="replace")[:4000])
        except OSError:
            pass
    finally:
        os._exit(code)
