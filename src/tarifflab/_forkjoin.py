"""Fork-join on two cores: one share of a job done in a forked child.

`Forked(make)` forks on entry. The child runs `make()`, writes the bytes it
returns to a pipe and ends in `os._exit`, so it flushes no buffer and runs
no exit handler. The parent does its own share, then reads the child's bytes
with `blocks()`; after them, `complete` says whether the child ended cleanly,
that is whether the bytes are all there. Leaving the block kills and reaps a
child still running. Where `os.fork` is missing, other threads run (a fork
could deadlock the child) or the fork fails, no child is made: `blocks()`
yields nothing and the caller does the child's share itself, as it does
after any failure of the child. Stdlib only: importing it loads no other
module of the package, so `python -m tarifflab.synthetic` stays light.
"""

from __future__ import annotations

import os
import sys

BLOCK = 1 << 20


class Forked:
    def __init__(self, make):
        self._make = make
        self._pid = self._fd = None
        self.complete = False

    def __enter__(self) -> Forked:
        threading = sys.modules.get("threading")
        if not hasattr(os, "fork") or threading and threading.active_count() > 1:
            return self
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            code = 1
            try:
                os.close(read)
                data = memoryview(self._make())
                while data:
                    data = data[os.write(write, data):]
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        if pid is None:
            os.close(read)
        else:
            self._pid, self._fd = pid, read
        return self

    def blocks(self):
        """The child's bytes, up to `BLOCK` at a time; then the child is reaped."""
        if self._pid is None:
            return
        while block := os.read(self._fd, BLOCK):
            yield block
        pid, self._pid = self._pid, None
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped elsewhere: its end is unknown
            return
        self.complete = os.waitstatus_to_exitcode(status) == 0

    def __exit__(self, *exc) -> None:
        if self._pid is not None:
            from signal import SIGKILL

            try:
                os.kill(self._pid, SIGKILL)
                os.waitpid(self._pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self._pid = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
