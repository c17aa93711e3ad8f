"""Fork-join on two cores: one share of a job done in a forked child.

`Forked(make)` forks on entry. `make()` returns the share as an iterable of
bytes, computed only from what the parent holds at the fork, so every call
gives the same bytes. The child writes them to a pipe and ends in
`os._exit`, flushing no buffer and running no exit handler. The parent does
its own share, then takes the child's with `blocks()`, which goes on with
the rest of `make()`, run here, if the child did not end cleanly or none was
made: where `os.fork` is missing, other threads run (a fork could deadlock
the child) or the fork fails. Leaving the block kills and reaps a child
still running. Stdlib only: importing it loads no other module of the
package, so `python -m tarifflab.synthetic` stays light.
"""

from __future__ import annotations

import os
import sys

BLOCK = 1 << 20


class Forked:
    def __init__(self, make):
        self._make = make
        self._pid = self._fd = None

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
                data = memoryview(b"".join(self._make()))
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
        """The share: the child's bytes, up to `BLOCK` at a time, then the
        bytes of `make()` after them if the child did not end cleanly."""
        size = 0
        if self._pid is not None:
            while block := os.read(self._fd, BLOCK):
                size += len(block)
                yield block
            pid, self._pid = self._pid, None
            try:
                if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
                    return
            except ChildProcessError:  # reaped elsewhere: its end is unknown
                pass
        for chunk in self._make():
            if size < len(chunk):
                yield chunk[size:]
            size = max(0, size - len(chunk))

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
