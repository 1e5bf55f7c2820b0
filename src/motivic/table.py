"""A process-wide table: a dict kept under a bound in bytes.  Its one user is
the convolution kernel's table of pair rules, convolve._rules.

Its owner sizes each entry by its own image (what marshal writes of it) and
keeps it with keep(); held counts the kept bytes, at most limit.  An entry
whose own size passes the limit is never kept, and one that would pass it
clears the table whole first.  Writes take the lock; reads are the dict's own
get, with no lock and no Python call, and the values kept are never mutated.
"""

import threading


class Table(dict):
    """A dict of at most limit counted bytes, held of them kept."""

    __slots__ = ("limit", "held", "lock")

    def __init__(self, limit: int):
        self.limit, self.held, self.lock = limit, 0, threading.RLock()

    def clear(self) -> None:
        with self.lock:
            super().clear()
            self.held = 0

    def keep(self, size: int, value, key, *inner) -> None:
        """Keep value, counted as size bytes, at self[key], or at
        self[key][inner[0]] in a table of rows."""
        if size <= self.limit:
            with self.lock:
                if self.held + size > self.limit:
                    self.clear()
                row, key = (self.setdefault(key, {}), inner[0]) if inner else (self, key)
                if key not in row:  # another thread may have kept it since the miss
                    row[key] = value
                    self.held += size
