"""Growable int columns, filled one value at a time and a block at a time.

Offline capture records each event either through a per-call hook or as
part of a stamped block.  An :class:`IntColumn` takes both without a
round trip through Python ints: a hook appends to a plain list (the
fastest per-value path), a block queues its array at the column's end,
and the first read after either builds the typed array once, splicing
each queued array in where it was added, so the column keeps record
order.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def int64_array(values) -> np.ndarray:
    """``values`` as int64, or as Python ints where one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class IntColumn:
    """One column of ints, read as an int64 array (an object array once
    a value does not fit).

    Per-call writers append to :attr:`pending`; :meth:`add` appends an
    array; :meth:`array` returns the whole column.
    """

    __slots__ = ("pending", "_data", "_queued", "_queued_size")

    def __init__(self):
        self.pending: List[int] = []
        self._data = _frozen(np.zeros(0, dtype=np.int64))
        #: (length of ``pending`` when added, values)
        self._queued: List[Tuple[int, np.ndarray]] = []
        self._queued_size = 0

    def __len__(self) -> int:
        return len(self._data) + len(self.pending) + self._queued_size

    def add(self, values: np.ndarray) -> None:
        """Append ``values`` after everything appended so far (kept as
        it is until the next read, so the caller must not change it)."""
        self._queued.append((len(self.pending), values))
        self._queued_size += len(values)

    def array(self) -> np.ndarray:
        """The column, read-only; later appends leave it as it is."""
        pending, queued = self.pending, self._queued
        if pending or queued:
            values = int64_array(pending)
            pieces = [self._data]
            start = 0
            for position, block in queued:
                pieces += (values[start:position], block)
                start = position
            pieces.append(values[start:])
            self._data = _frozen(np.concatenate(pieces))
            pending.clear()
            queued.clear()
            self._queued_size = 0
        return self._data
