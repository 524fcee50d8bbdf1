"""Cold-start isolation for the MapCal table memo.

The only memo in the consolidation pipeline is the bounded LRU behind
:func:`repro.core.mapcal.mapcal_table`.  :func:`fresh_cache` empties it so a
timing run (Fig. 7, the repository benchmark) measures cold table builds,
and reports the memo's traffic inside the block.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.mapcal import _build_table


class MemoTraffic:
    """Hits and misses of the table memo since this object was created."""

    def __init__(self) -> None:
        self._start = _build_table.cache_info()

    @property
    def hits(self) -> int:
        return _build_table.cache_info().hits - self._start.hits

    @property
    def misses(self) -> int:
        return _build_table.cache_info().misses - self._start.misses


@contextmanager
def fresh_cache():
    """Empty the table memo and yield its :class:`MemoTraffic` from here on."""
    _build_table.cache_clear()
    yield MemoTraffic()
