"""Bounded memos of values that a pass computes more than once:
``functools.lru_cache`` functions, registered so that ``engine.clear_cache()``
empties them.  Each evicts its least recently used entry when full and counts
its hits and misses (``cache_info()``)."""

import functools

LIMIT = 4096  # entries of the engine's pair cache, and of a memo by default

MEMOS: list = []


def memo(maxsize: int = LIMIT):
    """Decorator: memoise a function in an LRU cache of ``maxsize`` entries,
    registered in :data:`MEMOS`."""

    def register(fn):
        cached = functools.lru_cache(maxsize)(fn)
        MEMOS.append(cached)
        return cached

    return register
