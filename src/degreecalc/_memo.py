"""Bounded memos of values that a pass computes more than once: plain dicts
that ``engine.clear_cache()`` empties, each looked up by the caller's own
``m.get(key)``."""

from typing import TypeVar

V = TypeVar("V")

MEMOS: list[dict] = []


def memo() -> dict:
    """A new empty memo, registered in :data:`MEMOS`."""
    m: dict = {}
    MEMOS.append(m)
    return m


def store(m: dict, key: object, value: V, limit: int = 4096) -> V:
    """Store ``value`` under ``key``, first clearing ``m`` whole if it holds
    ``limit`` entries, and return ``value``."""
    if len(m) >= limit:
        m.clear()
    m[key] = value
    return value
