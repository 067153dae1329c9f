"""Provider side: the prefix suggestions served from a user's history."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Tuple

from .history import DEFAULT_ALPHABET, HistoryEntry, SearchHistory

MAX_HISTORY_SUGGESTIONS = 3
MIN_PREFIX_LEN = 2

_ALPHABET = frozenset(DEFAULT_ALPHABET)


class OracleError(Exception):
    pass


class PrefixTooShortError(OracleError):
    """Suggestions are only served for prefixes of length >= 2."""


class UnnormalizedPrefixError(OracleError):
    pass


@dataclass
class SuggestionResponse:
    prefix: str
    # at most MAX_HISTORY_SUGGESTIONS clicked queries, best first
    texts: List[str]

    @property
    def history_count(self) -> int:
        return len(self.texts)


def default_ranking(entry: HistoryEntry) -> Tuple:
    """Best first: most searched, then most recent, then lexicographic. A
    history holds each query once, so no two entries tie."""
    return (-entry.count, -entry.last_time, entry.query)


def prefix_problem(prefix: str) -> Optional[str]:
    """Why the oracle refuses a prefix, as "'p' ...": it is shorter than
    MIN_PREFIX_LEN, or no normalized query starts with it. None if the
    oracle serves it."""
    if len(prefix) < MIN_PREFIX_LEN:
        return f"{prefix!r} shorter than {MIN_PREFIX_LEN}"
    # A valid prefix is any leading slice of a normalized query: characters
    # of DEFAULT_ALPHABET, which is all normalize gives, with single spaces
    # between words, so a single trailing space is legal mid-word-boundary.
    if not _ALPHABET.issuperset(prefix) or prefix[0] == " " or "  " in prefix:
        return f"{prefix!r} is not normalized"
    return None


def _check_prefix(prefix: str) -> None:
    problem = prefix_problem(prefix)
    if problem is not None:
        short = len(prefix) < MIN_PREFIX_LEN
        raise (PrefixTooShortError if short else UnnormalizedPrefixError)(f"prefix {problem}")


class SuggestIndex:
    """One history's suggestion server, built once and asked many times.

    The clicked entries are sorted once by query, so the entries a prefix
    matches form one contiguous run found by bisection. A request ranks only
    that run: O(log n + matches) instead of a scan over the whole history,
    and a prefix that matches nothing costs one bisection.
    """

    def __init__(self, history: SearchHistory):
        self._entries = sorted(
            (e for e in history.entries.values() if e.clicked), key=attrgetter("query")
        )
        self._queries = [e.query for e in self._entries]

    def __call__(self, prefix: str) -> SuggestionResponse:
        """The top-3 clicked entries whose query starts with the prefix,
        under default_ranking."""
        _check_prefix(prefix)
        queries = self._queries
        lo = bisect_left(queries, prefix)
        if lo == len(queries) or not queries[lo].startswith(prefix):
            return SuggestionResponse(prefix, [])
        hi = lo + 1
        while hi < len(queries) and queries[hi].startswith(prefix):
            hi += 1
        ranked = sorted(self._entries[lo:hi], key=default_ranking)
        return SuggestionResponse(prefix, [e.query for e in ranked[:MAX_HISTORY_SUGGESTIONS]])

    def ranked_queries(self) -> List[str]:
        """Every clicked query, best first under default_ranking."""
        # Stable sorts from the last key to the first over entries already in
        # query order; queries are unique, so no tie is left to break.
        ranked = sorted(self._entries, key=attrgetter("last_time"), reverse=True)
        ranked.sort(key=attrgetter("count"), reverse=True)
        return [e.query for e in ranked]


def suggest(history: SearchHistory, prefix: str) -> SuggestionResponse:
    """Answer one autocomplete request from a SuggestIndex of the history."""
    return SuggestIndex(history)(prefix)
