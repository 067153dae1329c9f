"""Provider side: the prefix suggestions served from a user's history."""

from __future__ import annotations

from itertools import islice
from operator import attrgetter
from typing import List, Optional, Tuple, Union

from .history import DEFAULT_ALPHABET, HistoryEntry, RankedHistory, Record, SearchHistory, rank

MAX_HISTORY_SUGGESTIONS = 3
MIN_PREFIX_LEN = 2

_ALPHABET = frozenset(DEFAULT_ALPHABET)


class OracleError(Exception):
    """A prefix the oracle refuses to serve; the CLI exits 3."""


class SuggestionResponse(Record):
    _fields = ("prefix", "texts")

    def __init__(self, prefix: str, texts: List[str]):
        self.prefix = prefix
        # at most MAX_HISTORY_SUGGESTIONS clicked queries, best first
        self.texts = texts

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
        raise OracleError(f"prefix {problem}")


class SuggestIndex:
    """One history's suggestion server, built once and asked many times.

    It keeps only the history's clicked queries, best first (its ranked),
    so a request is the first MAX_HISTORY_SUGGESTIONS of them that start
    with the prefix, and the scan stops once it has them. The history is a
    SearchHistory or a RankedHistory, and ranked ranks both by one rule.
    """

    def __init__(self, history: Union[SearchHistory, RankedHistory]):
        # a tuple, so no caller can change what the index serves
        self.ranked = history.ranked

    def __call__(self, prefix: str) -> SuggestionResponse:
        """The top-3 clicked queries that start with the prefix, under
        default_ranking."""
        _check_prefix(prefix)
        matches = (q for q in self.ranked if q.startswith(prefix))
        return SuggestionResponse(prefix, list(islice(matches, MAX_HISTORY_SUGGESTIONS)))


def suggest(history: SearchHistory, prefix: str) -> SuggestionResponse:
    """Answer one autocomplete request as SuggestIndex(history) does, ranking
    only the clicked queries that start with the prefix."""
    _check_prefix(prefix)
    matching = [e for e in history.entries.values() if e.clicked and e.query.startswith(prefix)]
    ranked = rank(matching, attrgetter("query"), attrgetter("last_time"), attrgetter("count"))
    return SuggestionResponse(prefix, list(ranked[:MAX_HISTORY_SUGGESTIONS]))
