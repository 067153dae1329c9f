import random
from bisect import bisect_left

import pytest

from historiographer.history import HistoryError, SearchHistory, iter_histories, iter_ranked
from historiographer.oracle import MAX_HISTORY_SUGGESTIONS, SuggestionResponse, _check_prefix


def random_history(rng, vocabulary, max_entries=50, clicked_fraction=0.6, user_id="u"):
    hist = SearchHistory(user_id=user_id)
    for _ in range(rng.randint(0, max_entries)):
        query = rng.choice(vocabulary)
        time = rng.randint(1_000, 1_000_000)
        clicked = rng.random() < clicked_fraction
        url = f"http://example.com/{query.replace(' ', '-')}" if clicked else None
        hist.insert_search(query, time, url)
    return hist


def remade(record, **changes):
    """A new record of record's class, made by its constructor from its
    fields with the given ones changed: for a plan, one that is checked and
    ranked again."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def bisect_oracle(history):
    """A reference oracle for the heap loop that serves what
    SuggestIndex(history) serves: a checked prefix's run of matching
    queries, found by bisecting the clicked queries in query order, and
    the 3 of them that come first in history.ranked."""
    ranked = history.ranked
    # rank positions in query order
    by_query = sorted(range(len(ranked)), key=ranked.__getitem__)
    queries = [ranked[i] for i in by_query]

    def oracle(prefix):
        _check_prefix(prefix)
        lo = hi = bisect_left(queries, prefix)
        while hi < len(queries) and queries[hi].startswith(prefix):
            hi += 1
        best = sorted(by_query[lo:hi])[:MAX_HISTORY_SUGGESTIONS]
        return SuggestionResponse(prefix, [ranked[i] for i in best])

    return oracle


def read_both(path):
    """What iter_histories and iter_ranked each read from a history file:
    the user id, n_h, n_c and ranked queries of each history, and the text
    of the error that stopped the reading, or None."""

    def read(histories):
        got = []
        try:
            for hist in histories:
                got.append((hist.user_id, hist.n_h, hist.n_c, hist.ranked))
        except HistoryError as exc:
            return got, str(exc)
        return got, None

    return read(iter_histories(path)), read(iter_ranked(path))


@pytest.fixture(scope="session")
def wordlist():
    from historiographer.planner import bundled_wordlist

    return bundled_wordlist()


@pytest.fixture
def rng():
    return random.Random(12345)
