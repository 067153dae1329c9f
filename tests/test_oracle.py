import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from historiographer.history import DEFAULT_ALPHABET, SearchHistory, normalize
from historiographer.oracle import (
    CustomizationMarker,
    InvalidSessionError,
    MapsHistoryEntry,
    Origin,
    PrefixTooShortError,
    Session,
    Suggestion,
    SuggestIndex,
    SuggestionResponse,
    UnnormalizedPrefixError,
    default_ranking,
    maps_dump,
    mobile_dump,
    suggest,
    targeted_check,
)


def make_history(entries):
    """entries: (query, count, last_time, clicked) tuples."""
    hist = SearchHistory(user_id="u")
    for query, count, last_time, clicked in entries:
        url = f"http://example.com/{query.replace(' ', '-')}" if clicked else None
        for i in range(count):
            hist.insert_search(query, last_time - (count - 1 - i), url)
    return hist


class TestSuggest:
    def test_history_entries_flagged(self):
        hist = make_history(
            [
                ("privacy", 1, 100, True),
                ("privacy enhancing technologies symposium 2010", 1, 110, True),
            ]
        )
        resp = suggest(hist, "pr")
        assert resp.history_count == 2
        assert set(resp.history_texts()) == {
            "privacy",
            "privacy enhancing technologies symposium 2010",
        }

    def test_empty_history(self):
        resp = suggest(SearchHistory(user_id="u"), "pr")
        assert resp.history_count == 0

    def test_cap_at_three_with_stated_ranking(self):
        # five clicked "co" queries; rank by count desc, recency desc, lex asc
        entries = [
            ("cobalt", 5, 100, True),
            ("coffee", 3, 200, True),
            ("code", 3, 150, True),
            ("cookie", 1, 500, True),
            ("cool", 1, 400, True),
        ]
        # exhaustive sort oracle, independent of suggest()
        expected = sorted(
            entries, key=lambda e: (-e[1], -e[2], e[0])
        )[:3]
        resp = suggest(make_history(entries), "co")
        assert resp.history_count == 3
        assert resp.history_texts() == [e[0] for e in expected]
        assert resp.history_texts() == ["cobalt", "coffee", "code"]

    def test_prefix_too_short(self):
        with pytest.raises(PrefixTooShortError):
            suggest(make_history([("aa", 1, 1, True)]), "a")

    def test_unnormalized_prefix(self):
        with pytest.raises(UnnormalizedPrefixError):
            suggest(make_history([("aa", 1, 1, True)]), "Aa")

    def test_trailing_space_prefix_allowed(self):
        hist = make_history([("pets 2010", 1, 1, True)])
        resp = suggest(hist, "pets ")
        assert resp.history_texts() == ["pets 2010"]

    def test_unclicked_never_served(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("pets 10", 100)
        resp = suggest(hist, "pe")
        assert resp.history_count == 0

    def test_generic_fill_and_dedup(self):
        hist = make_history([("cobalt", 1, 1, True)])
        corpus = ["cobalt", "code", "coffee", "cool", "dog"]
        resp = suggest(hist, "co", generic_corpus=corpus)
        texts = [s.text for s in resp.suggestions]
        assert texts[0] == "cobalt"
        assert texts.count("cobalt") == 1
        assert [s.text for s in resp.suggestions if s.origin is Origin.GENERIC] == [
            "code", "coffee", "cool",
        ]

    def test_response_size_cap(self):
        hist = make_history([(f"co{c}", 1, 1, True) for c in "abcde"])
        corpus = [f"co{c}{d}" for c in "abcdefgh" for d in "xyz"]
        resp = suggest(hist, "co", generic_corpus=corpus)
        assert len(resp.suggestions) == 10
        assert resp.history_count == 3
        origins = [s.origin for s in resp.suggestions]
        assert origins == sorted(origins, key=lambda o: o is not Origin.HISTORY)

    def test_horizon_cutoff(self):
        hist = make_history([("cobalt", 1, 100, True), ("coffee", 1, 900, True)])
        resp = suggest(hist, "co", horizon=500, now=1000)
        assert resp.history_texts() == ["coffee"]

    def test_deterministic_serialization(self):
        hist = make_history([("cobalt", 2, 50, True), ("code", 1, 80, True)])
        a = suggest(hist, "co", generic_corpus=["cool"]).to_json()
        b = suggest(hist, "co", generic_corpus=["cool"]).to_json()
        assert a == b

    @given(st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_soundness_and_completeness_at_cap(self, seed):
        from conftest import random_history

        rng = random.Random(seed)
        vocab = ["cobalt", "code", "coffee", "cool", "cookie", "dog", "door", "dot"]
        hist = random_history(rng, vocab)
        for prefix in ("co", "do"):
            resp = suggest(hist, prefix)
            matching = {
                q
                for q, e in hist.entries.items()
                if e.clicked and q.startswith(prefix)
            }
            served = set(resp.history_texts())
            # soundness: every history-flagged text is a clicked match
            assert served <= matching
            assert resp.history_count <= 3
            assert len(resp.suggestions) <= 10
            # completeness below the cap
            if len(matching) < 4:
                assert served == matching


def scan_suggest(history, prefix, ranking=default_ranking, horizon=None, now=None):
    """Linear-scan reference for SuggestIndex: every entry tested in history
    order, matches ranked by a stable sort."""
    if len(prefix) < 2:
        raise PrefixTooShortError(prefix)
    if normalize(prefix, history.alphabet) != prefix.rstrip(" ") or prefix.endswith("  "):
        raise UnnormalizedPrefixError(prefix)
    matches = []
    for entry in history.entries.values():
        if not entry.clicked or not entry.query.startswith(prefix):
            continue
        if horizon is not None and entry.last_time < (now or 0) - horizon:
            continue
        matches.append(entry)
    matches.sort(key=ranking)
    return SuggestionResponse(
        prefix, [Suggestion(e.query, Origin.HISTORY) for e in matches[:3]]
    )


def count_only_ranking(entry):
    # Many ties: only the history order separates equal counts.
    return -entry.count


SEARCHES = st.lists(
    st.tuples(
        st.sampled_from(["co", "cob", "code", "code x", "coffee", "cool", "dog", "do", "dot 2"]),
        st.integers(0, 50),
        st.booleans(),
    ),
    max_size=30,
)
RANKINGS = st.sampled_from([default_ranking, count_only_ranking])
WINDOWS = st.one_of(
    st.tuples(st.none(), st.none()),
    st.tuples(st.integers(0, 50), st.one_of(st.none(), st.integers(0, 60))),
)


class TestSuggestIndex:
    @staticmethod
    def build(searches):
        hist = SearchHistory(user_id="u")
        for query, time, clicked in searches:
            hist.insert_search(query, time, f"http://example.com/{time}" if clicked else None)
        return hist

    @staticmethod
    def outcome(fn, prefix):
        try:
            response = fn(prefix)
        except Exception as exc:
            return type(exc)
        return response.to_json()

    @given(
        SEARCHES,
        RANKINGS,
        WINDOWS,
        st.lists(st.one_of(st.text(max_size=6), st.text("cdfoxe 2", max_size=7)), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_scan(self, searches, ranking, window, texts):
        hist = self.build(searches)
        horizon, now = window
        index = SuggestIndex(hist, ranking, horizon, now)
        prefixes = [q[:k] for q in hist.entries for k in range(len(q) + 2)] + texts
        for prefix in prefixes:
            expected = self.outcome(lambda p: scan_suggest(hist, p, ranking, horizon, now), prefix)
            assert self.outcome(index, prefix) == expected
            assert self.outcome(
                lambda p: suggest(hist, p, ranking=ranking, horizon=horizon, now=now), prefix
            ) == expected

    def test_ties_keep_history_order(self):
        hist = make_history([(q, 1, 10, True) for q in ["cod", "cob", "coa", "coz"]])
        assert SuggestIndex(hist, count_only_ranking)("co").history_texts() == ["cod", "cob", "coa"]

    def test_top_code_point_in_prefix(self):
        top = chr(0x10FFFF)
        hist = SearchHistory(user_id="u", alphabet="ab" + top)
        for query in ["a" + top, "a" + top + "b", "b", "a" + top + top]:
            hist.insert_search(query, 1, "http://example.com")
        index = SuggestIndex(hist)
        expected = ["a" + top, "a" + top + "b", "a" + top + top]
        assert sorted(index("a" + top).history_texts()) == sorted(expected)
        assert index(top + top).history_texts() == []

    def test_run_ends(self):
        top = chr(0x10FFFF)
        hist = SearchHistory(user_id="u", alphabet="abcxyz " + top)
        for query in ["ab", "abc", "abx", "b" + top, "b" + top + "a", "bz", "xy", "xyz"]:
            hist.insert_search(query, 1, "http://example.com")
        index = SuggestIndex(hist)

        def served(prefix):
            return sorted(index(prefix).history_texts())

        # in sorted order: ab, abc, abx, bz, b<top>, b<top>a, xy, xyz
        assert served("xz") == []  # past the last query
        assert served("ac") == []  # between two queries
        assert served("abc") == ["abc"]  # a whole query, run of one
        assert served("xyz") == ["xyz"]  # the last query
        assert served("xy") == ["xy", "xyz"]  # a run to the end
        assert served("ab") == ["ab", "abc", "abx"]
        assert served("b" + top) == ["b" + top, "b" + top + "a"]
        assert served("b" + top + top) == []

    def test_fresh_response_each_call(self):
        index = SuggestIndex(make_history([("cobalt", 1, 1, True)]))
        index("co").suggestions.append(Suggestion("x", Origin.GENERIC))
        assert index("co").history_texts() == ["cobalt"]


def old_prefix_check(prefix, alphabet):
    """The check every request made before checked prefixes were
    remembered: the error type it raises, or None."""
    if len(prefix) < 2:
        return PrefixTooShortError
    if normalize(prefix, alphabet) != prefix.rstrip(" ") or prefix.endswith("  "):
        return UnnormalizedPrefixError
    return None


# "zq" and "a1" pass under the first alphabet only; "ab c" under both.
ALPHABETS = (DEFAULT_ALPHABET, "abcxy ")


class TestPrefixCheck:
    @staticmethod
    def check(index, prefix):
        try:
            index(prefix)
        except Exception as exc:
            return type(exc)
        return None

    @given(st.lists(st.one_of(st.text(max_size=6), st.text("abzq1 C", max_size=5)), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_accepts_what_normalize_accepts(self, texts):
        indexes = [SuggestIndex(SearchHistory("u", alphabet=a)) for a in ALPHABETS]
        for _ in range(2):
            for prefix in texts:
                for alphabet, index in zip(ALPHABETS, indexes):
                    assert self.check(index, prefix) == old_prefix_check(prefix, alphabet)

    @pytest.mark.parametrize("order", [ALPHABETS, ALPHABETS[::-1]])
    def test_checked_prefixes_kept_per_alphabet(self, order):
        prefixes = ["zq", "a1", "ab c", "Ab", "a", "ab  "]
        for _ in range(2):
            for alphabet in order:
                index = SuggestIndex(SearchHistory("u", alphabet=alphabet))
                got = [self.check(index, p) for p in prefixes]
                assert got == [old_prefix_check(p, alphabet) for p in prefixes]


class TestTargetedCheck:
    def test_clicked_url_marked(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("pets 2010", 100, "http://petsymposium.org/2010/")
        markers = targeted_check(hist, ["http://petsymposium.org/2010/"])
        assert markers == [
            CustomizationMarker("http://petsymposium.org/2010/", 1, 100)
        ]

    def test_empty_history(self):
        assert targeted_check(SearchHistory(user_id="u"), ["http://x"]) == []

    def test_partial_intersection(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("aa", 1, "http://a")
        hist.insert_search("bb", 2, "http://b")
        # hand-computed intersection: a and b clicked, c never
        markers = targeted_check(hist, ["http://a", "http://b", "http://c"])
        assert [m.url for m in markers] == ["http://a", "http://b"]

    def test_visit_totals(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("aa", 10, "http://a")
        hist.insert_search("aa", 30, "http://a")
        hist.insert_search("ab", 20, "http://a")
        (marker,) = targeted_check(hist, ["http://a"])
        assert marker.visit_count == 3
        assert marker.last_visit == 30


class TestMapsDump:
    SESSION = Session(sid="tok")

    def test_example_entries(self):
        entries = [
            MapsHistoryEntry(19, "1600 Amphitheatre Parkway Mountain View", "", 1254038860, 13),
            MapsHistoryEntry(20, "Piazza di Spagna, 00187 Roma, Italy", "", 1254251745, 2),
            MapsHistoryEntry(21, "Newark, CA", "", 1255123644, 1),
        ]
        dumped = maps_dump(entries, self.SESSION, "tok")
        assert len(dumped) == 3
        assert {"id": 21, "address": "Newark, CA", "label": "", "created": 1255123644, "count": 1} in dumped

    def test_empty(self):
        assert maps_dump([], self.SESSION, "tok") == []

    def test_single_request_completeness(self):
        entries = [MapsHistoryEntry(i, f"place {i}", "", 1000 + i, 1) for i in range(22)]
        assert len(maps_dump(entries, self.SESSION, "tok")) == 22

    def test_invalid_session(self):
        with pytest.raises(InvalidSessionError):
            maps_dump([], self.SESSION, "wrong")


class TestMobileDump:
    SESSION = Session(sid="tok")

    def test_iphone_gets_unclicked_too(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("pets 10", 100)
        hist.insert_search("pets 2010", 110, "http://petsymposium.org/2010/")
        out = mobile_dump(hist, "Mozilla/5.0 (iPhone; CPU iPhone OS)", self.SESSION, "tok")
        assert out == ["pets 10", "pets 2010"]

    def test_desktop_refused(self):
        hist = SearchHistory(user_id="u")
        out = mobile_dump(hist, "Mozilla/5.0 (X11; Linux)", self.SESSION, "tok")
        assert out is None

    def test_empty_history(self):
        out = mobile_dump(SearchHistory(user_id="u"), "iPhone", self.SESSION, "tok")
        assert out == []

    def test_invalid_session(self):
        with pytest.raises(InvalidSessionError):
            mobile_dump(SearchHistory(user_id="u"), "iPhone", self.SESSION, None)
