import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bisect_oracle, random_history
from historiographer.attack import _groups
from historiographer.history import DEFAULT_ALPHABET, RankedHistory, SearchHistory, normalize
from historiographer.oracle import (
    PrefixTooShortError,
    SuggestIndex,
    SuggestionResponse,
    UnnormalizedPrefixError,
    default_ranking,
    suggest,
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
        assert set(resp.texts) == {
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
        assert resp.texts == [e[0] for e in expected]
        assert resp.texts == ["cobalt", "coffee", "code"]

    def test_prefix_too_short(self):
        with pytest.raises(PrefixTooShortError):
            suggest(make_history([("aa", 1, 1, True)]), "a")

    def test_unnormalized_prefix(self):
        with pytest.raises(UnnormalizedPrefixError):
            suggest(make_history([("aa", 1, 1, True)]), "Aa")

    def test_trailing_space_prefix_allowed(self):
        hist = make_history([("pets 2010", 1, 1, True)])
        resp = suggest(hist, "pets ")
        assert resp.texts == ["pets 2010"]

    def test_unclicked_never_served(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("pets 10", 100)
        resp = suggest(hist, "pe")
        assert resp.history_count == 0

    def test_response_size_cap(self):
        # five matches and three served: count and time tie, so by query
        hist = make_history([(f"co{c}", 1, 1, True) for c in "abcde"])
        resp = suggest(hist, "co")
        assert resp.texts == ["coa", "cob", "coc"]
        assert resp.history_count == 3

    def test_deterministic_serialization(self):
        hist = make_history([("cobalt", 2, 50, True), ("code", 1, 80, True)])
        a = json.dumps(vars(suggest(hist, "co")))
        assert a == json.dumps(vars(suggest(hist, "co")))
        assert a == '{"prefix": "co", "texts": ["cobalt", "code"]}'

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
            served = set(resp.texts)
            # soundness: every served text is a clicked match
            assert served <= matching
            assert resp.history_count == len(resp.texts) <= 3
            # completeness below the cap
            if len(matching) < 4:
                assert served == matching


def scan_suggest(history, prefix):
    """Linear-scan reference for SuggestIndex: every entry tested in history
    order, matches ranked by count, then recency, then query, as the oracle
    states its ranking."""
    if len(prefix) < 2:
        raise PrefixTooShortError(prefix)
    if normalize(prefix) != prefix.rstrip(" ") or prefix.endswith("  "):
        raise UnnormalizedPrefixError(prefix)
    matches = []
    for entry in history.entries.values():
        if entry.clicked and entry.query.startswith(prefix):
            matches.append(entry)
    matches.sort(key=lambda e: (-e.count, -e.last_time, e.query))
    return SuggestionResponse(prefix, [e.query for e in matches[:3]])


SEARCHES = st.lists(
    st.tuples(
        st.sampled_from(["co", "cob", "code", "code x", "coffee", "cool", "dog", "do", "dot 2"]),
        st.integers(0, 50),
        st.booleans(),
    ),
    max_size=30,
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
        return response

    @given(
        SEARCHES,
        st.lists(st.one_of(st.text(max_size=6), st.text("cdfoxe 2", max_size=7)), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_scan(self, searches, texts):
        hist = self.build(searches)
        index = SuggestIndex(hist)
        # the tests' reference oracle for the heap loop
        bisecting = bisect_oracle(hist)
        prefixes = [q[:k] for q in hist.entries for k in range(len(q) + 2)] + texts
        for prefix in prefixes:
            expected = self.outcome(lambda p: scan_suggest(hist, p), prefix)
            assert self.outcome(index, prefix) == expected
            assert self.outcome(lambda p: suggest(hist, p), prefix) == expected
            assert self.outcome(bisecting, prefix) == expected

    def test_suggest_serves_as_the_index(self, wordlist):
        # suggest ranks only the matching entries; it serves and refuses
        # every prefix as SuggestIndex does, with the same message
        rng = random.Random(6)
        # few words under few prefixes, so that queries repeat and compete
        words = [w for w in wordlist if w.startswith(("co", "th"))][:30] + ["x", "Two  Spaces"]
        histories = [random_history(rng, words, max_entries=120) for _ in range(4)]
        # counts and times that tie, so the query order decides
        ties = [("cobalt", 2, 5, True), ("co", 2, 5, True), ("cod", 1, 9, True)]
        histories.append(make_history(ties))
        for hist in histories:
            index = SuggestIndex(hist)
            prefixes = {q[:k] for q in hist.entries for k in range(len(q) + 2)}
            prefixes |= {"", "c", "Co", "co  ", "co ", "\u00e9t", "zz"}
            for prefix in sorted(prefixes):
                assert self.refusal_or(suggest, hist, prefix) == self.refusal_or(
                    lambda _, p: index(p), hist, prefix
                )

    @staticmethod
    def refusal_or(fn, hist, prefix):
        try:
            return fn(hist, prefix)
        except Exception as exc:
            return type(exc), str(exc)

    def test_top_code_point_in_prefix(self):
        # the alphabet's highest character, so no bound above it exists
        top = max(DEFAULT_ALPHABET)
        hist = SearchHistory(user_id="u")
        for query in ["a" + top, "a" + top + "b", "b", "a" + top + top]:
            hist.insert_search(query, 1, "http://example.com")
        index = SuggestIndex(hist)
        expected = ["a" + top, "a" + top + "b", "a" + top + top]
        assert sorted(index("a" + top).texts) == sorted(expected)
        assert index(top + top).texts == []
        # a character past the alphabet is refused before any bisection
        with pytest.raises(UnnormalizedPrefixError):
            index("a" + chr(0x10FFFF))

    def test_run_ends(self):
        top = max(DEFAULT_ALPHABET)
        hist = SearchHistory(user_id="u")
        for query in ["ab", "abc", "abx", "by", "b" + top, "b" + top + "a", "xy", "xyz"]:
            hist.insert_search(query, 1, "http://example.com")
        index = SuggestIndex(hist)

        def served(prefix):
            return sorted(index(prefix).texts)

        # in sorted order: ab, abc, abx, by, b<top>, b<top>a, xy, xyz
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
        index("co").texts.append("x")
        assert index("co").texts == ["cobalt"]

    def test_no_caller_changes_what_it_serves(self):
        hist = make_history([("cobalt", 2, 1, True), ("code", 1, 1, True)])
        index = SuggestIndex(hist)
        with pytest.raises(AttributeError):
            index.ranked.append("cow")
        hist.insert_search("cow", 9, "http://example.com/cow")
        assert index("co").texts == ["cobalt", "code"]
        ranked = RankedHistory("u", 2, hist.ranked)
        with pytest.raises(AttributeError):
            ranked.ranked = ()
        assert SuggestIndex(ranked)("co").texts == ["cobalt", "cow", "code"]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["co", "cob", "code", "code x", "coffee", "cool", "cot", "do"]),
                st.integers(0, 3),  # few times, so counts and recencies tie
                st.booleans(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_level_pass_matches_linear_scan(self, searches):
        hist = self.build(searches)
        ranked = list(SuggestIndex(hist).ranked)
        clicked = [e for e in hist.entries.values() if e.clicked]
        assert ranked == [e.query for e in sorted(clicked, key=default_ranking)]
        for n in range(2, 8):
            groups = _groups(ranked, n)
            # a query shorter than n is served under no prefix of length n
            assert {p for p in groups if len(p) == n} == {q[:n] for q in ranked if len(q) >= n}
            for prefix in {q[:n] for q in hist.entries if len(q) >= n}:
                group = groups.get(prefix, [])
                assert group[:3] == scan_suggest(hist, prefix).texts
                # the whole group, in rank order
                assert group == [q for q in ranked if q.startswith(prefix)]


def old_prefix_check(prefix):
    """The check every request makes, written out on its own: the error
    type it raises, or None."""
    if len(prefix) < 2:
        return PrefixTooShortError
    if normalize(prefix) != prefix.rstrip(" ") or prefix.endswith("  "):
        return UnnormalizedPrefixError
    return None


class TestPrefixCheck:
    @staticmethod
    def check(index, prefix):
        try:
            index(prefix)
        except Exception as exc:
            return type(exc)
        return None

    @given(st.lists(st.one_of(st.text(max_size=6), st.text("abzq1 C", max_size=5)), max_size=10))
    @example([" a"])
    @example(["a  "])
    @example(["ab  c"])
    @example(["  "])
    @example(["AB"])
    @example(["İa"])
    @example(["ẞa"])
    @example(["a\tb"])
    @example(["a\xa0b"])
    @example(["ab "])
    @settings(max_examples=200, deadline=None)
    def test_accepts_what_normalize_accepts(self, texts):
        index = SuggestIndex(SearchHistory("u"))
        for _ in range(2):
            for prefix in texts:
                assert self.check(index, prefix) == old_prefix_check(prefix)

    @pytest.mark.parametrize(
        "prefix, alphabet, normalized, error",
        [
            ("zq", DEFAULT_ALPHABET, "zq", None),
            ("a1", DEFAULT_ALPHABET, "a1", None),
            ("ab c", DEFAULT_ALPHABET, "ab c", None),
            ("ab ", DEFAULT_ALPHABET, "ab", None),
        ],
    )
    def test_normalize_decides_each_alphabet(self, prefix, alphabet, normalized, error):
        # normalize keeps the one alphabet the oracle serves
        assert normalize(prefix) == normalized
        assert set(normalized) <= set(alphabet)
        assert old_prefix_check(prefix) is error
        assert self.check(SuggestIndex(SearchHistory("u")), prefix) is error
