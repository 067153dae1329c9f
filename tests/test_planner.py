import json
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from historiographer.history import SearchHistory, normalize
from historiographer.oracle import OracleError, SuggestIndex
from historiographer.planner import (
    EmptyCorpusError,
    PlannerError,
    PrefixPlan,
    build_plan,
    build_stats,
    bundled_wordlist,
    load_corpus,
    select_mass,
)

LETTERS = string.ascii_lowercase


def brute_tally(corpus, length):
    # independent single-pass tally
    out = {}
    for item in corpus:
        if len(item) >= length:
            p = item[:length]
            if all(c in LETTERS for c in p):
                out[p] = out.get(p, 0) + 1
    return out


class TestBuildStats:
    def test_direct_count(self):
        stats = build_stats(["aa", "ab", "aa x"], 2)
        assert stats.counts == {"aa": 2, "ab": 1}

    def test_absent_prefix_is_zero(self):
        stats = build_stats(["aa", "ab"], 2)
        assert stats.counts.get("qr", 0) == 0

    def test_against_independent_tally(self, wordlist):
        stats = build_stats(wordlist, 3)
        assert stats.counts == brute_tally(wordlist, 3)

    def test_short_items_skipped(self):
        stats = build_stats(["a", "abc"], 2)
        assert stats.total() == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_stats([], 2)

    def test_length_below_two(self):
        with pytest.raises(PlannerError):
            build_stats(["aa"], 1)


class TestSelectMass:
    def test_forced_arithmetic(self):
        stats = build_stats(
            ["co"] * 90 + ["de"] * 9 + ["qr"] * 1, 2
        )
        assert select_mass(stats, 0.90) == ["co"]

    def test_mass_one_returns_all_ordered(self):
        stats = build_stats(["aa", "ab", "ab", "zz"], 2)
        assert select_mass(stats, 1.0) == ["ab", "aa", "zz"]

    def test_bad_fraction(self):
        stats = build_stats(["aa"], 2)
        with pytest.raises(PlannerError):
            select_mass(stats, 0.0)

    @given(
        st.lists(st.text(alphabet="abcd", min_size=2, max_size=4), min_size=1, max_size=60),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_nesting(self, corpus, m1, m2):
        if m1 > m2:
            m1, m2 = m2, m1
        stats = build_stats(corpus, 2)
        small = select_mass(stats, m1)
        large = select_mass(stats, m2)
        assert small == large[: len(small)]


class TestBruteForcePlanBounds:
    def test_two_letter_full_enumeration(self):
        # every 2-letter combination present once: exact equality at 26^2
        corpus = [a + b for a in LETTERS for b in LETTERS]
        stats = build_stats(corpus, 2)
        assert len(select_mass(stats, 1.0)) == 26**2

    def test_three_letter_closure(self):
        corpus = [a + b + c for a in LETTERS for b in LETTERS for c in LETTERS]
        stats = build_stats(corpus, 3)
        assert len(select_mass(stats, 1.0)) == 26**3

    def test_subset_corpus_stays_below(self, wordlist):
        stats2 = build_stats(wordlist, 2)
        stats3 = build_stats(wordlist, 3)
        assert len(select_mass(stats2, 1.0)) <= 26**2
        assert len(select_mass(stats3, 1.0)) <= 26**3


@pytest.mark.parametrize(
    "corpus, alphabet, lengths",
    [
        (["cobalt", "code"], "ABC", (2, 3)),
        (["cobalt", "code"], "", (2, 3)),
        (["a", "b"], "ab", (2, 3)),
        (["cobalt", "code"], "abcdefghijklmnopqrstuvwxyz", (7, 8)),
    ],
)
def test_seedless_plan_refused(corpus, alphabet, lengths):
    with pytest.raises(PlannerError) as exc_info:
        build_plan(corpus, 0.9, lengths=lengths, alphabet=alphabet)
    message = str(exc_info.value)
    assert repr(alphabet) in message and f"length-{lengths[0]} prefix" in message


class TestExtend:
    def test_children_follow_three_letter_frequency(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        children = plan.extend("co")
        tally = brute_tally(wordlist, 3)
        expected_order = sorted(
            (p for p in children), key=lambda p: (-tally[p], p)
        )
        assert children == expected_order
        assert children, "corpus has co* words"
        assert all(p.startswith("co") and len(p) == 3 for p in children)
        assert all(tally[p] > 0 for p in children)

    def test_zero_count_prefix_has_no_children(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        assert plan.extend("qj") == []

    def test_fallback_appends_alphabet(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        children = plan.extend("cobb")  # beyond the deepest stats level
        assert len(children) == len(plan.alphabet)
        assert sorted(c[-1] for c in children) == sorted(plan.alphabet)

    def test_extend_shape_property(self, wordlist):
        plan = build_plan(wordlist, 1.0)
        for prefix in ("ab", "co", "de"):
            for child in plan.extend(prefix):
                assert child.startswith(prefix)
                assert len(child) == len(prefix) + 1


def reference_extend(plan, prefix, filter_extensions=True):
    """Scan every prefix one level down, as extend() did before its cache.
    Unfiltered, every child with a count is kept, as plans saved with
    filter_extensions false extended."""
    child_len = len(prefix) + 1
    stats = plan.stats_by_length.get(child_len)
    if stats is None:
        return [prefix + c for c in plan.unigram_order if not (c == " " and prefix.endswith(" "))]
    children = [p for p in stats.counts if p.startswith(prefix) and stats.counts[p] > 0]
    if filter_extensions:
        selected = plan.selected_by_length.get(child_len, set())
        children = [p for p in children if p in selected]
    return sorted(children, key=lambda p: (-stats.counts[p], p))


def legacy_unfiltered(plan):
    """The plan as older code saved it when asked for unfiltered children
    and rank selection."""
    return {**plan.to_dict(), "filter_extensions": False, "selection": "rank"}


class TestExtendCache:
    @pytest.mark.parametrize("round_trip", [False, True])
    @pytest.mark.parametrize("filter_extensions", [True, False])
    @pytest.mark.parametrize("lengths", [(2, 3), (2, 3, 4)])
    def test_matches_reference_scan(self, wordlist, lengths, filter_extensions, round_trip):
        # filter_extensions=False: a saved plan that says so still loads,
        # and extends to every child with a count, saved again or not
        plan = build_plan(wordlist, 0.9, lengths=lengths)
        if not filter_extensions:
            plan = PrefixPlan.from_dict(legacy_unfiltered(plan))
        if round_trip:
            plan = PrefixPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        prefixes = [a + b for a in LETTERS for b in LETTERS]
        prefixes += sorted(plan.stats_by_length[3].counts) + ["qjx", "zzz"]
        for prefix in prefixes:
            expected = reference_extend(plan, prefix, filter_extensions)
            assert plan.extend(prefix) == expected, prefix

    def test_filter_changes_children(self, wordlist):
        # Both settings are exercised above only if they can differ.
        plan = build_plan(wordlist, 0.5)
        unfiltered = PrefixPlan.from_dict(legacy_unfiltered(plan)).extend("co")
        assert set(plan.extend("co")) < set(unfiltered)

    def test_saved_plan_keeps_fixed_fields(self, wordlist):
        saved = build_plan(wordlist, 0.9).to_dict()
        assert saved["selection"] == "mass"
        assert saved["filter_extensions"] is True

    def test_fresh_list_each_call(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        plan.extend("co").clear()
        assert plan.extend("co")

    def test_plan_outputs_unchanged_by_extend(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        before = json.dumps(plan.to_dict(), sort_keys=True)
        for prefix in ("co", "de", "qj", "con", "cobb"):
            plan.extend(prefix)
        assert json.dumps(plan.to_dict(), sort_keys=True) == before
        assert plan == PrefixPlan.from_dict(json.loads(before))
        assert "_children" not in repr(plan)


class TestBundledWordlist:
    def test_equals_load_corpus_of_bundled_file(self, wordlist):
        from importlib import resources

        path = resources.files("historiographer.data").joinpath("wordlist.txt")
        assert wordlist == load_corpus(path)

    def test_seed_band_at_default_mass(self, wordlist):
        # paper-style calibration band, not an equality
        plan = build_plan(wordlist, 0.9)
        assert 100 <= len(plan.seeds) <= 150

    def test_seed_ordering(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        stats = plan.stats_by_length[2]
        keys = [(-stats.counts[p], p) for p in plan.seeds]
        assert keys == sorted(keys)
        assert len(set(plan.seeds)) == len(plan.seeds)


def test_plan_round_trip(tmp_path, wordlist):
    plan = build_plan(wordlist, 0.9)
    path = tmp_path / "plan.json"
    plan.save(path)
    from historiographer.planner import PrefixPlan

    loaded = PrefixPlan.load(path)
    assert loaded.seeds == plan.seeds
    assert loaded.extend("co") == plan.extend("co")
    assert loaded.unigram_order == plan.unigram_order


@given(st.one_of(st.text(max_size=5), st.text("abzq1 C", max_size=4)))
@settings(max_examples=100, deadline=None)
def test_load_refuses_each_prefix_the_oracle_refuses(prefix):
    """A seed, stats prefix or selected prefix loads iff the oracle serves
    it, and a refused one is named as the oracle names it."""
    try:
        SuggestIndex(SearchHistory("u"))(prefix)
        refused = None
    except OracleError as exc:
        refused = str(exc).removeprefix("prefix ")
    plan = build_plan(["cobalt", "code", "dog"], 1.0).to_dict()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        for where, change in [
            ("seeds", lambda d: d["seeds"].append(prefix)),
            ("stats.3", lambda d: d["stats"]["3"].update({prefix: 0})),
            ("selected.2", lambda d: d["selected"]["2"].append(prefix)),
        ]:
            changed = json.loads(json.dumps(plan))
            change(changed)
            path.write_text(json.dumps(changed))
            if refused is None:
                PrefixPlan.load(path)
            else:
                with pytest.raises(PlannerError) as exc_info:
                    PrefixPlan.load(path)
                assert str(exc_info.value) == f"{path}: {where}: {refused}"


def test_stats_csv(tmp_path, wordlist):
    stats = build_stats(wordlist, 2)
    path = tmp_path / "stats.csv"
    stats.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "prefix,count"
    assert len(lines) == 1 + len(stats.counts)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"one\ntwo",
        b"one\r\ntwo\r\n",
        b"one\rtwo\r\rthree\n",
        b"Caf\xc3\xa9 Bar\r\n\n  x\t y \r",
        "a\x85b\u2028c\x1cd\n".encode(),
    ],
)
def test_load_corpus_splits_as_text_mode(tmp_path, data):
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        assert load_corpus(path) == [normalize(line) for line in fh if normalize(line)]


def test_load_corpus_normalizes(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("  Hello\nWORLD!\n\n")
    assert load_corpus(path) == ["hello", "world"]
