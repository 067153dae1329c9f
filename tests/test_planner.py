import json
import string
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from historiographer.cli import main
from historiographer.history import DEFAULT_ALPHABET, SearchHistory, normalize
from historiographer.oracle import OracleError, SuggestIndex
from historiographer.planner import (
    PLANNER_ALPHABET,
    EmptyCorpusError,
    PlannerError,
    PrefixPlan,
    _ordered,
    build_plan,
    build_stats,
    bundled_wordlist,
    load_corpus,
    select_mass,
    write_stats_csv,
)

LETTERS = string.ascii_lowercase


def brute_tally(corpus, length, alphabet=LETTERS):
    # independent single-pass tally
    out = {}
    for item in corpus:
        if len(item) >= length:
            p = item[:length]
            if all(c in alphabet for c in p):
                out[p] = out.get(p, 0) + 1
    return out


class TestBuildStats:
    def test_direct_count(self):
        stats = build_stats(["aa", "ab", "aa x"], 2)
        assert stats == {"aa": 2, "ab": 1}

    def test_absent_prefix_is_zero(self):
        stats = build_stats(["aa", "ab"], 2)
        assert stats.get("qr", 0) == 0

    def test_against_independent_tally(self, wordlist):
        stats = build_stats(wordlist, 3)
        assert stats == brute_tally(wordlist, 3)

    def test_short_items_skipped(self):
        stats = build_stats(["a", "abc"], 2)
        assert sum(stats.values()) == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_stats([], 2)
        with pytest.raises(EmptyCorpusError, match="^reference corpus is empty$"):
            build_plan([], 0.9)

    def test_length_below_two(self):
        with pytest.raises(PlannerError):
            build_stats(["aa"], 1)

    @given(
        # items shorter than the length, spaces, digits and a non-ASCII letter
        st.lists(st.text("ab 1é", max_size=5), min_size=1, max_size=30),
        st.integers(2, 4),
        st.sampled_from([LETTERS, "ab", "ab é", "b1"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_item_by_item_tally(self, corpus, length, alphabet):
        assert build_stats(corpus, length, alphabet) == brute_tally(corpus, length, alphabet)


@given(st.dictionaries(st.text("abc", min_size=1, max_size=3), st.integers(0, 3)))
@settings(max_examples=100, deadline=None)
def test_ordered_is_count_descending_then_lexicographic(counts):
    assert _ordered(counts) == sorted(counts, key=lambda p: (-counts[p], p))


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


def test_no_lengths_refused():
    with pytest.raises(PlannerError, match="no prefix lengths given"):
        build_plan(["cobalt", "code"], 0.9, lengths=())


@pytest.mark.parametrize(
    "lengths, alphabet, message",
    [
        ((2, 4), PLANNER_ALPHABET, "stats: lengths [2, 4] are not contiguous"),
        (
            (2, 3), PLANNER_ALPHABET + "-",
            f"unigram_order: '-' is not in the query alphabet {DEFAULT_ALPHABET!r}",
        ),
    ],
)
def test_plan_without_a_fixed_order_refused(wordlist, lengths, alphabet, message):
    with pytest.raises(PlannerError) as exc_info:
        build_plan(wordlist, 0.9, lengths=lengths, alphabet=alphabet)
    assert str(exc_info.value) == message


@given(
    st.lists(st.text("abc", min_size=1, max_size=4), min_size=1, max_size=20),
    st.sampled_from(["ab", "abc"]),
    st.lists(st.sampled_from(["aa", "ab", "ba", "ca", "az"]), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_rank_is_count_descending_then_shorter_then_lexicographic(corpus, letters, seeds):
    # few letters, so that counts tie; "zz" is a seed that no level counts
    stats = {n: build_stats(corpus, n, letters) for n in (2, 3)}
    plan = PrefixPlan([*seeds, "zz"], 1.0, stats, letters, letters)
    count = {p: c for level in stats.values() for p, c in level.items()}
    expected = sorted(set(plan.seeds).union(count), key=lambda p: (-count.get(p, 0), len(p), p))
    assert list(plan.walk_order.rank) == expected
    assert list(plan.walk_order.rank.values()) == list(range(len(expected)))


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


def reference_extend(plan, prefix):
    """Scan every prefix one level down, as extend() did before its cache."""
    child_len = len(prefix) + 1
    stats = plan.stats_by_length.get(child_len)
    if stats is None:
        return [prefix + c for c in plan.unigram_order if not (c == " " and prefix.endswith(" "))]
    selected = plan.selected_by_length.get(child_len, set())
    children = [p for p in stats if p.startswith(prefix) and stats[p] > 0 and p in selected]
    return sorted(children, key=lambda p: (-stats[p], p))


def legacy_unfiltered(plan):
    """The plan as older code saved it when asked for unfiltered children
    and rank selection."""
    return {**plan.to_dict(), "filter_extensions": False, "selection": "rank"}


UNFILTERED_REFUSAL = (
    "filter_extensions: false is not read; build the plan again with the plan command"
)


class TestExtendCache:
    @pytest.mark.parametrize("round_trip", [False, True])
    # the one value a plan is read with
    @pytest.mark.parametrize("filter_extensions", [True])
    @pytest.mark.parametrize("lengths", [(2, 3), (2, 3, 4)])
    def test_matches_reference_scan(self, wordlist, lengths, filter_extensions, round_trip):
        plan = build_plan(wordlist, 0.9, lengths=lengths)
        assert plan.to_dict()["filter_extensions"] is filter_extensions
        if round_trip:
            plan = PrefixPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        prefixes = [a + b for a in LETTERS for b in LETTERS]
        prefixes += sorted(plan.stats_by_length[3]) + ["qjx", "zzz"]
        for prefix in prefixes:
            assert plan.extend(prefix) == reference_extend(plan, prefix), prefix

    def test_unfiltered_plan_is_refused(self, wordlist, tmp_path, capsys):
        # no plan command wrote filter_extensions false, and no reader
        # takes it
        saved = legacy_unfiltered(build_plan(wordlist, 0.5))
        with pytest.raises(PlannerError) as exc_info:
            PrefixPlan.from_dict(saved)
        assert str(exc_info.value) == UNFILTERED_REFUSAL
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(PlannerError) as exc_info:
            PrefixPlan.load(path)
        assert str(exc_info.value) == f"{path}: {UNFILTERED_REFUSAL}"
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        assert main(["eval", str(fixture), str(path), "-o", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {UNFILTERED_REFUSAL}\n"
        assert not (tmp_path / "r.json").exists()

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
        keys = [(-stats[p], p) for p in plan.seeds]
        assert keys == sorted(keys)
        assert len(set(plan.seeds)) == len(plan.seeds)


# any JSON value, small
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text("cod Z0", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("023co", max_size=3), inner, max_size=3),
    max_leaves=6,
)


def value_paths(value, path=()):
    """The path of value and of every value nested in it."""
    yield path
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, nested in items:
        yield from value_paths(nested, (*path, key))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_from_dict_refuses_only_with_planner_error(data):
    """A saved plan with one value replaced, removed or added loads or
    raises PlannerError, never another exception."""
    d = build_plan(["cobalt", "code", "dog"], 1.0).to_dict()
    path = data.draw(st.sampled_from(list(value_paths(d))))
    value = data.draw(JSON_VALUES)
    if not path:
        d = value
    else:
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "remove", "add"]))
        if action == "replace":
            parent[path[-1]] = value
        elif action == "remove":
            del parent[path[-1]]
        elif type(parent) is dict:
            parent[data.draw(st.text("023co", max_size=3))] = value
        else:
            parent.append(value)
    try:
        PrefixPlan.from_dict(d)
    except PlannerError:
        pass


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
    it and it is as long as its level: a seed as the shallowest stats level,
    a stats or selected prefix as its key. A refused one is named as the
    oracle names it, whatever its length."""
    try:
        SuggestIndex(SearchHistory("u"))(prefix)
        refused = None
    except OracleError as exc:
        refused = str(exc).removeprefix("prefix ")
    plan = build_plan(["cobalt", "code", "dog"], 1.0).to_dict()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        for where, length, change in [
            ("seeds", 2, lambda d: d["seeds"].append(prefix)),
            ("stats.3", 3, lambda d: d["stats"]["3"].update({prefix: 0})),
            ("selected.2", 2, lambda d: d["selected"]["2"].append(prefix)),
        ]:
            changed = json.loads(json.dumps(plan))
            change(changed)
            path.write_text(json.dumps(changed))
            problem = refused
            if problem is None and length != len(prefix):
                problem = f"{prefix!r} is not {length} characters long"
            if problem is None:
                PrefixPlan.load(path)
            else:
                with pytest.raises(PlannerError) as exc_info:
                    PrefixPlan.load(path)
                assert str(exc_info.value) == f"{path}: {where}: {problem}"


def test_stats_csv(tmp_path, wordlist):
    stats = build_stats(wordlist, 2)
    path = tmp_path / "stats.csv"
    write_stats_csv(stats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "prefix,count"
    assert len(lines) == 1 + len(stats)


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
