import json
import re
import tempfile
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_both
from historiographer import cookies, history, planner
from historiographer.history import (
    DEFAULT_ALPHABET,
    EmptyQueryError,
    HistoryDisabledError,
    HistoryEntry,
    HistoryError,
    SearchHistory,
    field_problem,
    iter_histories,
    iter_ranked,
    json_lines,
    load_histories,
    normalize,
    save_histories,
)
from historiographer.oracle import SuggestIndex, default_ranking


@pytest.mark.parametrize(
    "table",
    [
        history._HISTORY_FIELDS, history._HISTORY_OPTIONAL, history._ENTRY_FIELDS,
        history._ENTRY_OPTIONAL, cookies._TRACE_FIELDS, cookies._TRACE_OPTIONAL,
        cookies._CATALOG_FIELDS, planner._PLAN_FIELDS, planner._PLAN_OPTIONAL,
    ],
    ids=[
        "history", "history-optional", "entry", "entry-optional", "trace", "trace-optional",
        "catalog", "plan", "plan-optional",
    ],
)
def test_field_problem_words_every_declared_kind(table):
    # a kind with no wording would refuse a record with a bare KeyError
    for key, kind in table.items():
        message = field_problem({key: object()}, {key: kind})
        assert message.startswith(f"{key}: expected ") and message.endswith(", got object")
        assert field_problem({}, {key: kind}) == f"{key}: missing"


class TestNormalize:
    def test_case_and_whitespace(self):
        assert normalize("  Privacy ") == "privacy"

    def test_already_normalized(self):
        assert normalize("privacy") == "privacy"

    def test_drops_out_of_alphabet(self):
        # verified character by character against the stated rules
        assert normalize("PETS   2010!") == "pets 2010"

    def test_empty_result(self):
        assert normalize("!!!") == ""

    @given(st.text(max_size=50))
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once) == once

    @given(st.text(max_size=50))
    def test_output_alphabet(self, raw):
        out = normalize(raw)
        assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789 " for c in out)
        assert "  " not in out
        assert out == out.strip()


_WS_RUN = re.compile(r"\s+")


def normalize_reference(raw):
    """normalize by its rules, one character at a time: lowercase, keep
    DEFAULT_ALPHABET characters and whitespace, collapse whitespace runs to
    one space, strip."""
    kept = "".join(c for c in raw.lower() if c in DEFAULT_ALPHABET or c.isspace())
    return _WS_RUN.sub(" ", kept).strip()


NORMALIZE_ALPHABETS = [DEFAULT_ALPHABET]
# characters whose lowercase is long or depends on context, and whitespace
TRICKY_CHARACTERS = st.sampled_from(
    ["İ", "ß", "\u3000", "\t", "\n", "\x1c", "\x85", "\u00a0", " ", "Σ", "σ", "ς", "A", "b", "\u0307"]
)


# every ASCII code point, control characters included
ALL_ASCII = "".join(map(chr, range(128)))


@pytest.mark.parametrize("alphabet", NORMALIZE_ALPHABETS, ids=["default"])
@given(
    raw=st.one_of(
        st.text(st.one_of(st.characters(), TRICKY_CHARACTERS)),
        # text that is ASCII once lowercased takes a table of its own
        st.text(st.characters(max_codepoint=127)),
    )
)
@settings(max_examples=200)
@example(raw="İstanbul \t ΑΣ  Straße\u3000x")
@example(raw="\tA\u3000 \x1cΣ.")
@example(raw=ALL_ASCII)
@example(raw=ALL_ASCII[::-1])
# the Kelvin sign lowercases to an ASCII k; a capital I with a dot to an i
# and a combining dot
@example(raw="\u212aelvin \u212a\t\u212a")
@example(raw="\u0130stanbul I\u0130i\u0130")
def test_normalize_matches_reference(alphabet, raw):
    out = normalize(raw)
    assert out == normalize_reference(raw)
    assert set(out) <= set(alphabet)


class TestInsertSearch:
    def test_merge_semantics(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("privacy", 100, "http://privacy.org")
        hist.insert_search("privacy", 200, None)
        assert len(hist.entries) == 1
        entry = hist.entries["privacy"]
        assert entry.count == 2
        assert entry.clicked
        assert entry.first_time == 100
        assert entry.last_time == 200

    def test_time_range_widens_both_ways(self):
        hist = SearchHistory(user_id="u")
        for time in [200, 100, 150, 300, 250]:
            hist.insert_search("privacy", time)
        entry = hist.entries["privacy"]
        assert (entry.first_time, entry.last_time, entry.count) == (100, 300, 5)

    def test_disabled_history_rejects(self):
        hist = SearchHistory(user_id="u", history_enabled=False)
        with pytest.raises(HistoryDisabledError):
            hist.insert_search("privacy", 100)

    def test_empty_query_rejects(self):
        hist = SearchHistory(user_id="u")
        with pytest.raises(EmptyQueryError):
            hist.insert_search("!!!", 100)

    def test_clicked_counts(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("pets 10", 100)
        hist.insert_search("pets 2010", 110, "http://petsymposium.org/2010/")
        assert hist.n_h == 2
        assert hist.n_c == 1

    def test_merge_idempotence(self):
        a = SearchHistory(user_id="u")
        b = SearchHistory(user_id="u")
        a.insert_search("q1", 100, "http://x")
        b.insert_search("q1", 100, "http://x")
        b.insert_search("q1", 100, "http://x")
        assert b.entries["q1"].count == 2
        assert b.entries["q1"].clicked_urls == a.entries["q1"].clicked_urls
        assert b.entries["q1"].first_time == a.entries["q1"].first_time

    def test_clicked_iff_urls(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("aa", 1)
        hist.insert_search("bb", 2, "http://b")
        for e in hist.entries.values():
            assert e.clicked == bool(e.clicked_urls)


def test_jsonl_round_trip(tmp_path):
    h1 = SearchHistory(user_id="u1")
    h1.insert_search("privacy", 100, "http://privacy.org")
    h1.insert_search("pets 10", 120)
    h2 = SearchHistory(user_id="u2", history_enabled=True)
    path = tmp_path / "hist.jsonl"
    save_histories([h1, h2], path)
    loaded = load_histories(path)
    assert set(loaded) == {"u1", "u2"}
    # whole histories: a field that to_dict leaves out fails here
    assert loaded["u1"] == h1
    assert loaded["u2"] == h2


def test_jsonl_field_names(tmp_path):
    import json

    h = SearchHistory(user_id="u1")
    h.insert_search("privacy", 100, "http://privacy.org")
    path = tmp_path / "hist.jsonl"
    save_histories([h], path)
    row = json.loads(path.read_text())
    assert set(row) == {"user_id", "history_enabled", "entries"}
    assert set(row["entries"][0]) == {
        "query", "clicked", "first_time", "last_time", "count", "clicked_urls",
    }


def _record(**changes):
    entry = {
        "query": "privacy",
        "clicked": True,
        "first_time": 100,
        "last_time": 100,
        "count": 1,
        "clicked_urls": ["http://privacy.org"],
    }
    record = {"user_id": "u1", "history_enabled": True, "entries": [entry]}
    for key, value in changes.items():
        target = entry if key in entry else record
        if value is None:
            del target[key]
        else:
            target[key] = value
    return record


# (changes to a good record, the field its refusal names)
LOAD_FIELD_CASES = [
    ({"history_enabled": None}, "history_enabled: missing"),
    ({"user_id": 7}, "user_id: expected a string, got int"),
    ({"history_enabled": "yes"}, "history_enabled: expected a boolean"),
    ({"entries": {}}, "entries: expected a list"),
    ({"clicked": None}, "entries[0].clicked: missing"),
    ({"count": "x"}, "entries[0].count: expected an integer, got str"),
    ({"first_time": True}, "entries[0].first_time: expected an integer, got bool"),
    ({"clicked_urls": "http://x"}, "entries[0].clicked_urls: expected a list"),
    ({"clicked_urls": [1, None]}, "entries[0].clicked_urls: expected a list of strings"),
    ({"clicked_urls": ["http://x", 2]}, "entries[0].clicked_urls: expected a list of strings"),
]


@pytest.mark.parametrize("changes, field", LOAD_FIELD_CASES)
def test_load_names_line_and_field(tmp_path, changes, field):
    import json

    path = tmp_path / "hist.jsonl"
    path.write_text(json.dumps(_record()) + "\n\n" + json.dumps(_record(**changes)) + "\n")
    with pytest.raises(HistoryError) as exc_info:
        load_histories(path)
    assert str(exc_info.value).startswith(f"{path}:3: {field}")


# (a line, the start of its refusal)
MALFORMED_LINES = [
    ("{not json", "invalid JSON"),
    ("[1, 2]", "record: expected an object"),
    ('{"user_id": "u", "history_enabled": true, "entries": [3]}', "entries[0]: expected an object"),
]


@pytest.mark.parametrize("line, message", MALFORMED_LINES)
def test_load_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "hist.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(HistoryError) as exc_info:
        load_histories(path)
    assert str(exc_info.value).startswith(f"{path}:1: {message}")


def test_iter_histories_reads_a_line_when_asked(tmp_path):
    # out of user order, u2 twice, and a bad last line
    lines = [_record(user_id="u2"), _record(user_id="u1"), _record(user_id="u2", query="pets")]
    path = tmp_path / "hist.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines) + "{not json\n")
    histories = iter_histories(path)
    got = [next(histories) for _ in lines]
    assert [(h.user_id, list(h.entries)) for h in got] == [
        ("u2", ["privacy"]), ("u1", ["privacy"]), ("u2", ["pets"]),
    ]
    with pytest.raises(HistoryError, match=":4: invalid JSON"):
        next(histories)
    # load_histories keeps the last line of each user id
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    loaded = load_histories(path)
    assert list(loaded) == ["u2", "u1"]
    assert list(loaded["u2"].entries) == ["pets"]


ENTRY_FIELDS = {"query": str, "clicked": bool, "first_time": int, "last_time": int, "count": int}


def entry_problem_reference(d, where=""):
    return (
        field_problem(d, ENTRY_FIELDS, {"clicked_urls": list}, where)
        or f"{where}clicked_urls: expected a list of strings"
    )


def entry_from_dict_reference(d):
    """One entry record decoded as HistoryEntry.from_dict did before
    SearchHistory.from_dict read the entries a column at a time."""
    try:
        query, clicked, first_time, last_time, count = itemgetter(*ENTRY_FIELDS)(d)
        urls = d.get("clicked_urls", [])
        "".join(urls)
    except (AttributeError, KeyError, TypeError):
        raise HistoryError(entry_problem_reference(d)) from None
    if (
        type(query) is not str
        or type(clicked) is not bool
        or type(first_time) is not int
        or type(last_time) is not int
        or type(count) is not int
        or type(urls) is not list
    ):
        raise HistoryError(entry_problem_reference(d))
    return HistoryEntry(query, clicked, first_time, last_time, count, list(urls))


def iter_histories_reference(path):
    """iter_histories with its entries decoded one at a time, in order."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            d = json.loads(line)
            hist = SearchHistory(d["user_id"], d["history_enabled"])
            for i, ed in enumerate(d["entries"]):
                try:
                    entry = entry_from_dict_reference(ed)
                except HistoryError:
                    problem = entry_problem_reference(ed, f"entries[{i}].")
                    raise HistoryError(f"{path}:{lineno}: {problem}") from None
                hist.entries[entry.query] = entry
            yield hist


def read_histories(histories):
    """Each history's to_dict and its query order, and the text of the
    error that stopped the reading."""
    got = []
    try:
        for hist in histories:
            got.append((hist.to_dict(), list(hist.entries)))
    except HistoryError as exc:
        return got, str(exc)
    return got, None


GOOD_ENTRIES = st.fixed_dictionaries(
    {
        "query": st.sampled_from(["aa", "privacy", "pets 10"]) | st.text(max_size=3),
        "clicked": st.booleans(),
        "first_time": st.integers(-(2**40), 2**40),
        "last_time": st.integers(-(2**40), 2**40),
        "count": st.integers(-(2**40), 2**40),
    },
    optional={"clicked_urls": st.lists(st.text(max_size=3), max_size=3)},
)
NOT_A_STRING = st.sampled_from([1, 2.5, None, True, ["x"], {"u": "x"}])


@st.composite
def bad_entries(draw):
    """A good entry with one thing wrong."""
    entry = draw(GOOD_ENTRIES)
    spoil = draw(st.sampled_from([
        "missing", "bool for int", "int for bool", "str for list", "object for list",
        "null for list", "number for list", "not an object", "non-string url",
    ]))
    if spoil == "missing":
        del entry[draw(st.sampled_from(list(ENTRY_FIELDS)))]
    elif spoil == "bool for int":
        entry[draw(st.sampled_from(["first_time", "last_time", "count"]))] = draw(st.booleans())
    elif spoil == "int for bool":
        entry["clicked"] = draw(st.integers(0, 1))
    elif spoil == "str for list":
        entry["clicked_urls"] = draw(st.text(max_size=3))
    elif spoil == "object for list":
        entry["clicked_urls"] = draw(st.dictionaries(st.text(max_size=2), st.text(max_size=2)))
    elif spoil == "null for list":
        entry["clicked_urls"] = None
    elif spoil == "number for list":
        entry["clicked_urls"] = draw(st.sampled_from([3, 2.5, True]))
    elif spoil == "not an object":
        entry = draw(st.sampled_from([[], [entry], "query", 3, None]))
    else:
        urls = entry.get("clicked_urls", [])
        urls.insert(draw(st.integers(0, len(urls))), draw(NOT_A_STRING))
        entry["clicked_urls"] = urls
    return entry


@st.composite
def history_records(draw):
    """One to three history records, one of them perhaps with a bad entry
    at a random place."""
    records = [
        {"user_id": f"u{k}", "history_enabled": True, "entries": draw(st.lists(GOOD_ENTRIES, max_size=6))}
        for k in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        entries = draw(st.sampled_from(records))["entries"]
        entries.insert(draw(st.integers(0, len(entries))), draw(bad_entries()))
    return records


@given(history_records())
@settings(max_examples=300, deadline=None)
@example([{"user_id": "u", "history_enabled": True, "entries": [
    {"query": "aa", "clicked": True, "first_time": 1, "last_time": 2, "count": 3},
    {"query": "bb", "clicked": False, "first_time": 1, "last_time": 2, "count": 1},
    {"query": "aa", "clicked": False, "first_time": 5, "last_time": 6, "count": 7,
     "clicked_urls": ["x"]},
]}])
def test_column_decoding_matches_the_entry_decoder(records):
    # the same histories, query order included, or the same first error
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hist.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert read_histories(iter_histories(path)) == read_histories(
            iter_histories_reference(path)
        )


@pytest.mark.parametrize("urls", [None, [], ["http://a", "http://b"]], ids=["omitted", "empty", "two"])
def test_decoded_entries_share_no_url_list(tmp_path, urls):
    entry = {"clicked": bool(urls), "first_time": 1, "last_time": 2, "count": 1}
    if urls is not None:
        entry["clicked_urls"] = urls
    record = {
        "user_id": "u", "history_enabled": True,
        "entries": [{**entry, "query": "aa"}, {**entry, "query": "bb"}],
    }
    path = tmp_path / "hist.jsonl"
    path.write_text(2 * (json.dumps(record) + "\n"))
    first, second = iter_histories(path)
    first.insert_search("aa", 5, "http://new")
    first._merge("bb", 6, "http://other")
    assert first.entries["aa"].clicked_urls == (urls or []) + ["http://new"]
    assert first.entries["bb"].clicked_urls == (urls or []) + ["http://other"]
    assert second.to_dict() == SearchHistory.from_dict(record).to_dict()
    assert [e.clicked_urls for e in second.entries.values()] == [urls or []] * 2
    save_histories([first, second], path)
    assert list(iter_histories(path)) == [first, second]


def test_from_dict_refuses_a_tuple_of_urls():
    # an in-memory record can hold a tuple, which is not a list of URLs,
    # empty or not
    entry = {"clicked": True, "first_time": 1, "last_time": 2, "count": 1}
    for urls in [("u",), ()]:
        record = {
            "user_id": "u", "history_enabled": True,
            "entries": [{**entry, "query": "aa"}, {**entry, "query": "bb", "clicked_urls": urls}],
        }
        with pytest.raises(
            HistoryError, match=r"^entries\[1\]\.clicked_urls: expected a list, got tuple$"
        ):
            SearchHistory.from_dict(record)


@pytest.mark.parametrize(
    "text",
    [json.dumps(_record()) + "\n\n" + json.dumps(_record(**changes)) + "\n" for changes, _ in LOAD_FIELD_CASES]
    + [json.dumps(_record()) + "\n" + line + "\n" for line, _ in MALFORMED_LINES]
    + [json.dumps(_record(user_id="\ud800")) + "\n"],
    ids=[field for _, field in LOAD_FIELD_CASES] + [m for _, m in MALFORMED_LINES] + ["surrogate"],
)
def test_both_readers_refuse_alike(tmp_path, text):
    path = tmp_path / "hist.jsonl"
    path.write_text(text)
    histories, ranked = read_both(path)
    assert histories[1] is not None
    assert ranked == histories


@given(history_records())
@settings(max_examples=100, deadline=None)
def test_both_readers_find_the_same_first_error(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hist.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        histories, ranked = read_both(path)
    assert ranked == histories


RANK_ENTRIES = st.fixed_dictionaries(
    {
        # normalized or not, so that both readers keep a query as written
        "query": st.sampled_from(["aa", "ab", "abc", "ab c", "Ab", " ab", "ab  c"]) | st.text(max_size=3),
        "clicked": st.booleans(),
        "first_time": st.integers(0, 3),
        # few values, so that counts and times tie
        "last_time": st.integers(0, 3),
        "count": st.integers(0, 3),
    },
    optional={"clicked_urls": st.lists(st.text(max_size=2), max_size=2)},
)


@st.composite
def ranked_records(draw):
    """A good history record, perhaps with no entries field, whose later
    rows may repeat an earlier query with clicked, count or last_time
    changed."""
    entries = draw(st.lists(RANK_ENTRIES, max_size=8))
    for _ in range(draw(st.integers(0, 3)) if entries else 0):
        row = dict(draw(st.sampled_from(entries)))
        key = draw(st.sampled_from(["clicked", "count", "last_time"]))
        row[key] = not row[key] if key == "clicked" else row[key] + draw(st.sampled_from([-1, 1]))
        entries.append(row)
    record = {"user_id": draw(st.sampled_from(["u", "", "ü"])), "history_enabled": draw(st.booleans())}
    if entries or draw(st.booleans()):
        record["entries"] = entries
    return record


def served(index, prefix):
    try:
        return index(prefix)
    except Exception as exc:
        return type(exc)


@given(st.lists(ranked_records(), max_size=3))
@settings(max_examples=150, deadline=None)
@example([{"user_id": "u", "history_enabled": True}, {"user_id": "u", "history_enabled": True, "entries": []}])
@example([{"user_id": "u", "history_enabled": True, "entries": [
    {"query": "ab", "clicked": True, "first_time": 1, "last_time": 5, "count": 2},
    {"query": "abc", "clicked": True, "first_time": 1, "last_time": 3, "count": 2},
    {"query": "ab", "clicked": False, "first_time": 1, "last_time": 5, "count": 2},
    {"query": "abc", "clicked": True, "first_time": 1, "last_time": 3, "count": 1},
    {"query": "abd", "clicked": True, "first_time": 1, "last_time": 3, "count": 1},
    {"query": "abd", "clicked": True, "first_time": 1, "last_time": 4, "count": 1},
]}])
def test_ranked_reader_matches_from_dict(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hist.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        got = list(iter_ranked(path))
    assert len(got) == len(records)
    for ranked, record in zip(got, records):
        hist = SearchHistory.from_dict(record)
        clicked = [e for e in hist.entries.values() if e.clicked]
        expected = tuple(e.query for e in sorted(clicked, key=default_ranking))
        assert hist.ranked == expected
        assert (ranked.user_id, ranked.n_h, ranked.n_c, ranked.ranked) == (
            hist.user_id, hist.n_h, hist.n_c, expected
        )
        # the index over either serves every prefix alike
        by_ranked, by_history = SuggestIndex(ranked), SuggestIndex(hist)
        prefixes = {q[:k] for q in hist.entries for k in range(len(q) + 2)} | {"a", "ab", "b "}
        for prefix in prefixes:
            assert served(by_ranked, prefix) == served(by_history, prefix)


def test_optional_fields_default(tmp_path):
    import json

    path = tmp_path / "hist.jsonl"
    path.write_text(json.dumps(_record(clicked_urls=None)) + "\n" + json.dumps({"user_id": "u2", "history_enabled": False}) + "\n")
    loaded = load_histories(path)
    assert loaded["u1"].entries["privacy"].clicked_urls == []
    assert loaded["u2"].entries == {} and not loaded["u2"].history_enabled


def test_bundled_volunteers_is_the_fixture_file():
    import json
    from importlib import resources

    from historiographer.harness import bundled_volunteers

    text = resources.files("historiographer.data").joinpath("volunteers.jsonl").read_text()
    expected = [json.loads(line) for line in text.splitlines() if line.strip()]
    loaded = bundled_volunteers()
    assert list(loaded) == [record["user_id"] for record in expected]
    assert [h.to_dict() for h in loaded.values()] == [
        SearchHistory.from_dict(record).to_dict() for record in expected
    ]


def json_lines_reference(path, error):
    """json_lines as it read files before its raw_decode fast path: each
    stripped, non-blank line through json.loads."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: {exc}") from None
            if not line:
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise error(f"{path}:{lineno}: invalid JSON: {exc}") from None
            yield lineno, value


def read_all(lines):
    """The (line number, value) pairs a reader yields, by repr so that NaN
    and -0.0 compare exactly, and the text of the error that stopped it."""
    pairs = []
    try:
        for pair in lines:
            pairs.append(repr(pair))
    except HistoryError as exc:
        return pairs, str(exc)
    return pairs, None


ODD_LINES = st.sampled_from([
    b"", b"   ", b"\t \r", b"\xc2\xa0", b"\xef\xbb\xbf{}", b"\xef\xbb\xbf", b" \xef\xbb\xbf1",
    b"1 2", b"{} x", b"[]]", b'"a" "b"', b"{", b"NaN", b"-Infinity", b"-0.0", b"1e400",
    b"[" * 50 + b"]" * 50, b"[" * 100_000 + b"]" * 100_000, b'{"a":' * 50_000,
    b"1" * 5000, b"-" + b"2" * 4301, b'{"n": ' + b"9" * 4400 + b"}",
    b"\xff", b'"caf\xe9"', b"\xed\xa0\x80", b"{}\r",
])
LINES = st.lists(
    st.one_of(
        ODD_LINES,
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        ).map(lambda v: json.dumps(v).encode()),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=8).map(str.encode),
        st.binary(max_size=6),
    ),
    max_size=6,
)


@given(LINES)
@settings(max_examples=300, deadline=None)
def test_json_lines_matches_json_loads_per_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(b"\n".join(lines))
        expected = read_all(json_lines_reference(path, HistoryError))
        assert read_all(json_lines(path, HistoryError)) == expected


class TestRecord:
    """The plain record classes compare and print by their _fields, as the
    dataclasses they replace did."""

    class Pair(history.Record):
        _fields = ("a", "b")

        def __init__(self, a, b):
            self.a = a
            self.b = b

    def test_equal_by_every_field(self):
        Pair = self.Pair
        assert Pair(1, [2]) == Pair(1, [2])
        assert Pair(1, [2]) != Pair(0, [2])
        assert Pair(1, [2]) != Pair(1, [3])
        # another class with the same fields is not equal
        assert Pair(1, 2) != type("Other", (Pair,), {})(1, 2)
        assert Pair(1, 2) != (1, 2)
        with pytest.raises(TypeError):
            hash(Pair(1, 2))
        assert repr(Pair(1, "x")) == "Pair(a=1, b='x')"

    def test_fields_are_the_constructor_arguments(self):
        # so that equality, repr and the tests' remade read every field
        import inspect

        from historiographer import attack, harness, oracle

        classes = [
            c for c in history.Record.__subclasses__() if c.__module__.startswith("historiographer.")
        ]
        assert {c.__module__ for c in classes} == {
            m.__name__ for m in (attack, cookies, harness, history, oracle, planner)
        }
        for cls in classes:
            assert tuple(inspect.signature(cls).parameters) == cls._fields, cls

    def test_report_vars_are_the_fields_in_order(self):
        # the eval JSON and CSV and the audit JSON read a report's vars()
        from historiographer.attack import RecallReport

        report = RecallReport("u", 3, 2, 1, 0.5, 7)
        assert tuple(vars(report)) == RecallReport._fields
        hijack = cookies.HijackReport("s", ["Search"], ["SID"], True, False)
        assert tuple(vars(hijack)) == cookies.HijackReport._fields
