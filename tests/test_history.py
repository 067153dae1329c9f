import gc
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from historiographer.history import (
    DEFAULT_ALPHABET,
    EmptyQueryError,
    HistoryDisabledError,
    HistoryError,
    SearchHistory,
    iter_histories,
    json_lines,
    load_histories,
    normalize,
    save_histories,
)


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

    def test_custom_alphabet_without_space(self):
        assert normalize("pets 2010", alphabet="abcdefghijklmnopqrstuvwxyz") == "pets"

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


def normalize_reference(raw, alphabet=DEFAULT_ALPHABET):
    """normalize by its rules, one character at a time: lowercase, keep
    alphabet characters and (if the alphabet has a space) whitespace,
    collapse whitespace runs to one space, strip."""
    keep_space = " " in alphabet
    kept = "".join(c for c in raw.lower() if c in alphabet or (keep_space and c.isspace()))
    return _WS_RUN.sub(" ", kept).strip()


NORMALIZE_ALPHABETS = [
    DEFAULT_ALPHABET,
    "abcdefghijklmnopqrstuvwxyz",  # no space
    "abci\u0307\u03c3\u03c2\t",  # a tab, no space; sigma and the dot of a lowered İ
    "ab \u00df\u3000",  # a space and another whitespace character
]
# characters whose lowercase is long or depends on context, and whitespace
TRICKY_CHARACTERS = st.sampled_from(
    ["İ", "ß", "\u3000", "\t", "\n", "\x1c", "\x85", "\u00a0", " ", "Σ", "σ", "ς", "A", "b", "\u0307"]
)


@pytest.mark.parametrize("alphabet", NORMALIZE_ALPHABETS, ids=["default", "no-space", "tab", "ideographic-space"])
@given(raw=st.text(st.one_of(st.characters(), TRICKY_CHARACTERS)))
@example(raw="İstanbul \t ΑΣ  Straße\u3000x")
@example(raw="\tA\u3000 \x1cΣ.")
def test_normalize_matches_reference(alphabet, raw):
    assert normalize(raw, alphabet) == normalize_reference(raw, alphabet)


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


@pytest.mark.parametrize(
    "changes, field",
    [
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
    ],
)
def test_load_names_line_and_field(tmp_path, changes, field):
    import json

    path = tmp_path / "hist.jsonl"
    path.write_text(json.dumps(_record()) + "\n\n" + json.dumps(_record(**changes)) + "\n")
    with pytest.raises(HistoryError) as exc_info:
        load_histories(path)
    assert str(exc_info.value).startswith(f"{path}:3: {field}")


@pytest.mark.parametrize(
    "line, message",
    [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "record: expected an object"),
        ('{"user_id": "u", "history_enabled": true, "entries": [3]}', "entries[0]: expected an object"),
    ],
)
def test_load_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "hist.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(HistoryError) as exc_info:
        load_histories(path)
    assert str(exc_info.value).startswith(f"{path}:1: {message}")


@pytest.mark.parametrize(
    "enabled, bad_line", [(True, False), (False, False), (True, True)],
    ids=["enabled", "disabled", "raised"],
)
def test_load_leaves_the_collector_as_found(tmp_path, monkeypatch, enabled, bad_line):
    path = tmp_path / "hist.jsonl"
    save_histories([SearchHistory(user_id="u1"), SearchHistory(user_id="u2")], path)
    if bad_line:
        with open(path, "a") as fh:
            fh.write("{not json\n")
    during = []
    from_dict = SearchHistory.from_dict
    monkeypatch.setattr(
        SearchHistory, "from_dict", lambda d: during.append(gc.isenabled()) or from_dict(d)
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if bad_line:
            with pytest.raises(HistoryError, match=":3: invalid JSON"):
                load_histories(path)
        else:
            assert set(load_histories(path)) == {"u1", "u2"}
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    # paused while the records load
    assert during == [False, False]


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
