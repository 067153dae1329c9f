import functools
import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import remade
from historiographer import attack, harness
from historiographer.attack import AttackConfig, AttackError, ReconstructionAborted, reconstruct
from historiographer.harness import (
    HarnessError,
    HeaderMismatchError,
    brute_force_recoverable,
    bundled_volunteers,
    gen_synthetic,
    ingest_query_log_counted,
    recall_curve,
    run_batch,
)
from historiographer.history import (
    EmptyQueryError,
    HistoryError,
    SearchHistory,
    iter_histories,
    load_histories,
    save_histories,
)
from historiographer.oracle import SuggestIndex, UnnormalizedPrefixError
from historiographer.planner import build_plan, bundled_wordlist

AOL_HEADER = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL"


def refusing_index(refuses):
    """A stand-in for harness.SuggestIndex: the history's index as an oracle
    that refuses each prefix refuses(prefix) holds true of. It is not a bare
    SuggestIndex, so every run takes the heap loop."""

    def make(hist):
        index = SuggestIndex(hist)

        def oracle(prefix):
            if refuses(prefix):
                raise UnnormalizedPrefixError(f"prefix {prefix!r} refused")
            return index(prefix)

        return oracle

    return make


def with_qz_seed(plan):
    """The plan with the seed "qz", which has no corpus count, so a run asks
    it after every counted prefix: a run whose oracle refuses it aborts at a
    point of its own for each history."""
    return remade(plan, seeds=[*plan.seeds, "qz"])


def write_log(tmp_path, rows):
    path = tmp_path / "log.tsv"
    path.write_text("\n".join([AOL_HEADER] + rows) + "\n")
    return path


class TestIngest:
    def test_hand_built_fixture(self, tmp_path):
        path = write_log(tmp_path, [
            "1\tprivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org",
            "1\tpets 10\t2006-03-01 10:05:00\t\t",
            "2\tmaps\t2006-03-02 09:00:00\t\t",
        ])
        histories = ingest_query_log_counted(path)[0]
        assert set(histories) == {"1", "2"}
        assert histories["1"].n_c == 1
        assert histories["2"].n_c == 0

    def test_empty_after_header(self, tmp_path):
        path = write_log(tmp_path, [])
        assert ingest_query_log_counted(path)[0] == {}

    def test_click_without_rank_tolerated(self, tmp_path):
        path = write_log(tmp_path, [
            "1\tprivacy\t2006-03-01 10:00:00\t\thttp://privacy.org",
        ])
        histories = ingest_query_log_counted(path)[0]
        assert histories["1"].entries["privacy"].clicked

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = write_log(tmp_path, [
            "1\tprivacy\t2006-03-01 10:00:00\t\t",
            "not\tenough",
            "1\tok\tnot-a-date\t\t",
            "1\t!!!\t2006-03-01 10:00:00\t\t",
        ])
        histories, skipped = ingest_query_log_counted(path)
        assert skipped == 3
        assert histories["1"].n_h == 1

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("foo\tbar\n1\tx\n")
        with pytest.raises(HeaderMismatchError):
            ingest_query_log_counted(path)[0]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(HarnessError):
            ingest_query_log_counted(tmp_path / "missing.tsv")[0]

    def test_not_utf8_row_skipped_and_counted(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_bytes(
            AOL_HEADER.encode() + b"\n"
            + b"1\tcaf\xe9\t2006-03-01 10:00:00\t\t\n"
            + b"1\tprivacy\t2006-03-01 10:00:00\t\t\n"
            + b"2\tmaps\t2006-03-02 09:00:00\t\thttp://\xff.org\n"
        )
        histories, skipped = ingest_query_log_counted(path)
        assert skipped == 2
        assert list(histories) == ["1"]
        assert list(histories["1"].entries) == ["privacy"]

    def test_interleaved_users_merge_in_first_seen_order(self, tmp_path):
        # a user's rows need not be together: a later run of one merges into
        # the history its first run made, and skipped rows break no run
        path = write_log(tmp_path, [
            "2\tmaps\t2006-03-02 09:00:00\t\t",
            "1\tprivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org",
            "3\t!!!\t2006-03-01 10:00:00\t\t",
            "1\tprivacy\t2006-03-01 12:00:00\t\t",
            "2\tMaps\t2006-03-02 08:00:00\t2\thttp://maps.org",
            "3\tzoo\tnot-a-date\t\t",
            "2\tzoo\t2006-03-02 10:00:00\t\t",
            "1\tzoo\t2006-03-01 09:00:00\t\t",
        ])
        histories, skipped = ingest_query_log_counted(path)
        assert skipped == 2
        assert list(histories) == ["2", "1"]
        assert list(histories["2"].entries) == ["maps", "zoo"]
        assert list(histories["1"].entries) == ["privacy", "zoo"]
        maps, privacy = histories["2"].entries["maps"], histories["1"].entries["privacy"]
        assert (maps.count, maps.first_time, maps.clicked_urls) == (2, 1141286400, ["http://maps.org"])
        assert (privacy.count, privacy.last_time, privacy.clicked) == (2, 1141214400, True)

    def test_crlf_log_reads_as_lf(self, tmp_path):
        rows = [
            "2\tMaps \t2006-03-02 09:00:00\t\t",
            "1\tprivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org",
            "not\tenough",
            "1\tPrivacy\t2006-03-01 11:00:00\t\thttp://privacy.org/2",
            "",
            "1\t!!!\t2006-03-01 10:00:00\t\t",
        ]
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes("\n".join([AOL_HEADER] + rows).encode() + b"\n")
        crlf.write_bytes("\r\n".join([AOL_HEADER] + rows).encode() + b"\r\n")
        (want, want_skipped), (got, got_skipped) = map(ingest_query_log_counted, (lf, crlf))
        assert got_skipped == want_skipped == 2
        assert list(got) == list(want) == ["2", "1"]
        for user_id in want:
            assert list(got[user_id].entries) == list(want[user_id].entries)
            assert got[user_id].to_dict() == want[user_id].to_dict()
        assert got["1"].entries["privacy"].clicked_urls == [
            "http://privacy.org", "http://privacy.org/2"
        ]

    def test_round_trip_lossless(self, tmp_path):
        path = write_log(tmp_path, [
            "1\tPrivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org",
            "1\tprivacy\t2006-03-01 11:00:00\t\t",
        ])
        histories = ingest_query_log_counted(path)[0]
        out = tmp_path / "hist.jsonl"
        save_histories(histories.values(), out)
        reloaded = load_histories(out)
        assert reloaded["1"].to_dict() == histories["1"].to_dict()


def strptime_reference(raw):
    """The reading the log's time column must keep: strptime of the
    stripped text, taken as UTC."""
    dt = datetime.strptime(raw.strip(), "%Y-%m-%d %H:%M:%S")
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


# zero in Arabic-Indic, Extended Arabic-Indic, Devanagari and fullwidth digits
OTHER_ZEROS = [0x660, 0x6F0, 0x966, 0xFF10]


@st.composite
def near_format_times(draw):
    """Times in or near the log's "dddd-dd-dd dd:dd:dd" form: each field
    in range or just out of it, padded or not, sometimes in non-ASCII
    digits; other separators; whitespace around."""

    def number(low, high, width):
        n = draw(st.integers(low, high))
        text = draw(st.sampled_from([f"{n:0{width}d}", str(n), f"{n:>{width}d}"]))
        if draw(st.integers(0, 7)) == 0:
            zero = draw(st.sampled_from(OTHER_ZEROS))
            text = text.translate({0x30 + d: zero + d for d in range(10)})
        return text

    date = "-".join([number(0, 9999, 4), number(0, 13, 2), number(0, 32, 2)])
    time = ":".join([number(0, 25, 2), number(0, 61, 2), number(0, 62, 2)])
    sep = draw(st.sampled_from([" ", " ", " ", "  ", "\t", "T", ""]))
    around = st.sampled_from(["", "", "", " ", "\t", "\u3000", "\r"])
    return draw(around) + date + sep + time + draw(around)


def assert_read_as_strptime(raw):
    """_parse_query_time gives strptime_reference's value, or raises
    ValueError where it does."""
    try:
        expected = strptime_reference(raw)
    except ValueError:
        with pytest.raises(ValueError):
            harness._parse_query_time(raw)
    else:
        assert harness._parse_query_time(raw) == expected, raw


# Stamps in the order the hour cache must meet them in one process: an hour
# first met with a good minute and second and then a bad one, or the other
# way round; a day that does not exist before good stamps of the days around
# it and of a leap day; and both sides of two year ends.
STAMPS_IN_ORDER = [
    "2006-03-01 10:00:00",
    "2006-03-01 10:59:59",
    "2006-03-01 10:60:00",
    "2006-03-01 10:00:60",
    "2006-03-01 10:30:15",
    "2006-03-01 11:61:00",
    "2006-03-01 11:00:62",
    "2006-03-01 11:07:09",
    "2006-02-29 10:00:00",
    "2006-02-29 10:00:01",
    "2006-02-28 10:00:00",
    "2006-03-01 10:00:01",
    "2004-02-29 10:00:00",
    "2004-02-29 23:59:59",
    "2004-02-29 24:00:00",
    "2004-02-30 00:00:00",
    "2004-03-01 00:00:00",
    "2006-12-31 23:59:59",
    "2006-12-31 23:59:60",
    "2006-12-31 24:00:00",
    "2007-01-01 00:00:00",
    "2006-12-32 00:00:00",
    "1969-12-31 23:59:59",
    "1970-01-01 00:00:00",
]


class TestParseQueryTime:
    """The fast path for the log's own form gives strptime's value, and
    everything else is read, or refused, exactly as strptime does."""

    @given(
        st.one_of(
            near_format_times(),
            st.text("0123456789-: ", min_size=17, max_size=21),
            st.text(),
        )
    )
    @example("2006-03-01 10:00:00")
    @example("1969-12-31 23:59:59")
    @example("0001-01-01 00:00:00")
    @example("9999-12-31 23:59:59")
    @example("2006-02-30 00:00:00")
    @example("2004-02-29 12:00:00")
    @example("0000-01-01 00:00:00")
    @example("2006-03-01 24:00:00")
    @example("2006-03-01 10:60:00")
    @example("2006-03-01 10:00:60")
    @example("2006-03-01 10:00:61")
    @example("2006-3-1 1:2:3")
    @example("2006-03- 1 10:00:00")
    @example("2006-03-01\t10:00:00")
    @example("\u0662\u0660\u0660\u0666-03-01 10:00:00")
    @example(" 2006-03-01 10:00:00\u3000")
    @example("2006-03-01T10:00:00")
    @example("+006-03-01 10:00:00")
    @example("2006-03-01 1_:00:00")
    @example("2006-03-01 +1:00:00")
    @example("2006-03-01 10:-1:00")
    @example("2006-12-31 00:00:00")
    @example("2006-12-31 23:59:59")
    @example("2006-12-31 24:00:00")
    @example("2006-12-31 23:60:00")
    @example("2006-12-31 23:59:60")
    @example("2006-03-01 1\u0660:00:00")
    @example("2006-03-\u0660\u0661 10:00:00")
    def test_matches_strptime(self, raw):
        assert_read_as_strptime(raw)

    def test_hour_cache_in_a_fixed_order(self):
        # each hour is worked out once, on the first stamp that names it:
        # that stamp's minute and second must not change a later reading
        harness._epoch_hour.cache_clear()
        for raw in STAMPS_IN_ORDER:
            assert_read_as_strptime(raw)


def reference_ingest(path):
    """Ingestion row by row, each good row merged by insert_search from its
    raw query: what ingest_query_log_counted must give."""
    histories, skipped = {}, 0
    with open(path, "rb") as fh:
        fh.readline()
        for raw in fh:
            raw = raw.rstrip(b"\r\n")
            if not raw:
                continue
            try:
                fields = raw.decode("utf-8").split("\t")
            except UnicodeDecodeError:
                skipped += 1
                continue
            if len(fields) != 5:
                skipped += 1
                continue
            anon_id, query, query_time, _item_rank, click_url = fields
            try:
                time = strptime_reference(query_time)
            except ValueError:
                skipped += 1
                continue
            hist = histories.get(anon_id, SearchHistory(user_id=anon_id))
            try:
                hist.insert_search(query, time, click_url.strip() or None)
            except EmptyQueryError:
                skipped += 1
                continue
            histories.setdefault(anon_id, hist)
    return histories, skipped


WORDS = ["privacy", "pets 2010", "pets 10", "maps", "caf\u00e9 au lait", "co op"]


@st.composite
def noisy_queries(draw):
    """A word from WORDS with random case, other whitespace or punctuation
    between its words, and punctuation or spaces around it."""
    chars = []
    for c in draw(st.sampled_from(WORDS)):
        if c == " ":
            c = draw(st.sampled_from([" ", "  ", "\u3000", " - ", "\x0c", "."]))
        elif draw(st.booleans()):
            c = c.upper()
        chars.append(c)
    edges = st.sampled_from(["", "", " ", "\"", "?", "!!", " .", "\u00bf"])
    return draw(edges) + "".join(chars) + draw(edges)


@st.composite
def aol_rows(draw):
    """One log row as bytes: good, with repeated queries and times in any
    order, or blank, or malformed in one of the ways ingestion skips."""
    n = draw(st.integers(0, 7200))
    stamp = draw(st.sampled_from([
        datetime.fromtimestamp(1141171200 + n, timezone.utc).strftime("%Y-%m-%d %H:%M:%S"),
        "2006-3-1 1:2:%d" % (n % 60),
        " 2006-03-01 10:00:%02d " % (n % 60),
    ]))
    fields = [
        draw(st.sampled_from(["1", "2", "10"])),
        draw(noisy_queries()),
        stamp,
        draw(st.sampled_from(["", "1", "7"])),
        draw(st.sampled_from(["", "", "http://a.org", " http://a.org ", "http://b.org/2"])),
    ]
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return b""
    if kind == 1:
        del fields[draw(st.integers(0, 4))]
    elif kind == 2:
        fields.append("extra")
    elif kind == 3:
        fields[2] = draw(st.sampled_from(["2006-02-30 00:00:00", "not-a-date", "2006-03-01 24:00:00"]))
    elif kind == 4:
        fields[1] = draw(st.sampled_from(["", "!!!", " \u3000 "]))
    row = "\t".join(fields).encode()
    if kind == 5:
        row += b"\xe9"
    return row


class TestIngestMatchesInsertSearch:
    @given(st.lists(aol_rows(), max_size=40), st.sampled_from([b"\n", b"\r\n"]))
    @settings(max_examples=150, deadline=None)
    def test_same_histories_order_and_skipped(self, rows, newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.tsv"
            path.write_bytes(b"".join(row + newline for row in [AOL_HEADER.encode(), *rows]))
            got, got_skipped = ingest_query_log_counted(path)
            want, want_skipped = reference_ingest(path)
        assert got_skipped == want_skipped
        assert list(got) == list(want)
        for user_id, hist in want.items():
            assert list(got[user_id].entries) == list(hist.entries)
            assert got[user_id].to_dict() == hist.to_dict()


class TestGenSynthetic:
    def test_seeded_determinism(self, wordlist):
        a = gen_synthetic(5, (3, 10), 0.5, wordlist, seed=1)
        b = gen_synthetic(5, (3, 10), 0.5, wordlist, seed=1)
        assert {u: h.to_dict() for u, h in a.items()} == {
            u: h.to_dict() for u, h in b.items()
        }

    def test_zero_clicked_fraction(self, wordlist):
        histories = gen_synthetic(5, 20, 0.0, wordlist, seed=2)
        assert all(h.n_c == 0 for h in histories.values())

    def test_clicked_fraction_binomial_bound(self, wordlist):
        histories = gen_synthetic(10, 100, 0.5, wordlist, seed=3)
        n_h = sum(h.n_h for h in histories.values())
        n_c = sum(h.n_c for h in histories.values())
        # merged entries mix clicked and unclicked draws, so the ratio is a
        # loose binomial bound, about 1000 underlying draws
        assert 0.45 <= n_c / n_h <= 0.60

    def test_bad_fraction(self, wordlist):
        with pytest.raises(HarnessError):
            gen_synthetic(1, 1, 1.5, wordlist, seed=0)


class TestBruteForce:
    def test_single_clicked_query(self):
        hist = SearchHistory(user_id="u")
        hist.insert_search("privacy", 100, "http://privacy.org")
        assert brute_force_recoverable(hist) == {"privacy"}

    def test_result_subset_of_clicked(self, wordlist, rng):
        from conftest import random_history

        hist = random_history(rng, wordlist, max_entries=60)
        assert brute_force_recoverable(hist) <= set(hist.clicked_queries())

    def test_shadowing_hand_enumerated(self):
        # four equal-count clicked queries sharing prefixes "aa"-"aaaz":
        # ranking there is lexicographic, top-3 = aaaz, aaazb, aaazc. "aaazd"
        # loses everywhere shared but wins at its own full-length prefix,
        # where nothing else matches. All four recoverable.
        hist = SearchHistory(user_id="u")
        for q in ["aaazb", "aaazc", "aaazd", "aaaz"]:
            hist.insert_search(q, 100, "http://x")
        assert brute_force_recoverable(hist) == {"aaaz", "aaazb", "aaazc", "aaazd"}

    def test_true_shadowing(self):
        # higher-count extensions outrank the short query at every prefix
        hist = SearchHistory(user_id="u")
        for q in ["aab", "aac", "aad"]:
            hist.insert_search(q, 100, "http://x")
            hist.insert_search(q, 200, "http://x")
        hist.insert_search("aa", 150, "http://x")
        assert brute_force_recoverable(hist) == {"aab", "aac", "aad"}


class TestRunBatch:
    def test_worker_count_invariance(self, wordlist):
        # The batch runs serially whatever --workers says, so its output can
        # depend only on the histories: not on their order, nor on a rerun.
        histories = gen_synthetic(8, (5, 30), 0.6, wordlist, seed=4)
        config = AttackConfig(plan=build_plan(wordlist, 0.9))
        first = run_batch(histories, config).to_json()
        assert run_batch(dict(reversed(histories.items())), config).to_json() == first
        assert run_batch(histories, config).to_json() == first

    def test_empty_input(self):
        with pytest.raises(HarnessError):
            run_batch({}, AttackConfig(plan=build_plan(["aa"], 1.0)))

    def test_mean_recall_over_clicked_users_only(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        clicked = gen_synthetic(2, 10, 1.0, wordlist, seed=5)
        unclicked = gen_synthetic(1, 10, 0.0, wordlist, seed=6)
        histories = {**clicked, "zz": list(unclicked.values())[0]}
        report = run_batch(histories, AttackConfig(plan=plan))
        scored = [r for r in report.per_user if r.n_c > 0]
        assert report.mean_recall == pytest.approx(
            sum(r.recall for r in scored) / len(scored)
        )

    @pytest.mark.parametrize("dataset", ["volunteers", "synthetic"])
    def test_walk_and_heap_loop_write_the_same_report(self, wordlist, monkeypatch, dataset):
        if dataset == "volunteers":
            histories = bundled_volunteers()
        else:
            histories = gen_synthetic(12, (5, 300), 0.7, wordlist, seed=21)
        plan = build_plan(bundled_wordlist(), 0.9)
        budgets = [None, len(plan.seeds) + 30]
        walked = [run_batch(histories, AttackConfig(plan=plan, budget=b)) for b in budgets]
        # the budget cuts some users short and not others
        requests = {r.n_requests for r in walked[1].per_user}
        assert budgets[1] in requests and min(requests) < budgets[1]
        asked = []

        def wrapped(hist):
            index = SuggestIndex(hist)
            return lambda prefix: asked.append(prefix) or index(prefix)

        monkeypatch.setattr(harness, "SuggestIndex", wrapped)
        for budget, report in zip(budgets, walked):
            heap = run_batch(histories, AttackConfig(plan=plan, budget=budget))
            assert heap.to_json() == report.to_json()
        # the heap loop ran: it, unlike the walk, asks the oracle each request
        assert len(asked) == sum(r.n_requests for report in walked for r in report.per_user)

    def test_an_unbudgeted_batch_spells_no_request_list(self, wordlist, monkeypatch):
        # it reads each run's request count and recovered set alone, so no
        # walk builds its request order
        histories = gen_synthetic(8, (5, 300), 0.7, wordlist, seed=22)
        plan = build_plan(wordlist, 0.9)
        spelled = []
        spell = attack._spell
        monkeypatch.setattr(attack, "_spell", lambda *args: spelled.append(args) or spell(*args))
        report = run_batch(histories, AttackConfig(plan=plan))
        assert spelled == []
        assert sum(r.n_requests for r in report.per_user) > len(plan.seeds) * len(histories)
        # a cut run spells its lists at once
        run_batch(histories, AttackConfig(plan=plan, budget=len(plan.seeds) + 1))
        assert spelled

    def test_per_user_failures_recorded(self, wordlist, monkeypatch):
        histories = gen_synthetic(2, 5, 0.5, wordlist, seed=7)
        # the oracle refuses every prefix, so every user's run aborts
        monkeypatch.setattr(harness, "SuggestIndex", refusing_index(lambda p: True))
        report = run_batch(histories, AttackConfig(plan=build_plan(wordlist, 0.9)))
        assert set(report.failures) == set(histories)
        assert report.users == 0


class TestStreamedBatch:
    """A batch reads its histories from any iterable of them, one at a time."""

    def test_streamed_file_reports_as_the_loaded_file(self, tmp_path, wordlist, monkeypatch):
        histories = gen_synthetic(8, (5, 60), 0.6, wordlist, seed=30)

        def renamed(user_id, hist, doomed=False):
            hist = SearchHistory.from_dict({**hist.to_dict(), "user_id": user_id})
            if doomed:
                hist.insert_search("doomed", 1)
            return hist

        lines = [
            *reversed(histories.values()),
            # a repeated user id: the last line's run counts, row or failure
            renamed("user0003", histories["user0006"]),
            renamed("user0001", histories["user0001"], doomed=True),
            renamed("user0005", histories["user0005"], doomed=True),
            renamed("user0001", histories["user0001"]),
            renamed("user0004", histories["user0004"], doomed=True),
        ]
        path = tmp_path / "d.jsonl"
        save_histories(lines, path)

        def index(hist):
            if "doomed" in hist.entries:
                raise RuntimeError("broken history")
            return SuggestIndex(hist)

        monkeypatch.setattr(harness, "SuggestIndex", index)
        config = AttackConfig(plan=build_plan(wordlist, 0.9))
        for budget in (None, 40):
            budgeted = remade(config, budget=budget)
            streamed = run_batch(iter_histories(path), budgeted)
            assert streamed.to_json() == run_batch(load_histories(path), budgeted).to_json()
        assert streamed.failures == dict.fromkeys(["user0004", "user0005"], "broken history")
        rows = {r.user_id: r for r in streamed.per_user}
        assert list(rows) == sorted(set(histories) - {"user0004", "user0005"})
        assert rows["user0003"].n_h == histories["user0006"].n_h
        budgets = (1, 40, 2000)
        curve = recall_curve(iter_histories(path), config, budgets)
        assert curve == recall_curve(load_histories(path), config, budgets)

    def test_an_error_while_reading_propagates(self, wordlist):
        def histories():
            yield from gen_synthetic(2, 5, 0.5, wordlist, seed=3).values()
            raise HistoryError("d.jsonl:3: invalid JSON")

        with pytest.raises(HistoryError, match="invalid JSON"):
            run_batch(histories(), AttackConfig(plan=build_plan(wordlist, 0.9)))


class TestCalibratedFixture:
    def test_volunteer_fixture_shape(self):
        histories = bundled_volunteers()
        assert len(histories) == 12
        assert all(h.n_c > 0 for h in histories.values())

    def test_operating_point(self):
        histories = bundled_volunteers()
        plan = build_plan(bundled_wordlist(), 0.9)
        report = run_batch(histories, AttackConfig(plan=plan))
        assert report.mean_recall == pytest.approx(0.65, abs=0.01)
        assert report.mean_requests < 676

    def test_recall_curve_monotone(self):
        histories = bundled_volunteers()
        plan = build_plan(bundled_wordlist(), 0.9)
        points = recall_curve(histories, AttackConfig(plan=plan), budgets=(10, 50, 200))
        recalls = [p["mean_recall"] for p in points]
        assert recalls == sorted(recalls)


def per_budget_curve(histories, config, budgets):
    """The recall curve as one run_batch per budget: the reference that
    recall_curve must match byte for byte."""
    points = []
    for budget in budgets:
        report = run_batch(histories, remade(config, budget=budget))
        points.append(
            {
                "budget": budget,
                "mean_recall": report.mean_recall,
                "mean_requests": report.mean_requests,
                "users": report.users,
            }
        )
    return points


def assert_same_curve(histories, config, budgets):
    got = recall_curve(histories, config, budgets=budgets)
    assert json.dumps(got) == json.dumps(per_budget_curve(histories, config, budgets))
    return got


@functools.lru_cache(maxsize=None)
def bundled_plan(aborting):
    plan = build_plan(bundled_wordlist(), 0.9)
    # with an oracle that refuses "qz", each run aborts at its own point
    return with_qz_seed(plan) if aborting else plan


@st.composite
def budget_tuples(draw):
    """Budgets in any order, often repeated, with 1, mid-run values and
    values past where every run ends."""
    pool = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(2, 400), st.integers(400, 5000)),
            min_size=1,
            max_size=4,
        )
    )
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))


@given(aborting=st.booleans(), seed=st.integers(0, 2**16), budgets=budget_tuples())
@example(aborting=True, seed=0, budgets=(1, 150, 150, 5000, 1))
@example(aborting=False, seed=0, budgets=(5000, 1, 5000))
@settings(max_examples=100, deadline=None)
def test_curve_is_one_run_batch_per_budget(aborting, seed, budgets):
    histories = gen_synthetic(5, (1, 60), 0.6, bundled_wordlist(), seed=seed)
    config = AttackConfig(plan=bundled_plan(aborting))
    index = refusing_index(lambda p: p == "qz") if aborting else SuggestIndex
    with mock.patch.object(harness, "SuggestIndex", index):
        assert_same_curve(histories, config, budgets)


class TestRecallCurve:
    @pytest.fixture(scope="class")
    def config(self):
        return AttackConfig(plan=build_plan(bundled_wordlist(), 0.9))

    def test_fixture_matches_per_budget_runs(self, config):
        assert_same_curve(bundled_volunteers(), config, (1, 10, 110, 440, 2000))

    def test_synthetic_unsorted_duplicated_budgets(self, config, wordlist):
        # inserted in reverse: the means must still sum in sorted user order
        histories = dict(reversed(gen_synthetic(30, (5, 80), 0.6, wordlist, seed=8).items()))
        points = assert_same_curve(histories, config, (440, 7, 110, 440, 2000, 7))
        assert [p["budget"] for p in points] == [440, 7, 110, 440, 2000, 7]

    def test_budgets_past_frontier_exhaustion(self, config, wordlist):
        histories = gen_synthetic(10, (5, 40), 0.6, wordlist, seed=9)
        unlimited = run_batch(histories, config)
        most = max(r.n_requests for r in unlimited.per_user)
        points = assert_same_curve(histories, config, (most - 1, most, most + 1, 10 * most))
        assert points[-1]["mean_requests"] == unlimited.mean_requests
        assert points[-1]["mean_recall"] == unlimited.mean_recall

    def test_one_run_per_user(self, config, wordlist, monkeypatch):
        histories = gen_synthetic(6, (5, 30), 0.6, wordlist, seed=10)
        budgets = []

        def counting(oracle, run_config):
            budgets.append(run_config.budget)
            return reconstruct(oracle, run_config)

        monkeypatch.setattr(harness, "reconstruct", counting)
        recall_curve(histories, config, budgets=(110, 2000, 440))
        assert budgets == [2000] * len(histories)

    def test_abort_counts_only_at_budgets_it_reached(self, wordlist, monkeypatch):
        # the oracle refuses "qz" and the run aborts partway, after a number
        # of requests that differs per user
        histories = gen_synthetic(12, (5, 80), 0.6, wordlist, seed=11)
        config = AttackConfig(plan=with_qz_seed(build_plan(wordlist, 0.9)))
        index = refusing_index(lambda p: p == "qz")
        monkeypatch.setattr(harness, "SuggestIndex", index)
        reached = []
        for hist in histories.values():
            with pytest.raises(ReconstructionAborted) as exc_info:
                reconstruct(index(hist), config)
            reached.append(exc_info.value.partial.requests_used)
        low, high = min(reached), max(reached)
        middle = sorted(reached)[len(reached) // 2]
        assert low < middle < high
        budgets = (1, low, middle, high, high + 1, 2000)
        points = assert_same_curve(histories, config, budgets)
        users = [run_batch(histories, remade(config, budget=b)).users for b in budgets]
        assert users[1] == len(histories)
        assert 0 < users[2] < len(histories)
        assert users[4] == 0
        assert [p["users"] for p in points] == users
        assert points[4] == {"budget": high + 1, "mean_recall": 0.0, "mean_requests": 0.0, "users": 0}
        assert points[5]["users"] == 0

    def test_every_user_failing_drops_them_at_every_budget(self, wordlist, monkeypatch):
        histories = gen_synthetic(3, 5, 0.5, wordlist, seed=12)
        monkeypatch.setattr(harness, "SuggestIndex", refusing_index(lambda p: True))
        config = AttackConfig(plan=build_plan(wordlist, 0.9))
        assert [p["users"] for p in assert_same_curve(histories, config, (1, 110))] == [0, 0]

    def test_other_failure_drops_user_at_every_budget(self, config, wordlist, monkeypatch):
        histories = gen_synthetic(5, (5, 30), 0.6, wordlist, seed=13)
        doomed = histories["user0002"]

        def index(hist):
            if hist is doomed:
                raise RuntimeError("broken history")
            return SuggestIndex(hist)

        monkeypatch.setattr(harness, "SuggestIndex", index)
        assert run_batch(histories, config).failures == {"user0002": "broken history"}
        assert_same_curve(histories, config, (1, 110, 2000))

    def test_other_failure_fails_the_user_at_budget_1(self, config, wordlist, monkeypatch):
        histories = gen_synthetic(3, (5, 30), 0.6, wordlist, seed=14)

        def index(hist):
            raise RuntimeError("broken history")

        monkeypatch.setattr(harness, "SuggestIndex", index)
        for budget in (None, 1, 110):
            report = run_batch(histories, remade(config, budget=budget))
            assert report.failures == dict.fromkeys(histories, "broken history")
            assert report.per_user == []
        assert [p["users"] for p in recall_curve(histories, config, (1, 110))] == [0, 0]

    def test_edge_cases(self, config):
        assert recall_curve({}, config, budgets=()) == []
        with pytest.raises(AttackError):
            recall_curve(bundled_volunteers(), config, budgets=(110, 0))
        with pytest.raises(HarnessError):
            recall_curve({}, config, budgets=(110,))
