import csv
import dataclasses
import functools
import importlib.util
import json
import random
import tempfile
import tracemalloc
import weakref
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from historiographer import cli, cookies
from historiographer.attack import AttackConfig, RecallReport, format_recall, reconstruct
from historiographer.cli import main
from historiographer.history import DEFAULT_ALPHABET, SearchHistory, iter_histories, save_histories
from historiographer.oracle import SuggestIndex
from historiographer.planner import PLANNER_ALPHABET, PrefixPlan, build_plan, bundled_wordlist


@pytest.fixture
def plan_file(tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", "bundled", "--mass", "0.9", "-o", str(out)]) == 0
    return out


def run(args):
    return main([str(a) for a in args])


AOL_HEADER_LINE = b"AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"


class TestPlan:
    def test_bundled_seed_band(self, tmp_path, plan_file):
        seeds = (tmp_path / "plan.seeds.txt").read_text().splitlines()
        assert 100 <= len(seeds) <= 150
        assert (tmp_path / "plan.stats2.csv").is_file()
        assert (tmp_path / "plan.stats3.csv").is_file()
        manifest = json.loads((tmp_path / "plan.manifest.json").read_text())
        assert manifest["subcommand"] == "plan"
        assert manifest["config"]["mass"] == 0.9

    def test_mass_one_bounded(self, tmp_path):
        out = tmp_path / "full.json"
        assert run(["plan", "bundled", "--mass", "1.0", "--length", "2", "-o", out]) == 0
        seeds = (tmp_path / "full.seeds.txt").read_text().splitlines()
        assert len(seeds) <= 676

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        rc = run(["plan", tmp_path / "nope.txt", "-o", tmp_path / "p.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--mass", "0"], ["--length", "1"], ["--alphabet", "ABC"], ["--alphabet", ""]],
    )
    def test_bad_plan_value_exit_2(self, tmp_path, capsys, flag):
        rc = run(["plan", "bundled", *flag, "-o", tmp_path / "p.json"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("char", ["é", "A", "-"])
    def test_alphabet_outside_the_query_alphabet_exit_2(self, tmp_path, capsys, char):
        # the oracle refuses every prefix holding such a character, so an
        # eval on the plan would fail each user whose run asks one
        alphabet = "abcdefghijklmnopqrstuvwxyz" + char
        rc = run(["plan", "bundled", "--alphabet", alphabet, "-o", tmp_path / "p.json"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --alphabet: {char!r} is not in the query alphabet "
            f"{DEFAULT_ALPHABET!r}\n"
        )
        assert not (tmp_path / "p.json").exists()

    def test_repeated_alphabet_characters_count_once(self, tmp_path):
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        outputs = []
        for name, alphabet in [("once", PLANNER_ALPHABET), ("repeated", PLANNER_ALPHABET + "abc")]:
            plan_path = tmp_path / f"{name}.json"
            assert run(["plan", "bundled", "--alphabet", alphabet, "-o", plan_path]) == 0
            plan = PrefixPlan.load(plan_path)
            assert plan.request_rank() is not None
            out = tmp_path / f"{name}.eval.json"
            assert run(["eval", str(fixture), plan_path, "-o", out]) == 0
            per_user = tmp_path / f"{name}.eval.per_user.csv"
            outputs.append((plan.unigram_order, out.read_bytes(), per_user.read_bytes()))
        assert outputs[0] == outputs[1]


class TestReconstruct:
    def test_appendix_style_fixture(self, tmp_path):
        hist = SearchHistory(user_id="author")
        hist.insert_search("privacy", 100, "http://privacy.org")
        hist.insert_search(
            "privacy enhancing technologies symposium 2010", 110,
            "http://petsymposium.org/2010/",
        )
        hist.insert_search("pets 10", 120)
        hist.insert_search("pets 2010", 130, "http://petsymposium.org/2010/")
        hist_file = tmp_path / "hist.jsonl"
        save_histories([hist], hist_file)

        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_text(
            "privacy\nprivacy enhancing technologies symposium 2010\n"
            "pets 2010\npets 10\npeople\n"
        )
        plan_out = tmp_path / "plan.json"
        assert run([
            "plan", corpus_file, "--mass", "1.0",
            "--alphabet", "abcdefghijklmnopqrstuvwxyz0123456789 ",
            "-o", plan_out,
        ]) == 0
        out = tmp_path / "result.json"
        assert run(["reconstruct", hist_file, plan_out, "-o", out]) == 0
        result = json.loads(out.read_text())
        assert result["recovered"] == [
            "pets 2010",
            "privacy",
            "privacy enhancing technologies symposium 2010",
        ]
        report = (tmp_path / "result.report.csv").read_text().splitlines()
        assert report[1].startswith("author,4,3,3,1.00,")

    def test_empty_history(self, tmp_path, plan_file):
        hist_file = tmp_path / "hist.jsonl"
        save_histories([SearchHistory(user_id="u")], hist_file)
        out = tmp_path / "r.json"
        assert run(["reconstruct", hist_file, plan_file, "-o", out]) == 0
        assert json.loads(out.read_text())["recovered"] == []

    def test_budget_monotone(self, tmp_path, plan_file, wordlist):
        from historiographer.harness import gen_synthetic

        histories = gen_synthetic(1, 60, 0.8, wordlist, seed=11)
        hist_file = tmp_path / "hist.jsonl"
        save_histories(histories.values(), hist_file)
        recovered = {}
        for budget in (10, 100):
            out = tmp_path / f"r{budget}.json"
            assert run([
                "reconstruct", hist_file, plan_file, "--budget", budget, "-o", out,
            ]) == 0
            recovered[budget] = set(json.loads(out.read_text())["recovered"])
        assert recovered[10] <= recovered[100]

    def test_missing_plan_exit_2(self, tmp_path):
        hist_file = tmp_path / "hist.jsonl"
        save_histories([SearchHistory(user_id="u")], hist_file)
        rc = run(["reconstruct", hist_file, tmp_path / "no.json", "-o", tmp_path / "r.json"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value, low",
        [("--max-depth", "0", 2), ("--max-depth", "-1", 2), ("--max-depth", "1", 2),
         ("--budget", "0", 1), ("--budget", "-2", 1)],
    )
    def test_bad_depth_or_budget_exit_2(self, tmp_path, capsys, plan_file, flag, value, low):
        hist_file = tmp_path / "hist.jsonl"
        save_histories([SearchHistory(user_id="u")], hist_file)
        out = tmp_path / "r.json"
        assert run(["reconstruct", hist_file, plan_file, f"{flag}={value}", "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= {low}, got {value}\n"
        assert not out.exists()

    def test_max_depth_two_requests_only_seeds(self, tmp_path, plan_file, wordlist):
        from historiographer.harness import gen_synthetic

        hist_file = tmp_path / "hist.jsonl"
        save_histories(gen_synthetic(1, 200, 0.8, wordlist, seed=11).values(), hist_file)
        depths = {}
        for flags in ([], ["--max-depth", "2"]):
            out = tmp_path / "r.json"
            assert run(["reconstruct", hist_file, plan_file, *flags, "-o", out]) == 0
            depths[len(flags)] = {len(p) for p, _ in json.loads(out.read_text())["request_log"]}
        assert max(depths[0]) > 2 and depths[2] == {2}


    def test_user_of_a_repeated_id_is_its_last_line(self, tmp_path, plan_file):
        def hist(user_id, queries):
            h = SearchHistory(user_id=user_id)
            for q in queries:
                h.insert_search(q, 1, "http://example.com")
            return h

        hist_file = tmp_path / "hist.jsonl"
        save_histories(
            [hist("u2", ["cobalt"]), hist("u1", ["code"]), hist("u1", ["cool", "coffee"]),
             hist("u3", ["dog"])],
            hist_file,
        )
        for flags, expected in [([], "u1,2,2,"), (["--user", "u1"], "u1,2,2,"), (["--user", "u3"], "u3,1,1,")]:
            out = tmp_path / "r.json"
            assert run(["reconstruct", hist_file, plan_file, *flags, "-o", out]) == 0
            report = (tmp_path / "r.report.csv").read_text().splitlines()
            assert report[1].startswith(expected)

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("\n", [], "no histories in {path}"),
            ("\n", ["--user", "u"], "no histories in {path}"),
            ('{"user_id": "u", "history_enabled": true}\n', ["--user", "v"], "user 'v' not in {path}"),
            ('{"user_id": "u", "history_enabled": true}\n{"user_id": "v"}\n', ["--user", "u"],
             "{path}:2: history_enabled: missing"),
        ],
        ids=["empty", "empty-with-user", "user-absent", "bad-line-after-the-user"],
    )
    def test_history_file_problems_exit_2(self, tmp_path, capsys, plan_file, text, flags, message):
        hist_file = tmp_path / "hist.jsonl"
        hist_file.write_text(text)
        out = tmp_path / "out" / "r.json"
        assert run(["reconstruct", hist_file, plan_file, *flags, "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=hist_file)}\n"


class TestEval:
    def test_calibrated_fixture_default_config(self, tmp_path):
        from importlib import resources

        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        out = tmp_path / "report.json"
        assert run(["eval", str(fixture), "-o", out]) == 0
        report = json.loads(out.read_text())
        assert abs(report["mean_recall"] - 0.65) <= 0.01
        assert report["mean_requests"] < 676

    def test_worker_determinism(self, tmp_path, wordlist):
        from historiographer.harness import gen_synthetic

        histories = gen_synthetic(6, (5, 30), 0.6, wordlist, seed=12)
        dataset = tmp_path / "d.jsonl"
        save_histories((histories[u] for u in sorted(histories)), dataset)
        outputs = []
        for workers in (1, 8):
            out = tmp_path / f"rep{workers}.json"
            assert run([
                "eval", dataset, "--workers", workers, "--seed", 0, "-o", out,
            ]) == 0
            outputs.append(out.read_bytes())
            csv_out = tmp_path / f"rep{workers}.per_user.csv"
            outputs.append(csv_out.read_bytes())
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

    def test_aol_format_ingests(self, tmp_path):
        dataset = tmp_path / "log.tsv"
        dataset.write_text(
            "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
            "1\tprivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org\n"
            "2\tmalformed row\n"
            "2\tmaps\t2006-03-02 09:00:00\t\t\n"
        )
        out = tmp_path / "rep.json"
        assert run(["eval", dataset, "-o", out]) == 0
        report = json.loads(out.read_text())
        assert report["users"] == 2

    def test_aol_row_not_utf8_skipped_and_reported(self, tmp_path, capsys):
        dataset = tmp_path / "log.tsv"
        dataset.write_bytes(
            AOL_HEADER_LINE
            + b"1\tprivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org\n"
            + b"1\tcaf\xe9\t2006-03-01 10:01:00\t\t\n"
            + b"2\tmalformed row\n"
        )
        assert run(["eval", dataset, "-o", tmp_path / "rep.json"]) == 0
        assert capsys.readouterr().err == f"{dataset}: skipped 2 malformed rows\n"
        assert json.loads((tmp_path / "rep.json").read_text())["users"] == 1

    def test_aol_crlf_same_outputs(self, tmp_path, capsys):
        rows = (
            b"1\tPrivacy\t2006-03-01 10:00:00\t1\thttp://privacy.org\n"
            b"1\tpets 2010\t2006-03-01 10:05:00\t\thttp://petsymposium.org\n"
            b"2\tmaps\t2006-03-02 09:00:00\t\t\n"
        )
        outputs = []
        for name, newline in [("lf", b"\n"), ("crlf", b"\r\n")]:
            dataset = tmp_path / f"{name}.tsv"
            dataset.write_bytes((AOL_HEADER_LINE + rows).replace(b"\n", newline))
            assert run(["eval", dataset, "-o", tmp_path / f"{name}.json"]) == 0
            assert capsys.readouterr().err == ""
            outputs.append([(tmp_path / f"{name}{suffix}").read_bytes() for suffix in (".json", ".per_user.csv")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["users"] == 2

    def test_per_user_columns_are_the_report_fields(self, tmp_path):
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        out = tmp_path / "r.json"
        assert run(["eval", str(fixture), "-o", out]) == 0
        names = [f.name for f in dataclasses.fields(RecallReport)]
        with open(tmp_path / "r.per_user.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == names
        per_user = json.loads(out.read_text())["per_user"]
        assert len(per_user) == len(rows) == 12
        for row, cells in zip(per_user, rows):
            assert sorted(row) == sorted(names)
            # each column holds the field it names, recall truncated
            expected = {k: str(v) for k, v in row.items()}
            expected["recall"] = format_recall(row["recall"])
            assert dict(zip(header, cells)) == expected

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    def test_plan_unigram_order_outside_the_query_alphabet_exit_2(
        self, tmp_path, capsys, plan_file, command
    ):
        # the fallback extends prefixes by unigram_order, and the oracle
        # refuses every prefix holding such a character
        plan = json.loads(plan_file.read_text())
        plan["unigram_order"] += "é"
        plan_file.write_text(json.dumps(plan))
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run([command, str(fixture), plan_file, "-o", out_dir / "r.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {plan_file}: unigram_order: 'é' is not in the query alphabet "
            f"{DEFAULT_ALPHABET!r}\n"
        )
        assert list(out_dir.iterdir()) == []

    def test_bad_budget_exit_2(self, tmp_path, capsys):
        from importlib import resources

        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        rc = run(["eval", str(fixture), "--budget", "0", "-o", tmp_path / "r.json"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --budget must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exit_2(self, tmp_path, capsys, workers):
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        out = tmp_path / "r.json"
        assert run(["eval", str(fixture), f"--workers={workers}", "-o", out]) == 2
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
        assert list(tmp_path.iterdir()) == []

    def test_history_missing_field_exit_2(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({"user_id": "u", "entries": []}) + "\n")
        rc = run(["eval", dataset, "-o", tmp_path / "r.json"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {dataset}:1: history_enabled: missing\n"

    @pytest.mark.parametrize(
        "line",
        ['{"user_id": "u", "count": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["over-long-integer", "deep-nesting"],
    )
    def test_json_the_decoder_refuses_exit_2(self, tmp_path, capsys, line):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({"user_id": "u", "history_enabled": True}) + "\n" + line + "\n")
        assert run(["eval", dataset, "-o", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {dataset}:2: invalid JSON: ")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"stats": None}, "stats: missing"),
            ({"seeds": "ab"}, "seeds: expected a list, got str"),
            ({"mass_fraction": True}, "mass_fraction: expected a number, got bool"),
            ([], "expected a JSON object, got list"),
            ({"stats": {"2": 5}}, "stats.2: expected an object, got int"),
            ({"selected": {"2": 5}}, "selected.2: expected a list of strings"),
            ({"stats": {"x": {}}}, "stats.x: expected an integer key"),
            ({"stats": {"2": {"ab": "5"}}}, "stats.2.ab: expected an integer, got str"),
            ({"selected": {"three": []}}, "selected.three: expected an integer key"),
            ({"selected": []}, "selected: expected an object, got list"),
            ({"filter_extensions": "no"}, "filter_extensions: expected a boolean, got str"),
            ({"seeds": ["ab", 5]}, "seeds: expected a list of strings"),
            ({"seeds": []}, "seeds: empty"),
            # a prefix the oracle would refuse for every user
            ({"seeds": ["ab", "ZZ"]}, "seeds: 'ZZ' is not normalized"),
            ({"seeds": ["ab", "c"]}, "seeds: 'c' shorter than 2"),
            ({"stats": {"2": {"ab": 3, " a": 1}}}, "stats.2: ' a' is not normalized"),
            ({"stats": {"3": {"abc": 3}, "2": {"x": 0}}}, "stats.2: 'x' shorter than 2"),
            ({"selected": {"3": ["abc", "ab  "]}}, "selected.3: 'ab  ' is not normalized"),
            ({"selected": {"2": [""]}}, "selected.2: '' shorter than 2"),
        ],
    )
    def test_malformed_plan_exit_2(self, tmp_path, capsys, plan_file, change, message):
        if isinstance(change, dict):
            plan = {**json.loads(plan_file.read_text()), **change}
            plan_file.write_text(json.dumps({k: v for k, v in plan.items() if v is not None}))
        else:
            plan_file.write_text(json.dumps(change))
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        assert run(["eval", str(fixture), plan_file, "-o", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err == f"error: {plan_file}: {message}\n"


    def test_streamed_eval_holds_at_most_two_histories(self, tmp_path, wordlist, monkeypatch):
        from historiographer.harness import gen_synthetic

        dataset = tmp_path / "d.jsonl"
        save_histories(gen_synthetic(6, (5, 40), 0.6, wordlist, seed=15).values(), dataset)
        refs, alive = [], []

        def watched(path):
            for hist in iter_histories(path):
                refs.append(weakref.ref(hist))
                # the histories still alive as history k is handed on
                alive.append([i for i, ref in enumerate(refs) if ref() is not None])
                yield hist

        monkeypatch.setattr(cli, "iter_histories", watched)
        assert run(["eval", dataset, "-o", tmp_path / "r.json"]) == 0
        assert len(alive) == 6
        assert [k for k, indices in enumerate(alive) if min(indices) < k - 1] == []

    def test_bad_last_line_writes_nothing(self, tmp_path, capsys):
        fixture = resources.files("historiographer.data").joinpath("volunteers.jsonl")
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(fixture.read_text() + json.dumps({"user_id": "u"}) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run(["eval", dataset, "-o", out_dir / "r.json"]) == 2
        assert capsys.readouterr().err == f"error: {dataset}:13: history_enabled: missing\n"
        assert list(out_dir.iterdir()) == []

    def test_bad_plan_reported_before_a_bad_record(self, tmp_path, capsys, plan_file):
        plan = json.loads(plan_file.read_text())
        plan["seeds"].append("ZZ")
        plan_file.write_text(json.dumps(plan))
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("{not json\n")
        out = tmp_path / "out" / "r.json"
        assert run(["eval", dataset, plan_file, "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {plan_file}: seeds: 'ZZ' is not normalized\n"
        # a missing dataset is still reported first
        missing = tmp_path / "missing.jsonl"
        assert run(["eval", missing, plan_file, "-o", out]) == 2
        assert capsys.readouterr().err == f"error: dataset not found: {missing}\n"


class TestAudit:
    def _write_trace(self, tmp_path, rows):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_fixture_counts_and_services(self, tmp_path):
        trace = self._write_trace(tmp_path, [
            {"time": 1, "scheme": "http", "client_ip": "10.0.0.1",
             "host": "www.google.com", "path": "/search",
             "headers": {"Cookie": ["SID=s1"]}, "body_flags": ["has_history_link"]},
            {"time": 2, "scheme": "http", "client_ip": "10.0.0.2",
             "host": "www.google.com", "path": "/search",
             "headers": {"Cookie": ["NID=n1"]}, "body_flags": []},
        ])
        out = tmp_path / "audit.json"
        assert run(["audit", trace, "-o", out]) == 0
        audit = json.loads(out.read_text())
        assert audit["user_counts"] == {
            "signed_in": 1, "anonymous": 1, "history_enabled": 1,
        }
        (account,) = audit["accounts"]
        assert "Search" in account["services_accessible"]
        assert "Gmail" not in account["services_accessible"]
        assert "Docs" not in account["services_accessible"]

    def test_ip_binding_empties_access(self, tmp_path):
        trace = self._write_trace(tmp_path, [
            {"time": 1, "scheme": "http", "client_ip": "10.0.0.1",
             "host": "www.google.com", "path": "/search",
             "headers": {"Cookie": ["SID=s1"]}, "body_flags": []},
        ])
        out = tmp_path / "audit.json"
        assert run([
            "audit", trace, "--enforce-ip-binding", "--replay-ip", "9.9.9.9",
            "-o", out,
        ]) == 0
        audit = json.loads(out.read_text())
        assert audit["accounts"][0]["services_accessible"] == []

    def test_missing_trace_exit_2(self, tmp_path):
        assert run(["audit", tmp_path / "no.jsonl", "-o", tmp_path / "a.json"]) == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"client_ip": None}, "client_ip: missing"),
            ({"time": "x"}, "time: expected an integer, got str"),
            ({"headers": []}, "headers: expected an object, got list"),
            ({"body_flags": 5}, "body_flags: expected a list of strings"),
            ({"client_ip": ["10.0.0.1"]}, "client_ip: expected a string, got list"),
            ({"headers": {"Cookie": [5]}}, "headers.Cookie: expected a string or a list of strings"),
            ({"time": 1e400}, "time: expected an integer, got float"),
            ({"body_flags": "has_history_link"}, "body_flags: expected a list of strings"),
            ({"body_flags": [1]}, "body_flags: expected a list of strings"),
            ("[1,2]", "record: expected an object"),
        ],
    )
    def test_malformed_record_exit_2(self, tmp_path, capsys, change, message):
        good = {"time": 1, "scheme": "http", "client_ip": "10.0.0.1",
                "host": "www.google.com", "path": "/search"}
        if isinstance(change, str):
            bad = change
        else:
            record = {k: v for k, v in {**good, **change}.items() if v is not None}
            bad = json.dumps(record)
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(good) + "\n" + bad + "\n")
        assert run(["audit", trace, "-o", tmp_path / "a.json"]) == 2
        assert capsys.readouterr().err == f"error: {trace}:2: {message}\n"

    def test_bad_trace_reported_before_missing_catalog(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path, [
            {"time": 1, "client_ip": "10.0.0.1", "host": "www.google.com", "path": "/"},
        ])
        out = tmp_path / "a.json"
        assert run(["audit", trace, tmp_path / "no-catalog.json", "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {trace}:1: scheme: missing\n"

    def test_bad_last_line_writes_nothing(self, tmp_path, capsys):
        good = {"time": 1, "scheme": "http", "client_ip": "10.0.0.1", "host": "www.google.com",
                "path": "/search", "headers": {"Cookie": "SID=s1"}}
        trace = self._write_trace(tmp_path, [good, good, {**good, "time": None}])
        assert run(["audit", trace, "-o", tmp_path / "a.json"]) == 2
        assert capsys.readouterr().err == f"error: {trace}:3: time: expected an integer, got NoneType\n"
        assert list(tmp_path.iterdir()) == [trace]

    def test_audit_memory_does_not_grow_with_the_trace(self, tmp_path):
        """The audit keeps per-SID state, not the records: its peak is under
        a quarter of what holding the loaded trace takes."""
        rng = random.Random(5)
        rows = []
        for t in range(20_000):
            client = rng.randrange(800)
            crumbs = f"NID=n{client}" + (f"; SID=s{client}; HSID=h{client}" if client % 2 else "")
            rows.append({
                "time": t, "scheme": rng.choice(["http", "https"]), "client_ip": f"10.0.{client >> 8}.{client & 255}",
                "host": "www.google.com", "path": "/search", "headers": {"Cookie": crumbs},
                "body_flags": ["has_history_link"] if rng.random() < 0.1 else [],
            })
        trace = self._write_trace(tmp_path, rows)
        tracemalloc.start()
        try:
            cookies.load_trace(trace)
            loaded_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert run(["audit", trace, "-o", tmp_path / "a.json"]) == 0
            audit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit_peak < loaded_peak / 4

    def test_every_name_the_benchmark_tracer_patches_exists(self):
        # perfbench/tracing.py swaps each of its targets for a wrapper by
        # name, so a target that is renamed or deleted breaks a traced run
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TARGETS
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in tracing.TARGETS
            if not hasattr(owner, attr)
        ]
        assert missing == []
        # installed() also patches this one outside TARGETS
        assert hasattr(tracing.harness, "reconstruct")
        # and summarizes each run from these fields of its result
        hist = SearchHistory(user_id="u")
        hist.insert_search("cobalt", 1, "http://example.com/cobalt")
        result = reconstruct(
            SuggestIndex(hist), AttackConfig(plan=build_plan(bundled_wordlist(), 0.9), budget=5)
        )
        assert result.recovered == {"cobalt"}
        assert tracing._run_summary(result) == (5, 1, False)

    @pytest.mark.parametrize(
        "index, change, message",
        [
            (2, {"default_scheme": None}, "[2].default_scheme: missing"),
            (0, {"default_scheme": 5}, "[0].default_scheme: expected a string, got int"),
            (1, {"uses_domain_cookie": 0}, "[1].uses_domain_cookie: expected a boolean, got int"),
            (
                5,
                {"https_support": "required"},
                "[5].https_support: expected one of no, optional, mandatory, got 'required'",
            ),
            (0, {"default_scheme": "ftp"}, "[0].default_scheme: expected one of http, https, got 'ftp'"),
            (3, {"https_support": ""}, "[3].https_support: expected one of no, optional, mandatory, got ''"),
        ],
    )
    def test_malformed_catalog_exit_2(self, tmp_path, capsys, index, change, message):
        trace = self._write_trace(tmp_path, [
            {"time": 1, "scheme": "http", "client_ip": "10.0.0.1",
             "host": "www.google.com", "path": "/search", "headers": {"Cookie": "SID=s1"}},
        ])
        text = resources.files("historiographer.data").joinpath("services.json").read_text()
        catalog = json.loads(text)
        entry = {**catalog[index], **change}
        catalog[index] = {k: v for k, v in entry.items() if v is not None}
        catalog_file = tmp_path / "services.json"
        catalog_file.write_text(json.dumps(catalog))
        assert run(["audit", trace, catalog_file, "-o", tmp_path / "a.json"]) == 2
        assert capsys.readouterr().err == f"error: {catalog_file}: {message}\n"


GOOD_LINES = {
    "eval": json.dumps({"user_id": "u", "history_enabled": True}).encode(),
    "audit": json.dumps({"time": 1, "scheme": "http", "client_ip": "10.0.0.1", "host": "h", "path": "/"}).encode(),
}
GOOD_LINES["reconstruct"] = GOOD_LINES["eval"]


@pytest.mark.parametrize("command", ["eval", "reconstruct", "audit"])
@pytest.mark.parametrize(
    "lines, lineno",
    [
        ([b"\xff\xfe{}"], 1),  # a UTF-16 byte order mark
        ([None, None, b'{"note": "caf\xe9"}'], 3),  # Latin-1
    ],
    ids=["first-line", "third-line"],
)
def test_not_utf8_exit_2_naming_the_line(tmp_path, capsys, plan_file, command, lines, lineno):
    data = tmp_path / "data.jsonl"
    data.write_bytes(b"".join((line or GOOD_LINES[command]) + b"\n" for line in lines))
    args = [command, data, plan_file] if command == "reconstruct" else [command, data]
    assert run([*args, "-o", tmp_path / "out.json"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}:{lineno}: not UTF-8: ")


@pytest.mark.parametrize("command", ["plan", "gen"])
@pytest.mark.parametrize(
    "data, lineno",
    [(b"caf\xe9\nhello\n", 1), (b"hello\r\nworld\n\xff\n", 3)],
    ids=["first-line", "third-line"],
)
def test_corpus_not_utf8_exit_2_naming_the_line(tmp_path, capsys, command, data, lineno):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(data)
    out = tmp_path / "out.json"
    args = ["plan", corpus] if command == "plan" else ["gen", "--users", 2, "--vocab", corpus]
    assert run([*args, "-o", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {corpus}:{lineno}: not UTF-8: ")
    assert not out.exists()


def audit_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        trace.write_text(text, encoding="utf-8")
        return main(["audit", str(trace), "-o", str(Path(tmp) / "audit.json")])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
COOKIE_TEXT = st.one_of(
    st.text(max_size=12),
    st.builds("SID={}; NID={}".format, st.text("ab", min_size=1, max_size=2), st.text("ab", max_size=2)),
)
GOOD_FIELDS = {
    "time": st.one_of(st.integers(), st.text("0123456789", min_size=1, max_size=5)),
    "scheme": st.sampled_from(["http", "https", "HTTP", "ftp"]),
    "client_ip": st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    "host": st.sampled_from(["www.google.com", "mail.google.com"]),
    "path": st.sampled_from(["/", "/search"]),
    "headers": st.fixed_dictionaries(
        {"Cookie": st.one_of(COOKIE_TEXT, st.lists(COOKIE_TEXT, max_size=2))},
        optional={"cookie": COOKIE_TEXT, "Set-Cookie": COOKIE_TEXT, "User-Agent": st.text(max_size=5)},
    ),
    "body_flags": st.lists(st.sampled_from(["has_history_link", "other"]), max_size=2),
}
# the fields to break, and the value inside headers that the audit parses
BREAKABLE = sorted(GOOD_FIELDS) + ["headers.Cookie"]


@st.composite
def trace_records(draw):
    """A good record, or one with a field left out or given any JSON value."""
    record = draw(st.fixed_dictionaries(GOOD_FIELDS))
    key = draw(st.one_of(st.none(), st.sampled_from(BREAKABLE)))
    if key == "headers.Cookie":
        record["headers"]["Cookie"] = draw(st.one_of(JSON_VALUES, st.lists(JSON_VALUES, min_size=1, max_size=2)))
    elif key is not None and draw(st.booleans()):
        del record[key]
    elif key is not None:
        record[key] = draw(JSON_VALUES)
    return record


class TestAuditExitCodes:
    """Whatever a trace holds, audit succeeds or reports an input error
    (exit 2); it never exits 3."""

    @given(st.text(st.characters(blacklist_categories=("Cs",))))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_text(self, text):
        assert audit_exit_code(text) in (0, 2)

    @given(st.lists(trace_records(), min_size=1, max_size=2))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_records_of_right_and_wrong_types(self, records):
        assert audit_exit_code("".join(json.dumps(r) + "\n" for r in records)) in (0, 2)

    def test_good_records_pass(self):
        record = {"time": "7", "scheme": "HTTP", "client_ip": "10.0.0.1", "host": "h",
                  "path": "/", "headers": {"Cookie": ["SID=a", "NID=b"]}, "body_flags": []}
        assert audit_exit_code(json.dumps(record) + "\n") == 0


@functools.lru_cache(maxsize=None)
def bundled_plan_text():
    return json.dumps(build_plan(bundled_wordlist(), 0.9).to_dict())


# the plan's fields, and the nested values the loader checks, as key paths
PLAN_PATHS = [
    ("seeds",), ("mass_fraction",), ("alphabet",), ("unigram_order",), ("stats",),
    ("selected",), ("selection",), ("filter_extensions",),
    ("seeds", 0), ("stats", "2"), ("stats", "3", "con"), ("selected", "3"), ("selected", "3", 0),
]


@st.composite
def plan_objects(draw):
    """The bundled plan with a field or nested value left out, replaced by
    any JSON value, or added under any key; or any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    plan = json.loads(bundled_plan_text())
    *parents, key = draw(st.sampled_from(PLAN_PATHS))
    owner = plan
    for parent in parents:
        owner = owner[parent]
    action = draw(st.sampled_from(["drop", "replace", "add"]))
    if action == "drop":
        del owner[key]
    elif action == "replace":
        owner[key] = draw(JSON_VALUES)
    elif type(owner) is dict:
        owner[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    else:
        owner.append(draw(JSON_VALUES))
    return plan


class TestPlanExitCodes:
    """Whatever a plan file holds, eval and reconstruct on it succeed or
    report an input error (exit 2); they never exit 3."""

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    @given(plan=plan_objects())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_plan(self, command, plan):
        hist = SearchHistory(user_id="u")
        for query in ["cobalt", "code", "coffee", "cool", "dog"]:
            hist.insert_search(query, 1, "http://example.com")
        with tempfile.TemporaryDirectory() as tmp:
            data, plan_file = Path(tmp) / "data.jsonl", Path(tmp) / "plan.json"
            save_histories([hist], data)
            plan_file.write_text(json.dumps(plan))
            args = [command, str(data), str(plan_file), "-o", str(Path(tmp) / "out.json")]
            assert main(args) in (0, 2)


def exit_code(command: str, data: bytes) -> int:
    """The exit code of eval, or reconstruct with the bundled plan, on a
    dataset holding these bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp) / "data"
        dataset.write_bytes(data)
        args = [command, str(dataset)]
        if command == "reconstruct":
            plan_file = Path(tmp) / "plan.json"
            plan_file.write_text(bundled_plan_text())
            args.append(str(plan_file))
        return main([*args, "-o", str(Path(tmp) / "out.json")])


AOL_FIELDS = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([
        b"1", b"2", b"Privacy", b"caf\xe9", b"!!!", b"", b"http://a.org",
        b"2006-03-01 10:00:00", b"2006-02-30 00:00:00", b"2006-3-1 1:2:3",
    ]),
)
AOL_ROWS = st.one_of(st.binary(max_size=30), st.lists(AOL_FIELDS, min_size=4, max_size=6).map(b"\t".join))
AOL_BODIES = st.builds(bytes.join, st.sampled_from([b"\n", b"\r\n", b"\r"]), st.lists(AOL_ROWS, max_size=4))

ENTRY_FIELDS = {
    "query": st.one_of(st.sampled_from(["cobalt", "code", "coffee", "Co  ol", ""]), st.text(max_size=6)),
    "clicked": st.booleans(),
    "first_time": st.integers(),
    "last_time": st.integers(),
    "count": st.integers(),
}
HISTORY_FIELDS = {
    "user_id": st.one_of(st.text(max_size=4), st.sampled_from(["\ud800", "a\udfff"])),
    "history_enabled": st.booleans(),
    "entries": st.lists(
        st.fixed_dictionaries(ENTRY_FIELDS, optional={"clicked_urls": st.lists(st.text(max_size=4), max_size=2)}),
        max_size=4,
    ),
}


@st.composite
def history_lines(draw):
    """A history record (its user id sometimes holding a lone surrogate),
    good or with one of its fields, or one of its first entry's, left out or
    given any JSON value; any JSON value; or any bytes."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=20))
    if kind == 1:
        return json.dumps(draw(JSON_VALUES)).encode()
    record = draw(st.fixed_dictionaries(HISTORY_FIELDS))
    owner = record["entries"][0] if record["entries"] and draw(st.booleans()) else record
    key = draw(st.sampled_from(sorted(owner)))
    action = draw(st.sampled_from(["keep", "drop", "replace"]))
    if action == "drop":
        del owner[key]
    elif action == "replace":
        owner[key] = draw(JSON_VALUES)
    return json.dumps(record).encode()


class TestDatasetExitCodes:
    """Whatever a dataset holds, eval (and reconstruct, on a history file)
    succeeds or reports an input error (exit 2); it never exits 3."""

    @given(st.one_of(st.binary(), AOL_BODIES))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_aol_header_then_any_bytes(self, body):
        assert exit_code("eval", AOL_HEADER_LINE + body) in (0, 2)

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    @given(lines=st.lists(history_lines(), max_size=3))
    @example(lines=[b'{"user_id": "\\ud800", "history_enabled": true}'])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_history_lines(self, command, lines):
        assert exit_code(command, b"".join(line + b"\n" for line in lines)) in (0, 2)


class TestGen:
    def test_deterministic_and_manifest(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run([
                "gen", "--users", 5, "--entries", "3:10",
                "--clicked-fraction", 0.5, "--seed", 1, "-o", out,
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["config"]["seed"] == 1

    def test_zero_clicked(self, tmp_path):
        from historiographer.history import load_histories

        out = tmp_path / "d.jsonl"
        assert run([
            "gen", "--users", 3, "--entries", "5", "--clicked-fraction", 0,
            "--seed", 2, "-o", out,
        ]) == 0
        assert all(h.n_c == 0 for h in load_histories(out).values())

    @pytest.mark.parametrize("entries", ["5:1", "x", "0", "0:3", "1:x", ":", "3:", "-2:4"])
    def test_bad_entries_exit_2(self, tmp_path, capsys, entries):
        out = tmp_path / "d.jsonl"
        rc = run(["gen", "--users", 2, f"--entries={entries}", "-o", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --entries") and repr(entries) in err
        assert not out.exists()

    @pytest.mark.parametrize("users", ["0", "-1"])
    def test_bad_users_exit_2(self, tmp_path, capsys, users):
        out = tmp_path / "d.jsonl"
        assert run(["gen", f"--users={users}", "-o", out]) == 2
        assert capsys.readouterr().err == f"error: --users must be >= 1, got {users}\n"
        assert list(tmp_path.iterdir()) == []

    def test_entries_range_bounds_inclusive(self, tmp_path):
        from historiographer.history import load_histories

        out = tmp_path / "d.jsonl"
        assert run(["gen", "--users", 4, "--entries", "3:3", "--clicked-fraction", 1, "-o", out]) == 0
        assert all(h.n_h <= 3 for h in load_histories(out).values())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


def test_cli_import_leaves_email_utils_unloaded():
    # only Set-Cookie Expires parsing needs it, and the CLI never parses one
    import historiographer
    import subprocess
    import sys

    src = str(Path(historiographer.__file__).resolve().parent.parent)
    code = "import sys, historiographer.cli; print('email.utils' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout == "False\n"
