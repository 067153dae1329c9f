import json
import random
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from historiographer import cli
from historiographer.cookies import (
    CatalogError,
    Cookie,
    MalformedHeaderError,
    TraceError,
    TraceTally,
    TrafficRecord,
    audit_services,
    audit_trace,
    bundled_catalog,
    cookie_applies,
    count_users,
    harvest_accounts,
    iter_trace,
    load_catalog,
    load_trace,
    parse_set_cookie,
    write_audit_csv,
)

SID = Cookie(name="SID", value="abc", domain="google.com", path="/", secure=False)
SSID = Cookie(name="SSID", value="sec", domain="google.com", path="/", secure=True)
LSID = Cookie(name="LSID", value="ls", domain="google.com", path="/accounts", secure=True)


def record(scheme="http", host="www.google.com", path="/search", time=0, **kw):
    return TrafficRecord(
        time=time, scheme=scheme, client_ip=kw.pop("client_ip", "10.0.0.1"),
        host=host, path=path, **kw,
    )


class TestParseSetCookie:
    def test_sid_row(self):
        cookie = parse_set_cookie("SID=abc; Domain=google.com; Path=/")
        assert (cookie.name, cookie.domain, cookie.path, cookie.secure) == (
            "SID", "google.com", "/", False,
        )

    def test_lsid_row(self):
        cookie = parse_set_cookie("LSID=xyz; Domain=google.com; Path=/accounts; Secure")
        assert cookie.secure
        assert cookie.path == "/accounts"

    def test_malformed(self):
        with pytest.raises(MalformedHeaderError):
            parse_set_cookie("garbage")

    def test_missing_domain_is_host_cookie(self):
        cookie = parse_set_cookie("PREF=x; Path=/", request_host="www.google.com")
        assert cookie.host_only
        assert cookie.domain == "www.google.com"

    def test_defaults_and_case_insensitive_attrs(self):
        cookie = parse_set_cookie("NID=1; dOmAiN=google.com; SECURE")
        assert cookie.path == "/"
        assert cookie.secure

    def test_expires_epoch(self):
        cookie = parse_set_cookie("SID=a; Domain=google.com; Expires=12345")
        assert cookie.expiry == 12345


class TestCookieApplies:
    def test_sid_on_http_subdomain(self):
        assert cookie_applies(SID, record(host="maps.google.com", path="/anything"))

    def test_secure_cookie_never_on_http(self):
        assert not cookie_applies(SSID, record())
        assert cookie_applies(SSID, record(scheme="https"))

    def test_path_prefix_rule(self):
        assert not cookie_applies(LSID, record(scheme="https", path="/search"))
        assert cookie_applies(LSID, record(scheme="https", path="/accounts/login"))

    def test_domain_mismatch(self):
        assert not cookie_applies(SID, record(host="example.com"))
        assert not cookie_applies(SID, record(host="notgoogle.com"))

    def test_expired(self):
        stale = Cookie(name="SID", value="a", domain="google.com", expiry=100)
        assert cookie_applies(stale, record(time=100))
        assert not cookie_applies(stale, record(time=101))

    def test_scheme_monotone(self):
        # anything applying over http also applies over https
        for cookie in (SID, SSID, LSID):
            for path in ("/", "/accounts", "/search"):
                http_req = record(path=path)
                https_req = record(scheme="https", path=path)
                if cookie_applies(cookie, http_req):
                    assert cookie_applies(cookie, https_req)


def trace_fixture():
    """10 records: 3 distinct SIDs (2 flagged with the history link),
    2 NID-only clients, 1 NID co-occurring with an SID client."""
    rows = [
        # sid1: flagged
        {"time": 1, "scheme": "http", "client_ip": "10.0.0.1", "host": "www.google.com",
         "path": "/search", "headers": {"Cookie": ["SID=s1"]}, "body_flags": ["has_history_link"]},
        {"time": 2, "scheme": "http", "client_ip": "10.0.0.1", "host": "maps.google.com",
         "path": "/", "headers": {"Cookie": ["SID=s1"]}, "body_flags": []},
        # sid2: flagged
        {"time": 3, "scheme": "http", "client_ip": "10.0.0.2", "host": "www.google.com",
         "path": "/search", "headers": {"Cookie": ["SID=s2; NID=n3"]}, "body_flags": ["has_history_link"]},
        # sid3: not flagged
        {"time": 4, "scheme": "http", "client_ip": "10.0.0.3", "host": "www.google.com",
         "path": "/search", "headers": {"Cookie": ["SID=s3"]}, "body_flags": []},
        # NID-only clients
        {"time": 5, "scheme": "http", "client_ip": "10.0.0.4", "host": "www.google.com",
         "path": "/search", "headers": {"Cookie": ["NID=n1"]}, "body_flags": []},
        {"time": 6, "scheme": "http", "client_ip": "10.0.0.5", "host": "www.google.com",
         "path": "/search", "headers": {"Cookie": ["NID=n2"]}, "body_flags": []},
        {"time": 7, "scheme": "http", "client_ip": "10.0.0.5", "host": "news.google.com",
         "path": "/", "headers": {"Cookie": ["NID=n2"]}, "body_flags": []},
        # https records: cookies must be redacted on load
        {"time": 8, "scheme": "https", "client_ip": "10.0.0.1", "host": "mail.google.com",
         "path": "/", "headers": {"Cookie": ["SID=s1; SSID=sec1"]}, "body_flags": []},
        {"time": 9, "scheme": "https", "client_ip": "10.0.0.2", "host": "www.google.com",
         "path": "/accounts", "headers": {"Set-Cookie": ["LSID=x; Secure"]}, "body_flags": []},
        {"time": 10, "scheme": "http", "client_ip": "10.0.0.4", "host": "www.google.com",
         "path": "/search", "headers": {"User-Agent": ["Mozilla/5.0"]}, "body_flags": []},
    ]
    return rows


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in trace_fixture()) + "\n")
    return path


class TestTrace:
    def test_https_redaction(self, trace_file):
        trace = load_trace(trace_file)
        for rec in trace:
            if rec.scheme == "https":
                assert rec.cookies == {}

    def test_count_users_hand_counted(self, trace_file):
        trace = load_trace(trace_file)
        counts = count_users(trace)
        # hand count: SIDs s1,s2,s3; NIDs n1,n2 on SID-free clients (n3 rides
        # with s2); history link on s1 and s2
        assert counts == {"signed_in": 3, "anonymous": 2, "history_enabled": 2}

    def test_empty_trace(self):
        assert count_users([]) == {
            "signed_in": 0, "anonymous": 0, "history_enabled": 0,
        }

    def test_order_invariance(self, trace_file):
        trace = load_trace(trace_file)
        shuffled = list(trace)
        random.Random(3).shuffle(shuffled)
        assert count_users(shuffled) == count_users(trace)


class TestAudit:
    def test_sid_reaches_http_services_only(self):
        catalog = bundled_catalog()
        report = audit_services([SID], catalog, sid="s1")
        assert "Search" in report.services_accessible
        assert "Maps" in report.services_accessible
        assert "History" in report.services_accessible
        assert "Gmail" not in report.services_accessible
        assert "Accounts" not in report.services_accessible
        assert "Calendar" not in report.services_accessible
        assert "Docs" not in report.services_accessible

    def test_ip_binding_blocks_everything(self):
        catalog = bundled_catalog()
        report = audit_services(
            [SID], catalog, enforce_ip_binding=True,
            capture_ip="10.0.0.1", replay_ip="99.9.9.9",
        )
        assert report.services_accessible == []

    def test_ip_binding_same_ip_still_works(self):
        catalog = bundled_catalog()
        report = audit_services(
            [SID], catalog, enforce_ip_binding=True,
            capture_ip="10.0.0.1", replay_ip="10.0.0.1",
        )
        assert "Search" in report.services_accessible

    def test_secure_only_capture_useless(self):
        catalog = bundled_catalog()
        report = audit_services([SSID], catalog)
        assert report.services_accessible == []

    def test_audit_trace_per_account(self, trace_file):
        trace = load_trace(trace_file)
        reports = audit_trace(trace, bundled_catalog())
        assert [r.sid for r in reports] == ["s1", "s2", "s3"]
        by_sid = {r.sid: r for r in reports}
        assert by_sid["s1"].history_enabled
        assert not by_sid["s3"].history_enabled
        assert all(r.signed_in for r in reports)
        # ssid from the https record never harvested
        assert "SSID" not in by_sid["s1"].cookies_seen

    def test_harvest_skips_https(self, trace_file):
        accounts = harvest_accounts(load_trace(trace_file))
        assert set(accounts) == {"s1", "s2", "s3"}
        assert {c.name for c in accounts["s2"]} == {"SID", "NID"}

    def test_audit_csv(self, tmp_path, trace_file):
        catalog = bundled_catalog()
        reports = audit_trace(load_trace(trace_file), catalog)
        out = tmp_path / "audit.csv"
        write_audit_csv(reports, catalog, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "information_type,service,accounts_accessible,mean_entries"
        rows = {line.split(",")[1]: line.split(",")[2] for line in lines[1:]}
        assert rows["Search"] == "3"
        assert rows["Gmail"] == "0"


def test_bundled_catalog_is_the_catalog_file():
    text = resources.files("historiographer.data").joinpath("services.json").read_text()
    expected = [
        {**d, "default_scheme": d["default_scheme"].lower(), "https_support": d["https_support"].lower()}
        for d in json.loads(text)
    ]
    assert [vars(entry) for entry in bundled_catalog()] == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "expected a JSON array, got dict"),
        ("[3]", "[0]: expected an object"),
        ("[", "invalid JSON"),
        ('[{"service": "S"}]', "[0].default_scheme: missing"),
    ],
)
def test_load_catalog_names_entry_and_field(tmp_path, text, message):
    path = tmp_path / "services.json"
    path.write_text(text)
    with pytest.raises(CatalogError) as exc_info:
        load_catalog(path)
    assert str(exc_info.value).startswith(f"{path}: {message}")


def test_catalog_values_checked_in_any_case(tmp_path):
    entry = {"service": "S", "default_scheme": "HTTP", "https_support": "Mandatory",
             "uses_domain_cookie": False, "host_pattern": "h", "path_pattern": "/"}
    path = tmp_path / "services.json"
    path.write_text(json.dumps([entry]))
    (loaded,) = load_catalog(path)
    assert (loaded.default_scheme, loaded.https_support) == ("http", "mandatory")
    path.write_text(json.dumps([{**entry, "https_support": "Required"}]))
    with pytest.raises(CatalogError, match=r"\[0\]\.https_support: expected one of"):
        load_catalog(path)


def test_other_scheme_counts_but_is_not_harvested(tmp_path):
    """A scheme other than http/https keeps its cookies: they count as users
    and give an SID its capture address, but are not harvested."""
    path = tmp_path / "trace.jsonl"
    rows = [
        {"time": 1, "scheme": "ftp", "client_ip": "10.0.0.9", "host": "h", "path": "/",
         "headers": {"Cookie": "SID=s1; NID=n1"}, "body_flags": ["has_history_link"]},
        {"time": 2, "scheme": "HTTP", "client_ip": "10.0.0.1", "host": "h", "path": "/",
         "headers": {"cookie": ["SID=s1", "PREF=p"]}},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    trace = load_trace(path)
    assert [r.cookies for r in trace] == [{"SID": "s1", "NID": "n1"}, {"SID": "s1", "PREF": "p"}]
    assert count_users(trace) == {"signed_in": 1, "anonymous": 0, "history_enabled": 1}
    assert {c.name for c in harvest_accounts(trace)["s1"]} == {"SID", "PREF"}
    (report,) = audit_trace(trace, bundled_catalog(), enforce_ip_binding=True, replay_ip="10.0.0.9")
    assert report.history_enabled and "Search" in report.services_accessible


# Reference rules for the audit, written against the raw JSON the way the
# trace loader read it before it parsed cookies itself: HTTPS records lose
# their cookie headers; every header whose name is "cookie" in any case is
# split on ";" and "=", in header order, a later crumb winning.


def reference_cookies(raw: dict) -> dict:
    if raw["scheme"].lower() == "https":
        return {}
    crumbs = {}
    for name, values in raw.get("headers", {}).items():
        if name.lower() != "cookie":
            continue
        for value in [values] if isinstance(values, str) else values:
            for crumb in value.split(";"):
                crumb = crumb.strip()
                if crumb and "=" in crumb:
                    key, _, val = crumb.partition("=")
                    crumbs[key.strip()] = val.strip()
    return crumbs


def reference_count_users(raws) -> dict:
    sids, clients_with_sid, history_sids, nid_clients = set(), set(), set(), {}
    for raw in raws:
        crumbs = reference_cookies(raw)
        if crumbs.get("SID"):
            sids.add(crumbs["SID"])
            clients_with_sid.add(raw["client_ip"])
            if "has_history_link" in raw.get("body_flags", []):
                history_sids.add(crumbs["SID"])
        if crumbs.get("NID"):
            nid_clients.setdefault(crumbs["NID"], set()).add(raw["client_ip"])
    return {
        "signed_in": len(sids),
        "anonymous": sum(1 for clients in nid_clients.values() if not clients & clients_with_sid),
        "history_enabled": len(history_sids),
    }


def reference_audit(raws, catalog, enforce_ip_binding, replay_ip):
    history_sids, capture_ips, jars = set(), {}, {}
    for raw in raws:
        crumbs = reference_cookies(raw)
        sid = crumbs.get("SID")
        if not sid:
            continue
        if "has_history_link" in raw.get("body_flags", []):
            history_sids.add(sid)
        capture_ips.setdefault(sid, raw["client_ip"])
        if raw["scheme"].lower() == "http":
            jar = jars.setdefault(sid, {})
            for name, value in crumbs.items():
                jar.setdefault(name, Cookie(name=name, value=value, domain="google.com"))
    return [
        audit_services(
            list(jars[sid].values()), catalog,
            enforce_ip_binding=enforce_ip_binding,
            capture_ip=capture_ips[sid],
            replay_ip=replay_ip or capture_ips[sid],
            sid=sid,
            history_enabled=sid in history_sids,
        )
        for sid in sorted(jars)
    ]


# Few distinct names and values, so that records share SIDs and NIDs across
# schemes and clients; a bare name is a crumb without "=".
NAMES = st.sampled_from(["SID", "SID", " SID ", "sid", "NID", "HSID", ""])
CRUMB = st.one_of(st.builds("{}={}".format, NAMES, st.sampled_from(["a", "b", " a ", "", "a=b"])), NAMES)
COOKIE_VALUE = st.one_of(
    st.lists(CRUMB, min_size=1, max_size=3).map("; ".join),
    st.lists(CRUMB, min_size=1, max_size=3).map(";".join),
    st.text("SIDN=; ab", max_size=12),
)
RAW_RECORDS = st.fixed_dictionaries(
    {
        "time": st.integers(0, 9),
        "scheme": st.sampled_from(["http", "HTTP", "Http", "https", "HTTPS", "ftp", "ws", ""]),
        "client_ip": st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
        "host": st.just("www.google.com"),
        "path": st.just("/search"),
        "headers": st.dictionaries(
            st.sampled_from(["Cookie", "cookie", "COOKIE", "CooKie", "Set-Cookie", "User-Agent"]),
            st.one_of(COOKIE_VALUE, st.lists(COOKIE_VALUE, max_size=3)),
            max_size=3,
        ),
    },
    optional={"body_flags": st.lists(st.sampled_from(["has_history_link", "other"]), max_size=2)},
)


@given(st.lists(RAW_RECORDS, max_size=12))
@settings(max_examples=200, deadline=None)
def test_cookies_parsed_at_load_match_header_rules(raws):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text("".join(json.dumps(raw) + "\n" for raw in raws), encoding="utf-8")
        trace = load_trace(path)
    assert [record.cookies for record in trace] == [reference_cookies(raw) for raw in raws]
    assert count_users(trace) == reference_count_users(raws)
    catalog = bundled_catalog()
    # IP binding shows which address an account was captured from
    for binding, replay_ip in [(False, ""), (True, ""), (True, "10.0.0.1"), (True, "10.0.0.2")]:
        assert audit_trace(trace, catalog, binding, replay_ip) == reference_audit(
            raws, catalog, binding, replay_ip
        )


AUDIT_FLAGS = st.sampled_from([
    (), ("--enforce-ip-binding",), ("--enforce-ip-binding", "--replay-ip", "10.0.0.1"),
    ("--enforce-ip-binding", "--replay-ip", "10.0.0.2"), ("--replay-ip", "10.0.0.3"),
])


@given(st.lists(RAW_RECORDS, max_size=12), AUDIT_FLAGS)
@settings(max_examples=150, deadline=None)
def test_streaming_audit_matches_the_loaded_trace(raws, flags):
    """The CLI folds each record into a TraceTally as it reads it; its JSON is
    what the library functions give over the whole loaded trace."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text("".join(json.dumps(raw) + "\n" for raw in raws), encoding="utf-8")
        out = Path(tmp) / "audit.json"
        assert cli.main(["audit", str(path), *flags, "-o", str(out)]) == 0
        trace = load_trace(path)
        binding = "--enforce-ip-binding" in flags
        replay_ip = flags[-1] if "--replay-ip" in flags else ""
        expected = {
            "user_counts": count_users(trace),
            "accounts": [vars(r) for r in audit_trace(trace, bundled_catalog(), binding, replay_ip)],
        }
        assert out.read_text() == json.dumps(expected, sort_keys=True) + "\n"


def test_iter_trace_reads_record_by_record(tmp_path, trace_file):
    path = tmp_path / "bad-third-line.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in trace_fixture()[:2]) + "{bad\n")
    records = iter_trace(path)
    tally = TraceTally()
    tally.add(next(records))  # the bad third line is not read yet
    assert tally.user_counts() == {"signed_in": 1, "anonymous": 0, "history_enabled": 1}
    with pytest.raises(TraceError, match=r":3: invalid JSON"):
        list(records)
    assert load_trace(trace_file) == list(iter_trace(trace_file))


def test_tally_builds_one_cookie_per_name(monkeypatch):
    """An SID's jar keeps the first value of each name; a name already in
    the jar builds no Cookie."""
    built = []

    class CountingCookie(Cookie):
        def __init__(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["name"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("historiographer.cookies.Cookie", CountingCookie)
    tally = TraceTally(
        record(cookies={"SID": "s", "NID": f"n{i}"}) for i in range(50)
    )
    assert built == ["SID", "NID"]
    assert [(c.name, c.value) for c in tally.accounts()["s"]] == [("SID", "s"), ("NID", "n0")]
