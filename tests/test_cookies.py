import json
import os
import random
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from historiographer import cli
from historiographer.cookies import (
    _TRACE_FIELDS,
    _TRACE_OPTIONAL,
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
    parse_cookie_header,
    parse_set_cookie,
    _trace_fields,
    write_audit_csv,
)
from historiographer.history import field_problem

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

    def test_expires_without_a_zone_is_gmt(self):
        """RFC 6265 dates are GMT: a date with no zone, or "-0000", is read
        as GMT, never in the machine's local time."""
        import historiographer

        src = str(Path(historiographer.__file__).resolve().parent.parent)
        code = (
            "import time\n"
            "from historiographer.cookies import parse_set_cookie\n"
            "print(time.timezone)\n"
            "for zone in ('', ' -0000', ' GMT'):\n"
            "    print(parse_set_cookie('SID=a; Expires=Wed, 21 Oct 2015 07:28:00' + zone).expiry)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "TZ": "Asia/Tokyo"},
            capture_output=True, text=True, check=True,
        )
        offset, *expiries = done.stdout.split()
        if offset == "0":
            pytest.skip("no time zone database to read Asia/Tokyo from")
        assert expiries == ["1445412480"] * 3


class TestCookieApplies:
    def test_sid_on_http_subdomain(self):
        assert cookie_applies(SID, record(host="maps.google.com", path="/anything"))

    def test_secure_cookie_never_on_http(self):
        assert not cookie_applies(SSID, record())
        assert cookie_applies(SSID, record(scheme="https"))

    def test_path_prefix_rule(self):
        assert not cookie_applies(LSID, record(scheme="https", path="/search"))
        assert cookie_applies(LSID, record(scheme="https", path="/accounts/login"))
        # RFC 6265 section 5.1.4: a cookie path covers a request path only
        # up to a "/" boundary
        acc = parse_set_cookie("LSID=x; Domain=google.com; Path=/acc")
        assert cookie_applies(acc, record(path="/acc"))
        assert cookie_applies(acc, record(path="/acc/x"))
        assert cookie_applies(acc, record(path="/acc/"))
        assert not cookie_applies(acc, record(path="/accounts"))
        assert not cookie_applies(acc, record(path="/ac"))
        slash = parse_set_cookie("LSID=x; Domain=google.com; Path=/acc/")
        assert cookie_applies(slash, record(path="/acc/x"))
        assert not cookie_applies(slash, record(path="/acc"))

    @given(st.text("/ab", min_size=1, max_size=5), st.text("/ab", max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_path_match_is_rfc_6265(self, cookie_path, request_path):
        # section 5.1.4, clause by clause
        prefix = request_path.startswith(cookie_path)
        want = (
            request_path == cookie_path
            or prefix and cookie_path.endswith("/")
            or prefix and request_path[len(cookie_path):].startswith("/")
        )
        cookie = Cookie(name="A", value="b", domain="google.com", path=cookie_path)
        assert cookie_applies(cookie, record(path=request_path)) == want

    def test_hosts_compare_in_any_case(self):
        cookie = parse_set_cookie("LSID=x; Domain=google.com")
        assert cookie_applies(cookie, record(host="WWW.Google.com"))
        assert cookie_applies(cookie, record(host="GOOGLE.COM"))
        assert not cookie_applies(cookie, record(host="NotGoogle.com"))
        upper = parse_set_cookie("LSID=x; Domain=Google.COM")
        assert cookie_applies(upper, record(host="www.google.com"))
        host = parse_set_cookie("PREF=x", request_host="WWW.google.com")
        assert cookie_applies(host, record(host="www.GOOGLE.com"))
        assert not cookie_applies(host, record(host="maps.www.google.com"))

    def test_domain_mismatch(self):
        assert not cookie_applies(SID, record(host="example.com"))
        assert not cookie_applies(SID, record(host="notgoogle.com"))

    def test_expired(self):
        stale = Cookie(name="SID", value="a", domain="google.com", expiry=100)
        assert cookie_applies(stale, record(time=100))
        assert not cookie_applies(stale, record(time=101))

    def test_host_only_cookie_stays_on_its_host(self):
        pref = parse_set_cookie("PREF=x; Path=/", request_host="www.google.com")
        assert cookie_applies(pref, record(host="www.google.com"))
        assert not cookie_applies(pref, record(host="maps.www.google.com"))
        assert not cookie_applies(pref, record(host="google.com"))

    def test_domain_cookie_of_the_same_host_reaches_subdomains(self):
        pref = parse_set_cookie("PREF=x; Domain=www.google.com", request_host="www.google.com")
        assert cookie_applies(pref, record(host="www.google.com"))
        assert cookie_applies(pref, record(host="maps.www.google.com"))
        assert not cookie_applies(pref, record(host="google.com"))

    def test_host_only_cookie_keeps_the_other_rules(self):
        host = Cookie(name="A", value="b", domain="www.google.com", path="/accounts",
                      secure=True, expiry=5, host_only=True)
        assert cookie_applies(host, record(scheme="https", path="/accounts/x", time=5))
        assert not cookie_applies(host, record(scheme="http", path="/accounts/x", time=5))
        assert not cookie_applies(host, record(scheme="https", path="/search", time=5))
        assert not cookie_applies(host, record(scheme="https", path="/accounts/x", time=6))

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

    @pytest.mark.parametrize("domain", ["docs.google.com", "Docs.Google.COM"])
    def test_domain_cookie_service_matches_its_host_in_any_case(self, domain):
        docs = parse_set_cookie(f"SID=a; Domain={domain}")
        report = audit_services([docs], bundled_catalog())
        assert "Docs" in report.services_accessible
        assert "Calendar" not in report.services_accessible

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
        assert lines[0] == "service,accounts_accessible"
        rows = dict(line.split(",") for line in lines[1:])
        assert list(rows) == [entry.service for entry in catalog]
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
        # the audit would count each account twice under "S"
        (
            json.dumps([
                {"service": "S", "default_scheme": "http", "https_support": "no",
                 "uses_domain_cookie": False, "host_pattern": host, "path_pattern": "/"}
                for host in ("www.google.com", "maps.google.com")
            ]),
            "[1].service: 'S' repeats [0]",
        ),
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


@given(st.lists(RAW_RECORDS, max_size=12))
@settings(max_examples=200, deadline=None)
def test_tally_read_matches_the_tally_of_iter_trace(raws):
    """TraceTally.read folds the checked fields straight from the file; it is
    the tally of the records iter_trace builds from the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text("".join(json.dumps(raw) + "\n" for raw in raws), encoding="utf-8")
        read = TraceTally.read(path)
        folded = TraceTally(iter_trace(path))
    assert read.user_counts() == folded.user_counts()
    assert read.accounts() == folded.accounts()
    catalog = bundled_catalog()
    for binding, replay_ip in [(False, ""), (True, ""), (True, "10.0.0.1"), (True, "10.0.0.2")]:
        assert read.reports(catalog, binding, replay_ip) == folded.reports(
            catalog, binding, replay_ip
        )


def test_tally_read_builds_no_record(monkeypatch, trace_file):
    monkeypatch.setattr("historiographer.cookies.TrafficRecord", None)
    assert TraceTally.read(trace_file).user_counts() == {
        "signed_in": 3, "anonymous": 2, "history_enabled": 2,
    }


def write_raws(path, raws) -> None:
    path.write_text("".join(json.dumps(raw) + "\n" for raw in raws), encoding="utf-8")


def check_tally_read_matches_the_references(raws) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_raws(path, raws)
        tally = TraceTally.read(path)
    assert tally.user_counts() == reference_count_users(raws)
    catalog = bundled_catalog()
    for binding, replay_ip in [(False, ""), (True, ""), (True, "10.0.0.1"), (True, "10.0.0.2")]:
        assert tally.reports(catalog, binding, replay_ip) == reference_audit(
            raws, catalog, binding, replay_ip
        )


# Cookie headers, in any name case, each a string or a list of values
COOKIE_HEADERS = st.dictionaries(
    st.sampled_from(["Cookie", "cookie", "COOKIE", "User-Agent"]),
    st.one_of(COOKIE_VALUE, st.lists(COOKIE_VALUE, max_size=3)),
    max_size=2,
)


@st.composite
def repeating_traces(draw):
    """Records drawn from a small pool of (client, Cookie headers) pairs,
    the same headers sent by more than one client, so that most records
    repeat a run of Cookie values that an earlier one sent; the scheme, in
    any case, and the history link vary from record to record."""
    headers_pool = draw(st.lists(COOKIE_HEADERS, min_size=1, max_size=3))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]), st.sampled_from(headers_pool)),
        min_size=1, max_size=4,
    ))
    raws = []
    for time in range(draw(st.integers(0, 30))):
        client_ip, headers = draw(st.sampled_from(pairs))
        raw = {
            "time": time, "scheme": draw(st.sampled_from(["http", "HTTP", "https", "HTTPS", "ftp"])),
            "client_ip": client_ip, "host": "www.google.com", "path": "/search", "headers": headers,
        }
        if draw(st.booleans()):
            raw["body_flags"] = ["has_history_link"]
        raws.append(raw)
    return raws


@given(repeating_traces())
@settings(max_examples=300, deadline=None)
def test_tally_read_of_repeated_cookie_headers_matches_the_references(raws):
    """TraceTally.read parses each distinct run of Cookie values once and
    shares its crumbs among the records that repeat it; the tally is still
    what the header rules give record by record."""
    check_tally_read_matches_the_references(raws)


def counted_parses(monkeypatch) -> list:
    """The values parse_cookie_header is called with from now on, in order."""
    parsed = []
    real = parse_cookie_header

    def counting(value):
        parsed.append(value)
        return real(value)

    monkeypatch.setattr("historiographer.cookies.parse_cookie_header", counting)
    return parsed


def raw_record(headers, scheme="http", client_ip="10.0.0.1", **kw) -> dict:
    return {"time": 1, "scheme": scheme, "client_ip": client_ip, "host": "www.google.com",
            "path": "/search", "headers": headers, **kw}


def test_one_read_parses_each_distinct_cookie_run_once(tmp_path, monkeypatch):
    raws = [
        raw_record({"Cookie": "SID=s1; NID=n1"}),
        raw_record({"Cookie": "SID=s1; NID=n1"}, client_ip="10.0.0.2"),
        # an HTTPS record's cookies are never read
        raw_record({"Cookie": "SID=s1; NID=n1"}, scheme="https"),
        raw_record({"Cookie": "SID=s9"}, scheme="HTTPS"),
        # one run: a list of one value is that value, and headers in any
        # name case join in header order
        raw_record({"Cookie": ["SID=s1; NID=n1"]}, scheme="HTTP"),
        raw_record({"cookie": "SID=s2", "COOKIE": ["NID=n2", "HSID=h2"]}),
        raw_record({"Cookie": ["SID=s2", "NID=n2", "HSID=h2"]}, body_flags=["has_history_link"]),
        # the same values in another order are another run
        raw_record({"Cookie": ["NID=n2", "SID=s2", "HSID=h2"]}),
        raw_record({"User-Agent": "Mozilla/5.0"}),
        raw_record({"Cookie": "SID=s1; NID=n1"}, scheme="ftp"),
    ]
    path = tmp_path / "trace.jsonl"
    write_raws(path, raws)
    parsed = counted_parses(monkeypatch)
    distinct = ["SID=s1; NID=n1", "SID=s2", "NID=n2", "HSID=h2", "NID=n2", "SID=s2", "HSID=h2"]
    TraceTally.read(path)
    assert parsed == distinct
    # no parse outlives its read
    parsed.clear()
    tally = TraceTally.read(path)
    assert parsed == distinct
    parsed.clear()
    assert [record.cookies for record in iter_trace(path)] == [reference_cookies(raw) for raw in raws]
    assert parsed == distinct
    assert tally.user_counts() == reference_count_users(raws)


def test_records_that_share_a_cookie_run_get_their_own_cookies(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_raws(path, [raw_record({"Cookie": "SID=s1; NID=n1"}, client_ip=ip) for ip in ("10.0.0.1", "10.0.0.2")])
    records = iter_trace(path)
    first = next(records)
    first.cookies["SID"] = "changed"
    first.cookies["HSID"] = "added"
    second = next(records)
    assert second.cookies == {"SID": "s1", "NID": "n1"}
    assert second.cookies is not first.cookies
    assert TraceTally.read(path).accounts() == {
        "s1": [Cookie("SID", "s1", "google.com"), Cookie("NID", "n1", "google.com")],
    }


def test_a_full_memo_is_emptied_and_the_tally_holds(tmp_path, monkeypatch):
    monkeypatch.setattr("historiographer.cookies._CRUMBS_CAP", 2)
    runs = [
        {"Cookie": "SID=s1; NID=n1"},
        {"Cookie": ["SID=s2", "HSID=h2"]},
        {"Cookie": "NID=n3"},
        {"cookie": "SID=s1", "COOKIE": "PREF=p; NID=n4"},
        {"Cookie": "SID=s5; NID=n1"},
    ]
    order = [0, 1, 2, 3, 4, 0, 2, 4, 1, 3, 0, 4, 2]
    raws = [
        raw_record(
            runs[k], scheme=("http", "HTTP", "https")[i % 3], client_ip=f"10.0.0.{k % 3 + 1}",
            body_flags=["has_history_link"] if i % 4 == 1 else [],
        )
        for i, k in enumerate(order)
    ]
    parsed = counted_parses(monkeypatch)
    check_tally_read_matches_the_references(raws)
    # the five runs hold 7 values: the cap emptied the memo, so some were parsed again
    assert len(parsed) > 7


# the malformed records CLI audit refuses, each with its message
GOOD_RECORD = {"time": 1, "scheme": "http", "client_ip": "10.0.0.1",
               "host": "www.google.com", "path": "/search"}
MALFORMED_RECORDS = [
    ({"client_ip": None}, "client_ip: missing"),
    ({"time": "x"}, "time: expected an integer, got str"),
    ({"headers": []}, "headers: expected an object, got list"),
    ({"body_flags": 5}, "body_flags: expected a list, got int"),
    ({"client_ip": ["10.0.0.1"]}, "client_ip: expected a string, got list"),
    ({"headers": {"Cookie": [5]}}, "headers.Cookie: expected a string or a list of strings"),
    ({"time": 1e400}, "time: expected an integer, got float"),
    ({"body_flags": "has_history_link"}, "body_flags: expected a list, got str"),
    ({"body_flags": [1]}, "body_flags: expected a list of strings"),
    ("[1,2]", "record: expected an object"),
    # an exact integer only, not one int() would make of it
    ({"time": True}, "time: expected an integer, got bool"),
    ({"time": "17"}, "time: expected an integer, got str"),
    ({"time": 2.9}, "time: expected an integer, got float"),
]


@pytest.mark.parametrize("change, message", MALFORMED_RECORDS)
def test_both_trace_readers_refuse_a_bad_record_alike(tmp_path, change, message):
    if isinstance(change, str):
        bad = change
    else:
        bad = json.dumps({k: v for k, v in {**GOOD_RECORD, **change}.items() if v is not None})
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + bad + "\n")
    with pytest.raises(TraceError) as by_records:
        list(iter_trace(path))
    with pytest.raises(TraceError) as by_tally:
        TraceTally.read(path)
    assert str(by_records.value) == str(by_tally.value) == f"{path}:2: {message}"


# every JSON kind, with lists of strings or not and objects of good header values
JSON_KINDS = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.text(max_size=4), st.none(),
    st.lists(st.sampled_from(["has_history_link", "x"]) | st.integers(), max_size=3),
    st.dictionaries(
        st.sampled_from(["Cookie", "cookie", "Host"]),
        st.sampled_from(["SID=a", "NID=b; SID=c", "x"]) | st.lists(st.sampled_from(["SID=d", ""]), max_size=2),
        max_size=2,
    ),
)
TRACE_KEYS = [*_TRACE_FIELDS, *_TRACE_OPTIONAL, "extra"]
DROP = object()
# a value of each JSON kind, lists of strings or not, or no value at all
KIND_VALUES = [5, True, 2.5, "x", [], ["has_history_link"], [1], {}, {"Cookie": "SID=a"}, None, DROP]


def check_trace_fast_path_follows_the_tables(changes):
    trace_record = {k: v for k, v in {**GOOD_RECORD, **changes}.items() if v is not DROP}
    problem = field_problem(trace_record, _TRACE_FIELDS, _TRACE_OPTIONAL)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(trace_record) + "\n")
        if problem is None:
            assert len(list(_trace_fields(path))) == 2
        else:
            with pytest.raises(TraceError) as refused:
                list(_trace_fields(path))
            assert str(refused.value) == f"{path}:2: {problem}"


def test_trace_fast_path_follows_the_tables_on_one_change():
    for key in TRACE_KEYS:
        for value in KIND_VALUES:
            check_trace_fast_path_follows_the_tables({key: value})


@given(st.dictionaries(st.sampled_from(TRACE_KEYS), st.just(DROP) | JSON_KINDS, max_size=3))
@settings(max_examples=300, deadline=None)
def test_trace_fast_path_follows_the_tables(changes):
    # several fields dropped or set to a value of some JSON kind: a record
    # with more than one fault is named by its first in table order
    check_trace_fast_path_follows_the_tables(changes)


# jars of cookies whose every attribute audit_services reads varies: secure,
# limited to a path, set for docs.google.com, expired at the probes' time 0,
# host-only
JAR_COOKIES = st.builds(
    Cookie,
    name=st.sampled_from(["SID", "NID", "HSID", "SSID", "PREF"]),
    value=st.sampled_from(["a", "b"]),
    domain=st.sampled_from(["google.com", "docs.google.com", "www.google.com"]),
    path=st.sampled_from(["/", "/accounts", "/search"]),
    secure=st.booleans(),
    expiry=st.sampled_from([None, -1, 10]),
    host_only=st.booleans(),
)
JARS = st.dictionaries(
    st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s6"]),
    st.lists(JAR_COOKIES, min_size=1, max_size=4, unique_by=lambda c: c.name),
    max_size=6,
)


def hand_built_tally(jars) -> TraceTally:
    tally = TraceTally()
    for i, (sid, cookies) in enumerate(sorted(jars.items())):
        tally.jars[sid] = {c.name: c for c in cookies}
        tally.capture_ips[sid] = f"10.0.0.{i % 2 + 1}"
        if i % 3 == 0:
            tally.history_sids.add(sid)
    return tally


@given(JARS)
@settings(max_examples=200, deadline=None)
def test_reports_are_one_audit_per_account(jars):
    tally = hand_built_tally(jars)
    catalog = bundled_catalog()
    for binding, replay_ip in [
        (False, ""), (True, ""), (True, "10.0.0.1"), (True, "10.0.0.9"), (False, "10.0.0.9"),
    ]:
        want = [
            audit_services(
                cookies, catalog,
                enforce_ip_binding=binding,
                capture_ip=tally.capture_ips[sid],
                replay_ip=replay_ip or tally.capture_ips[sid],
                sid=sid,
                history_enabled=sid in tally.history_sids,
            )
            for sid, cookies in sorted(tally.accounts().items())
        ]
        got = tally.reports(catalog, binding, replay_ip)
        assert got == want
        # each report owns its list
        assert len({id(r.services_accessible) for r in got}) == len(got)


@pytest.mark.parametrize(
    "change",
    [{"domain": "docs.google.com"}, {"path": "/accounts"}, {"secure": True}, {"expiry": -1},
     {"host_only": True}],
    ids=lambda change: next(iter(change)),
)
def test_jars_that_differ_in_one_attribute_are_audited_apart(change):
    base = {"name": "SID", "value": "a", "domain": "google.com"}
    jars = {"s1": [Cookie(**base)], "s2": [Cookie(**{**base, **change})]}
    catalog = bundled_catalog()
    want = [audit_services(jars[sid], catalog).services_accessible for sid in ("s1", "s2")]
    assert want[0] != want[1]
    got = hand_built_tally(jars).reports(catalog)
    assert [r.services_accessible for r in got] == want


def test_reports_audit_each_distinct_jar_once(monkeypatch):
    """Jars with the same cookie attributes, names and values aside, open the
    same services: audit_services runs once per distinct jar and binding
    outcome."""
    calls = []
    real = audit_services

    def counting(captured, *args, **kwargs):
        calls.append(frozenset((c.domain, c.path, c.secure, c.expiry, c.host_only) for c in captured))
        return real(captured, *args, **kwargs)

    monkeypatch.setattr("historiographer.cookies.audit_services", counting)
    plain = [("SID", "/", False), ("NID", "/", False)]
    limited = [("SID", "/accounts", False), ("SSID", "/", True)]
    jars = {
        f"s{i}": [Cookie(name, f"v{i}", "google.com", path, secure) for name, path, secure in kind]
        for i, kind in enumerate([plain, limited, plain, plain, limited, plain])
    }
    tally = hand_built_tally(jars)
    catalog = bundled_catalog()
    reports = tally.reports(catalog)
    assert len(calls) == len(set(calls)) == 2
    assert [r.services_accessible for r in reports] == [
        real(cookies, catalog).services_accessible for _, cookies in sorted(jars.items())
    ]
    # replayed from 10.0.0.1, binding closes the accounts captured from
    # 10.0.0.2 and leaves the others open: 2 jars x 2 outcomes
    calls.clear()
    tally.reports(catalog, enforce_ip_binding=True, replay_ip="10.0.0.1")
    assert len(calls) == 4
