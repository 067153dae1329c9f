"""Cookie records and matching rules, the service catalog, traffic-trace
ingestion, user counting and the session-hijack exposure audit."""

from __future__ import annotations

import csv
from importlib import resources
from operator import itemgetter
from sys import intern
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, get_origin

from .history import STRINGS, InputError, Record, field_problem, json_lines, read_json, surrogate_problem

HISTORY_LINK_FLAG = "has_history_link"


class Cookie(Record):
    _fields = ("name", "value", "domain", "path", "secure", "expiry", "host_only")

    def __init__(
        self, name: str, value: str, domain: str, path: str = "/", secure: bool = False,
        expiry: Optional[int] = None, host_only: bool = False,
    ):
        self.name = name
        self.value = value
        self.domain = domain
        self.path = path
        self.secure = secure
        self.expiry = expiry
        self.host_only = host_only


def _parse_expires(raw: str) -> Optional[int]:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    # imported here: it would add about a third to the import time of the
    # audit command, which never parses a Set-Cookie header
    from datetime import timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(raw)
        if when.tzinfo is None:
            # RFC 6265 dates are GMT: a date with no zone, or "-0000", is too
            when = when.replace(tzinfo=timezone.utc)
        return int(when.timestamp())
    except (TypeError, ValueError):
        return None


def parse_set_cookie(header_value: str, request_host: str = "") -> Cookie:
    """Parse a Set-Cookie header: name=value first, then ;-separated
    attributes (Domain, Path, Secure, Expires, case-insensitive).

    A missing Domain makes a host cookie bound to the request host.
    """
    parts = [p.strip() for p in header_value.split(";")]
    first = parts[0]
    if "=" not in first:
        raise InputError(f"no cookie crumb in {header_value!r}")
    name, _, value = first.partition("=")
    name = name.strip()
    if not name:
        raise InputError(f"empty cookie name in {header_value!r}")
    cookie = Cookie(name=name, value=value.strip(), domain=request_host, host_only=True)
    for part in parts[1:]:
        if not part:
            continue
        attr, _, attr_value = part.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:
            cookie.domain = attr_value.lstrip(".")
            cookie.host_only = False
        elif attr == "path" and attr_value:
            cookie.path = attr_value
        elif attr == "secure":
            cookie.secure = True
        elif attr == "expires":
            cookie.expiry = _parse_expires(attr_value)
    return cookie


def parse_cookie_header(header_value: str) -> Dict[str, str]:
    """Split a request Cookie header into name -> value."""
    out: Dict[str, str] = {}
    for crumb in header_value.split(";"):
        name, eq, value = crumb.partition("=")
        if eq:
            # a trace repeats a few names: one copy of each is kept
            out[intern(name.strip())] = value.strip()
    return out


class TrafficRecord(Record):
    __slots__ = _fields = ("time", "scheme", "client_ip", "host", "path", "cookies", "body_flags")

    def __init__(
        self, time: int, scheme: str, client_ip: str, host: str, path: str,
        cookies: Optional[Dict[str, str]] = None, body_flags: Optional[Set[str]] = None,
    ):
        self.time = time
        self.scheme = scheme  # "http" or "https"
        self.client_ip = client_ip
        self.host = host
        self.path = path
        # crumbs of the request's Cookie headers, name -> value; iter_trace
        # leaves them out of HTTPS records, which an eavesdropper cannot read
        self.cookies = {} if cookies is None else cookies
        self.body_flags = set() if body_flags is None else body_flags


def cookie_applies(cookie: Cookie, record: TrafficRecord) -> bool:
    """Would a browser attach this cookie to this request? Hosts compare in
    any case. A host-only cookie goes to its own host alone, a domain cookie
    to its subdomains too. A cookie's path covers itself and the paths below
    it, ending at a "/" (RFC 6265 section 5.1.4): /acc covers /acc/x but not
    /accounts."""
    host, domain = record.host.lower(), cookie.domain.lower()
    if host != domain and (cookie.host_only or not host.endswith("." + domain)):
        return False
    below = cookie.path if cookie.path.endswith("/") else cookie.path + "/"
    if record.path != cookie.path and not record.path.startswith(below):
        return False
    if cookie.secure and record.scheme != "https":
        return False
    if cookie.expiry is not None and record.time > cookie.expiry:
        return False
    return True


_TRACE_FIELDS = {"time": int, "scheme": str, "client_ip": str, "host": str, "path": str}
_TRACE_OPTIONAL = {"headers": dict, "body_flags": STRINGS}
_trace_values = itemgetter(*_TRACE_FIELDS)
# the exact type of each field's value, optional ones last, as the fast
# path compares them
_TRACE_KINDS = tuple(get_origin(k) or k for k in {**_TRACE_FIELDS, **_TRACE_OPTIONAL}.values())


def _trace_problem(record) -> Optional[str]:
    """What is wrong with a trace record, as "field: ...": its first field
    that the tables name as missing or not of its kind, or else a header
    value that is neither a string nor a list of strings; None if all is
    good."""
    problem = field_problem(record, _TRACE_FIELDS, _TRACE_OPTIONAL)
    if problem is None:
        for name, values in record.get("headers", {}).items():
            if type(values) is not str and (
                type(values) is not list or any(type(v) is not str for v in values)
            ):
                return f"headers.{name}: expected a string or a list of strings"
    return problem


# how many distinct runs of Cookie values one read keeps parsed, at most
_CRUMBS_CAP = 4096


def _trace_fields(path) -> Iterator[tuple]:
    """Each valid record of a JSON-lines trace as the plain tuple (time,
    scheme, client_ip, host, path, crumbs, flags), its Cookie headers parsed
    into crumbs, which an HTTPS record leaves empty; flags is the record's
    body_flags list. A capture repeats each client's Cookie headers, so the
    read parses each distinct run of Cookie values once, in a memo of its
    own emptied at _CRUMBS_CAP runs, and the records that send a run share
    its crumbs: a caller must not change them.

    A bad line (not UTF-8, not JSON) or a record with a missing or ill-typed
    field raises InputError naming the file, the line and the field.
    """
    memo: Dict[object, Dict[str, str]] = {}
    no_crumbs: Dict[str, str] = {}
    for lineno, d in json_lines(path):
        try:
            time, scheme, client_ip, host, req_path = _trace_values(d)
            headers, flags = d.get("headers", {}), d.get("body_flags", [])
            if (
                type(time), type(scheme), type(client_ip), type(host), type(req_path),
                type(headers), type(flags),
            ) != _TRACE_KINDS or flags and any(type(f) is not str for f in flags):
                raise TypeError
            scheme = scheme.lower()
            # every header is type-checked; the values of each Cookie header,
            # in order, make the record's run
            run: tuple = ()
            for name, values in headers.items():
                if type(values) is str:
                    values = (values,)
                elif type(values) is not list or any(type(v) is not str for v in values):
                    raise TypeError
                if scheme != "https" and name.lower() == "cookie":
                    run += tuple(values)
        except (AttributeError, KeyError, TypeError):
            # which field, worked out only on this rare path
            raise InputError(f"{path}:{lineno}: {_trace_problem(d)}") from None
        if not run:
            crumbs = no_crumbs
        else:
            # the usual one value is its own key, cheaper to hash and compare than a 1-tuple
            key = run[0] if len(run) == 1 else run
            crumbs = memo.get(key)
            if crumbs is None:
                if len(memo) >= _CRUMBS_CAP:
                    memo.clear()
                crumbs = memo[key] = parse_cookie_header(run[0])
                # crumbs merge in order, later ones win
                for value in run[1:]:
                    crumbs.update(parse_cookie_header(value))
        yield time, scheme, client_ip, host, req_path, crumbs, flags


def iter_trace(path) -> Iterator[TrafficRecord]:
    """Read a JSON-lines trace lazily, record by record; each distinct run
    of Cookie values is parsed once per read, and each record gets its own
    copy of the crumbs. An HTTPS record keeps no cookies, because an
    eavesdropper never sees them.

    A bad line (not UTF-8, not JSON) or a record with a missing or ill-typed
    field raises InputError naming the file, the line and the field, the
    same error TraceTally.read raises.
    """
    for *head, crumbs, flags in _trace_fields(path):
        yield TrafficRecord(*head, dict(crumbs), set(flags))


def load_trace(path) -> List[TrafficRecord]:
    """Every record of a trace file, as iter_trace reads them."""
    return list(iter_trace(path))


def count_users(trace: Iterable[TrafficRecord]) -> Dict[str, int]:
    """TraceTally.user_counts of a trace."""
    return TraceTally(trace).user_counts()


class ServiceCatalogEntry(Record):
    _fields = (
        "service", "default_scheme", "https_support", "uses_domain_cookie", "host_pattern",
        "path_pattern",
    )

    def __init__(
        self, service: str, default_scheme: str, https_support: str, uses_domain_cookie: bool,
        host_pattern: str, path_pattern: str,
    ):
        self.service = service
        self.default_scheme = default_scheme.lower()  # "http" or "https"
        self.https_support = https_support.lower()  # "no" | "optional" | "mandatory"
        self.uses_domain_cookie = uses_domain_cookie
        self.host_pattern = host_pattern
        self.path_pattern = path_pattern


# every field of an entry, in order, is required, with its JSON type
_CATALOG_FIELDS = dict(zip(ServiceCatalogEntry._fields, [str, str, str, bool, str, str]))
# the values a field may take, in any case
_CATALOG_VALUES = {"default_scheme": ("http", "https"), "https_support": ("no", "optional", "mandatory")}


def load_catalog(path) -> List[ServiceCatalogEntry]:
    """Read the service catalog, a JSON array of entries. A file that is not
    such an array, or an entry with a missing, ill-typed or unknown field
    value, a string holding a lone surrogate or a service named before,
    raises InputError naming the file, the entry and the field."""
    entries = read_json(path)
    if type(entries) is not list:
        raise InputError(f"{path}: expected a JSON array, got {type(entries).__name__}")
    catalog = []
    first: Dict[str, int] = {}  # the entry that first names each service
    for i, d in enumerate(entries):
        problem = field_problem(d, _CATALOG_FIELDS, where=f"[{i}].")
        if problem:
            raise InputError(f"{path}: {problem}")
        for key, kind in _CATALOG_FIELDS.items():
            problem = surrogate_problem(d[key]) if kind is str else None
            if problem:
                raise InputError(f"{path}: [{i}].{key}: {problem}")
        entry = ServiceCatalogEntry(**{key: d[key] for key in _CATALOG_FIELDS})
        for key, allowed in _CATALOG_VALUES.items():
            if getattr(entry, key) not in allowed:
                raise InputError(
                    f"{path}: [{i}].{key}: expected one of {', '.join(allowed)}, got {d[key]!r}"
                )
        # the audit counts accounts per service name
        j = first.setdefault(entry.service, i)
        if j != i:
            raise InputError(f"{path}: [{i}].service: {entry.service!r} repeats [{j}]")
        catalog.append(entry)
    return catalog


def bundled_catalog() -> List[ServiceCatalogEntry]:
    """The service catalog shipped with the package."""
    ref = resources.files("historiographer.data").joinpath("services.json")
    with resources.as_file(ref) as path:
        return load_catalog(path)


class HijackReport(Record):
    """One audited account. Its fields, in this order, are its keys in the
    audit JSON (its vars())."""

    _fields = ("sid", "services_accessible", "cookies_seen", "signed_in", "history_enabled")

    def __init__(
        self, sid: str, services_accessible: List[str], cookies_seen: List[str], signed_in: bool,
        history_enabled: bool,
    ):
        self.sid = sid
        self.services_accessible = services_accessible
        self.cookies_seen = cookies_seen
        self.signed_in = signed_in
        self.history_enabled = history_enabled


def audit_services(
    captured: Sequence[Cookie],
    catalog: Sequence[ServiceCatalogEntry],
    enforce_ip_binding: bool = False,
    capture_ip: str = "",
    replay_ip: str = "",
    sid: str = "",
    history_enabled: bool = False,
) -> HijackReport:
    """Which catalog services a replayed capture can reach.

    HTTPS-mandatory services authenticate with a secure cookie that an
    eavesdropper never captures; domain-cookie services need their own
    cookie, which is set only over secure connections. Both stay closed to
    a captured SID. IP binding closes everything when the replay address
    differs from the capture address. Each service is probed at time 0.
    """
    accessible: List[str] = []
    if not (enforce_ip_binding and replay_ip != capture_ip):
        for entry in catalog:
            if entry.https_support == "mandatory":
                continue
            probe = TrafficRecord(
                time=0,
                scheme=entry.default_scheme,
                client_ip=replay_ip,
                host=entry.host_pattern,
                path=entry.path_pattern,
            )
            usable = [
                c for c in captured if not c.secure and cookie_applies(c, probe)
            ]
            if not usable:
                continue
            host = entry.host_pattern.lower()
            if entry.uses_domain_cookie and not any(c.domain.lower() == host for c in usable):
                continue
            accessible.append(entry.service)
    return _report(sid, captured, accessible, history_enabled)


def _report(
    sid: str, captured: Sequence[Cookie], accessible: List[str], history_enabled: bool
) -> HijackReport:
    return HijackReport(
        sid=sid,
        services_accessible=accessible,
        cookies_seen=sorted({c.name for c in captured}),
        signed_in=any(c.name == "SID" for c in captured),
        history_enabled=history_enabled,
    )


class TraceTally:
    """What the audit keeps of a trace, folded in one record at a time: each
    SID's first client, the SIDs seen with the history link, the clients
    that sent a SID, each NID's clients and, from HTTP records only, the
    cookies each SID travels with (the first value of each name).

    TraceTally(records) folds TrafficRecords; TraceTally.read(path) folds a
    trace file's records as they are checked, builds no TrafficRecord and
    passes over every record without cookies, which adds nothing."""

    def __init__(self, records: Iterable[TrafficRecord] = ()):
        self.capture_ips: Dict[str, str] = {}
        self.history_sids: Set[str] = set()
        self.clients_with_sid: Set[str] = set()
        self.nid_clients: Dict[str, Set[str]] = {}
        self.jars: Dict[str, Dict[str, Cookie]] = {}
        for record in records:
            self.add(record)

    @classmethod
    def read(cls, path) -> "TraceTally":
        """The tally of a trace file, read once, each distinct run of Cookie
        values parsed once (see _trace_fields); a bad record raises the
        InputError that iter_trace gives."""
        tally = cls()
        fold = tally._fold
        for _, scheme, client_ip, _, _, crumbs, flags in _trace_fields(path):
            if crumbs:
                fold(scheme, client_ip, crumbs, flags)
        return tally

    def add(self, record: TrafficRecord) -> None:
        if record.cookies:
            self._fold(record.scheme, record.client_ip, record.cookies, record.body_flags)

    def _fold(self, scheme: str, client_ip: str, cookies: Dict[str, str], flags) -> None:
        sid = cookies.get("SID")
        if sid:
            if sid not in self.capture_ips:
                self.capture_ips[sid] = client_ip
            self.clients_with_sid.add(client_ip)
            if HISTORY_LINK_FLAG in flags:
                self.history_sids.add(sid)
            if scheme == "http":
                jar = self.jars.get(sid)
                if jar is None:
                    jar = self.jars[sid] = {}
                for name, value in cookies.items():
                    if name not in jar:
                        jar[name] = Cookie(name, value, "google.com")
        nid = cookies.get("NID")
        if nid:
            clients = self.nid_clients.get(nid)
            if clients is None:
                clients = self.nid_clients[nid] = set()
            clients.add(client_ip)

    def user_counts(self) -> Dict[str, int]:
        """Distinct signed-in users (SID), anonymous users (NID with no SID
        from the same client) and history-enabled users (SID seen on a record
        flagged with the history link)."""
        anonymous = sum(
            1 for clients in self.nid_clients.values() if not clients & self.clients_with_sid
        )
        return {
            "signed_in": len(self.capture_ips),
            "anonymous": anonymous,
            "history_enabled": len(self.history_sids),
        }

    def accounts(self) -> Dict[str, List[Cookie]]:
        """The cookies observable in cleartext, grouped by the SID they travel with."""
        return {sid: list(jar.values()) for sid, jar in self.jars.items()}

    def reports(
        self,
        catalog: Sequence[ServiceCatalogEntry],
        enforce_ip_binding: bool = False,
        replay_ip: str = "",
    ) -> List[HijackReport]:
        """One HijackReport per pseudo-account (distinct SID), by SID.

        Which services a jar opens depends only on whether IP binding closes
        the account and on the cookie attributes audit_services reads, so it
        runs once per distinct such key; each report gets its own list."""
        opened: Dict[tuple, List[str]] = {}
        out = []
        for sid, cookies in sorted(self.accounts().items()):
            # every harvested SID has a capture address: it came from a record
            capture_ip = self.capture_ips[sid]
            replay = replay_ip or capture_ip
            key = (
                enforce_ip_binding and replay != capture_ip,
                frozenset((c.domain, c.path, c.secure, c.expiry, c.host_only) for c in cookies),
            )
            services = opened.get(key)
            if services is None:
                services = opened[key] = audit_services(
                    cookies,
                    catalog,
                    enforce_ip_binding=enforce_ip_binding,
                    capture_ip=capture_ip,
                    replay_ip=replay,
                ).services_accessible
            out.append(_report(sid, cookies, list(services), sid in self.history_sids))
        return out


def harvest_accounts(trace: Iterable[TrafficRecord]) -> Dict[str, List[Cookie]]:
    """TraceTally.accounts of a trace: only HTTP records contribute (HTTPS
    records carry no cookies)."""
    return TraceTally(trace).accounts()


def audit_trace(
    trace: Iterable[TrafficRecord],
    catalog: Sequence[ServiceCatalogEntry],
    enforce_ip_binding: bool = False,
    replay_ip: str = "",
) -> List[HijackReport]:
    """One HijackReport per pseudo-account (distinct SID) seen in the trace."""
    return TraceTally(trace).reports(catalog, enforce_ip_binding, replay_ip)


def write_audit_csv(reports: Sequence[HijackReport], catalog: Sequence[ServiceCatalogEntry], path) -> None:
    """How many audited accounts open each catalog service, in catalog order."""
    counts = {entry.service: 0 for entry in catalog}
    for report in reports:
        for service in report.services_accessible:
            counts[service] += 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["service", "accounts_accessible"])
        for entry in catalog:
            writer.writerow([entry.service, counts[entry.service]])
