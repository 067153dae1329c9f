"""Cookie records and matching rules, the service catalog, traffic-trace
ingestion, user counting and the session-hijack exposure audit."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from email.utils import parsedate_to_datetime
from importlib import resources
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, get_type_hints

from .history import field_problem, json_lines, read_json

HISTORY_LINK_FLAG = "has_history_link"


class CookieError(Exception):
    pass


class MalformedHeaderError(CookieError):
    pass


class TraceError(CookieError):
    pass


class CatalogError(CookieError):
    pass


@dataclass
class Cookie:
    name: str
    value: str
    domain: str
    path: str = "/"
    secure: bool = False
    expiry: Optional[int] = None
    host_only: bool = False


def _parse_expires(raw: str) -> Optional[int]:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return int(parsedate_to_datetime(raw).timestamp())
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
        raise MalformedHeaderError(f"no cookie crumb in {header_value!r}")
    name, _, value = first.partition("=")
    name = name.strip()
    if not name:
        raise MalformedHeaderError(f"empty cookie name in {header_value!r}")
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
            out[name.strip()] = value.strip()
    return out


@dataclass(slots=True)
class TrafficRecord:
    time: int
    scheme: str  # "http" or "https"
    client_ip: str
    host: str
    path: str
    # crumbs of the request's Cookie headers, name -> value; iter_trace
    # leaves them out of HTTPS records, which an eavesdropper cannot read
    cookies: Dict[str, str] = field(default_factory=dict)
    body_flags: Set[str] = field(default_factory=set)


def cookie_applies(cookie: Cookie, record: TrafficRecord) -> bool:
    """Would a browser attach this cookie to this request?"""
    if record.host != cookie.domain and not record.host.endswith("." + cookie.domain):
        return False
    if not record.path.startswith(cookie.path):
        return False
    if cookie.secure and record.scheme != "https":
        return False
    if cookie.expiry is not None and record.time > cookie.expiry:
        return False
    return True


_TRACE_STRINGS = ("scheme", "client_ip", "host", "path")


def _bad_trace_field(record) -> str:
    """What is wrong with a trace record that iter_trace could not build:
    its first field that is missing or of the wrong type."""
    if not isinstance(record, dict):
        return "record: expected an object"
    for key in ("time",) + _TRACE_STRINGS:
        if key not in record:
            return f"{key}: missing"
    try:
        int(record["time"])
    except (TypeError, ValueError, OverflowError):
        return f"time: expected an integer, got {type(record['time']).__name__}"
    for key in _TRACE_STRINGS:
        if type(record[key]) is not str:
            return f"{key}: expected a string, got {type(record[key]).__name__}"
    headers = record.get("headers", {})
    if type(headers) is not dict:
        return f"headers: expected an object, got {type(headers).__name__}"
    for name, values in headers.items():
        if type(values) is not str and (
            type(values) is not list or any(type(v) is not str for v in values)
        ):
            return f"headers.{name}: expected a string or a list of strings"
    return "body_flags: expected a list of strings"


def iter_trace(path) -> Iterator[TrafficRecord]:
    """Read a JSON-lines trace record by record, parsing each record's Cookie
    headers once; an HTTPS record keeps no cookies, because an eavesdropper
    never sees them.

    A bad line (not UTF-8, not JSON) or a record with a missing or ill-typed
    field raises TraceError naming the file, the line and the field.
    """
    for lineno, d in json_lines(path, TraceError):
        try:
            scheme = d["scheme"].lower()
            crumbs: Dict[str, str] = {}
            # every header is type-checked; Cookie crumbs merge in order, later ones win
            for name, values in d.get("headers", {}).items():
                if type(values) is str:
                    values = (values,)
                elif type(values) is not list or any(type(v) is not str for v in values):
                    raise TypeError
                if scheme != "https" and name.lower() == "cookie":
                    for value in values:
                        crumbs.update(parse_cookie_header(value))
            client_ip, host, req_path = d["client_ip"], d["host"], d["path"]
            if type(client_ip) is not str or type(host) is not str or type(req_path) is not str:
                raise TypeError
            flags = d.get("body_flags", [])
            # a list of strings; most records have no flags to look at
            if type(flags) is not list or flags and any(type(f) is not str for f in flags):
                raise TypeError
            record = TrafficRecord(
                int(d["time"]), scheme, client_ip, host, req_path, crumbs, set(flags)
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
            # which field, worked out only on this rare path
            raise TraceError(f"{path}:{lineno}: {_bad_trace_field(d)}") from None
        yield record


def load_trace(path) -> List[TrafficRecord]:
    """Every record of a trace file, as iter_trace reads them."""
    return list(iter_trace(path))


def count_users(trace: Iterable[TrafficRecord]) -> Dict[str, int]:
    """TraceTally.user_counts of a trace."""
    return TraceTally(trace).user_counts()


@dataclass
class ServiceCatalogEntry:
    service: str
    default_scheme: str  # "http" or "https"
    https_support: str  # "no" | "optional" | "mandatory"
    uses_domain_cookie: bool
    host_pattern: str
    path_pattern: str

    def __post_init__(self) -> None:
        self.default_scheme = self.default_scheme.lower()
        self.https_support = self.https_support.lower()


# every field of an entry is required, with the JSON type it is declared with
_CATALOG_FIELDS = get_type_hints(ServiceCatalogEntry)
# the values a field may take, in any case
_CATALOG_VALUES = {"default_scheme": ("http", "https"), "https_support": ("no", "optional", "mandatory")}


def load_catalog(path) -> List[ServiceCatalogEntry]:
    """Read the service catalog, a JSON array of entries. A file that is not
    such an array, or an entry with a missing, ill-typed or unknown field
    value, raises CatalogError naming the file, the entry and the field."""
    entries = read_json(path, CatalogError)
    if type(entries) is not list:
        raise CatalogError(f"{path}: expected a JSON array, got {type(entries).__name__}")
    catalog = []
    for i, d in enumerate(entries):
        problem = field_problem(d, _CATALOG_FIELDS, where=f"[{i}].")
        if problem:
            raise CatalogError(f"{path}: {problem}")
        entry = ServiceCatalogEntry(**{key: d[key] for key in _CATALOG_FIELDS})
        for key, allowed in _CATALOG_VALUES.items():
            if getattr(entry, key) not in allowed:
                raise CatalogError(
                    f"{path}: [{i}].{key}: expected one of {', '.join(allowed)}, got {d[key]!r}"
                )
        catalog.append(entry)
    return catalog


def bundled_catalog() -> List[ServiceCatalogEntry]:
    """The service catalog shipped with the package."""
    ref = resources.files("historiographer.data").joinpath("services.json")
    with resources.as_file(ref) as path:
        return load_catalog(path)


@dataclass
class HijackReport:
    sid: str
    services_accessible: List[str]
    cookies_seen: List[str]
    signed_in: bool
    history_enabled: bool


def audit_services(
    captured: Sequence[Cookie],
    catalog: Sequence[ServiceCatalogEntry],
    enforce_ip_binding: bool = False,
    capture_ip: str = "",
    replay_ip: str = "",
    sid: str = "",
    history_enabled: bool = False,
    time: int = 0,
) -> HijackReport:
    """Which catalog services a replayed capture can reach.

    HTTPS-mandatory services authenticate with a secure cookie that an
    eavesdropper never captures; domain-cookie services need their own
    cookie, which is set only over secure connections. Both stay closed to
    a captured SID. IP binding closes everything when the replay address
    differs from the capture address.
    """
    accessible: List[str] = []
    if not (enforce_ip_binding and replay_ip != capture_ip):
        for entry in catalog:
            if entry.https_support == "mandatory":
                continue
            probe = TrafficRecord(
                time=time,
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
            if entry.uses_domain_cookie and not any(
                c.domain == entry.host_pattern for c in usable
            ):
                continue
            accessible.append(entry.service)
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
    cookies each SID travels with (the first value of each name)."""

    def __init__(self, records: Iterable[TrafficRecord] = ()):
        self.capture_ips: Dict[str, str] = {}
        self.history_sids: Set[str] = set()
        self.clients_with_sid: Set[str] = set()
        self.nid_clients: Dict[str, Set[str]] = {}
        self.jars: Dict[str, Dict[str, Cookie]] = {}
        for record in records:
            self.add(record)

    def add(self, record: TrafficRecord) -> None:
        cookies = record.cookies
        if not cookies:
            return
        sid = cookies.get("SID")
        if sid:
            if sid not in self.capture_ips:
                self.capture_ips[sid] = record.client_ip
            self.clients_with_sid.add(record.client_ip)
            if HISTORY_LINK_FLAG in record.body_flags:
                self.history_sids.add(sid)
            if record.scheme == "http":
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
            clients.add(record.client_ip)

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
        """One HijackReport per pseudo-account (distinct SID), by SID."""
        # every harvested SID has a capture address: it came from a record
        return [
            audit_services(
                cookies,
                catalog,
                enforce_ip_binding=enforce_ip_binding,
                capture_ip=self.capture_ips[sid],
                replay_ip=replay_ip or self.capture_ips[sid],
                sid=sid,
                history_enabled=sid in self.history_sids,
            )
            for sid, cookies in sorted(self.accounts().items())
        ]


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
    """Aggregate per-service exposure counts (entry volumes are not modeled)."""
    counts = {entry.service: 0 for entry in catalog}
    for report in reports:
        for service in report.services_accessible:
            counts[service] += 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["information_type", "service", "accounts_accessible", "mean_entries"])
        for entry in catalog:
            writer.writerow([entry.service, entry.service, counts[entry.service], ""])
