"""Cookie records and matching rules, the service catalog, traffic-trace
ingestion, user counting and the session-hijack exposure audit."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from email.utils import parsedate_to_datetime
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Set

HISTORY_LINK_FLAG = "has_history_link"


class CookieError(Exception):
    pass


class MalformedHeaderError(CookieError):
    pass


class TraceError(CookieError):
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
        crumb = crumb.strip()
        if not crumb or "=" not in crumb:
            continue
        name, _, value = crumb.partition("=")
        out[name.strip()] = value.strip()
    return out


@dataclass
class TrafficRecord:
    time: int
    scheme: str  # "http" or "https"
    client_ip: str
    host: str
    path: str
    headers: Dict[str, List[str]] = field(default_factory=dict)
    body_flags: Set[str] = field(default_factory=set)

    def header_values(self, name: str) -> List[str]:
        wanted = name.lower()
        out: List[str] = []
        for key, values in self.headers.items():
            if key.lower() == wanted:
                out.extend(values)
        return out

    def cookies(self) -> Dict[str, str]:
        crumbs: Dict[str, str] = {}
        for value in self.header_values("Cookie"):
            crumbs.update(parse_cookie_header(value))
        return crumbs


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
    """What is wrong with a trace record that load_trace could not build:
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


def load_trace(path) -> List[TrafficRecord]:
    """Read a JSON-lines trace. Cookie headers on HTTPS records are redacted:
    an eavesdropper never sees them.

    A line that is not JSON, or a record with a missing or ill-typed field,
    raises TraceError naming the file, the line and the field.
    """
    records: List[TrafficRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers an integer too long to convert
                raise TraceError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            try:
                headers = {}
                for name, values in d.get("headers", {}).items():
                    if type(values) is str:
                        headers[name] = [values]
                    elif type(values) is list and all(type(v) is str for v in values):
                        headers[name] = list(values)
                    else:
                        raise TypeError
                client_ip, host, req_path = d["client_ip"], d["host"], d["path"]
                if type(client_ip) is not str or type(host) is not str or type(req_path) is not str:
                    raise TypeError
                record = TrafficRecord(
                    time=int(d["time"]),
                    scheme=d["scheme"].lower(),
                    client_ip=client_ip,
                    host=host,
                    path=req_path,
                    headers=headers,
                    body_flags=set(d.get("body_flags", [])),
                )
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                # which field, worked out only on this rare path
                raise TraceError(f"{path}:{lineno}: {_bad_trace_field(d)}") from None
            if record.scheme == "https":
                record.headers = {
                    name: values
                    for name, values in record.headers.items()
                    if name.lower() not in ("cookie", "set-cookie")
                }
            records.append(record)
    return records


def count_users(trace: Sequence[TrafficRecord]) -> Dict[str, int]:
    """Distinct signed-in users (SID), anonymous users (NID with no SID from
    the same client) and history-enabled users (SID seen on a record flagged
    with the history link)."""
    sids: Set[str] = set()
    nid_clients: Dict[str, Set[str]] = {}
    clients_with_sid: Set[str] = set()
    history_sids: Set[str] = set()
    for record in trace:
        crumbs = record.cookies()
        sid = crumbs.get("SID")
        if sid:
            sids.add(sid)
            clients_with_sid.add(record.client_ip)
            if HISTORY_LINK_FLAG in record.body_flags:
                history_sids.add(sid)
        nid = crumbs.get("NID")
        if nid:
            nid_clients.setdefault(nid, set()).add(record.client_ip)
    anonymous = sum(
        1 for clients in nid_clients.values() if not clients & clients_with_sid
    )
    return {
        "signed_in": len(sids),
        "anonymous": anonymous,
        "history_enabled": len(history_sids),
    }


@dataclass
class ServiceCatalogEntry:
    service: str
    default_scheme: str  # "http" or "https"
    https_support: str  # "no" | "optional" | "mandatory"
    uses_domain_cookie: bool
    host_pattern: str
    path_pattern: str

    @classmethod
    def from_dict(cls, d: dict) -> "ServiceCatalogEntry":
        return cls(
            service=d["service"],
            default_scheme=d["default_scheme"].lower(),
            https_support=d["https_support"].lower(),
            uses_domain_cookie=bool(d["uses_domain_cookie"]),
            host_pattern=d["host_pattern"],
            path_pattern=d["path_pattern"],
        )


def load_catalog(path) -> List[ServiceCatalogEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        return [ServiceCatalogEntry.from_dict(d) for d in json.load(fh)]


def bundled_catalog() -> List[ServiceCatalogEntry]:
    text = resources.files("historiographer.data").joinpath("services.json").read_text()
    return [ServiceCatalogEntry.from_dict(d) for d in json.loads(text)]


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


def harvest_accounts(trace: Sequence[TrafficRecord]) -> Dict[str, List[Cookie]]:
    """Group cookies observable in cleartext by the SID they travel with.

    Only HTTP records contribute (HTTPS cookies are redacted at load time).
    """
    accounts: Dict[str, Dict[str, Cookie]] = {}
    for record in trace:
        if record.scheme != "http":
            continue
        crumbs = record.cookies()
        sid = crumbs.get("SID")
        if not sid:
            continue
        jar = accounts.setdefault(sid, {})
        for name, value in crumbs.items():
            jar.setdefault(
                name, Cookie(name=name, value=value, domain="google.com")
            )
    return {sid: list(jar.values()) for sid, jar in accounts.items()}


def audit_trace(
    trace: Sequence[TrafficRecord],
    catalog: Sequence[ServiceCatalogEntry],
    enforce_ip_binding: bool = False,
    replay_ip: str = "",
) -> List[HijackReport]:
    """One HijackReport per pseudo-account (distinct SID) seen in the trace."""
    history_sids = {
        record.cookies().get("SID")
        for record in trace
        if HISTORY_LINK_FLAG in record.body_flags and record.cookies().get("SID")
    }
    capture_ips: Dict[str, str] = {}
    for record in trace:
        sid = record.cookies().get("SID")
        if sid and sid not in capture_ips:
            capture_ips[sid] = record.client_ip
    reports = []
    for sid, cookies in sorted(harvest_accounts(trace).items()):
        reports.append(
            audit_services(
                cookies,
                catalog,
                enforce_ip_binding=enforce_ip_binding,
                capture_ip=capture_ips.get(sid, ""),
                replay_ip=replay_ip or capture_ips.get(sid, ""),
                sid=sid,
                history_enabled=sid in history_sids,
            )
        )
    return reports


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
