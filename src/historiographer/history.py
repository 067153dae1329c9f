"""Ground-truth search histories: per-user entries with click state and timestamps."""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


class HistoryError(Exception):
    pass


class HistoryDisabledError(HistoryError):
    """Raised when inserting into a history with history_enabled=False."""


class EmptyQueryError(HistoryError):
    """Raised when a query normalizes to the empty string."""


_KIND_NAMES = {
    str: "a string", bool: "a boolean", int: "an integer", list: "a list", dict: "an object",
    (int, float): "a number",
}
_ENTRY_FIELDS = {"query": str, "clicked": bool, "first_time": int, "last_time": int, "count": int}
_ENTRY_OPTIONAL = {"clicked_urls": list}
_entry_values = itemgetter(*_ENTRY_FIELDS)
_HISTORY_FIELDS = {"user_id": str, "history_enabled": bool}


def field_problem(
    record, required: dict, optional: Optional[dict] = None, where: str = ""
) -> Optional[str]:
    """What is wrong with a JSON record, as "where.field: ...": its first field
    that is missing, though required, or not exactly of its kind (a boolean is
    not an integer; a kind is a type or a tuple of types); None if all is good."""
    if not isinstance(record, dict):
        return f"{where.rstrip('.') or 'record'}: expected an object"
    for key, kind in {**required, **(optional or {})}.items():
        if key not in record:
            if key in required:
                return f"{where}{key}: missing"
        elif type(record[key]) not in (kind if type(kind) is tuple else (kind,)):
            return f"{where}{key}: expected {_KIND_NAMES[kind]}, got {type(record[key]).__name__}"
    return None


class _AlphabetTable(dict):
    """A ``str.translate`` table that restricts lowercased text to an
    alphabet: an alphabet character maps to itself, other whitespace to " "
    when the alphabet has a space, and any other character to nothing. Each
    code point is worked out on its first lookup and kept."""

    def __init__(self, alphabet: str):
        super().__init__()
        self.alphabet = alphabet
        self.keep_space = " " in alphabet

    def __missing__(self, code: int) -> Optional[str]:
        c = chr(code)
        out = c if c in self.alphabet else " " if self.keep_space and c.isspace() else None
        self[code] = out
        return out


_TABLES: Dict[str, _AlphabetTable] = {}


def normalize(raw: str, alphabet: str = DEFAULT_ALPHABET) -> str:
    """Canonicalize a query: lowercase, restrict to the alphabet, collapse whitespace.

    Returns "" for inputs that normalize to nothing; callers treat that as
    "no entry".
    """
    table = _TABLES.get(alphabet)
    if table is None:
        table = _TABLES[alphabet] = _AlphabetTable(alphabet)
    # the whole string is lowercased first: a capital sigma's lowercase
    # depends on the letter after it
    return " ".join(raw.lower().translate(table).split())


@dataclass(slots=True)
class HistoryEntry:
    query: str
    clicked: bool
    first_time: int
    last_time: int
    count: int
    clicked_urls: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "clicked": self.clicked,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "count": self.count,
            "clicked_urls": list(self.clicked_urls),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HistoryEntry":
        """The entry that to_dict wrote. A missing or ill-typed field raises
        HistoryError naming it."""
        try:
            query, clicked, first_time, last_time, count = _entry_values(d)
            urls = d.get("clicked_urls", [])
            # join refuses an item that is not a string, faster than a loop
            "".join(urls)
        except (AttributeError, KeyError, TypeError):
            raise HistoryError(_entry_problem(d)) from None
        # exact types, as _ENTRY_FIELDS names them: a boolean is not a count
        if (
            type(query) is not str
            or type(clicked) is not bool
            or type(first_time) is not int
            or type(last_time) is not int
            or type(count) is not int
            or type(urls) is not list
        ):
            raise HistoryError(_entry_problem(d))
        return cls(query, clicked, first_time, last_time, count, list(urls))


def _entry_problem(d, where: str = "") -> str:
    """What HistoryEntry.from_dict refuses in d, as "where.field: ..."."""
    return (
        field_problem(d, _ENTRY_FIELDS, _ENTRY_OPTIONAL, where)
        or f"{where}clicked_urls: expected a list of strings"
    )


@dataclass
class SearchHistory:
    """All searches recorded for one user, keyed by normalized query.

    Repeated searches of the same normalized query merge into one entry:
    counts sum, the time range widens and clicked_urls accumulate.
    """

    user_id: str
    history_enabled: bool = True
    entries: Dict[str, HistoryEntry] = field(default_factory=dict)

    @property
    def n_h(self) -> int:
        return len(self.entries)

    @property
    def n_c(self) -> int:
        return sum(1 for e in self.entries.values() if e.clicked)

    def clicked_queries(self) -> List[str]:
        return [q for q, e in self.entries.items() if e.clicked]

    def insert_search(self, raw_query: str, time: int, clicked_url: Optional[str] = None) -> None:
        if not self.history_enabled:
            raise HistoryDisabledError(f"history disabled for user {self.user_id!r}")
        query = normalize(raw_query)
        if not query:
            raise EmptyQueryError(f"query {raw_query!r} normalizes to nothing")
        self._merge(query, time, clicked_url)

    def _merge(self, query: str, time: int, clicked_url: Optional[str]) -> None:
        """Record one search of a query that is already normalized and
        non-empty, in a history that is enabled."""
        entry = self.entries.get(query)
        if entry is None:
            self.entries[query] = HistoryEntry(
                query=query,
                clicked=clicked_url is not None,
                first_time=time,
                last_time=time,
                count=1,
                clicked_urls=[clicked_url] if clicked_url else [],
            )
        else:
            entry.count += 1
            if time < entry.first_time:
                entry.first_time = time
            if time > entry.last_time:
                entry.last_time = time
            if clicked_url is not None:
                entry.clicked = True
                if clicked_url not in entry.clicked_urls:
                    entry.clicked_urls.append(clicked_url)

    def to_dict(self) -> dict:
        return {
            "user_id": self.user_id,
            "history_enabled": self.history_enabled,
            "entries": [e.to_dict() for e in sorted(self.entries.values(), key=lambda e: e.query)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchHistory":
        """The history that to_dict wrote. A missing or ill-typed field
        raises HistoryError naming it."""
        problem = field_problem(d, _HISTORY_FIELDS, {"entries": list})
        if problem:
            raise HistoryError(problem)
        user_id = d["user_id"]
        if not user_id.isascii():
            # JSON can escape a lone surrogate, which no output file can hold
            try:
                user_id.encode("utf-8")
            except UnicodeEncodeError:
                raise HistoryError("user_id: holds a lone surrogate") from None
        hist = cls(user_id, d["history_enabled"])
        for i, ed in enumerate(d.get("entries", [])):
            try:
                entry = HistoryEntry.from_dict(ed)
            except HistoryError:
                # named again with its place, only on this rare path
                raise HistoryError(_entry_problem(ed, f"entries[{i}].")) from None
            hist.entries[entry.query] = entry
        return hist


def save_histories(histories: Iterable[SearchHistory], path) -> None:
    """Write one SearchHistory per line as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for hist in histories:
            fh.write(json.dumps(hist.to_dict(), sort_keys=True) + "\n")


def read_json(path, error: type):
    """The JSON value in a UTF-8 file. Bytes that are not UTF-8, or JSON
    that the decoder refuses, raise error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer too long to convert
        raise error(f"{path}: invalid JSON: {exc}") from None


# json.loads(s) is this call from index 0, reached through raw_decode, plus
# whitespace scans at both ends and a trailing-data check; a stripped line
# has no whitespace to scan. The decoder's C scanner gives (value, end), and
# StopIteration when no JSON value starts at the index.
_scan_once = json.JSONDecoder().scan_once


def json_lines(path, error: type) -> Iterator[Tuple[int, object]]:
    """(line number, value) for each non-blank line of a JSON-lines file.
    Each line is decoded on its own, so a line that is not UTF-8, or JSON
    that the decoder refuses, raises error naming the file and that line.
    The decoder's C scanner reads each stripped line in one call; only a
    line it refuses or does not consume whole goes to json.loads, for the
    value or the message json.loads gives."""
    # a larger buffer reads long lines (a whole history each) faster
    with open(path, "rb", buffering=1 << 16) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: {exc}") from None
            if not line:
                continue
            try:
                value, end = _scan_once(line, 0)
            except (ValueError, RecursionError, StopIteration):
                end = -1
            if end != len(line):
                # refused, or trailing data: json.loads gives the value or
                # error it always gave, a leading BOM's message included
                try:
                    value = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    # ValueError also covers an integer too long to convert
                    raise error(f"{path}:{lineno}: invalid JSON: {exc}") from None
            yield lineno, value


def iter_histories(path) -> Iterator[SearchHistory]:
    """Each non-blank JSON line's SearchHistory, in file order, read only
    when the next one is asked for, so a caller that keeps none of them
    holds one history at a time.

    A bad line (not UTF-8, not JSON) or a record with a missing or ill-typed
    field raises HistoryError naming the file, the line and the field, when
    the line is reached.
    """
    for lineno, d in json_lines(path, HistoryError):
        try:
            hist = SearchHistory.from_dict(d)
        except HistoryError as exc:
            raise HistoryError(f"{path}:{lineno}: {exc}") from exc
        yield hist


def load_histories(path) -> Dict[str, SearchHistory]:
    """Every SearchHistory of iter_histories, keyed by user id: of lines
    with the same user id, the last one's. The cyclic collector is paused
    while the file loads and left as it was found.
    """
    # Everything the load allocates is kept, so a collector pass would walk
    # a growing heap and free nothing; it is paused until the load ends.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return {hist.user_id: hist for hist in iter_histories(path)}
    finally:
        if enabled:
            gc.enable()
