"""Ground-truth search histories: per-user entries with click state and timestamps."""

from __future__ import annotations

import json
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


class InputError(Exception):
    """Input the program refuses; the CLI exits 2."""


# a list of strings, as a field's kind
STRINGS = list[str]
# each kind a field may have: its wording and the exact types of its values
_KINDS = {
    str: ("a string", (str,)), bool: ("a boolean", (bool,)), int: ("an integer", (int,)),
    list: ("a list", (list,)), dict: ("an object", (dict,)),
    (int, float): ("a number", (int, float)), STRINGS: ("a list", (list,)),
}
_ENTRY_FIELDS = {"query": str, "clicked": bool, "first_time": int, "last_time": int, "count": int}
_ENTRY_OPTIONAL = {"clicked_urls": STRINGS}
_HISTORY_FIELDS = {"user_id": str, "history_enabled": bool}
_HISTORY_OPTIONAL = {"entries": list}


def field_problem(
    record, required: dict, optional: Optional[dict] = None, where: str = ""
) -> Optional[str]:
    """What is wrong with a JSON record, as "where.field: ...": its first field
    that is missing, though required, or not exactly of its kind (a boolean is
    not an integer; a kind is a key of _KINDS); None if all is good."""
    if not isinstance(record, dict):
        return f"{where.rstrip('.') or 'record'}: expected an object"
    for key, kind in {**required, **(optional or {})}.items():
        if key not in record:
            if key in required:
                return f"{where}{key}: missing"
            continue
        value = record[key]
        name, types = _KINDS[kind]
        if type(value) not in types:
            return f"{where}{key}: expected {name}, got {type(value).__name__}"
        if type(value) is list and kind == STRINGS and not all(type(v) is str for v in value):
            return f"{where}{key}: expected a list of strings"
    return None


def surrogate_problem(text: str) -> Optional[str]:
    """"holds a lone surrogate" if text holds one, which JSON can escape but
    no output file can hold; None if not."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return "holds a lone surrogate"
    return None


class _QueryTable(dict):
    """A ``str.translate`` table that restricts lowercased text to
    DEFAULT_ALPHABET: an alphabet character maps to itself, other whitespace
    to " ", and any other character to nothing. Each code point is worked
    out on its first lookup and kept."""

    def __missing__(self, code: int) -> Optional[str]:
        c = chr(code)
        out = c if c in DEFAULT_ALPHABET else " " if c.isspace() else None
        self[code] = out
        return out


_TABLE = _QueryTable()
# the same table as an exact dict of the 128 ASCII code points, which
# str.translate reads faster than a dict subclass
_ASCII_TABLE = {code: _TABLE[code] for code in range(128)}


def normalize(raw: str) -> str:
    """Canonicalize a query: lowercase, restrict to DEFAULT_ALPHABET,
    collapse whitespace.

    Returns "" for inputs that normalize to nothing; callers treat that as
    "no entry".
    """
    # the whole string is lowercased first: a capital sigma's lowercase
    # depends on the letter after it
    lowered = raw.lower()
    return " ".join(lowered.translate(_ASCII_TABLE if lowered.isascii() else _TABLE).split())


class Record:
    """Base of the package's plain record classes. Each sets its fields,
    named in order by its _fields, in an __init__ of its own; the base adds
    value equality and a repr over those fields, as a dataclass would, with
    no generated code and no dataclasses import, which together took about
    a quarter of the program's start-up (2-core machine, Python 3.11).
    Defining __eq__ makes records unhashable, as a dataclass's are."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({values})"


class HistoryEntry(Record):
    __slots__ = _fields = ("query", "clicked", "first_time", "last_time", "count", "clicked_urls")

    def __init__(
        self, query: str, clicked: bool, first_time: int, last_time: int, count: int,
        clicked_urls: Optional[List[str]] = None,
    ):
        self.query = query
        self.clicked = clicked
        self.first_time = first_time
        self.last_time = last_time
        self.count = count
        self.clicked_urls = [] if clicked_urls is None else clicked_urls

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "clicked": self.clicked,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "count": self.count,
            "clicked_urls": list(self.clicked_urls),
        }


_ENTRY_COLUMNS = [(itemgetter(key), kind) for key, kind in _ENTRY_FIELDS.items()]


class _NoUrls(tuple):
    """The type of _NO_URLS, which marks an entry with no clicked_urls: it
    is empty, so it joins as no URL, and no record's own value has it."""


_NO_URLS = _NoUrls()


def _entry_columns(entries: list) -> Optional[List[list]]:
    """The entry records' values, one list per HistoryEntry field in its
    order, read and checked a column at a time; None if field_problem
    finds a problem in any record. An entry with no clicked_urls gets a
    fresh empty list, and the others keep the record's own list."""
    try:
        columns = [list(map(get, entries)) for get, _ in _ENTRY_COLUMNS]
        urls = [e.get("clicked_urls", _NO_URLS) for e in entries]
        # join refuses an item that is not a string, faster than a loop
        "".join(chain.from_iterable(urls))
    except (AttributeError, KeyError, TypeError):
        return None
    # exact types, as _ENTRY_FIELDS names them: a boolean is not a count
    for column, (_, kind) in zip(columns, _ENTRY_COLUMNS):
        if not set(map(type, column)) <= {kind}:
            return None
    kinds = set(map(type, urls))
    if not kinds <= {list, _NoUrls}:
        return None
    if _NoUrls in kinds:
        urls = [[] if u is _NO_URLS else u for u in urls]
    columns.append(urls)
    return columns


class SearchHistory(Record):
    """All searches recorded for one user, keyed by normalized query.

    Repeated searches of the same normalized query merge into one entry:
    counts sum, the time range widens and clicked_urls accumulate.
    """

    _fields = ("user_id", "history_enabled", "entries")

    def __init__(
        self, user_id: str, history_enabled: bool = True,
        entries: Optional[Dict[str, HistoryEntry]] = None,
    ):
        self.user_id = user_id
        self.history_enabled = history_enabled
        self.entries = {} if entries is None else entries

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
            raise InputError(f"history disabled for user {self.user_id!r}")
        query = normalize(raw_query)
        if not query:
            raise InputError(f"query {raw_query!r} normalizes to nothing")
        self._merge(query, time, clicked_url)

    def _merge(self, query: str, time: int, clicked_url: Optional[str]) -> None:
        """Record one search of a query that is already normalized and
        non-empty, in a history that is enabled."""
        entry = self.entries.get(query)
        if entry is None:
            self.entries[query] = HistoryEntry(
                query, clicked_url is not None, time, time, 1, [clicked_url] if clicked_url else []
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

    @property
    def ranked(self) -> Tuple[str, ...]:
        """The clicked queries, best first (see rank)."""
        clicked = (e for e in self.entries.values() if e.clicked)
        return rank(clicked, attrgetter("query"), attrgetter("last_time"), attrgetter("count"))

    @classmethod
    def from_dict(cls, d: dict) -> "SearchHistory":
        """The history that to_dict wrote. A missing or ill-typed field
        raises InputError naming it."""
        return _history(*_decode(d))


def _decode(d: dict) -> Tuple[str, bool, List[list]]:
    """A history record's user id, history_enabled and entry columns (see
    _entry_columns), checked. A missing or ill-typed field raises
    InputError naming it, an entry's by its place."""
    problem = field_problem(d, _HISTORY_FIELDS, _HISTORY_OPTIONAL)
    if problem:
        raise InputError(problem)
    user_id = d["user_id"]
    problem = surrogate_problem(user_id)
    if problem:
        raise InputError(f"user_id: {problem}")
    entries = d.get("entries", [])
    columns = _entry_columns(entries)
    if columns is None:
        # the first bad entry, named with its place, only on this rare path
        for i, ed in enumerate(entries):
            problem = field_problem(ed, _ENTRY_FIELDS, _ENTRY_OPTIONAL, f"entries[{i}].")
            if problem:
                raise InputError(problem)
    return user_id, d["history_enabled"], columns


def _history(user_id: str, history_enabled: bool, columns: List[list]) -> SearchHistory:
    # of entries with the same query, the last one's, in the first one's place
    by_query = dict(zip(columns[0], map(HistoryEntry, *columns)))
    return SearchHistory(user_id, history_enabled, by_query)


def rank(rows: Iterable, query: Callable, last_time: Callable, count: Callable) -> Tuple[str, ...]:
    """The rows' queries best first: most searched, then most recent, then
    lexicographic, as oracle.default_ranking orders entries. query,
    last_time and count read a row's fields; no two rows share a query, so
    no tie is left to break."""
    # stable sorts from the last key to the first
    rows = sorted(rows, key=query)
    rows.sort(key=last_time, reverse=True)
    rows.sort(key=count, reverse=True)
    return tuple(map(query, rows))


class RankedHistory:
    """What a batch reads of a history: its user id, its number of distinct
    queries, and its clicked queries best first (see rank). Its fields are
    set once, when it is made. It is a slotted class because a frozen
    dataclass's decorator added ~1 ms, about 2%, to the program's start-up
    (2-core machine, Python 3.11)."""

    __slots__ = ("user_id", "n_h", "ranked", "__weakref__")

    def __init__(self, user_id: str, n_h: int, ranked: Tuple[str, ...]):
        object.__setattr__(self, "user_id", user_id)
        object.__setattr__(self, "n_h", n_h)
        object.__setattr__(self, "ranked", ranked)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"RankedHistory.{name} is read-only")

    @property
    def n_c(self) -> int:
        return len(self.ranked)


def _ranked_history(user_id: str, history_enabled: bool, columns: List[list]) -> RankedHistory:
    """The RankedHistory of what _decode gives: the same user id, n_h and
    ranked queries as the SearchHistory that _history builds from it."""
    queries, clicked, _, last_times, counts, _ = columns
    # each query's last row, as _history keeps it, once per query
    rows = dict(zip(queries, range(len(queries)))).values()
    ranked = rank(
        filter(clicked.__getitem__, rows),
        queries.__getitem__, last_times.__getitem__, counts.__getitem__,
    )
    return RankedHistory(user_id, len(rows), ranked)


def save_histories(histories: Iterable[SearchHistory], path) -> None:
    """Write one SearchHistory per line as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for hist in histories:
            fh.write(json.dumps(hist.to_dict(), sort_keys=True) + "\n")


def read_json(path):
    """The JSON value in a UTF-8 file. Bytes that are not UTF-8, or JSON
    that the decoder refuses, raise InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer too long to convert
        raise InputError(f"{path}: invalid JSON: {exc}") from None


# json.loads(s) is this call from index 0, reached through raw_decode, plus
# whitespace scans at both ends and a trailing-data check; a stripped line
# has no whitespace to scan. The decoder's C scanner gives (value, end), and
# StopIteration when no JSON value starts at the index.
_scan_once = json.JSONDecoder().scan_once


def json_lines(path) -> Iterator[Tuple[int, object]]:
    """(line number, value) for each non-blank line of a JSON-lines file.
    Each line is decoded on its own, so a line that is not UTF-8, or JSON
    that the decoder refuses, raises InputError naming the file and that line.
    The decoder's C scanner reads each stripped line in one call; only a
    line it refuses or does not consume whole goes to json.loads, for the
    value or the message json.loads gives."""
    # a larger buffer reads long lines (a whole history each) faster
    with open(path, "rb", buffering=1 << 16) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                # JSON's own whitespace only: json.loads refuses any other
                line = raw.decode("utf-8").strip(" \t\r\n")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not UTF-8: {exc}") from None
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
                    raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            yield lineno, value


def _read(path, build: Callable) -> Iterator:
    """build(*_decode(record)) for each non-blank JSON line's record, in file
    order, read only when the next one is asked for.

    A bad line (not UTF-8, not JSON) or a record with a missing or ill-typed
    field raises InputError naming the file, the line and the field, when
    the line is reached.
    """
    for lineno, d in json_lines(path):
        try:
            decoded = _decode(d)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        yield build(*decoded)


def iter_histories(path) -> Iterator[SearchHistory]:
    """Each non-blank JSON line's SearchHistory, in file order (see _read),
    so a caller that keeps none of them holds one history at a time."""
    return _read(path, _history)


def iter_ranked(path) -> Iterator[RankedHistory]:
    """Each non-blank JSON line's RankedHistory, in file order, as
    iter_histories reads them and with the same errors."""
    return _read(path, _ranked_history)


def load_histories(path) -> Dict[str, SearchHistory]:
    """Every SearchHistory of iter_histories, keyed by user id: of lines
    with the same user id, the last one's."""
    return {hist.user_id: hist for hist in iter_histories(path)}
