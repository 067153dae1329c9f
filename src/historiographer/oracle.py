"""Provider-side interfaces: prefix suggestions, targeted result checks,
and the two whole-history dump channels (maps page, mobile page)."""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .history import HistoryEntry, SearchHistory, normalize

MAX_HISTORY_SUGGESTIONS = 3
MAX_SUGGESTIONS = 10
MIN_PREFIX_LEN = 2

DEFAULT_MOBILE_PATTERN = "iPhone"


class OracleError(Exception):
    pass


class PrefixTooShortError(OracleError):
    """Suggestions are only served for prefixes of length >= 2."""


class UnnormalizedPrefixError(OracleError):
    pass


class InvalidSessionError(OracleError):
    """The presented session token does not authenticate the account."""


class Origin(Enum):
    HISTORY = "history"
    GENERIC = "generic"


@dataclass(frozen=True)
class Suggestion:
    text: str
    origin: Origin


@dataclass
class SuggestionResponse:
    prefix: str
    suggestions: List[Suggestion]

    @property
    def history_count(self) -> int:
        return sum(1 for s in self.suggestions if s.origin is Origin.HISTORY)

    def history_texts(self) -> List[str]:
        return [s.text for s in self.suggestions if s.origin is Origin.HISTORY]

    def to_json(self) -> str:
        return json.dumps(
            {
                "prefix": self.prefix,
                "suggestions": [
                    {"text": s.text, "from_history": s.origin is Origin.HISTORY}
                    for s in self.suggestions
                ],
            },
            sort_keys=True,
        )


# Ranking policy: maps an entry to a sort key, best first. The provider's real
# ordering is unknown, so it is pluggable.
RankingKey = Callable[[HistoryEntry], Tuple]


def default_ranking(entry: HistoryEntry) -> Tuple:
    return (-entry.count, -entry.last_time, entry.query)


# Prefixes that passed _check_prefix, per alphabet. The check depends on
# nothing else, and an attack asks every user the same plan prefixes, so each
# is checked once per process. A prefix that fails is never added.
_CHECKED: Dict[str, Set[str]] = {}


def _check_prefix(prefix: str, alphabet: str) -> None:
    if len(prefix) < MIN_PREFIX_LEN:
        raise PrefixTooShortError(f"prefix {prefix!r} shorter than {MIN_PREFIX_LEN}")
    # A valid prefix is any leading slice of a normalized query, so a
    # single trailing space is legal mid-word-boundary.
    if normalize(prefix, alphabet) != prefix.rstrip(" ") or prefix.endswith("  "):
        raise UnnormalizedPrefixError(f"prefix {prefix!r} is not normalized")


class SuggestIndex:
    """One history's suggestion server, built once and asked many times.

    The clicked entries that pass the horizon are sorted once by query, so the
    entries a prefix matches form one contiguous run found by bisection. A
    request ranks only that run: O(log n + matches) instead of a scan over
    the whole history, and a prefix that matches nothing costs one bisection.
    With a horizon set, entries whose last_time is older than now - horizon
    are not served.
    """

    def __init__(
        self,
        history: SearchHistory,
        ranking: RankingKey = default_ranking,
        horizon: Optional[int] = None,
        now: Optional[int] = None,
    ):
        clicked = [e for e in history.entries.values() if e.clicked]
        if horizon is not None:
            cutoff = (now if now is not None else 0) - horizon
            clicked = [e for e in clicked if e.last_time >= cutoff]
        queries = [e.query for e in clicked]
        self._entries = clicked
        self._by_query = sorted(range(len(clicked)), key=queries.__getitem__)
        self._queries = [queries[i] for i in self._by_query]
        self._ranking = ranking
        self._alphabet = history.alphabet
        self._checked = _CHECKED.setdefault(history.alphabet, set())

    def __call__(self, prefix: str) -> SuggestionResponse:
        """History suggestions only: the top-3 clicked entries whose query
        starts with the prefix, under the ranking policy."""
        if prefix not in self._checked:
            _check_prefix(prefix, self._alphabet)
            self._checked.add(prefix)
        queries = self._queries
        lo = bisect_left(queries, prefix)
        if lo == len(queries) or not queries[lo].startswith(prefix):
            return SuggestionResponse(prefix=prefix, suggestions=[])
        hi = lo + 1
        while hi < len(queries) and queries[hi].startswith(prefix):
            hi += 1
        # Back to history order first, so ranking ties break as in a scan.
        hits = sorted(self._by_query[lo:hi])
        entries = self._entries
        ranked = sorted([entries[i] for i in hits], key=self._ranking)
        return SuggestionResponse(
            prefix=prefix,
            suggestions=[
                Suggestion(e.query, Origin.HISTORY) for e in ranked[:MAX_HISTORY_SUGGESTIONS]
            ],
        )


def suggest(
    history: SearchHistory,
    prefix: str,
    generic_corpus: Sequence[str] = (),
    ranking: RankingKey = default_ranking,
    horizon: Optional[int] = None,
    now: Optional[int] = None,
) -> SuggestionResponse:
    """Answer one autocomplete request.

    History suggestions come from a SuggestIndex of the history (see there).
    Generic suggestions fill the list up to 10 from the ranked corpus.
    """
    response = SuggestIndex(history, ranking, horizon, now)(prefix)
    picked = response.suggestions
    seen = {s.text for s in picked}
    for q in generic_corpus:
        if len(picked) >= MAX_SUGGESTIONS:
            break
        if q.startswith(prefix) and q not in seen:
            picked.append(Suggestion(q, Origin.GENERIC))
            seen.add(q)
    return response


@dataclass(frozen=True)
class CustomizationMarker:
    url: str
    visit_count: int
    last_visit: int


def targeted_check(history: SearchHistory, probe_result_urls: Sequence[str]) -> List[CustomizationMarker]:
    """Return one marker per probe URL previously clicked from this history.

    An empty list means no customization link would appear on the result page.
    """
    markers = []
    for url in probe_result_urls:
        hits = [e for e in history.entries.values() if url in e.clicked_urls]
        if hits:
            markers.append(
                CustomizationMarker(
                    url=url,
                    visit_count=sum(e.count for e in hits),
                    last_visit=max(e.last_time for e in hits),
                )
            )
    return markers


@dataclass
class MapsHistoryEntry:
    id: int
    address: str
    label: str
    created: int
    count: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "address": self.address,
            "label": self.label,
            "created": self.created,
            "count": self.count,
        }


@dataclass
class Session:
    """Server-side view of which session token authenticates an account."""

    sid: str

    def check(self, token: Optional[str]) -> None:
        if token != self.sid:
            raise InvalidSessionError("session token rejected")


def maps_dump(
    maps_history: Sequence[MapsHistoryEntry],
    session: Session,
    token: Optional[str],
) -> List[dict]:
    """The maps page embeds the full location history in one response."""
    session.check(token)
    return [e.to_dict() for e in maps_history]


def mobile_dump(
    history: SearchHistory,
    user_agent: str,
    session: Session,
    token: Optional[str],
    mobile_pattern: str = DEFAULT_MOBILE_PATTERN,
) -> Optional[List[str]]:
    """Mobile page: the whole history, clicked or not, in one response.

    Returns None (refusal) when the user agent does not look mobile.
    """
    session.check(token)
    if mobile_pattern not in user_agent:
        return None
    return sorted(history.entries)
