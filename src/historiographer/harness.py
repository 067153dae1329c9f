"""Dataset ingestion, synthetic history generation, the brute-force
recoverability oracle, and batch attack simulation with aggregate reporting."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timezone
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .attack import (
    AttackConfig,
    AttackError,
    RecallReport,
    ReconstructionAborted,
    ReconstructionResult,
    compute_recall,
    reconstruct,
)
from .history import SearchHistory, load_histories, normalize
from .oracle import MAX_HISTORY_SUGGESTIONS, SuggestIndex, default_ranking

AOL_COLUMNS = ["AnonID", "Query", "QueryTime", "ItemRank", "ClickURL"]

# what a batch reads its histories from: any iterable of them, or a dict of
# them, whose keys are not read
Histories = Union[Iterable[SearchHistory], Mapping[str, SearchHistory]]


def bundled_volunteers() -> Dict[str, SearchHistory]:
    """The calibrated 12-user fixture shipped with the package."""
    from importlib import resources

    ref = resources.files("historiographer.data").joinpath("volunteers.jsonl")
    with resources.as_file(ref) as path:
        return load_histories(path)


class HarnessError(Exception):
    pass


class HeaderMismatchError(HarnessError):
    pass


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@lru_cache(maxsize=4096)
def _epoch_day(ymd: str) -> Optional[int]:
    """Days from 1970-01-01 to an ASCII "dddd-dd-dd" date, or None if the
    string is not of that form or names no day of the calendar."""
    if ymd.isascii() and ymd[4] == "-" == ymd[7] and (ymd[:4] + ymd[5:7] + ymd[8:]).isdigit():
        try:
            return date(int(ymd[:4]), int(ymd[5:7]), int(ymd[8:])).toordinal() - _EPOCH_ORDINAL
        except ValueError:
            pass
    return None


# seconds for each two-digit ASCII hour, minute and second in range
_HOURS = {f"{h:02d}": h * 3600 for h in range(24)}
_MINUTES = {f"{m:02d}": m * 60 for m in range(60)}
_SECONDS = {f"{s:02d}": s for s in range(60)}


def _parse_query_time(raw: str) -> int:
    """Seconds since the epoch of a UTC time that strptime reads as
    "%Y-%m-%d %H:%M:%S"; ValueError where it refuses one."""
    s = raw.strip()
    # The log's own form, "dddd-dd-dd dd:dd:dd" in ASCII with every field in
    # range, is read directly. strptime also takes single-digit fields, other
    # whitespace between date and time, and non-ASCII digits, so anything
    # else goes to it, which keeps the accepted set and the values unchanged.
    if len(s) == 19 and s[10] == " " and s[13] == ":" == s[16]:
        day = _epoch_day(s[:10])
        if day is not None:
            try:
                return day * 86400 + _HOURS[s[11:13]] + _MINUTES[s[14:16]] + _SECONDS[s[17:]]
            except KeyError:
                pass
    dt = datetime.strptime(s, "%Y-%m-%d %H:%M:%S")
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def ingest_query_log_counted(path) -> Tuple[Dict[str, SearchHistory], int]:
    """Load an AOL-format TSV into per-user histories.

    Returns (histories, skipped_row_count). Malformed rows are skipped,
    never fatal: a row that is not UTF-8, has other than five columns, a
    time strptime refuses, or a query that normalizes to nothing. A row
    with a click URL counts as clicked even without an item rank. Rows end
    at "\n"; trailing "\r" is dropped, so CRLF logs read the same.
    """
    histories: Dict[str, SearchHistory] = {}
    skipped = 0
    try:
        fh = open(path, "rb", buffering=1 << 16)
    except OSError as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = fh.readline().decode("utf-8", "replace").rstrip("\r\n").split("\t")
        if header != AOL_COLUMNS:
            raise HeaderMismatchError(
                f"expected columns {AOL_COLUMNS}, got {header}"
            )
        for raw in fh:
            raw = raw.rstrip(b"\r\n")
            if not raw:
                continue
            try:
                fields = raw.decode("utf-8").split("\t")
            except UnicodeDecodeError:
                skipped += 1
                continue
            if len(fields) != len(AOL_COLUMNS):
                skipped += 1
                continue
            anon_id, query, query_time, _item_rank, click_url = fields
            try:
                time = _parse_query_time(query_time)
            except ValueError:
                skipped += 1
                continue
            query = normalize(query)
            if not query:
                skipped += 1
                continue
            hist = histories.get(anon_id)
            if hist is None:
                hist = histories[anon_id] = SearchHistory(user_id=anon_id)
            # the query is normalized and non-empty, and the history enabled:
            # what insert_search checks is already done
            hist._merge(query, time, click_url.strip() or None)
    return histories, skipped


def gen_synthetic(
    n_users: int,
    entries_per_user: Union[int, Tuple[int, int]],
    clicked_fraction: float,
    vocabulary: Sequence[str],
    seed: int,
) -> Dict[str, SearchHistory]:
    """Reproducible synthetic datasets: queries drawn from the vocabulary
    with Zipf-like weights (1/rank), each searched at a time in
    [1_000_000, 2_000_000]."""
    if not 0 <= clicked_fraction <= 1:
        raise HarnessError(f"clicked_fraction must be in [0, 1], got {clicked_fraction}")
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(len(vocabulary))]
    if isinstance(entries_per_user, int):
        low = high = entries_per_user
    else:
        low, high = entries_per_user
    histories: Dict[str, SearchHistory] = {}
    for i in range(n_users):
        user_id = f"user{i:04d}"
        hist = SearchHistory(user_id=user_id)
        n_entries = rng.randint(low, high)
        queries = rng.choices(vocabulary, weights=weights, k=n_entries)
        for query in queries:
            time = rng.randint(1_000_000, 2_000_000)
            clicked = rng.random() < clicked_fraction
            url = f"http://example.com/{query.replace(' ', '-')}" if clicked else None
            hist.insert_search(query, time, url)
        histories[user_id] = hist
    return histories


def brute_force_recoverable(history: SearchHistory) -> Set[str]:
    """Ground truth for recoverability, by direct enumeration.

    A clicked query is recoverable iff some prefix of it (length >= 2) ranks
    it in the top-3 among clicked queries sharing that prefix. No planner,
    no budget.
    """
    clicked = [e for e in history.entries.values() if e.clicked]
    recoverable: Set[str] = set()
    for entry in clicked:
        for k in range(2, len(entry.query) + 1):
            prefix = entry.query[:k]
            matching = sorted(
                (e for e in clicked if e.query.startswith(prefix)), key=default_ranking
            )
            if entry.query in {
                e.query for e in matching[:MAX_HISTORY_SUGGESTIONS]
            }:
                recoverable.add(entry.query)
                break
    return recoverable


@dataclass
class AggregateReport:
    users: int
    mean_recall: float
    mean_requests: float
    per_user: List[RecallReport]
    failures: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, per_user: List[RecallReport], failures: Dict[str, str]) -> "AggregateReport":
        """Mean recall over users with a clicked query, and mean requests
        over all users, summed in the order given."""
        scored = [r.recall for r in per_user if r.n_c > 0]
        return cls(
            users=len(per_user),
            mean_recall=sum(scored) / len(scored) if scored else 0.0,
            mean_requests=(
                sum(r.n_requests for r in per_user) / len(per_user) if per_user else 0.0
            ),
            per_user=per_user,
            failures=failures,
        )

    def to_dict(self) -> dict:
        return {
            "users": self.users,
            "mean_recall": self.mean_recall,
            "mean_requests": self.mean_requests,
            # a row's fields are its keys; vars() copies nothing
            "per_user": [vars(r) for r in self.per_user],
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _reports(
    histories: Histories, config: AttackConfig, budgets: Sequence[Optional[int]]
) -> List[AggregateReport]:
    """The report of a batch at each budget (None for no budget), from one
    run per user, at the largest budget or with none.

    The histories are attacked one at a time as they are iterated, and none
    is kept. Of histories with the same user id, the last one's run counts.
    Rows and failures come out in sorted user order, so the means are summed
    in that order whatever order the histories came in.

    The budget only cuts the frontier loop short and never changes its
    order, so a run at budget b is the first b requests of that run: its
    recovered count is ``recovered_after(b)``. A run that aborts after k
    requests fails the user at every budget above k and with no budget;
    any other exception fails the user at every budget. An error raised
    while iterating the histories is not a failure: it propagates.
    """
    if isinstance(histories, Mapping):
        histories = histories.values()
    run_config = replace(config, budget=None if None in budgets else max(budgets))
    # per budget: the row or the failure of each user id
    batches: List[Tuple[Dict[str, RecallReport], Dict[str, str]]] = [({}, {}) for _ in budgets]
    for hist in histories:
        user_id = hist.user_id
        try:
            result, error = reconstruct(SuggestIndex(hist), run_config), None
        except ReconstructionAborted as exc:
            result, error = exc.partial, str(exc)
        except Exception as exc:
            # as an abort before the first request: every budget is above it
            result, error = ReconstructionResult(), str(exc)
        used, n_c = result.requests_used, hist.n_c
        for budget, (rows, failures) in zip(budgets, batches):
            # a later history of the same user replaces the earlier one
            rows.pop(user_id, None)
            failures.pop(user_id, None)
            if error is not None and (budget is None or budget > used):
                failures[user_id] = error
                continue
            n = used if budget is None else min(budget, used)
            n_s = result.recovered_after(n)
            rows[user_id] = RecallReport(user_id, hist.n_h, n_c, n_s, compute_recall(n_c, n_s), n)
        # free this run before the next one starts: with two runs alive the
        # collector runs about twice as often
        del result
    # every user has a row or a failure at each budget
    if not any(batches[0]):
        raise HarnessError("no histories to evaluate")
    return [
        AggregateReport.of([rows[u] for u in sorted(rows)], dict(sorted(failures.items())))
        for rows, failures in batches
    ]


def run_batch(histories: Histories, config: AttackConfig) -> AggregateReport:
    """Reconstruct and score every history, one after another (see
    ``_reports``). A user whose run raises is recorded in failures."""
    return _reports(histories, config, [config.budget])[0]


def recall_curve(
    histories: Histories,
    config: AttackConfig,
    budgets: Sequence[int] = (110, 440, 2000),
) -> List[dict]:
    """Mean recall at several request budgets; reported, not asserted.

    Each point is what ``run_batch`` reports at its budget, read from one
    run per user (see ``_reports``), and the points come back in the order
    of ``budgets``. Each point's ``users`` counts the users it averages
    over, so a budget that every user's abort falls short of reads 0 there,
    not a recall of 0.
    """
    if not budgets:
        return []
    if min(budgets) < 1:
        raise AttackError("budget must be >= 1")
    return [
        {
            "budget": budget,
            "mean_recall": report.mean_recall,
            "mean_requests": report.mean_requests,
            "users": report.users,
        }
        for budget, report in zip(budgets, _reports(histories, config, budgets))
    ]
