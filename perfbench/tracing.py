"""Spans around calls into each layer, recorded from outside the program.

``installed(tracer)`` swaps public functions of the package for wrappers
that record a span per call and restores them on exit; the program's files
are not touched. Spans are kept in memory as
``[name, start, end, parent, group, info]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``group`` numbers the user run
(``reconstruct`` call) a span belongs to (0 outside one), and ``info`` is a
count taken at the boundary (history suggestions served, children returned,
records loaded). ``layer_metrics`` turns one repeat's spans into the
per-layer numbers; self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

from historiographer import attack, cli, cookies, harness, planner
from historiographer.history import SearchHistory
from historiographer.planner import PrefixPlan

NAME, START, END, PARENT, GROUP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.group = 0

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.group, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, group, info) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, group, info]) + "\n")


def _run_summary(result):
    return (result.requests_used, len(result.recovered), result.frontier_exhausted)


def _ingest_summary(result):
    histories, skipped = result
    inserted = sum(e.count for h in histories.values() for e in h.entries.values())
    return (inserted, skipped)


# (owner, attribute, span name, info). Names are looked up where the caller
# finds them: the CLI imported its functions by name, so they are patched on
# ``cli``; calls made inside a module are patched on that module.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "build_plan", "planner.build_plan", None),
    (planner, "build_plan", "planner.build_plan", None),
    (PrefixPlan, "extend", "planner.extend", len),
    (cli, "load_histories", "history.load_histories", len),
    (SearchHistory, "insert_search", "history.insert_search", None),
    (cli, "run_batch", "harness.run_batch", None),
    (harness, "run_batch", "harness.run_batch", None),
    (harness, "ingest_query_log_counted", "harness.ingest_query_log_counted", _ingest_summary),
    (harness, "recall_curve", "harness.recall_curve", None),
    (cli, "load_trace", "cookies.load_trace", len),
    (cli, "count_users", "cookies.count_users", None),
    (cli, "audit_trace", "cookies.audit_trace", len),
    (cookies, "harvest_accounts", "cookies.harvest_accounts", len),
    (cookies, "parse_cookie_header", "cookies.parse_cookie_header", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every target, and ``harness.reconstruct`` so that the oracle
    callable handed to it is wrapped too; restore all on exit."""
    traced_run = tracer.wrap("attack.reconstruct", attack.reconstruct, _run_summary)

    def reconstruct(oracle, config):
        tracer.group += 1
        try:
            return traced_run(
                tracer.wrap("oracle.suggest", oracle, lambda r: r.history_count), config
            )
        finally:
            tracer.group = 0

    saved = [(harness, "reconstruct", harness.reconstruct)]
    harness.reconstruct = reconstruct
    try:
        for owner, attr, name, info in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _quantile(values, q):
    """The q-quantile by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    low = int(pos)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (pos - low)


def layer_metrics(spans, wall_s: float, meta: dict) -> dict:
    """Per-layer numbers from the spans of one traced repeat."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    def self_time(name):
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in by_name.get(name, ()))

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, ())]

    def under(index, name):
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    served = infos("oracle.suggest")
    calls = len(served)
    children = infos("planner.extend")
    runs = infos("attack.reconstruct")
    requests = sum(r[0] for r in runs)
    ingests = infos("harness.ingest_query_log_counted")
    records = sum(infos("cookies.load_trace"))
    suggest_self = self_time("oracle.suggest")
    return {
        "oracle.suggest.calls": calls,
        "oracle.suggest.self_s": suggest_self,
        "oracle.suggest.call_us_p50": _quantile(durations("oracle.suggest"), 0.50) * 1e6,
        "oracle.suggest.call_us_p99": _quantile(durations("oracle.suggest"), 0.99) * 1e6,
        "oracle.suggest.saturated_ratio": served.count(3) / calls if calls else 0.0,
        "oracle.suggest.empty_ratio": served.count(0) / calls if calls else 0.0,
        "oracle.suggest.self_share": suggest_self / wall_s,
        "planner.extend.calls": len(children),
        "planner.extend.self_s": self_time("planner.extend"),
        "planner.extend.children_mean": statistics.fmean(children) if children else 0.0,
        "attack.reconstruct.self_s": self_time("attack.reconstruct"),
        "attack.reconstruct.user_ms_p50": _quantile(durations("attack.reconstruct"), 0.50) * 1e3,
        "attack.reconstruct.user_ms_p95": _quantile(durations("attack.reconstruct"), 0.95) * 1e3,
        "attack.requests": requests,
        "attack.recovered_per_request": sum(r[1] for r in runs) / requests if requests else 0.0,
        "attack.budget_hit_ratio": sum(not r[2] for r in runs) / len(runs) if runs else 0.0,
        "harness.ingest_query_log_counted.s": total("harness.ingest_query_log_counted"),
        "harness.ingest.rows": sum(i + s for i, s in ingests),
        "harness.ingest.skipped_rows": sum(s for _, s in ingests),
        "harness.recall_curve.s": total("harness.recall_curve"),
        "harness.recall_curve.reconstruct_calls": sum(
            under(i, "harness.recall_curve") for i in by_name.get("attack.reconstruct", ())
        ),
        "harness.run_batch.self_s": self_time("harness.run_batch"),
        "harness.brute_force_recoverable.s_per_user": meta.get("brute_force_s_per_user", 0.0),
        "history.load_histories.s": total("history.load_histories"),
        "history.insert_search.calls": len(by_name.get("history.insert_search", ())),
        "history.insert_search.self_s": self_time("history.insert_search"),
        "cookies.load_trace.s": total("cookies.load_trace"),
        "cookies.count_users.s": total("cookies.count_users"),
        "cookies.audit_trace.s": total("cookies.audit_trace"),
        "cookies.harvest_accounts.s": total("cookies.harvest_accounts"),
        "cookies.parse_cookie_header.per_record": (
            len(by_name.get("cookies.parse_cookie_header", ())) / records if records else 0.0
        ),
        "cookies.redacted_records": meta.get("redacted_records", 0),
        "cookies.accounts": sum(infos("cookies.harvest_accounts")),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "trace.spans": len(spans),
    }
