"""Reconstruction engine: drives the suggestion endpoint with a planned,
budgeted, adaptive prefix schedule and assembles the inferred history."""

from __future__ import annotations

import csv
import json
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from .history import InputError, RankedHistory, Record, SearchHistory
from .oracle import MAX_HISTORY_SUGGESTIONS, MIN_PREFIX_LEN, SuggestIndex, SuggestionResponse
from .planner import PrefixPlan, WalkOrder

UNLIMITED = None

# An oracle is anything that answers a prefix with a SuggestionResponse.
SuggestFn = Callable[[str], SuggestionResponse]


class AttackError(InputError):
    pass


class ReconstructionAborted(AttackError):
    """Oracle failure mid-run; carries the partial result."""

    def __init__(self, message: str, partial: "ReconstructionResult"):
        super().__init__(message)
        self.partial = partial


class AttackConfig(Record):
    _fields = ("plan", "budget", "max_depth", "descent_threshold")

    def __init__(
        self, plan: PrefixPlan, budget: Optional[int] = UNLIMITED,
        max_depth: Optional[int] = UNLIMITED, descent_threshold: int = MAX_HISTORY_SUGGESTIONS,
    ):
        self.plan = plan
        self.budget = budget
        self.max_depth = max_depth
        self.descent_threshold = descent_threshold
        # Below 1 every prefix would descend, and the alphabet fallback past
        # the deepest stats level never runs out of children.
        if self.descent_threshold < 1:
            raise AttackError(f"descent_threshold must be >= 1, got {self.descent_threshold}")
        if self.descent_threshold > MAX_HISTORY_SUGGESTIONS:
            raise AttackError(
                f"descent_threshold {self.descent_threshold} exceeds the "
                f"{MAX_HISTORY_SUGGESTIONS}-suggestion cap"
            )
        if self.budget is not None and self.budget < 1:
            raise AttackError(f"budget must be >= 1, got {self.budget}")
        # no prefix shorter than the oracle's minimum is ever requested
        if self.max_depth is not None and self.max_depth < MIN_PREFIX_LEN:
            raise AttackError(f"max_depth must be >= {MIN_PREFIX_LEN}, got {self.max_depth}")


# Makes a run's (requested, served): the prefixes asked, in order, and the
# texts served to each asked prefix that was served at least one.
SpellFn = Callable[[], Tuple[List[str], Dict[str, List[str]]]]


class ReconstructionResult:
    """One run: how many requests it made, the texts they recovered, and
    whether the frontier ran out. requested and served come from spell,
    called once, the first time either is read (also through request_log,
    to_json and recovered_after(k) for k below the requests made), so a
    reader of the counts alone never builds them. With no arguments, a run
    that made no request."""

    __slots__ = ("requests_used", "recovered", "frontier_exhausted", "_spell", "_spelled")

    def __init__(
        self,
        requests_used: int = 0,
        recovered: Optional[Set[str]] = None,
        frontier_exhausted: bool = False,
        spell: SpellFn = lambda: ([], {}),
    ):
        self.requests_used = requests_used
        self.recovered = set() if recovered is None else recovered
        self.frontier_exhausted = frontier_exhausted
        self._spell = spell
        self._spelled: Optional[Tuple[List[str], Dict[str, List[str]]]] = None

    def _lists(self) -> Tuple[List[str], Dict[str, List[str]]]:
        if self._spelled is None:
            self._spelled = self._spell()
            self._spell = None  # frees what it kept, a walk's levels
        return self._spelled

    @property
    def requested(self) -> List[str]:
        return self._lists()[0]

    @property
    def served(self) -> Dict[str, List[str]]:
        return self._lists()[1]

    @property
    def request_log(self) -> List[Tuple[str, int]]:
        """(prefix, texts served) for each request, in order."""
        served = self.served
        return [(p, len(served.get(p, ()))) for p in self.requested]

    def recovered_after(self, k: int) -> int:
        """How many distinct texts the first k requests served: what a run
        cut at budget k recovers. Not part of to_json."""
        if k >= self.requests_used:
            return len(self.recovered)
        requested, served = self._lists()
        if len(requested) - k < k:
            # no prefix is asked twice, so the first k are the served ones
            # outside the rest, the shorter side to read
            rest = set(requested[k:])
            return len(set().union(*(texts for p, texts in served.items() if p not in rest)))
        return len(set().union(*(served[p] for p in requested[:k] if p in served)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "recovered": sorted(self.recovered),
                "requests_used": self.requests_used,
                "request_log": [[p, c] for p, c in self.request_log],
                "frontier_exhausted": self.frontier_exhausted,
            },
            sort_keys=True,
        )


def reconstruct(oracle: SuggestFn, config: AttackConfig) -> ReconstructionResult:
    """Run the planned descent.

    The frontier is requested in max-priority order by corpus count, shorter
    prefixes first on ties, then lexicographic. A prefix serving at least
    descent_threshold history suggestions (by default the cap, i.e.
    saturated) is expanded one character deeper; no prefix is ever
    requested twice. A bare SuggestIndex takes _walk, which makes the same
    requests without the heap and serves each level from one pass over the
    user's clicked queries, ranked once; any other oracle takes the heap.
    """
    if type(oracle) is SuggestIndex:
        return _walk(oracle, config)
    # only this loop uses heapq, and no CLI run enters it
    import heapq

    plan = config.plan
    budget = config.budget
    threshold = config.descent_threshold
    max_depth = config.max_depth
    rank = plan.walk_order.rank

    def priority(prefix: str) -> Tuple:
        # the rank holds every seed and stats prefix; any other prefix is a
        # fallback child, with no count and longer than every ranked one
        return (rank.get(prefix, len(rank)), len(prefix), prefix)

    # The prefix is the last element of its priority, so the heap holds the
    # priorities alone.
    heap: List[Tuple] = [priority(p) for p in plan.seeds]
    heapq.heapify(heap)
    requested: List[str] = []
    served: Dict[str, List[str]] = {}
    recovered: Set[str] = set()

    # A plan holds each seed and unigram_order character once, and a child
    # is one character longer than its one parent, so no prefix is pushed
    # twice.
    while heap and (budget is None or len(requested) < budget):
        prefix = heapq.heappop(heap)[-1]
        try:
            response = oracle(prefix)
        except Exception as exc:
            cut = ReconstructionResult(
                len(requested), recovered, False, lambda: (requested, served)
            )
            raise ReconstructionAborted(str(exc), cut) from exc
        texts = response.texts
        requested.append(prefix)
        if texts:
            served[prefix] = texts
            recovered.update(texts)
        if len(texts) >= threshold and (max_depth is None or len(prefix) < max_depth):
            for child in plan.extend(prefix):
                heapq.heappush(heap, priority(child))
    return ReconstructionResult(len(requested), recovered, not heap, lambda: (requested, served))


def _walk(index: SuggestIndex, config: AttackConfig) -> ReconstructionResult:
    """The frontier loop's run without its heap: it asks its requested set in
    sorted order, the stats levels by rank and then each fallback level.
    Each level is served from one pass over the user's clicked queries in
    ranked order, and only the queries under a saturated prefix go on to the
    next level. A plan asks no prefix the oracle refuses (see
    planner._order_problem), so the walk never aborts. The loop counts the
    requests and fills recovered; requested and served are spelled from the
    kept levels (_spell) when read, or at once where the budget cuts."""
    plan, budget, max_depth = config.plan, config.budget, config.max_depth
    threshold = config.descent_threshold
    order = plan.walk_order
    chars, spaceless = order.chars, order.spaceless
    # per level: whether it is a stats level; its prefixes, or past the
    # stats levels its saturated parents, sorted; the prefixes it served;
    # and the texts it served each of them, in the same order
    levels: List[tuple] = []
    used, recovered = 0, set()
    level, n = plan.seeds, len(plan.seeds[0])
    groups = _groups(index.ranked, n)
    while level:
        stats_level = n in plan.stats_by_length  # contiguous from the seeds' length
        if stats_level:
            used += len(level)
            # a dict's keys intersect an exact set from the smaller side
            hits = groups.keys() & (order.seeds if level is plan.seeds else level)
        elif budget is not None and used > budget:
            break  # this level and every later one would be cut
        else:
            # level holds the saturated parents, and each asks a child per
            # character, bar a space after a space
            used += sum(len(spaceless if p[-1] == " " else chars) for p in level)
            # Each key is a saturated parent plus one character (see the
            # grouping below), so the level asked it unless that character
            # is not in unigram_order or is a space after a space: queries
            # are not normalized on load.
            hits = [p for p in groups if p[-1] in plan.unigram_order and not p.endswith("  ")]
        texts = [groups[p][:MAX_HISTORY_SUGGESTIONS] for p in hits]
        recovered.update(*texts)
        levels.append((stats_level, level, hits, texts))
        if max_depth is not None and n >= max_depth:
            break
        saturated = [p for p in hits if len(groups[p]) >= threshold]
        # every next-level prefix extends a saturated one, and each child's
        # queries all come from its one parent's group, in rank order
        groups = _groups([q for p in saturated for q in groups[p] if len(q) > n], n + 1)
        n += 1
        if n in plan.stats_by_length:
            level = [c for p in saturated for c in plan.extend(p)]
        else:
            level = sorted(saturated)
    if budget is None or used <= budget:
        return ReconstructionResult(used, recovered, True, partial(_spell, order, levels))
    requested, served = _spell(order, levels)
    del requested[budget:]
    # the levels served prefixes past the cut too
    asked = set(requested)
    served = {p: texts for p, texts in served.items() if p in asked}
    recovered = set().union(*served.values())
    return ReconstructionResult(budget, recovered, False, lambda: (requested, served))


def _spell(order: WalkOrder, levels: List[tuple]) -> Tuple[List[str], Dict[str, List[str]]]:
    """A walk's requested prefixes, in request order, and the texts served
    to each that was served any, from its levels (see _walk)."""
    stats: List[str] = []
    fallback: List[str] = []
    served: Dict[str, List[str]] = {}
    for stats_level, prefixes, hits, texts in levels:
        if stats_level:
            stats += prefixes
        else:
            # what extend gives each parent, already in sorted order
            fallback += [
                p + c for p in prefixes for c in (order.spaceless if p[-1] == " " else order.chars)
            ]
        served.update(zip(hits, texts))
    # the seeds come as listed, which build_plan lists in rank order, so
    # the sort finds that run already sorted
    return sorted(stats, key=order.rank.__getitem__) + fallback, served


def _groups(queries: Iterable[str], n: int) -> Dict[str, List[str]]:
    """Every query under each q[:n], in the order given: over an index's
    ranked, a group's first MAX_HISTORY_SUGGESTIONS are what the index
    serves that prefix of length n, and its size says whether the prefix is
    saturated. A query shorter than n sits under itself, which no
    prefix of length n equals."""
    groups: Dict[str, List[str]] = {}
    for q in queries:
        groups.setdefault(q[:n], []).append(q)
    return groups


class RecallReport(Record):
    """One user's score. The fields, in this order, are the per-user keys
    of the eval JSON (its vars()) and the columns of the per-user CSV."""

    _fields = ("user_id", "n_h", "n_c", "n_s", "recall", "n_requests")

    def __init__(self, user_id: str, n_h: int, n_c: int, n_s: int, recall: float, n_requests: int):
        self.user_id = user_id
        self.n_h = n_h
        self.n_c = n_c
        self.n_s = n_s
        self.recall = recall
        self.n_requests = n_requests

    def csv_row(self) -> List[str]:
        row = {name: str(value) for name, value in vars(self).items()}
        row["recall"] = format_recall(self.recall)
        return list(row.values())


def format_recall(recall: float) -> str:
    """Two decimal places, truncated toward zero (0.6968 displays as 0.69).

    Stored values keep full precision; truncation happens only here.
    """
    from decimal import ROUND_DOWN, Decimal

    return str(Decimal(repr(recall)).quantize(Decimal("0.01"), rounding=ROUND_DOWN))


def compute_recall(n_c: int, n_s: int) -> float:
    """Recovered clicked queries over all clicked queries; 0 when none clicked."""
    if n_c == 0:
        return 0.0
    return n_s / n_c


def score(result: ReconstructionResult, truth: Union[SearchHistory, RankedHistory]) -> RecallReport:
    n_c = truth.n_c
    n_s = len(result.recovered)
    return RecallReport(
        user_id=truth.user_id,
        n_h=truth.n_h,
        n_c=n_c,
        n_s=n_s,
        recall=compute_recall(n_c, n_s),
        n_requests=result.requests_used,
    )


def write_reports_csv(reports: List[RecallReport], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RecallReport._fields)
        for report in reports:
            writer.writerow(report.csv_row())
