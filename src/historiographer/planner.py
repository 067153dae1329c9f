"""Attacker-side request planning: prefix frequency statistics over a
reference corpus, percentile-mass seed selection and frequency-ordered
extension for tree descent."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional, Sequence

from .history import DEFAULT_ALPHABET, field_problem, normalize, read_json
from .oracle import prefix_problem

PLANNER_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class PlannerError(Exception):
    pass


class EmptyCorpusError(PlannerError):
    pass


@dataclass
class PrefixStats:
    counts: Dict[str, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def ordered(self) -> List[str]:
        """Canonical order: count descending, then lexicographic."""
        return sorted(self.counts, key=lambda p: (-self.counts[p], p))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["prefix", "count"])
            for p in self.ordered():
                writer.writerow([p, self.counts[p]])


def build_stats(corpus: Sequence[str], length: int, alphabet: str = PLANNER_ALPHABET) -> PrefixStats:
    """Tally the first `length` characters of every corpus item.

    Items shorter than `length`, or whose prefix uses characters outside the
    alphabet, do not contribute.
    """
    if length < 2:
        raise PlannerError(f"prefix length must be >= 2, got {length}")
    if not corpus:
        raise EmptyCorpusError("reference corpus is empty")
    allowed = set(alphabet)
    counts: Counter = Counter()
    for item in corpus:
        if len(item) < length:
            continue
        prefix = item[:length]
        if all(c in allowed for c in prefix):
            counts[prefix] += 1
    return PrefixStats(dict(counts))


def select_mass(stats: PrefixStats, mass_fraction: float) -> List[str]:
    """Smallest frequency-ordered head of the prefix list covering the
    requested fraction of corpus items. mass_fraction=1 returns every
    nonzero prefix."""
    if not 0 < mass_fraction <= 1:
        raise PlannerError(f"mass_fraction must be in (0, 1], got {mass_fraction}")
    ordered = stats.ordered()
    target = mass_fraction * stats.total()
    picked: List[str] = []
    cum = 0
    for p in ordered:
        if cum >= target:
            break
        picked.append(p)
        cum += stats.counts[p]
    return picked


# the top-level fields of a saved plan and their JSON types
_PLAN_FIELDS = {
    "seeds": list, "mass_fraction": (int, float), "alphabet": str, "unigram_order": str,
    "stats": dict,
}
_PLAN_OPTIONAL = {"selected": dict, "filter_extensions": bool}


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _is_length(key: str) -> bool:
    # a few decimal digits; int() refuses more than 4300
    return key.isascii() and key.isdigit() and len(key) <= 9


def _plan_problem(d) -> Optional[str]:
    """What is wrong with a saved plan, as "field: ...": its first field or
    nested value of the wrong shape; None if all is good."""
    if type(d) is not dict:
        return f"expected a JSON object, got {type(d).__name__}"
    problem = field_problem(d, _PLAN_FIELDS, _PLAN_OPTIONAL)
    if problem:
        return problem
    if not _strings(d["seeds"]):
        return "seeds: expected a list of strings"
    # stats and selected are keyed by prefix length
    for n, counts in d["stats"].items():
        if not _is_length(n):
            return f"stats.{n}: expected an integer key"
        if type(counts) is not dict:
            return f"stats.{n}: expected an object, got {type(counts).__name__}"
        for p, count in counts.items():
            if type(count) is not int:
                return f"stats.{n}.{p}: expected an integer, got {type(count).__name__}"
    for n, sel in d.get("selected", {}).items():
        if not _is_length(n):
            return f"selected.{n}: expected an integer key"
        if not _strings(sel):
            return f"selected.{n}: expected a list of strings"
    problem = query_alphabet_problem(d["unigram_order"])
    if problem:
        return f"unigram_order: {problem}"
    # the attack asks each of these prefixes, so each is one the oracle serves
    fields = [
        ("seeds", d["seeds"]),
        *((f"stats.{n}", counts) for n, counts in d["stats"].items()),
        *((f"selected.{n}", sel) for n, sel in d.get("selected", {}).items()),
    ]
    for where, prefixes in fields:
        for p in prefixes:
            problem = prefix_problem(p)
            if problem:
                return f"{where}: {problem}"
    return None


def query_alphabet_problem(chars: str) -> Optional[str]:
    """The first of chars that no normalized query holds, as a message;
    None if there is none. The fallback extends a prefix by each of a
    plan's unigram_order, and the oracle refuses a prefix that holds such a
    character."""
    for c in chars:
        if c not in DEFAULT_ALPHABET:
            return f"{c!r} is not in the query alphabet {DEFAULT_ALPHABET!r}"
    return None


@dataclass
class PrefixPlan:
    seeds: List[str]
    mass_fraction: float
    stats_by_length: Dict[int, PrefixStats]
    alphabet: str
    unigram_order: str
    selected_by_length: Dict[int, set] = field(default_factory=dict)

    # Children by parent prefix at each stats level, frequency-ordered;
    # filled on the first extend() into that level.
    _children: Dict[int, Dict[str, List[str]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    # (seeds, request_rank for them), filled on the first request_rank.
    _rank: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def extend(self, prefix: str) -> List[str]:
        """Children of a saturated prefix, one character longer, ordered by
        corpus frequency. Falls back to the whole alphabet (unigram order)
        past the deepest stats level."""
        child_len = len(prefix) + 1
        stats = self.stats_by_length.get(child_len)
        if stats is None:
            return [
                prefix + c
                for c in self.unigram_order
                if not (c == " " and prefix.endswith(" "))
            ]
        groups = self._children.get(child_len)
        if groups is None:
            groups = self._children[child_len] = self._group_children(child_len)
        return list(groups.get(prefix, ()))

    def _group_children(self, child_len: int) -> Dict[str, List[str]]:
        stats = self.stats_by_length[child_len]
        selected = self.selected_by_length.get(child_len, set())
        groups: Dict[str, List[str]] = {}
        for p in stats.ordered():
            if stats.counts[p] > 0 and p in selected:
                groups.setdefault(p[: child_len - 1], []).append(p)
        return groups

    def request_rank(self) -> Optional[Dict[str, int]]:
        """Each seed and stats-level prefix by its place in the attack's
        request order (count descending, then shorter, then lexicographic).
        None when the plan does not fix that order: when a child could sort
        before its parent or one prefix be reached twice."""
        seeds = tuple(self.seeds)
        if self._rank is not None and self._rank[0] == seeds:
            return self._rank[1]
        lengths = sorted(self.stats_by_length)
        rank = None
        if (
            lengths
            and lengths == list(range(lengths[0], lengths[-1] + 1))
            and len(set(seeds)) == len(seeds)
            and all(len(s) == lengths[0] for s in seeds)
            and len(set(self.unigram_order)) == len(self.unigram_order)
            and all(
                len(p) == n and 0 <= c and (n == lengths[0] or c <= self.seed_count(p[:-1]))
                for n, stats in self.stats_by_length.items()
                for p, c in stats.counts.items()
            )
        ):
            prefixes = set(seeds).union(*(s.counts for s in self.stats_by_length.values()))
            ranked = sorted(prefixes, key=lambda p: (-self.seed_count(p), len(p), p))
            rank = {p: i for i, p in enumerate(ranked)}
        self._rank = (seeds, rank)
        return rank

    def seed_count(self, prefix: str) -> int:
        stats = self.stats_by_length.get(len(prefix))
        if stats is None:
            return 0
        return stats.counts.get(prefix, 0)

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "mass_fraction": self.mass_fraction,
            "alphabet": self.alphabet,
            "unigram_order": self.unigram_order,
            # fixed since seeds are always selected by mass and children
            # always filtered; written so that saved plans stay the same
            "selection": "mass",
            "filter_extensions": True,
            "stats": {
                str(n): s.counts for n, s in sorted(self.stats_by_length.items())
            },
            "selected": {
                str(n): sorted(sel)
                for n, sel in sorted(self.selected_by_length.items())
            },
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "PrefixPlan":
        """The plan to_dict gave. A plan saved with filter_extensions false
        extended a prefix to every child with a count, so it selects those."""
        stats_by_length = {int(n): PrefixStats(dict(counts)) for n, counts in d["stats"].items()}
        if d.get("filter_extensions", True):
            selected = {int(n): set(sel) for n, sel in d.get("selected", {}).items()}
        else:
            selected = {
                n: {p for p, count in s.counts.items() if count > 0}
                for n, s in stats_by_length.items()
            }
        return cls(
            seeds=list(d["seeds"]),
            mass_fraction=d["mass_fraction"],
            stats_by_length=stats_by_length,
            alphabet=d["alphabet"],
            unigram_order=d["unigram_order"],
            selected_by_length=selected,
        )

    @classmethod
    def load(cls, path) -> "PrefixPlan":
        """The plan that save wrote. A file that is not a JSON object, or a
        field or nested value that is missing or of the wrong JSON type,
        raises PlannerError naming the file and the field."""
        d = read_json(path, PlannerError)
        problem = _plan_problem(d)
        if problem:
            raise PlannerError(f"{path}: {problem}")
        return cls.from_dict(d)


def build_plan(
    corpus: Sequence[str],
    mass_fraction: float = 0.9,
    lengths: Sequence[int] = (2, 3),
    alphabet: str = PLANNER_ALPHABET,
) -> PrefixPlan:
    """Build seed list and per-length stats from a reference corpus."""
    if not corpus:
        raise EmptyCorpusError("reference corpus is empty")
    stats_by_length = {n: build_stats(corpus, n, alphabet) for n in sorted(lengths)}
    picked = {n: select_mass(stats, mass_fraction) for n, stats in stats_by_length.items()}

    unigrams: Counter = Counter()
    for item in corpus:
        for c in item:
            if c in alphabet:
                unigrams[c] += 1
    # each character once, so that the plan keeps a request_rank
    unigram_order = "".join(sorted(set(alphabet), key=lambda c: (-unigrams[c], c)))

    seed_len = min(lengths)
    seeds = picked[seed_len]
    if not seeds:
        raise PlannerError(
            f"no corpus item has a length-{seed_len} prefix in the alphabet {alphabet!r}: "
            "the plan would have no seeds"
        )
    return PrefixPlan(
        seeds=seeds,
        mass_fraction=mass_fraction,
        stats_by_length=stats_by_length,
        alphabet=alphabet,
        unigram_order=unigram_order,
        selected_by_length={n: set(sel) for n, sel in picked.items()},
    )


def load_corpus(path) -> List[str]:
    """Word-list corpus: one item per line, normalized on load. As in text
    mode, a lone carriage return also ends an item. A line that is not UTF-8
    raises PlannerError naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # a line break is never part of a UTF-8 sequence, so a line fails on
        # its own too: name the first, with its own message
        for lineno, raw in enumerate(io.BytesIO(data), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PlannerError(f"{path}:{lineno}: not UTF-8: {exc}") from None
        raise
    # an item that normalizes to nothing is dropped
    return list(filter(None, map(normalize, text.replace("\r", "\n").split("\n"))))


def bundled_wordlist() -> List[str]:
    """The word list shipped with the package, read by load_corpus."""
    ref = resources.files("historiographer.data").joinpath("wordlist.txt")
    with resources.as_file(ref) as path:
        return load_corpus(path)
