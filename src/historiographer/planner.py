"""Attacker-side request planning: prefix frequency statistics over a
reference corpus, percentile-mass seed selection and frequency-ordered
extension for tree descent."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from importlib import resources
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .history import DEFAULT_ALPHABET, STRINGS, InputError, Record, field_problem, normalize, read_json
from .oracle import prefix_problem

PLANNER_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class PlannerError(InputError):
    pass


class EmptyCorpusError(PlannerError):
    pass


def _ordered(counts: Mapping[str, int]) -> List[str]:
    """Canonical order: count descending, then lexicographic (stable sorts)."""
    ordered = sorted(counts)
    ordered.sort(key=counts.__getitem__, reverse=True)
    return ordered


def write_stats_csv(counts: Mapping[str, int], path) -> None:
    """One stats level as CSV: a prefix,count header, then each prefix in
    canonical order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prefix", "count"])
        for p in _ordered(counts):
            writer.writerow([p, counts[p]])


def build_stats(corpus: Sequence[str], length: int, alphabet: str = PLANNER_ALPHABET) -> Dict[str, int]:
    """Tally the first `length` characters of every corpus item, as
    {prefix: count}.

    Items shorter than `length`, or whose prefix uses characters outside the
    alphabet, do not contribute. One pass counts every item's prefix; the
    distinct prefixes are then filtered, each once.
    """
    if length < 2:
        raise PlannerError(f"prefix length must be >= 2, got {length}")
    if not corpus:
        raise EmptyCorpusError("reference corpus is empty")
    allowed = set(alphabet)
    counts = Counter(map(itemgetter(slice(0, length)), corpus))
    return {p: c for p, c in counts.items() if len(p) == length and allowed.issuperset(p)}


def mass_problem(mass_fraction: float) -> Optional[str]:
    """What keeps mass_fraction from being a share of the corpus, as a
    message; None if nothing does."""
    return None if 0 < mass_fraction <= 1 else f"{mass_fraction} is not in (0, 1]"


def select_mass(counts: Mapping[str, int], mass_fraction: float) -> List[str]:
    """Smallest frequency-ordered head of the prefix list covering the
    requested fraction of the counted items, the sum of counts: the corpus
    items whose prefix of the level's length lies in the alphabet.
    mass_fraction=1 returns every nonzero prefix."""
    problem = mass_problem(mass_fraction)
    if problem:
        raise PlannerError(f"mass_fraction: {problem}")
    target = mass_fraction * sum(counts.values())
    picked: List[str] = []
    cum = 0
    for p in _ordered(counts):
        if cum >= target:
            break
        picked.append(p)
        cum += counts[p]
    return picked


# the top-level fields of a saved plan and their JSON types
_PLAN_FIELDS = {
    "seeds": STRINGS, "mass_fraction": (int, float), "alphabet": str, "unigram_order": str,
    "stats": dict,
}
_PLAN_OPTIONAL = {"selected": dict, "filter_extensions": bool}


def _length_problem(key: str) -> Optional[str]:
    """What keeps a stats or selected key from naming a prefix length: it
    is not a few decimal digits (int() refuses more than 4300), or it has a
    leading zero, so that two keys could name one length."""
    if not (key.isascii() and key.isdigit() and len(key) <= 9):
        return "expected an integer key"
    if key != str(int(key)):
        return "expected an integer key with no leading zero"
    return None


def _plan_problem(d) -> Optional[str]:
    """What is wrong with the shape of a saved plan, as "field: ...": its
    first field or nested value that is missing or of the wrong JSON type;
    None if all is good."""
    if type(d) is not dict:
        return f"expected a JSON object, got {type(d).__name__}"
    problem = field_problem(d, _PLAN_FIELDS, _PLAN_OPTIONAL)
    if problem:
        return problem
    # stats ({prefix: count}) and selected (prefixes) are keyed by prefix length
    for where, kind in [("stats", dict), ("selected", STRINGS)]:
        levels = d.get(where, {})
        for n, level in levels.items():
            problem = _length_problem(n)
            if problem:
                return f"{where}.{n}: {problem}"
            problem = field_problem(levels, {n: kind}, where=f"{where}.")
            if problem is None and kind is dict:
                problem = field_problem(level, dict.fromkeys(level, int), where=f"{where}.{n}.")
            if problem:
                return problem
    return None


def _order_problem(seeds, unigram_order: str, stats: Mapping, selected: Mapping) -> Optional[str]:
    """What keeps a plan from fixing the attack's request order, as "field:
    problem"; None if nothing does: a unigram_order character or prefix the
    oracle refuses, a prefix not as long as its level (seeds sit at the
    shallowest stats level), no seeds, stats lengths missing or not
    contiguous, or a count that is negative or above its parent's. stats
    ({prefix: count}) and selected (prefixes) are keyed by length."""
    problem = query_alphabet_problem(unigram_order)
    if problem:
        return f"unigram_order: {problem}"
    levels = [
        *((f"stats.{n}", n, prefixes) for n, prefixes in stats.items()),
        *((f"selected.{n}", n, prefixes) for n, prefixes in selected.items()),
    ]
    for where, _, prefixes in [("seeds", None, seeds), *levels]:
        problem = next(filter(None, map(prefix_problem, prefixes)), None)
        if problem:
            return f"{where}: {problem}"
    lengths = sorted(stats)
    # seeds belong to the shallowest stats level
    for where, n, prefixes in levels + ([("seeds", lengths[0], seeds)] if lengths else []):
        for p in prefixes:
            if len(p) != n:
                return f"{where}: {p!r} is not {n} characters long"
    if not seeds:
        return "seeds: empty"
    if not lengths:
        return "stats: empty"
    # distinct, so contiguous iff they span no more than their number
    if lengths[-1] - lengths[0] >= len(lengths):
        return f"stats: lengths {lengths} are not contiguous"
    for n in lengths:
        for p, c in stats[n].items():
            if c < 0:
                return f"stats.{n}.{p}: {c} is negative"
            if n > lengths[0] and c > stats[n - 1].get(p[:-1], 0):
                return f"stats.{n}.{p}: {c} is above the count of {p[:-1]!r}"
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


class WalkOrder:
    """What the fixed-order walk reads of a plan: each seed and stats-level
    prefix by its place in the attack's request order (count descending,
    then shorter, then lexicographic), the seeds as a set, and
    unigram_order in code-point order with and without the space, which
    the fallback past the deepest stats level appends to a parent (the
    second to a parent that ends in a space). The seeds are an exact set:
    in 3.11 `dict_keys & x` looks up from the smaller side only then."""

    __slots__ = ("rank", "seeds", "chars", "spaceless")

    def __init__(self, rank: Dict[str, int], seeds: Set[str], chars: Tuple[str, ...]):
        self.rank = rank
        self.seeds = seeds
        self.chars = chars
        self.spaceless = tuple(c for c in chars if c != " ")


class PrefixPlan(Record):
    """A plan fixes the attack's request order when it is made. Every way to
    make one (build_plan, from_dict, load, or the constructor with another
    plan's fields) runs __init__, which keeps read-only copies of the data
    less repeated seeds and unigram_order characters (each stats level a
    {prefix: count} mapping), raises PlannerError("field: problem") where
    mass_problem or _order_problem names one, and works out the walk order
    and the extend children of each stats level. A plan is read-only, and
    it compares by its fields, not by what it works out from them."""

    _fields = (
        "seeds", "mass_fraction", "stats_by_length", "alphabet", "unigram_order",
        "selected_by_length",
    )
    seeds: Tuple[str, ...]
    mass_fraction: float
    stats_by_length: Mapping[int, Mapping[str, int]]
    alphabet: str
    unigram_order: str
    selected_by_length: Mapping[int, FrozenSet[str]]
    walk_order: WalkOrder
    # children by parent prefix at each stats level, frequency-ordered
    _children: Dict[int, Dict[str, List[str]]]

    def __init__(
        self, seeds: Sequence[str], mass_fraction: float,
        stats_by_length: Mapping[int, Mapping[str, int]], alphabet: str, unigram_order: str,
        selected_by_length: Optional[Mapping[int, Sequence[str]]] = None,
    ):
        seeds = tuple(dict.fromkeys(seeds))
        unigram_order = "".join(dict.fromkeys(unigram_order))
        # copies, not views: a plan ranks its requests by these counts
        stats = MappingProxyType({
            n: MappingProxyType(dict(counts)) for n, counts in stats_by_length.items()
        })
        # checked in the order given, so that the first problem is named
        selected = {n: tuple(s) for n, s in (selected_by_length or {}).items()}
        mass = mass_problem(mass_fraction)
        problem = f"mass_fraction: {mass}" if mass else _order_problem(
            seeds, unigram_order, stats, selected
        )
        if problem:
            raise PlannerError(problem)
        selected = MappingProxyType({n: frozenset(s) for n, s in selected.items()})
        # one dict: each level's prefixes are of its own length, and a seed
        # no level counts has count 0
        count = dict.fromkeys(seeds, 0)
        for level in stats.values():
            count.update(level)
        # stable sorts, last key first: count descending, shorter, lexicographic
        ranked = sorted(count)
        ranked.sort(key=len)
        ranked.sort(key=count.__getitem__, reverse=True)
        order = WalkOrder(
            {p: i for i, p in enumerate(ranked)}, set(seeds), tuple(sorted(unigram_order))
        )
        # the rank within one level is that level's frequency order
        children: Dict[int, Dict[str, List[str]]] = {n: {} for n in stats}
        for p in ranked:
            if count[p] > 0 and p in selected.get(len(p), ()):
                children[len(p)].setdefault(p[:-1], []).append(p)
        for name, value in [
            ("seeds", seeds), ("mass_fraction", mass_fraction), ("stats_by_length", stats),
            ("alphabet", alphabet), ("unigram_order", unigram_order),
            ("selected_by_length", selected), ("walk_order", order), ("_children", children),
        ]:
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"PrefixPlan.{name} is read-only")

    def extend(self, prefix: str) -> List[str]:
        """Children of a saturated prefix, one character longer, ordered by
        corpus frequency, in a fresh list. Falls back to the whole alphabet
        (unigram order) past the deepest stats level."""
        groups = self._children.get(len(prefix) + 1)
        if groups is None:
            return [
                prefix + c
                for c in self.unigram_order
                if not (c == " " and prefix.endswith(" "))
            ]
        return list(groups.get(prefix, ()))

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "mass_fraction": self.mass_fraction,
            "alphabet": self.alphabet,
            "unigram_order": self.unigram_order,
            # fixed since seeds are always selected by mass and children
            # always filtered; written so that saved plans stay the same
            "selection": "mass",
            "filter_extensions": True,
            "stats": {
                str(n): dict(counts) for n, counts in sorted(self.stats_by_length.items())
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
    def from_dict(cls, d) -> "PrefixPlan":
        """The plan to_dict gave; PlannerError("field: problem") if d is not
        one. The plan command never wrote filter_extensions false, so such a
        plan is refused, once every other check has passed."""
        problem = _plan_problem(d)
        if problem:
            raise PlannerError(problem)
        plan = cls(
            seeds=d["seeds"],
            mass_fraction=d["mass_fraction"],
            stats_by_length={int(n): counts for n, counts in d["stats"].items()},
            alphabet=d["alphabet"],
            unigram_order=d["unigram_order"],
            selected_by_length={int(n): sel for n, sel in d.get("selected", {}).items()},
        )
        if not d.get("filter_extensions", True):
            raise PlannerError(
                "filter_extensions: false is not read; build the plan again with the plan command"
            )
        return plan

    @classmethod
    def load(cls, path) -> "PrefixPlan":
        """The plan that save wrote. A file that is not UTF-8 JSON, or a
        plan that from_dict refuses, raises PlannerError naming the file."""
        d = read_json(path, PlannerError)
        try:
            return cls.from_dict(d)
        except PlannerError as exc:
            raise PlannerError(f"{path}: {exc}") from None


def build_plan(
    corpus: Sequence[str],
    mass_fraction: float = 0.9,
    lengths: Sequence[int] = (2, 3),
    alphabet: str = PLANNER_ALPHABET,
) -> PrefixPlan:
    """Build seed list and per-length stats from a reference corpus."""
    if not lengths:
        raise PlannerError("no prefix lengths given")
    stats_by_length = {n: build_stats(corpus, n, alphabet) for n in sorted(lengths)}
    picked = {n: select_mass(stats, mass_fraction) for n, stats in stats_by_length.items()}

    # every character counted in one pass; only the alphabet's are read
    unigrams = Counter("".join(corpus))
    unigram_order = "".join(_ordered({c: unigrams[c] for c in alphabet}))

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
        selected_by_length=picked,
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
