import copy
import heapq
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_oracle, random_history, remade
from historiographer import attack
from historiographer.attack import (
    AttackConfig,
    ReconstructionAborted,
    ReconstructionResult,
    compute_recall,
    reconstruct,
    score,
)
from historiographer.harness import brute_force_recoverable, bundled_volunteers, gen_synthetic
from historiographer.history import InputError, SearchHistory
from historiographer.oracle import OracleError, SuggestIndex, prefix_problem, suggest
from historiographer.planner import PrefixPlan, build_plan, build_stats

FULL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


def make_oracle(history):
    return lambda prefix: suggest(history, prefix)


class TestDescent:
    def test_saturated_prefix_expanded(self):
        # "co" saturates (3 clicked), "de" gives 2 and "ya" gives 1: only
        # "co" descends.
        hist = SearchHistory(user_id="u")
        for q in ["cobalt", "code", "coffee", "delta", "demo", "yarn"]:
            hist.insert_search(q, 100, f"http://example.com/{q}")
        corpus = ["cobalt", "code", "coffee", "delta", "demo", "yarn"]
        plan = remade(
            build_plan(corpus, 1.0, alphabet=FULL_ALPHABET), seeds=["co", "de", "ya"]
        )
        result = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        probed = [p for p, _ in result.request_log]
        assert {"co", "de", "ya"} <= set(probed)
        assert any(p.startswith("co") and len(p) == 3 for p in probed)
        assert not any(p.startswith("de") and len(p) == 3 for p in probed)
        assert not any(p.startswith("ya") and len(p) == 3 for p in probed)

    def test_empty_history_probes_every_seed_once(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        hist = SearchHistory(user_id="u")
        result = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        assert result.recovered == set()
        assert result.requests_used == len(plan.seeds)
        assert result.frontier_exhausted

    def test_no_prefix_requested_twice(self, wordlist, rng):
        # The heap loop keeps no set of asked prefixes: a plan holds each
        # seed and unigram_order character once, even one read from a dict
        # that repeats them, and a child is one character longer than its
        # one parent, so no prefix is pushed twice.
        built = build_plan(wordlist, 0.9)
        d = built.to_dict()
        d["seeds"] = d["seeds"] * 2
        d["unigram_order"] = d["unigram_order"] * 2
        loaded = PrefixPlan.from_dict(d)
        assert loaded.seeds == built.seeds and loaded.unigram_order == built.unigram_order
        hist = random_history(rng, wordlist, max_entries=80)
        deepest = 0
        for plan, threshold in itertools.product([built, loaded], [1, 3]):
            config = AttackConfig(plan=plan, descent_threshold=threshold)
            result = reconstruct(make_oracle(hist), config)
            probed = [p for p, _ in result.request_log]
            assert len(probed) == len(set(probed))
            deepest = max(deepest, *map(len, probed))
        # the fallback past the deepest stats level ran
        assert deepest > max(built.stats_by_length)

    def test_budget_caps_requests(self, wordlist, rng):
        plan = build_plan(wordlist, 0.9)
        hist = random_history(rng, wordlist, max_entries=80)
        result = reconstruct(make_oracle(hist), AttackConfig(plan=plan, budget=10))
        assert result.requests_used == 10
        assert not result.frontier_exhausted

    def test_max_depth_two_never_descends(self, wordlist, rng):
        plan = build_plan(wordlist, 0.9)
        hist = random_history(rng, wordlist, max_entries=80)
        result = reconstruct(
            make_oracle(hist), AttackConfig(plan=plan, max_depth=2)
        )
        assert all(len(p) == 2 for p, _ in result.request_log)

    def test_oracle_error_aborts_with_partial(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        calls = []

        def flaky(prefix):
            if len(calls) == 5:
                raise RuntimeError("session revoked")
            calls.append(prefix)
            return suggest(SearchHistory(user_id="u"), prefix)

        with pytest.raises(ReconstructionAborted) as exc_info:
            reconstruct(flaky, AttackConfig(plan=plan))
        assert exc_info.value.partial.requests_used == 5

    def test_config_validation(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        with pytest.raises(InputError, match="^descent_threshold 4 exceeds the 3-suggestion cap$"):
            AttackConfig(plan=plan, descent_threshold=4)
        with pytest.raises(InputError, match="^budget must be >= 1, got 0$"):
            AttackConfig(plan=plan, budget=0)
        with pytest.raises(InputError, match="^budget must be >= 1, got -5$"):
            AttackConfig(plan=plan, budget=-5)

    def test_threshold_below_one_rejected(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        with pytest.raises(InputError, match="^descent_threshold must be >= 1, got 0$"):
            AttackConfig(plan=plan, descent_threshold=0)

    @pytest.mark.parametrize("max_depth", [1, 0, -1])
    def test_max_depth_below_two_rejected(self, wordlist, max_depth):
        # no prefix shorter than 2 is ever requested, so a depth below it
        # would still request the seeds
        plan = build_plan(wordlist, 0.9)
        with pytest.raises(InputError, match=f"^max_depth must be >= 2, got {max_depth}$"):
            AttackConfig(plan=plan, max_depth=max_depth)
        assert AttackConfig(plan=plan, max_depth=2).max_depth == 2

    def test_threshold_descends_at_or_above(self, wordlist, monkeypatch):
        hist = random_history(random.Random(7), wordlist, max_entries=200, clicked_fraction=0.8)
        runs = {}
        extend = PrefixPlan.extend
        for threshold in (2, 3):
            plan = build_plan(wordlist, 0.9)
            extended = []
            monkeypatch.setattr(
                PrefixPlan, "extend",
                lambda self, prefix: extended.append(prefix) or extend(self, prefix),
            )
            result = reconstruct(
                make_oracle(hist), AttackConfig(plan=plan, descent_threshold=threshold)
            )
            assert extended == [p for p, served in result.request_log if served >= threshold]
            runs[threshold] = result
        assert any(served == 2 for _, served in runs[2].request_log)
        assert runs[2].requests_used > runs[3].requests_used
        assert runs[2].recovered >= runs[3].recovered


class TestRecoveredCounts:
    def check(self, result):
        counts = [result.recovered_after(k) for k in range(result.requests_used + 1)]
        # what each prefix of the requests served, counted directly
        seen, direct = set(), [0]
        for prefix in result.requested:
            seen.update(result.served.get(prefix, ()))
            direct.append(len(seen))
        assert counts == direct
        assert counts[-1] == len(result.recovered)
        assert result.recovered_after(result.requests_used + 5) == len(result.recovered)

    @pytest.mark.parametrize("budget", [None, 1, 40])
    def test_cumulative_recovered(self, wordlist, budget):
        hist = random_history(random.Random(7), wordlist, max_entries=80)
        result = reconstruct(make_oracle(hist), AttackConfig(plan=build_plan(wordlist, 0.9), budget=budget))
        self.check(result)
        # a run at another budget makes the same requests up to its end
        other = reconstruct(make_oracle(hist), AttackConfig(plan=build_plan(wordlist, 0.9), budget=10))
        n = min(other.requests_used, result.requests_used)
        assert other.requested[:n] == result.requested[:n]
        assert [other.recovered_after(k) for k in range(n + 1)] == [
            result.recovered_after(k) for k in range(n + 1)
        ]

    def test_partial_result_of_an_abort(self, wordlist):
        hist = random_history(random.Random(8), wordlist, max_entries=80)
        # "qz" has no corpus count, so it is asked after every counted prefix
        plan = bundled_plan_with(wordlist, ["qz"])
        index = SuggestIndex(hist)

        def refusing(prefix):
            if prefix == "qz":
                raise OracleError(f"prefix {prefix!r} refused")
            return index(prefix)

        with pytest.raises(ReconstructionAborted) as exc_info:
            reconstruct(refusing, AttackConfig(plan=plan))
        self.check(exc_info.value.partial)

    @pytest.mark.parametrize("loop", ["walk", "heap"])
    def test_k_below_zero_refused(self, wordlist, loop):
        hist = next(iter(bundled_volunteers().values()))
        oracle = SuggestIndex(hist) if loop == "walk" else bisect_oracle(hist)
        result = reconstruct(oracle, AttackConfig(plan=build_plan(wordlist, 0.9)))
        assert (result.requests_used, len(result.recovered)) == (136, 34)
        for k in (-1, -5):
            with pytest.raises(ValueError, match=f"^k must be >= 0, got {k}$"):
                result.recovered_after(k)
        assert result.recovered_after(0) == 0
        assert ReconstructionResult().recovered_after(0) == 0

    def test_left_out_of_json(self, wordlist):
        hist = random_history(random.Random(9), wordlist, max_entries=40)
        result = reconstruct(make_oracle(hist), AttackConfig(plan=build_plan(wordlist, 0.9)))
        assert result.recovered_after(result.requests_used)
        assert result.to_json() == json.dumps(
            {
                "recovered": sorted(result.recovered),
                "requests_used": result.requests_used,
                "request_log": [[p, len(result.served.get(p, ()))] for p in result.requested],
                "frontier_exhausted": result.frontier_exhausted,
            },
            sort_keys=True,
        )


class ReferenceRun:
    """What reference_reconstruct leaves: plain fields, added to on every
    request."""

    def __init__(self):
        self.request_log = []  # (prefix, texts served)
        self.served = {}  # prefix -> texts, for each request that served any
        self.recovered = set()
        self.recovered_counts = [0]  # len(recovered) after k requests, k = 0, 1, ...
        self.frontier_exhausted = False


def stats_count(plan, prefix):
    """A prefix's count at its own stats level; 0 where it has none."""
    return plan.stats_by_length.get(len(prefix), {}).get(prefix, 0)


def reference_reconstruct(oracle, config):
    """The frontier loop as first written: priorities from the plan's stats
    counts on every push, (priority, prefix) pairs on the heap and config read on
    every request. reconstruct must make the same requests and recover the
    same queries."""
    plan = config.plan
    if not plan.seeds:
        raise InputError("plan has no seeds")

    def priority(prefix):
        return (-stats_count(plan, prefix), len(prefix), prefix)

    heap = [(priority(p), p) for p in plan.seeds]
    heapq.heapify(heap)
    requested = set()
    run = ReferenceRun()
    while heap:
        if config.budget is not None and len(run.request_log) >= config.budget:
            return run
        _, prefix = heapq.heappop(heap)
        if prefix in requested:
            continue
        requested.add(prefix)
        try:
            response = oracle(prefix)
        except Exception as exc:
            raise ReconstructionAborted(str(exc), run) from exc
        served = response.history_count
        run.request_log.append((prefix, served))
        if served:
            run.served[prefix] = list(response.texts)
        run.recovered.update(response.texts)
        run.recovered_counts.append(len(run.recovered))
        if served >= config.descent_threshold and (
            config.max_depth is None or len(prefix) < config.max_depth
        ):
            for child in plan.extend(prefix):
                if child not in requested:
                    heapq.heappush(heap, (priority(child), child))
    run.frontier_exhausted = True
    return run


def run_outcome(fn, oracle, config):
    """What a run leaves: its request log, the texts served to each prefix,
    its recovered set, how many texts its first k requests recovered at
    some k from 0 to all, whether the frontier ran out, and the abort
    message if any."""
    try:
        result, error = fn(oracle, config), None
    except ReconstructionAborted as exc:
        result, error = exc.partial, str(exc)
    n = len(result.request_log)
    # recovered_after(k) takes O(k); TestRecoveredCounts checks every k
    ks = [*range(0, n, max(1, n // 16)), n]
    if isinstance(result, ReferenceRun):
        counts = [result.recovered_counts[k] for k in ks]
    else:
        # after a cut by the budget or an abort too, only asked prefixes
        # are served, each at least one text
        assert result.served.keys() <= set(result.requested)
        assert all(result.served.values())
        assert result.recovered == set().union(*result.served.values())
        counts = [result.recovered_after(k) for k in ks]
    return (
        result.request_log,
        result.served,
        result.recovered,
        counts,
        result.frontier_exhausted,
        error,
    )


class TestAgainstReferenceLoop:
    @pytest.fixture(scope="class")
    def histories(self, wordlist):
        return list(gen_synthetic(4, (5, 40), 0.7, wordlist, seed=21).values())

    @pytest.fixture(scope="class")
    def plan(self, wordlist):
        # a seed with no corpus count ties with others only on its length
        return bundled_plan_with(wordlist, ["qz"])

    # the ids name the descent order checked: the priority frontier
    @pytest.mark.parametrize("threshold", [1, 2, 3], ids="{}-priority".format)
    def test_same_run(self, histories, plan, threshold):
        descended = cut_short = 0
        for max_depth, budget in itertools.product([None, 3], [None, 1, 50]):
            config = AttackConfig(
                plan=plan,
                budget=budget,
                max_depth=max_depth,
                descent_threshold=threshold,
            )
            for hist in histories:
                index = SuggestIndex(hist)
                got = run_outcome(reconstruct, index, config)
                assert got == run_outcome(reference_reconstruct, index, config)
                request_log, _, _, _, exhausted, _ = got
                descended += any(len(p) > 2 for p, _ in request_log)
                cut_short += not exhausted
        assert descended and cut_short

    @pytest.mark.parametrize("fail_at", [0, 1, 7, 40], ids="{}-priority".format)
    def test_same_partial_result_on_abort(self, histories, plan, fail_at):
        config = AttackConfig(plan=plan, descent_threshold=2)
        for hist in histories:
            outcomes = []
            for fn in (reconstruct, reference_reconstruct):
                index, calls = SuggestIndex(hist), []

                def aborting(prefix):
                    if len(calls) == fail_at:
                        raise RuntimeError(f"refused {prefix!r}")
                    calls.append(prefix)
                    return index(prefix)

                outcomes.append(run_outcome(fn, aborting, config))
            assert outcomes[0] == outcomes[1]
            assert len(outcomes[0][0]) == fail_at
            assert outcomes[0][5].startswith("refused ")


def bundled_plan_with(wordlist, extra_seeds):
    plan = build_plan(wordlist, 0.9)
    return remade(plan, seeds=[*plan.seeds, *extra_seeds])


class TestFixedOrderWalk:
    """reconstruct on a SuggestIndex under a plan with a fixed request order
    walks that order; it must leave what the frontier loop leaves."""

    @pytest.fixture(scope="class")
    def histories(self, wordlist):
        return list(gen_synthetic(6, (5, 400), 0.7, wordlist, seed=33).values())

    @pytest.mark.parametrize("extra_seeds", [[], ["qz"]], ids=["bundled", "qz"])
    def test_same_run_as_reference_loop(self, wordlist, histories, monkeypatch, extra_seeds):
        plan = bundled_plan_with(wordlist, extra_seeds)
        passes = []
        level_pass = attack._groups
        monkeypatch.setattr(
            attack, "_groups", lambda ranked, n: passes.append(level_pass(ranked, n)) or passes[-1]
        )
        n = len(plan.seeds)
        seen = {"fallback": 0, "cut_short": 0}
        for threshold, max_depth, budget in itertools.product(
            [1, 2, 3], [None, 2, 3, 5], [None, 1, n - 1, n, n + 1]
        ):
            config = AttackConfig(
                plan=plan, budget=budget, max_depth=max_depth, descent_threshold=threshold
            )
            for hist in histories:
                index = SuggestIndex(hist)
                want = run_outcome(reference_reconstruct, bisect_oracle(hist), config)
                passes.clear()
                got = run_outcome(reconstruct, index, config)
                assert got == want
                request_log, _, _, _, exhausted, error = got
                assert error is None
                # the per-level passes serve exactly the requests that serve
                # something, as many texts as the index does
                served = {p: group[:3] for groups in passes for p, group in groups.items()}
                assert [(p, len(served.get(p, ()))) for p, _ in request_log] == request_log
                seen["fallback"] += any(len(p) > 3 for p, _ in request_log)
                seen["cut_short"] += not exhausted
        assert seen["cut_short"] and seen["fallback"]

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_each_level_groups_only_the_queries_under_saturated_parents(
        self, wordlist, histories, monkeypatch, threshold
    ):
        plan = build_plan(wordlist, 0.9)
        first = len(plan.seeds[0])
        calls = []  # (n, the queries given) for each level pass
        level_pass = attack._groups

        def recorded(queries, n):
            calls.append((n, list(queries)))
            return level_pass(calls[-1][1], n)

        monkeypatch.setattr(attack, "_groups", recorded)
        fallback = 0
        for max_depth in (None, 3, 5):
            config = AttackConfig(plan=plan, max_depth=max_depth, descent_threshold=threshold)
            for hist in histories:
                index = SuggestIndex(hist)
                ranked = list(index.ranked)
                rank = {q: i for i, q in enumerate(ranked)}
                # what the heap loop finds saturated: it serves at most the
                # cap, and the threshold is at most the cap
                heap_run = reference_reconstruct(bisect_oracle(hist), config)
                saturated = {p for p, served in heap_run.request_log if served >= threshold}
                calls.clear()
                reconstruct(index, config)
                assert calls[0] == (first, ranked)
                assert [n for n, _ in calls] == list(range(first, first + len(calls)))
                for n, queries in calls[1:]:
                    want = [q for q in ranked if len(q) > n - 1 and q[: n - 1] in saturated]
                    assert sorted(queries, key=rank.__getitem__) == want
                    # each parent's queries come in rank order
                    for parent in {q[: n - 1] for q in want}:
                        assert [q for q in queries if q.startswith(parent)] == [
                            q for q in want if q.startswith(parent)
                        ]
                fallback += any(n > max(plan.stats_by_length) and q for n, q in calls)
        assert fallback

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_seeds_listed_out_of_rank_order(self, wordlist, histories, order, threshold):
        # the walk puts the seeds in rank order itself, however they are listed
        plan = build_plan(wordlist, 0.9)
        seeds = list(plan.seeds)
        if order == "reversed":
            seeds.reverse()
        else:
            random.Random(19).shuffle(seeds)
        plan = remade(plan, seeds=seeds)
        rank = plan.walk_order.rank
        assert list(plan.seeds) != sorted(plan.seeds, key=rank.__getitem__)
        n = len(plan.seeds)
        for budget in (None, 1, n - 1, n, n + 1):
            config = AttackConfig(plan=plan, budget=budget, descent_threshold=threshold)
            for hist in histories:
                got = run_outcome(reconstruct, SuggestIndex(hist), config)
                assert got == run_outcome(reference_reconstruct, bisect_oracle(hist), config)

    @pytest.mark.parametrize("threshold", [1, 3])
    def test_budget_at_each_level_change(self, wordlist, histories, threshold):
        # a budget just before, at and after the end of the stats levels and
        # of each fallback level
        plan = bundled_plan_with(wordlist, ["qz"])
        deepest = 0
        for hist in histories:
            index, reference = SuggestIndex(hist), bisect_oracle(hist)
            config = AttackConfig(plan=plan, max_depth=6, descent_threshold=threshold)
            run = reconstruct(index, config)
            lengths = [len(p) for p, _ in run.request_log]
            deepest = max(deepest, *lengths)
            changes = [i for i in range(1, len(lengths)) if lengths[i] > lengths[i - 1] >= 3]
            budgets = {b for i in changes + [len(lengths)] for b in (i - 1, i, i + 1) if b >= 1}
            for budget in budgets:
                config = AttackConfig(
                    plan=plan, budget=budget, max_depth=6, descent_threshold=threshold
                )
                assert run_outcome(reconstruct, index, config) == run_outcome(
                    reference_reconstruct, reference, config
                )
        assert deepest > 4

    def test_new_seeds_are_served(self, wordlist, histories):
        # new seeds make a new plan, ranked again; a repeat is dropped
        plan = build_plan(wordlist, 0.9)
        index, reference = SuggestIndex(histories[-1]), bisect_oracle(histories[-1])
        for seeds in (plan.seeds[::2], [*plan.seeds, "qz"], ["th", "qz"], ["th", "th"]):
            changed = remade(plan, seeds=seeds)
            assert changed.seeds == tuple(dict.fromkeys(seeds))
            config = AttackConfig(plan=changed, descent_threshold=2)
            got = run_outcome(reconstruct, index, config)
            assert got == run_outcome(reference_reconstruct, reference, config)
            assert [p for p, _ in got[0] if len(p) == 2] == sorted(
                set(seeds), key=lambda p: (-stats_count(plan, p), p)
            )

    def test_changed_unigram_order_is_checked(self, wordlist):
        plan = build_plan(wordlist, 0.9)
        # the oracle refuses every child ending in "-"
        with pytest.raises(InputError) as exc_info:
            remade(plan, unigram_order=plan.unigram_order + "-")
        assert str(exc_info.value) == (
            f"unigram_order: '-' is not in the query alphabet {FULL_ALPHABET!r}"
        )
        changed = remade(plan, unigram_order=plan.unigram_order + " ")
        assert changed.walk_order.chars == tuple(sorted(plan.unigram_order + " "))
        assert changed.extend("cobb")[-1] == "cobb "

    def test_a_plan_cannot_go_stale(self, wordlist, histories):
        # the walk order is worked out when the plan is made, from data no
        # one can change in place
        plan = build_plan(wordlist, 0.9)
        index = SuggestIndex(histories[-1])
        reconstruct(index, AttackConfig(plan=plan))
        child = next(iter(plan.stats_by_length[3]))
        with pytest.raises(TypeError):
            plan.stats_by_length[3][child] = 1
        with pytest.raises(TypeError):
            plan.stats_by_length[4] = {}
        with pytest.raises(AttributeError):
            plan.stats_by_length = {}
        # the plan keeps a copy of the counts it is given, not a view
        counts = {n: dict(level) for n, level in plan.stats_by_length.items()}
        copied = remade(plan, stats_by_length=counts)
        counts[3][child] += 1
        assert copied.stats_by_length[3][child] == plan.stats_by_length[3][child]
        with pytest.raises(AttributeError):
            plan.seeds = ["th", "qz"]
        with pytest.raises(AttributeError):
            plan.seeds.append("qz")
        with pytest.raises(AttributeError):
            plan.unigram_order += "-"
        with pytest.raises(AttributeError):
            plan.selected_by_length[3].add("qzx")
        # a new plan is checked and ranked again
        changed = remade(plan, seeds=("th", "qz"))
        assert changed.walk_order.seeds == {"th", "qz"}
        config = AttackConfig(plan=changed, descent_threshold=2)
        got = run_outcome(reconstruct, index, config)
        assert got == run_outcome(reference_reconstruct, bisect_oracle(histories[-1]), config)
        assert [p for p, _ in got[0] if len(p) == 2] == ["th", "qz"]
        with pytest.raises(InputError, match="^seeds: 'ZZ' is not normalized$"):
            remade(plan, seeds=("th", "ZZ"))

    @given(
        st.lists(
            st.one_of(st.sampled_from(["qz", "th", "a1", "z "]), st.text("abzZ -", max_size=4)),
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_extra_seeds_served_or_refused(self, wordlist, histories, extra_seeds):
        # a seed the oracle refuses, or one of another length, is refused
        # when the plan is made, and a repeat is dropped; the walk and the
        # heap loop on a plan that is made run alike and never abort
        try:
            plan = bundled_plan_with(wordlist, extra_seeds)
        except InputError as exc:
            assert str(exc).startswith("seeds: ")
            assert any(prefix_problem(p) or len(p) != 2 for p in extra_seeds)
            return
        assert len(set(plan.seeds)) == len(plan.seeds)
        for budget in (None, len(plan.seeds)):
            config = AttackConfig(plan=plan, budget=budget, descent_threshold=2)
            for hist in histories[:2]:
                reference = bisect_oracle(hist)
                got = run_outcome(reconstruct, SuggestIndex(hist), config)
                assert got == run_outcome(reference_reconstruct, reference, config)
                assert got == run_outcome(reconstruct, reference, config)
                assert got[5] is None


class TestWalkResultReaders:
    """Both loops give a ReconstructionResult. A walk, cut by the budget or
    not, keeps its levels and spells its request list only when it is
    read, and answers recovered_after(k) from the levels without spelling.
    Every reader must give what the reference loop gives, read first on a
    fresh result or after the lists are spelled."""

    READERS = {
        "requests_used": lambda r: r.requests_used,
        "recovered": lambda r: r.recovered,
        "frontier_exhausted": lambda r: r.frontier_exhausted,
        "request_log": lambda r: r.request_log,
        "requested": lambda r: r.requested,
        "served": lambda r: r.served,
        "to_json": lambda r: r.to_json(),
    }
    # the readers an unbudgeted eval makes, which spell nothing
    COUNTING = {"requests_used", "recovered", "frontier_exhausted"}
    # the walk's cases are named by the cut alone, the heap loop's by both
    CASES = [
        pytest.param(loop, cut, id=cut if loop == "walk" else f"{loop}-{cut}")
        for loop in ("walk", "heap")
        for cut in ("none", "stats", "fallback", "max_depth")
    ]

    @staticmethod
    def wanted(run):
        """What each reader gives for a ReferenceRun, and how many texts its
        first k requests recovered for k from 0 to one past its requests."""
        requested = [p for p, _ in run.request_log]
        want = {
            "requests_used": len(requested),
            "recovered": run.recovered,
            "frontier_exhausted": run.frontier_exhausted,
            "request_log": run.request_log,
            "requested": requested,
            "served": run.served,
            "to_json": json.dumps(
                {
                    "recovered": sorted(run.recovered),
                    "requests_used": len(requested),
                    "request_log": [[p, c] for p, c in run.request_log],
                    "frontier_exhausted": run.frontier_exhausted,
                },
                sort_keys=True,
            ),
        }
        return want, run.recovered_counts + [len(run.recovered)]

    @staticmethod
    def aborting(oracle, fail_at):
        """The oracle, refusing every request after its first fail_at."""
        calls = []

        def refusing(prefix):
            if len(calls) == fail_at:
                raise RuntimeError(f"refused {prefix!r}")
            calls.append(prefix)
            return oracle(prefix)

        return refusing

    @pytest.fixture(scope="class")
    def histories(self, wordlist):
        return list(gen_synthetic(3, (60, 200), 0.8, wordlist, seed=48).values())

    @pytest.mark.parametrize("loop, cut", CASES)
    def test_every_reader_in_any_order(self, wordlist, histories, monkeypatch, loop, cut):
        plan = build_plan(wordlist, 0.9)
        deepest_stats = max(plan.stats_by_length)
        spelled = []
        spell = attack._spell
        monkeypatch.setattr(
            attack, "_spell", lambda *args: spelled.append(args) or spell(*args)
        )
        shapes = set()
        for hist in histories:
            oracle = SuggestIndex(hist) if loop == "walk" else bisect_oracle(hist)
            full = reference_reconstruct(bisect_oracle(hist), AttackConfig(plan=plan))
            lengths = [len(p) for p, _ in full.request_log]
            stats_end = sum(n <= deepest_stats for n in lengths)
            budget, max_depth = {
                "none": (None, None),
                "stats": (stats_end // 2, None),
                # one past the stats levels, inside the first fallback level
                "fallback": (stats_end + 1, None),
                "max_depth": (None, deepest_stats + 1),
            }[cut]
            config = AttackConfig(plan=plan, budget=budget, max_depth=max_depth)
            run = reference_reconstruct(bisect_oracle(hist), config)
            want, counts = self.wanted(run)
            # whether the run ran out, ended past the stats levels, and is
            # shorter than the full run
            asked = list(map(len, want["requested"]))
            shapes.add((run.frontier_exhausted, asked[-1] > deepest_stats, asked != lengths))
            # a walk spells when read; the heap loop never spells
            lazy = loop == "walk"
            for name, read in self.READERS.items():
                result = reconstruct(oracle, config)
                assert type(result) is ReconstructionResult
                del spelled[:]
                assert read(result) == want[name], name
                assert len(spelled) == (lazy and name not in self.COUNTING), name
                assert result.requested == want["requested"]
                assert read(result) == want[name], name
                assert len(spelled) <= lazy
            used = want["requests_used"]
            for k in range(used + 2):
                result = reconstruct(oracle, config)
                del spelled[:]
                assert result.recovered_after(k) == counts[k]
                assert not spelled
            assert result.requested == want["requested"]
            assert [result.recovered_after(k) for k in range(used + 2)] == counts
            assert len(spelled) <= lazy
            if loop == "heap":
                # an abort midway leaves the same class, its readers agreeing
                fail_at = used // 2
                with pytest.raises(ReconstructionAborted) as exc_info:
                    reconstruct(self.aborting(oracle, fail_at), config)
                partial = exc_info.value.partial
                assert type(partial) is ReconstructionResult
                assert partial.requests_used == len(partial.requested) == fail_at
                assert partial.recovered == set().union(*partial.served.values())
                assert partial.requested == want["requested"][:fail_at]
                assert partial.recovered_after(fail_at) == counts[fail_at]
                assert not partial.frontier_exhausted
        assert shapes == {
            {
                "none": (True, True, False),
                "stats": (False, False, True),
                "fallback": (False, True, True),
                "max_depth": (True, True, True),
            }[cut]
        }


class TestRecoveredWithin:
    """_recovered_within reads the texts served by a walk's first k requests
    off its kept levels. At every k it must give what the spelled request
    list and served texts give."""

    @pytest.fixture(scope="class")
    def plans(self, wordlist):
        two = build_plan(wordlist, 0.9)
        return {
            "two": two,
            "three": build_plan(wordlist, 0.9, lengths=(2, 3, 4)),
            # a fallback parent can end in a space, and asks no space after it
            "spaced": remade(two, unigram_order=two.unigram_order + " "),
        }

    @pytest.fixture(scope="class")
    def words(self, wordlist):
        # queries under a few prefixes, so that runs descend past the stats levels
        return [w for w in wordlist if w[:2] in ("co", "re", "st") and len(w) > 3]

    @staticmethod
    def check(plan, hist, budget, max_depth, threshold):
        """Compares at every k from 0 to two past the requests the levels
        hold; gives the run's shape: its number of stats levels, whether it
        asked past them, whether a fallback parent ended in a space, and
        whether the budget cut it."""
        config = AttackConfig(
            plan=plan, budget=budget, max_depth=max_depth, descent_threshold=threshold
        )
        result = reconstruct(SuggestIndex(hist), config)
        order, levels = result._within.args
        # the levels asked prefixes past a cut too
        requested, served = attack._spell(order, levels, sys.maxsize)
        want = set()
        for k, prefix in enumerate(requested + ["", ""]):
            assert attack._recovered_within(order, levels, k) == want, k
            want.update(served.get(prefix, ()))
        stats = [prefixes for stats_level, prefixes, _, _ in levels if stats_level]
        parents = [p for stats_level, prefixes, _, _ in levels if not stats_level for p in prefixes]
        assert len(requested) >= result.requests_used
        return (
            len(stats),
            len(requested) > sum(map(len, stats)),
            any(p[-1] == " " for p in parents),
            not result.frontier_exhausted,
        )

    @given(
        name=st.sampled_from(["two", "three", "spaced"]),
        seed=st.integers(0, 2**16),
        budget=st.one_of(st.none(), st.integers(1, 600)),
        max_depth=st.sampled_from([None, 3, 4, 5]),
        threshold=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_spelled_lists(self, plans, words, name, seed, budget, max_depth, threshold):
        hist = messy_history(random.Random(seed), words, 120, "u")
        self.check(plans[name], hist, budget, max_depth, threshold)

    def test_every_shape_is_met(self, plans, words):
        shapes = set()
        for name, seed, budget, max_depth in itertools.product(
            plans, range(3), [None, 60, 300], [None, 4]
        ):
            hist = messy_history(random.Random(seed), words, 120, "u")
            shape = self.check(plans[name], hist, budget, max_depth, 2)
            shapes.add((name, *shape))
        # 2 and 3 stats levels, with and without the space: uncut, cut inside
        # a fallback level, and cut inside the stats levels
        for name, levels in [("two", 2), ("three", 3), ("spaced", 2)]:
            met = {(s[2], s[4]) for s in shapes if s[:2] == (name, levels)}
            assert met >= {(True, False), (True, True), (False, True)}, name
        assert any(s[0] == "spaced" and s[3] for s in shapes)

    def test_children_of_a_parent_ending_in_a_space(self, plans):
        # "con " is saturated past the stats levels, and its children serve
        # what it does not, each at its place in spaceless
        hist = SearchHistory(user_id="u")
        for i, query in enumerate(f"con {c}{d}" for c in "wxyz" for d in "ab"):
            hist.insert_search(query, i, "http://example.com/")
        used = reconstruct(SuggestIndex(hist), AttackConfig(plan=plans["spaced"])).requests_used
        # uncut, and cut inside the level of its children
        for budget in (None, used - 20):
            assert self.check(plans["spaced"], hist, budget, None, 3)[2:] == (True, budget is not None)


def messy_history(rng, words, n, user_id):
    """A history decoded from a record whose queries are not normalized: some
    hold a double space, capitals or trailing spaces."""
    entries = []
    for _ in range(n):
        query = rng.choice(words)
        k = rng.randrange(2, len(query) + 1)
        query = rng.choice([
            query,
            query[:k] + "  " + query[k:],
            query[:k] + " " + query[k:],
            query[:k] + query[k:].upper(),
            query + " " * rng.randint(1, 3),
        ])
        time = rng.randint(1, 10**6)
        entries.append({
            "query": query, "clicked": rng.random() < 0.9, "first_time": time,
            "last_time": time, "count": rng.randint(1, 5),
        })
    return SearchHistory.from_dict({"user_id": user_id, "history_enabled": True, "entries": entries})


def test_fallback_on_histories_not_normalized(wordlist, monkeypatch):
    # unigram_order with the space, so that a fallback parent can end in one
    plan = build_plan(wordlist, 0.9)
    plan = remade(plan, unigram_order=plan.unigram_order + " ")
    keys = []  # the keys of each level pass past the stats levels
    level_pass = attack._groups

    def recorded(queries, n):
        groups = level_pass(queries, n)
        keys.extend(groups if n > max(plan.stats_by_length) else ())
        return groups

    monkeypatch.setattr(attack, "_groups", recorded)
    rng = random.Random(8)
    words = [w for w in wordlist if w[:2] in ("co", "re") and len(w) > 3]
    cut_inside = 0
    for hist in [messy_history(rng, words, 150, f"u{k}") for k in range(3)]:
        index, reference = SuggestIndex(hist), bisect_oracle(hist)
        for threshold, max_depth in itertools.product([2, 3], [None, 5]):
            config = AttackConfig(plan=plan, max_depth=max_depth, descent_threshold=threshold)
            lengths = [len(p) for p in reconstruct(index, config).requested]
            # each fallback level's first, second, middle and last request,
            # and the one after it
            starts = [
                i for i, m in enumerate(lengths)
                if m > max(plan.stats_by_length) and m != lengths[i - 1]
            ]
            budgets = {None}
            for start, end in zip(starts, starts[1:] + [len(lengths)]):
                budgets |= {start + 1, start + 2, (start + end) // 2, end, end + 1}
                cut_inside += start + 2 < end
            for budget in budgets:
                config = AttackConfig(
                    plan=plan, budget=budget, max_depth=max_depth, descent_threshold=threshold
                )
                got = run_outcome(reconstruct, index, config)
                assert got == run_outcome(reference_reconstruct, reference, config)
                # a fallback never appends a space to a parent ending in one
                assert not any("  " in p for p in got[1])
    # the level passes met both kinds of key the fallback never asks
    assert any(p.endswith("  ") for p in keys)
    assert any(p[-1] not in plan.unigram_order for p in keys)
    assert cut_inside


def with_count_above_parent(d):
    stats2, stats3 = d["stats"]["2"], d["stats"]["3"]
    child = max(stats3, key=stats3.get)
    stats3[child] = stats2[child[:2]] + 1


def heap_loop_plans(wordlist):
    """Saved plans, each edited one way: nine lose a fixed request order, so
    no plan is made of them, and two hold a repeat, which the plan drops."""
    base = build_plan(wordlist, 0.9).to_dict()

    def changed(change):
        d = copy.deepcopy(base)
        change(d)
        return d

    return {
        "count-above-parent": changed(with_count_above_parent),
        "mixed-seed-lengths": changed(lambda d: d["seeds"].append("the")),
        "duplicate-seed": changed(lambda d: d["seeds"].append(d["seeds"][3])),
        "repeated-unigram": changed(lambda d: d.update(unigram_order=d["unigram_order"] + "e")),
        "lengths-2-4": changed(lambda d: (
            d["stats"].pop("3"), d["stats"].update({"4": dict(build_stats(wordlist, 4))})
        )),
        "negative-count": changed(lambda d: d["stats"]["2"].update(qz=-1)),
        "key-longer-than-level": changed(lambda d: d["stats"]["2"].update(abc=0)),
        # the oracle refuses ZZ, and every fallback child ending in "-"
        "unserved-seed": changed(lambda d: d["seeds"].append("ZZ")),
        "unserved-unigram": changed(lambda d: d.update(unigram_order=d["unigram_order"] + "-")),
        "no-stats": changed(lambda d: d.update(stats={})),
        "stats-past-seeds": changed(lambda d: (d["stats"].pop("2"), d["selected"].pop("2"))),
    }


def plan_problems(plans):
    """What each of heap_loop_plans is refused for, as "field: problem"; None
    where a plan is made."""
    stats3 = plans["count-above-parent"]["stats"]["3"]
    child = max(stats3, key=stats3.get)
    seed = plans["stats-past-seeds"]["seeds"][0]
    return {
        "count-above-parent": f"stats.3.{child}: {stats3[child]} is above the count of "
        f"{child[:2]!r}",
        "mixed-seed-lengths": "seeds: 'the' is not 2 characters long",
        # the plan keeps the first of each repeat
        "duplicate-seed": None,
        "repeated-unigram": None,
        "lengths-2-4": "stats: lengths [2, 4] are not contiguous",
        "negative-count": "stats.2.qz: -1 is negative",
        "key-longer-than-level": "stats.2: 'abc' is not 2 characters long",
        "unserved-seed": "seeds: 'ZZ' is not normalized",
        "unserved-unigram": "unigram_order: '-' is not in the query alphabet "
        f"{FULL_ALPHABET!r}",
        "no-stats": "stats: empty",
        "stats-past-seeds": f"seeds: {seed!r} is not 3 characters long",
    }


class TestHeapLoopPlans:
    @pytest.fixture(scope="class")
    def histories(self, wordlist):
        return list(gen_synthetic(4, (5, 200), 0.7, wordlist, seed=34).values())

    @pytest.mark.parametrize(
        "name",
        [
            "count-above-parent",
            "mixed-seed-lengths",
            "duplicate-seed",
            "repeated-unigram",
            "lengths-2-4",
            "negative-count",
            "key-longer-than-level",
            "unserved-seed",
            "unserved-unigram",
            "no-stats",
            "stats-past-seeds",
        ],
    )
    def test_no_fixed_order_and_same_run(self, wordlist, histories, name):
        # the constructor, from_dict and remade each refuse a plan with no
        # fixed order; the rest walk as the heap loop runs
        plans = heap_loop_plans(wordlist)
        d = plans[name]
        fields = dict(
            seeds=d["seeds"],
            stats_by_length={int(n): counts for n, counts in d["stats"].items()},
            unigram_order=d["unigram_order"],
            selected_by_length={int(n): sel for n, sel in d["selected"].items()},
        )
        base = build_plan(wordlist, 0.9)
        makers = [
            lambda: PrefixPlan.from_dict(d),
            lambda: PrefixPlan(mass_fraction=0.9, alphabet=d["alphabet"], **fields),
            lambda: remade(base, **fields),
        ]
        problem = plan_problems(plans)[name]
        if problem is not None:
            for make in makers:
                with pytest.raises(InputError) as exc_info:
                    make()
                assert str(exc_info.value) == problem
            return
        plan, *others = [make() for make in makers]
        assert others == [plan, plan] and plan == base
        for threshold, max_depth, budget in itertools.product([1, 3], [None, 3], [None, 60]):
            config = AttackConfig(
                plan=plan, budget=budget, max_depth=max_depth, descent_threshold=threshold
            )
            for hist in histories:
                reference = bisect_oracle(hist)
                got = run_outcome(reconstruct, SuggestIndex(hist), config)
                assert got == run_outcome(reference_reconstruct, reference, config)
                assert got == run_outcome(reconstruct, reference, config)
                assert got[5] is None

    def test_which_loaded_plans_take_the_heap_loop(self, tmp_path, wordlist):
        # none: a plan file loads, and walks, or is refused, naming what
        # would cost it a fixed order
        path = tmp_path / "plan.json"
        plans = heap_loop_plans(wordlist)
        outcomes = {}
        for name, d in plans.items():
            path.write_text(json.dumps(d))
            try:
                PrefixPlan.load(path)
                outcomes[name] = None
            except InputError as exc:
                outcomes[name] = str(exc).removeprefix(f"{path}: ")
        assert outcomes == plan_problems(plans)

    def test_the_bundled_plan_has_a_fixed_order(self, wordlist):
        plan = PrefixPlan.from_dict(build_plan(wordlist, 0.9).to_dict())
        rank = plan.walk_order.rank
        assert sorted(rank, key=rank.get) == sorted(
            rank, key=lambda p: (-stats_count(plan, p), len(p), p)
        )
        assert set(plan.seeds) <= set(rank)


@st.composite
def plan_edits(draw, base):
    """The saved plan base after one to three random edits of its seeds,
    counts, stats lengths or unigram_order, each of which may or may not
    cost it a fixed request order."""
    d = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        stats = d["stats"]
        edit = draw(st.sampled_from(
            ["seed", "drop-seeds", "count", "drop-level", "add-level", "unigram"]
        ))
        if edit == "seed":
            d["seeds"].append(draw(st.one_of(
                st.sampled_from(["qz", "th", "the", "q", "ZZ"]), st.text("abq ", max_size=3)
            )))
        elif edit == "drop-seeds":
            del d["seeds"][: draw(st.integers(0, len(d["seeds"])))]
        elif edit == "count" and stats:
            n = draw(st.sampled_from(sorted(stats)))
            prefix = draw(st.one_of(
                st.sampled_from(sorted(stats[n]) or ["ab"]),
                st.text("abq", min_size=int(n), max_size=int(n)),
            ))
            stats[n][prefix] = draw(st.integers(-2, 5000))
        elif edit == "drop-level" and stats:
            del stats[draw(st.sampled_from(sorted(stats)))]
        elif edit == "add-level" and stats:
            # one level deeper, each count at most its parent's
            deepest = max(stats, key=int)
            parents = sorted(stats[deepest], key=stats[deepest].get)[-20:]
            level = {p + c: stats[deepest][p] // 2 for p in parents for c in "ae"}
            stats[str(int(deepest) + 1)] = level
            d["selected"][str(int(deepest) + 1)] = sorted(level)
        elif edit == "unigram":
            order = d["unigram_order"]
            d["unigram_order"] = draw(st.sampled_from(
                [order + "e", order + "-", order + " ", order[::-1], order[:5], ""]
            ))
    return d


class TestLoadedPlansWalk:
    @pytest.fixture(scope="class")
    def histories(self, wordlist):
        return list(gen_synthetic(2, (5, 200), 0.7, wordlist, seed=35).values())

    @pytest.fixture(scope="class")
    def base(self, wordlist):
        return build_plan(wordlist, 0.9).to_dict()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_loaded_plan_has_a_rank_and_the_same_run(self, histories, base, data):
        d = data.draw(plan_edits(base))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plan.json"
            path.write_text(json.dumps(d))
            try:
                plan = PrefixPlan.load(path)
            except InputError as exc:
                assert str(exc).startswith(f"{path}: ")
                return
        for budget, threshold in ((None, 3), (60, 2)):
            config = AttackConfig(plan=plan, budget=budget, descent_threshold=threshold)
            for hist in histories:
                got = run_outcome(reconstruct, SuggestIndex(hist), config)
                assert got == run_outcome(reference_reconstruct, bisect_oracle(hist), config)
                assert got[5] is None


class TestProperties:
    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_precision_exactly_one(self, seed):
        from historiographer.planner import bundled_wordlist

        vocab = bundled_wordlist()[:300]
        rng = random.Random(seed)
        hist = random_history(rng, vocab, max_entries=60)
        plan = build_plan(vocab, 0.9, alphabet=FULL_ALPHABET)
        result = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        clicked = set(hist.clicked_queries())
        assert result.recovered <= clicked

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_budget_monotonicity(self, seed):
        from historiographer.planner import bundled_wordlist

        vocab = bundled_wordlist()[:300]
        rng = random.Random(seed)
        hist = random_history(rng, vocab, max_entries=60)
        plan = build_plan(vocab, 0.9, alphabet=FULL_ALPHABET)
        recovered = []
        for budget in (5, 20, 100):
            result = reconstruct(
                make_oracle(hist), AttackConfig(plan=plan, budget=budget)
            )
            recovered.append(result.recovered)
        assert recovered[0] <= recovered[1] <= recovered[2]

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_oracle_equivalence_with_brute_force(self, seed):
        from historiographer.planner import bundled_wordlist

        vocab = bundled_wordlist()[:200]
        rng = random.Random(seed)
        hist = random_history(rng, vocab, max_entries=50)
        plan = build_plan(vocab, 1.0, alphabet=FULL_ALPHABET)
        result = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        assert result.recovered == brute_force_recoverable(hist)

    def test_non_destructive(self, wordlist, rng):
        hist = random_history(rng, wordlist, max_entries=60)
        snapshot = copy.deepcopy(hist.to_dict())
        plan = build_plan(wordlist, 0.9)
        reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        assert hist.to_dict() == snapshot

    def test_deterministic_request_log(self, wordlist):
        rng = random.Random(99)
        hist = random_history(rng, wordlist, max_entries=60)
        plan = build_plan(wordlist, 0.9)
        a = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        b = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        assert a.request_log == b.request_log
        assert a.to_json() == b.to_json()


class TestScore:
    def test_table_rows(self):
        from historiographer.attack import format_recall

        assert format_recall(compute_recall(442, 308)) == "0.69"
        assert format_recall(compute_recall(127, 69)) == "0.54"

    def test_zero_clicked_convention(self):
        assert compute_recall(0, 0) == 0.0

    def test_score_fields(self):
        hist = SearchHistory(user_id="u9")
        hist.insert_search("privacy", 100, "http://privacy.org")
        hist.insert_search("pets 10", 120)
        plan = build_plan(["privacy", "pets 10"], 1.0, alphabet=FULL_ALPHABET)
        result = reconstruct(make_oracle(hist), AttackConfig(plan=plan))
        report = score(result, hist)
        assert report.user_id == "u9"
        assert report.n_h == 2
        assert report.n_c == 1
        assert report.n_s == 1
        assert report.recall == 1.0
        assert report.n_requests == result.requests_used

    def test_csv_row_rounding(self):
        from historiographer.attack import RecallReport

        report = RecallReport("u1", 751, 442, 308, 308 / 442, 680)
        assert report.csv_row() == ["u1", "751", "442", "308", "0.69", "680"]
